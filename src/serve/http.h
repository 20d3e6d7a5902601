#ifndef NTW_SERVE_HTTP_H_
#define NTW_SERVE_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ntw::serve {

/// One parsed HTTP/1.1 request. Header names are lowercased; the query
/// string is split and percent-decoded. `keep_alive` reflects the
/// HTTP/1.1 default adjusted by a `Connection: close` header (HTTP/1.0
/// requests default to close).
///
/// Headers and query parameters are flat (name, value) lists — both hold a
/// handful of entries, so a linear scan beats a node-based map and the
/// parser can reuse the slots' string capacity across keep-alive requests.
/// Names are unique (a repeated name overwrites the earlier value, the same
/// last-wins semantics a map assignment had).
struct HttpRequest {
  std::string method;  // As sent, e.g. "GET" / "POST".
  std::string target;  // Raw request target, e.g. "/extract?site=x".
  std::string path;    // Decoded path before '?'.
  std::vector<std::pair<std::string, std::string>> query;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  /// Query parameter value, or "" when absent.
  std::string QueryParam(std::string_view name) const;

  /// Header value by lowercased name, or nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// A response under construction. Serialization adds Content-Length and
/// Connection headers; no Date header is emitted so that responses are
/// byte-deterministic functions of the request (the serve tests replay
/// concurrent traffic against a serial baseline).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Canonical reason phrase for the status codes the server emits.
const char* ReasonPhrase(int status);

/// A JSON error body ({"schema":"ntw-serve-error","status":...,
/// "error":...}) with the matching HTTP status — shared by the endpoint
/// logic and the server's transport-level rejections (413/431/503/...).
HttpResponse ErrorResponse(int status, const std::string& message);

/// Serializes status line + headers + body into raw wire bytes.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Appends just the status line + headers (through the final CRLF CRLF)
/// to `*out` without clearing it — the server batches pipelined responses
/// by serializing each one onto the connection's wire buffer, and reuses
/// that buffer's capacity across keep-alive responses. The body is
/// appended after the head.
void SerializeResponseHead(const HttpResponse& response, bool keep_alive,
                           std::string* out);

/// Percent-decodes a URL component ('+' becomes a space; malformed %
/// escapes are kept literally — the server is lenient on input it only
/// uses for repository lookups that will simply miss).
std::string UrlDecode(std::string_view s);

/// Appends the decoded form to `*out` without clearing it; UrlDecode minus
/// the allocation, so the parser can decode into reused buffers.
void UrlDecodeTo(std::string_view s, std::string* out);

/// Size limits enforced while parsing (see ServerOptions).
struct HttpLimits {
  size_t max_header_bytes = 64 * 1024;
  size_t max_body_bytes = 8 * 1024 * 1024;
};

/// Incremental HTTP/1.1 request parser: feed the connection's receive
/// buffer, get back the parse phase. Consumed bytes are tracked by an
/// internal offset into the buffer and compacted lazily, so a deeply
/// pipelined connection never pays a front-erase memmove per request;
/// follow-up requests survive in place. The same buffer must be passed
/// to every Consume call on a parser (one parser per connection). On
/// kError the connection should answer with `error_status()` and close.
class RequestParser {
 public:
  explicit RequestParser(const HttpLimits& limits) : limits_(limits) {}

  enum class Phase {
    kNeedMore,  // Waiting for more bytes.
    kComplete,  // A full request is available via request().
    kError,     // Malformed / over-limit; see error_status().
  };

  /// Consumes as much of `in` as possible and advances the state machine.
  Phase Consume(std::string* in);

  /// The parsed request in place; only valid after kComplete. The server
  /// reads it here and then Reset()s, so the request's buffers (body,
  /// header slots) keep their capacity from request to request.
  const HttpRequest& request() const { return request_; }

  /// True once the header block has been fully parsed.
  bool headers_complete() const { return headers_complete_; }

  /// True when the client sent `Expect: 100-continue` (the server should
  /// emit an interim 100 response before the body arrives).
  bool expects_continue() const { return expects_continue_; }

  /// True once any byte of the current request has been seen — an idle
  /// keep-alive connection (false) can be closed silently on timeout or
  /// shutdown, a mid-request one (true) is a slow-loris timeout.
  bool has_partial_data() const { return saw_bytes_; }

  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// Resets for the next request on the same connection.
  void Reset();

 private:
  Phase Fail(int status, std::string message);
  Phase ParseHeaderBlock(std::string_view block);

  HttpLimits limits_;
  HttpRequest request_;
  bool headers_complete_ = false;
  bool expects_continue_ = false;
  bool saw_bytes_ = false;
  size_t content_length_ = 0;
  // Consumed prefix of the caller's buffer. Survives Reset() — it is
  // connection state, not request state.
  size_t offset_ = 0;
  int error_status_ = 0;
  std::string error_message_;
  Phase phase_ = Phase::kNeedMore;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_HTTP_H_
