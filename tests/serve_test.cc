// End-to-end tests for the serving subsystem: a real HttpServer bound to
// an ephemeral port, driven by a raw-socket client so the wire behavior
// (status lines, framing, connection lifecycle) is what is asserted, not
// any client library's interpretation of it. Covers the happy paths, the
// production concerns (413, slow-loris timeout, a deep pipelined window
// through a full socket, graceful drain) and the determinism contract:
// concurrent load replays byte-identically to a serial baseline.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"

namespace ntw::serve {
namespace {

using std::chrono::milliseconds;

// Server counters are sharded (per-reactor stripes); value() is the
// merged total across shards.
int64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetShardedCounter(name)->value();
}

// ---------------------------------------------------------------------
// Raw-socket client helpers.
// ---------------------------------------------------------------------

class Client {
 public:
  /// A positive `receive_buffer_bytes` sets SO_RCVBUF before connecting
  /// (the window scale is negotiated at connect time).
  explicit Client(int port, int receive_buffer_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (receive_buffer_bytes > 0) {
      EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF,
                             &receive_buffer_bytes,
                             sizeof(receive_buffer_bytes)),
                0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    EXPECT_EQ(rc, 0) << "connect: " << std::strerror(errno);
  }

  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads exactly one HTTP response (headers + Content-Length body) off
  /// the connection and returns its raw bytes; "" on close/error.
  std::string ReadResponse() {
    while (true) {
      size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        size_t body_start = header_end + 4;
        size_t content_length = ContentLengthOf(buffer_.substr(0, body_start));
        // An interim 100 Continue has no body; return it as-is.
        size_t total = body_start + content_length;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the server closed the connection (EOF after any buffered
  /// bytes are drained).
  bool WaitForClose() {
    char chunk[4096];
    while (true) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  int fd() const { return fd_; }

 private:
  static size_t ContentLengthOf(const std::string& headers) {
    // Lower-case scan; test-only leniency.
    std::string lowered = headers;
    for (char& c : lowered) c = static_cast<char>(tolower(c));
    size_t pos = lowered.find("content-length:");
    if (pos == std::string::npos) return 0;
    return static_cast<size_t>(
        std::strtoul(lowered.c_str() + pos + 15, nullptr, 10));
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string ExtractRequest(const std::string& site, const std::string& attr,
                           const std::string& html, bool close = false) {
  std::string request = "POST /extract?site=" + site + "&attribute=" + attr +
                        " HTTP/1.1\r\nHost: test\r\nContent-Length: " +
                        std::to_string(html.size()) + "\r\n";
  if (close) request += "Connection: close\r\n";
  return request + "\r\n" + html;
}

std::string GetRequest(const std::string& path, bool close = false) {
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: test\r\n";
  if (close) request += "Connection: close\r\n";
  return request + "\r\n";
}

// ---------------------------------------------------------------------
// Server harness: Bind() + Run() on a background thread.
// ---------------------------------------------------------------------

class TestServer {
 public:
  /// `configure` runs after Bind() and before Run() — the window where
  /// reload/tick hooks may be installed.
  TestServer(ServerOptions options, HttpServer::Handler handler,
             std::function<void(HttpServer&)> configure = nullptr)
      : server_(std::move(options), std::move(handler)) {
    bound_ = server_.Bind();
    if (configure) configure(server_);
    if (bound_.ok()) {
      thread_ = std::thread([this] { run_status_ = server_.Run(); });
    }
  }

  ~TestServer() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_.RequestShutdown();
      thread_.join();
    }
  }

  HttpServer& server() { return server_; }
  const Status& bound() const { return bound_; }
  const Status& run_status() const { return run_status_; }
  int port() const { return server_.port(); }

 private:
  HttpServer server_;
  Status bound_;
  Status run_status_;
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Fixture: a wrapper repository on disk + a served ExtractService.
// ---------------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  static std::string MakeRoot() {
    return ::testing::TempDir() + "ntw_serve_test_" +
           std::to_string(::getpid());
  }

  ServeTest() : root_(MakeRoot()), repository_(root_) {
    std::filesystem::remove_all(root_);
    EXPECT_TRUE(MakeDirs(root_ + "/example.com").ok());
    EXPECT_TRUE(WriteFile(root_ + "/example.com/name.wrapper",
                          "XPATH\t//li/text()\n")
                    .ok());
    EXPECT_TRUE(repository_.Load().ok());
  }

  ~ServeTest() override { std::filesystem::remove_all(root_); }

  /// Starts a served ExtractService; the caller owns the TestServer.
  /// `pool` (may be null) is the service's /extract_batch fan-out pool;
  /// the server handles every request inline on its reactor either way.
  std::unique_ptr<TestServer> StartService(
      ServerOptions options, ThreadPool* pool,
      std::function<void(HttpServer&)> configure = nullptr) {
    service_ = std::make_unique<ExtractService>(&repository_, pool);
    auto server = std::make_unique<TestServer>(
        options,
        [this](const HttpRequest& request) {
          return service_->Handle(request);
        },
        std::move(configure));
    EXPECT_TRUE(server->bound().ok()) << server->bound().ToString();
    return server;
  }

  std::string root_;
  WrapperRepository repository_;
  std::unique_ptr<ExtractService> service_;
};

// ---------------------------------------------------------------------
// Happy paths.
// ---------------------------------------------------------------------

TEST_F(ServeTest, HealthzExtractAndMetrics) {
  int64_t requests_before = CounterValue("ntw.serve.requests");
  auto server = StartService(ServerOptions{}, nullptr);

  Client client(server->port());
  ASSERT_TRUE(client.Send(GetRequest("/healthz")));
  std::string health = client.ReadResponse();
  EXPECT_NE(health.find("HTTP/1.1 200 OK\r\n"), std::string::npos) << health;
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  ASSERT_TRUE(client.Send(ExtractRequest(
      "example.com", "name", "<ul><li>alpha</li><li>beta</li></ul>")));
  std::string extract = client.ReadResponse();
  EXPECT_NE(extract.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(extract.find("\"schema\":\"ntw-serve-extract\""),
            std::string::npos)
      << extract;
  EXPECT_NE(extract.find("\"values\":[\"alpha\",\"beta\"]"),
            std::string::npos)
      << extract;

  ASSERT_TRUE(client.Send(GetRequest("/metrics", /*close=*/true)));
  std::string metrics = client.ReadResponse();
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(metrics.find("\"schema\":\"ntw-metrics\""), std::string::npos);
  EXPECT_NE(metrics.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(client.WaitForClose());

  server->Stop();
  EXPECT_TRUE(server->run_status().ok());
  // Three fully parsed requests were handled, exactly.
  EXPECT_EQ(CounterValue("ntw.serve.requests") - requests_before, 3);
}

TEST_F(ServeTest, BatchFanoutPreservesInputOrder) {
  ThreadPool pool(4);
  auto server = StartService(ServerOptions{}, &pool);

  std::string body;
  for (int i = 0; i < 16; ++i) {
    body += "{\"id\":\"p" + std::to_string(i) + "\",\"html\":\"<ul><li>v" +
            std::to_string(i) + "</li></ul>\"}\n";
  }
  std::string request =
      "POST /extract_batch?site=example.com&attribute=name HTTP/1.1\r\n"
      "Host: test\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;

  Client client(server->port());
  ASSERT_TRUE(client.Send(request));
  std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/x-ndjson\r\n"),
            std::string::npos);
  for (int i = 0; i < 16; ++i) {
    std::string line = "{\"index\":" + std::to_string(i) + ",\"id\":\"p" +
                       std::to_string(i) + "\",\"values\":[\"v" +
                       std::to_string(i) + "\"]}";
    EXPECT_NE(response.find(line), std::string::npos) << response;
  }
}

TEST_F(ServeTest, UnknownWrapperAndPathAreClientErrors) {
  auto server = StartService(ServerOptions{}, nullptr);
  Client client(server->port());

  ASSERT_TRUE(client.Send(ExtractRequest("nosite", "name", "<p>x</p>")));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 404 "), std::string::npos);

  ASSERT_TRUE(client.Send(GetRequest("/nope")));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 404 "), std::string::npos);

  // Wrong method on an endpoint.
  ASSERT_TRUE(client.Send(GetRequest("/extract")));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 405 "), std::string::npos);
}

TEST_F(ServeTest, PipelinedRequestsAnswerInOrder) {
  auto server = StartService(ServerOptions{}, nullptr);
  Client client(server->port());
  // Two requests in one write; responses must come back in order.
  ASSERT_TRUE(client.Send(
      ExtractRequest("example.com", "name", "<ul><li>one</li></ul>") +
      ExtractRequest("example.com", "name", "<ul><li>two</li></ul>")));
  EXPECT_NE(client.ReadResponse().find("\"values\":[\"one\"]"),
            std::string::npos);
  EXPECT_NE(client.ReadResponse().find("\"values\":[\"two\"]"),
            std::string::npos);
}

TEST_F(ServeTest, ExpectContinueHandshake) {
  auto server = StartService(ServerOptions{}, nullptr);
  Client client(server->port());
  std::string html = "<ul><li>later</li></ul>";
  ASSERT_TRUE(client.Send(
      "POST /extract?site=example.com&attribute=name HTTP/1.1\r\n"
      "Host: test\r\nExpect: 100-continue\r\nContent-Length: " +
      std::to_string(html.size()) + "\r\n\r\n"));
  std::string interim = client.ReadResponse();
  EXPECT_NE(interim.find("HTTP/1.1 100 Continue\r\n"), std::string::npos)
      << interim;
  ASSERT_TRUE(client.Send(html));
  EXPECT_NE(client.ReadResponse().find("\"values\":[\"later\"]"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Production concerns.
// ---------------------------------------------------------------------

TEST_F(ServeTest, OversizedBodyIsRejectedWith413) {
  int64_t rejected_before = CounterValue("ntw.serve.rejected_too_large");
  ServerOptions options;
  options.limits.max_body_bytes = 64;
  auto server = StartService(options, nullptr);

  Client client(server->port());
  ASSERT_TRUE(client.Send(ExtractRequest("example.com", "name",
                                         std::string(4096, 'x'))));
  std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 413 "), std::string::npos) << response;
  // Parse errors close the connection.
  EXPECT_TRUE(client.WaitForClose());
  EXPECT_EQ(CounterValue("ntw.serve.rejected_too_large") - rejected_before,
            1);
}

TEST_F(ServeTest, SlowLorisIsTimedOutAndClosed) {
  int64_t timeouts_before = CounterValue("ntw.serve.read_timeouts");
  ServerOptions options;
  options.read_timeout_ms = 150;
  auto server = StartService(options, nullptr);

  Client slow(server->port());
  // A partial request that never completes.
  ASSERT_TRUE(slow.Send("POST /extract HTTP/1.1\r\nHost: t"));
  EXPECT_TRUE(slow.WaitForClose());
  EXPECT_EQ(CounterValue("ntw.serve.read_timeouts") - timeouts_before, 1);
}

TEST_F(ServeTest, DeepPipelinedWindowDrainsThroughAFullSocket) {
  // 300 pipelined requests, each answered with 40 KB: the window's
  // responses (12 MB, batched into one write) overflow the socket buffers
  // while the client is not yet reading, so the flush runs through EAGAIN
  // and resumes on POLLOUT, all inside one write deadline.
  constexpr int kRequests = 300;
  constexpr size_t kBodyBytes = 40 * 1024;
  int64_t write_timeouts_before = CounterValue("ntw.serve.write_timeouts");
  TestServer server(ServerOptions{}, [](const HttpRequest& request) {
    // The path repeated: a reordered or torn window cannot match.
    std::string body;
    body.reserve(kBodyBytes + request.path.size() + 1);
    while (body.size() < kBodyBytes) body.append(request.path).append("\n");
    body.resize(kBodyBytes);
    return HttpResponse{200, "text/plain", std::move(body)};
  });
  ASSERT_TRUE(server.bound().ok());
  auto path = [](int i) { return "/big/" + std::to_string(i); };

  std::vector<std::string> serial(kRequests);
  {
    Client client(server.port());
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.Send(GetRequest(path(i))));
      serial[i] = client.ReadResponse();
      ASSERT_NE(serial[i].find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    }
  }

  Client client(server.port(), /*receive_buffer_bytes=*/64 * 1024);
  std::string window;
  for (int i = 0; i < kRequests; ++i) window += GetRequest(path(i));
  ASSERT_TRUE(client.Send(window));
  std::this_thread::sleep_for(milliseconds(200));
  for (int i = 0; i < kRequests; ++i) {
    std::string response = client.ReadResponse();
    // Not ASSERT_EQ: a 40 KB diff would drown the log.
    ASSERT_TRUE(response == serial[i])
        << "response " << i << " differs from its serial response ("
        << response.size() << " vs " << serial[i].size() << " bytes)";
  }
  EXPECT_EQ(CounterValue("ntw.serve.write_timeouts") - write_timeouts_before,
            0);
}

TEST_F(ServeTest, GracefulShutdownAnswersEveryReceivedRequest) {
  // One shard runs one request at a time, so a request that reaches an
  // idle keep-alive connection while the shard is busy waits in the
  // kernel. Shutting down then must read and answer it, not close the
  // connection under it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocked{false};
  TestServer server(ServerOptions{}, [&](const HttpRequest& request) {
    if (request.path == "/block") {
      blocked.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    return HttpResponse{200, "text/plain", "done " + request.path + "\n"};
  });
  ASSERT_TRUE(server.bound().ok());

  // One round trip, then the connection idles on keep-alive.
  Client idle(server.port());
  ASSERT_TRUE(idle.Send(GetRequest("/first")));
  EXPECT_NE(idle.ReadResponse().find("done /first\n"), std::string::npos);

  Client busy(server.port());
  ASSERT_TRUE(busy.Send(GetRequest("/block")));
  while (!blocked.load()) std::this_thread::sleep_for(milliseconds(1));
  // The shard is inside the handler: this request stays in the socket.
  ASSERT_TRUE(idle.Send(GetRequest("/queued")));
  std::this_thread::sleep_for(milliseconds(50));
  server.server().RequestShutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  std::string in_flight = busy.ReadResponse();
  EXPECT_NE(in_flight.find("HTTP/1.1 200 OK\r\n"), std::string::npos)
      << in_flight;
  EXPECT_NE(in_flight.find("done /block\n"), std::string::npos);
  EXPECT_TRUE(busy.WaitForClose());

  std::string queued = idle.ReadResponse();
  EXPECT_NE(queued.find("HTTP/1.1 200 OK\r\n"), std::string::npos)
      << "the queued request was dropped: '" << queued << "'";
  EXPECT_NE(queued.find("Connection: close\r\n"), std::string::npos)
      << queued;
  EXPECT_NE(queued.find("done /queued\n"), std::string::npos);
  EXPECT_TRUE(idle.WaitForClose());

  server.Stop();
  EXPECT_TRUE(server.run_status().ok()) << server.run_status().ToString();
}

// ---------------------------------------------------------------------
// Determinism: concurrent load replays byte-identically to serial.
// ---------------------------------------------------------------------

TEST_F(ServeTest, ConcurrentClientsMatchSerialByteForByte) {
  constexpr int kClients = 8;
  constexpr int kRequests = 25;  // Distinct requests, replayed per client.
  int64_t requests_before = CounterValue("ntw.serve.requests");

  ThreadPool pool(4);
  auto server = StartService(ServerOptions{}, &pool);

  auto request_bytes = [](int i) {
    return ExtractRequest("example.com", "name",
                          "<ul><li>value" + std::to_string(i) +
                              "</li><li>tail</li></ul>");
  };

  // Serial baseline over one keep-alive connection.
  std::vector<std::string> baseline(kRequests);
  {
    Client client(server->port());
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.Send(request_bytes(i)));
      baseline[i] = client.ReadResponse();
      ASSERT_NE(baseline[i].find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    }
  }

  // Concurrent replay: every client sends the same request stream.
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      for (int i = 0; i < kRequests; ++i) {
        if (!client.Send(request_bytes(i))) return;
        got[c].push_back(client.ReadResponse());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<size_t>(kRequests))
        << "client " << c;
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_EQ(got[c][i], baseline[i]) << "client " << c << " request " << i;
    }
  }
  // The request counter accounts for every request issued, exactly.
  EXPECT_EQ(CounterValue("ntw.serve.requests") - requests_before,
            kRequests * (kClients + 1));
}

// ---------------------------------------------------------------------
// Hot reload: a new snapshot serves without restarting.
// ---------------------------------------------------------------------

TEST_F(ServeTest, ReloadPicksUpNewWrappers) {
  auto server = StartService(ServerOptions{}, nullptr,
                             [this](HttpServer& http_server) {
                               http_server.SetReloadHook([this] {
                                 EXPECT_TRUE(repository_.Load().ok());
                               });
                             });

  Client client(server->port());
  ASSERT_TRUE(client.Send(ExtractRequest("example.com", "price",
                                         "<ul><li>9</li></ul>")));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 404 "), std::string::npos);

  ASSERT_TRUE(WriteFile(root_ + "/example.com/price.wrapper",
                        "XPATH\t//li/text()\n")
                  .ok());
  EXPECT_TRUE(repository_.PollForChanges());
  // Record the version before requesting the reload — the hook runs on
  // the event loop and may fire before this thread resumes.
  uint64_t version = repository_.snapshot()->version;
  server->server().RequestReload();
  while (repository_.snapshot()->version == version) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_TRUE(client.Send(ExtractRequest("example.com", "price",
                                         "<ul><li>9</li></ul>")));
  EXPECT_NE(client.ReadResponse().find("\"values\":[\"9\"]"),
            std::string::npos);
}

}  // namespace
}  // namespace ntw::serve
