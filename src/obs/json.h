#ifndef NTW_OBS_JSON_H_
#define NTW_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ntw::obs {

/// Minimal streaming JSON emitter used by the observability exports
/// (--metrics-json, --trace) and the bench artifacts. Commas and nesting
/// are handled by an internal container stack; keys must be supplied for
/// object members and must not be supplied inside arrays. Output is
/// deterministic: the caller controls member order and doubles are
/// formatted with a fixed `%.10g` so identical inputs always serialize to
/// identical bytes.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits the key of the next object member.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Splices pre-serialized object members into the current object. The
  /// fragment must be the exact bytes this writer would have produced for
  /// the same members (callers build it once with a scratch JsonWriter and
  /// memoize it — see WrapperRepository's per-entry response prefix).
  void RawMembers(std::string_view members);

  /// Pre-sizes the output buffer when the caller can bound the document.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  /// Convenience: Key(name) + the value.
  void KV(std::string_view name, std::string_view value);
  void KV(std::string_view name, const char* value);
  void KV(std::string_view name, int64_t value);
  void KV(std::string_view name, double value);
  void KV(std::string_view name, bool value);

  /// The serialized document. The writer must be back at top level (every
  /// container closed).
  std::string Take();

  /// Appends a JSON-escaped rendering of `value` (without quotes) to out.
  static void Escape(std::string_view value, std::string* out);

 private:
  void BeforeValue();

  std::string out_;
  // One frame per open container: true = object, false = array.
  std::vector<bool> stack_;
  // Whether the current container already holds a member (comma needed).
  std::vector<bool> has_member_;
  bool pending_key_ = false;
};

}  // namespace ntw::obs

#endif  // NTW_OBS_JSON_H_
