#ifndef NTW_HTML_TOKENIZER_H_
#define NTW_HTML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace ntw::html {

/// Lexical token kinds emitted by the tokenizer.
enum class TokenKind {
  kStartTag,
  kEndTag,
  kText,
  kComment,
  kDoctype,
};

/// One lexical token. Tag names and attribute names are lowercased;
/// attribute values and text have character references decoded.
///
/// `attrs` is meaningful only for kStartTag. The streaming loop reuses the
/// caller's Token — its strings keep their capacity, so steady-state
/// tokenization allocates nothing — which means other token kinds may leave
/// stale attrs from an earlier tag in place rather than clearing them.
struct Token {
  TokenKind kind;
  std::string data;  // Tag name, text content, or comment body.
  std::vector<std::pair<std::string, std::string>> attrs;
  bool self_closing = false;
};

/// Streaming HTML tokenizer with tag-soup tolerance: stray '<' characters
/// that do not begin a tag are treated as text, unterminated tags are closed
/// at end of input, attribute values may be double-quoted, single-quoted or
/// bare, and raw-text elements (<script>, <style>, <textarea>) have their
/// contents consumed as one undecoded text token. Tag names, attributes and
/// raw-text ends are lexed by the grammar in html/scan.h.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view input) : input_(input) {}

  /// Tokenizes the whole input in one call.
  std::vector<Token> TokenizeAll();

  /// Produces the next token; returns false at end of input.
  bool Next(Token* token);

 private:
  bool LexTag(Token* token);
  void LexAttributes(Token* token);

  std::string_view input_;
  size_t pos_ = 0;
  // When non-empty, the tokenizer is inside a raw-text element and the next
  // Next() call returns its contents.
  std::string raw_text_tag_;
};

}  // namespace ntw::html

#endif  // NTW_HTML_TOKENIZER_H_
