#ifndef NTW_HTML_SCAN_H_
#define NTW_HTML_SCAN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/strings.h"

namespace ntw::html::scan {

/// The HTML lexical grammar: how tag names, attributes and raw-text
/// element contents are delimited. The Tokenizer (behind the recovery
/// walk) and StreamPage's raw-byte scanner both lex through these
/// functions, so the two cannot drift apart. Each returns raw byte
/// extents of its input and copies nothing: the Tokenizer copies and
/// decodes what they return, StreamPage validates it and patches in
/// place.
///
/// The scans test bytes against one 256-entry class table, and every
/// function is inline: they run on every tag, attribute and text run of
/// every page, where an out-of-line call per short run costs more than
/// the scan itself.

inline constexpr size_t kNpos = std::string_view::npos;

/// A tag name starts with an ASCII letter (either case; the tokenizer
/// folds it) and continues with ASCII alphanumerics, '-', '_' and ':'.
inline constexpr bool IsTagNameStart(char c) { return IsAsciiAlpha(c); }
inline constexpr bool IsTagNameChar(char c) {
  return IsAsciiAlnum(c) || c == '-' || c == '_' || c == ':';
}

/// Bits of kByteClass, one per byte class the lexer scans for.
enum ByteClass : uint8_t {
  kSpace = 1 << 0,        // ASCII whitespace (IsAsciiSpace).
  kTextSpecial = 1 << 1,  // '<', '&' or whitespace.
  kWsOrGt = 1 << 2,       // '>' or whitespace.
  kAttrNameEnd = 1 << 3,  // '=', '>', '/' or whitespace.
  kTagName = 1 << 4,      // IsTagNameChar.
  kUpper = 1 << 5,        // 'A'..'Z': the name needs case folding.
};

inline constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    char c = static_cast<char>(i);
    uint8_t bits = 0;
    if (IsAsciiSpace(c)) {
      bits |= kSpace | kTextSpecial | kWsOrGt | kAttrNameEnd;
    }
    if (c == '<' || c == '&') bits |= kTextSpecial;
    if (c == '>') bits |= kWsOrGt | kAttrNameEnd;
    if (c == '=' || c == '/') bits |= kAttrNameEnd;
    if (IsTagNameChar(c)) bits |= kTagName;
    if (c >= 'A' && c <= 'Z') bits |= kUpper;
    table[i] = bits;
  }
  return table;
}();

inline bool InClass(char c, ByteClass cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// The first byte at or after `from` in class `cls`, or kNpos when the
/// rest of `s` has none.
inline size_t Find(std::string_view s, size_t from, ByteClass cls) {
  for (size_t i = from; i < s.size(); ++i) {
    if (InClass(s[i], cls)) return i;
  }
  return kNpos;
}

/// First '<', '&' or whitespace: StreamPage's verbatim-text validator.
inline size_t FindTextSpecial(std::string_view s, size_t from) {
  return Find(s, from, kTextSpecial);
}

/// First '>' or whitespace: ends a bare attribute value.
inline size_t FindWsOrGt(std::string_view s, size_t from) {
  return Find(s, from, kWsOrGt);
}

/// First '=', '>', '/' or whitespace: ends an attribute name.
inline size_t FindAttrNameEnd(std::string_view s, size_t from) {
  return Find(s, from, kAttrNameEnd);
}

/// The first non-whitespace byte at or after `from`, or s.size().
inline size_t SkipWhitespace(std::string_view s, size_t from) {
  while (from < s.size() && InClass(s[from], kSpace)) ++from;
  return from;
}

/// A tag name at [begin, end).
struct TagName {
  size_t end;  // == begin when no name starts at begin.
  bool fold;   // Holds an uppercase byte.
};

/// Lexes the tag name that starts at `begin`, right after "<" or "</".
inline TagName LexTagName(std::string_view in, size_t begin) {
  if (begin >= in.size() || !IsTagNameStart(in[begin])) return {begin, false};
  uint8_t seen = 0;
  size_t p = begin;
  do {
    seen |= kByteClass[static_cast<unsigned char>(in[p])];
    ++p;
  } while (p < in.size() && InClass(in[p], kTagName));
  return {p, (seen & kUpper) != 0};
}

/// One attribute of a start tag, name [ws* '=' ws* value], as raw
/// extents. The value is double-quoted, single-quoted or bare; it is
/// [value_begin, value_end) without its quotes, and empty when the
/// attribute has none.
struct Attribute {
  size_t name_end;  // The name is [start, name_end); empty on a stray '='.
  bool fold;        // The name holds an uppercase byte.
  size_t eq;        // Offset of the '=', or kNpos for a valueless one.
  size_t value_begin;
  size_t value_end;
  size_t end;         // Past the value and its closing quote, if any.
  char quote;         // '"', '\'' or 0 for a bare value or none.
  bool unterminated;  // A quoted value with no closing quote runs to EOF.
};

/// Lexes the attribute whose name starts at `start`, a byte that is not
/// whitespace, '>' or '/'. A name runs to '=', '>', '/' or whitespace; a
/// bare value runs to '>' or whitespace.
inline Attribute LexAttribute(std::string_view in, size_t start) {
  size_t n = in.size();
  uint8_t seen = 0;
  size_t p = start;
  while (p < n && !InClass(in[p], kAttrNameEnd)) {
    seen |= kByteClass[static_cast<unsigned char>(in[p])];
    ++p;
  }
  Attribute attr{p, (seen & kUpper) != 0, kNpos, p, p, p, 0, false};
  if (p == start) return attr;
  size_t eq = SkipWhitespace(in, p);
  if (eq >= n || in[eq] != '=') return attr;
  attr.eq = eq;
  size_t v = SkipWhitespace(in, eq + 1);
  if (v < n && (in[v] == '"' || in[v] == '\'')) {
    attr.quote = in[v];
    attr.value_begin = v + 1;
    size_t close = in.find(attr.quote, v + 1);
    attr.unterminated = close == kNpos;
    attr.value_end = attr.unterminated ? n : close;
    attr.end = attr.unterminated ? n : close + 1;
  } else {
    size_t end = FindWsOrGt(in, v);
    attr.value_begin = v;
    attr.value_end = end == kNpos ? n : end;
    attr.end = attr.value_end;
  }
  return attr;
}

/// The raw-text elements: their content is not lexed as markup (nor
/// entity-decoded) up to their end tag. `tag` is lowercase.
inline bool IsRawTextTag(std::string_view tag) {
  return tag == "script" || tag == "style" || tag == "textarea";
}

/// The "</tag" that ends raw-text element `tag` (lowercase) whose content
/// starts at `from`, or kNpos when the content runs to end of input. The
/// end tag is "</tag" followed by '>', whitespace or end of input, and the
/// search is case-sensitive: "</scriptx>" and "</SCRIPT>" are content.
inline size_t FindRawTextEnd(std::string_view in, size_t from,
                             std::string_view tag) {
  for (size_t p = in.find("</", from); p != kNpos; p = in.find("</", p + 2)) {
    size_t after = p + 2 + tag.size();
    if (in.compare(p + 2, tag.size(), tag) == 0 &&
        (after >= in.size() || in[after] == '>' || InClass(in[after], kSpace))) {
      return p;
    }
  }
  return kNpos;
}

}  // namespace ntw::html::scan

#endif  // NTW_HTML_SCAN_H_
