#ifndef NTW_HTML_RECOVERY_H_
#define NTW_HTML_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "html/tokenizer.h"

namespace ntw::html {

/// Tag-soup recovery: the library's stand-in for the paper's jtidy
/// clean-up, and the only place that turns tokens into a tree shape.
///
///  - A start tag first closes the open elements it implies closed
///    (</li>, </tr>, </td>, </p>, </option>, ... restricted to what
///    listing pages use).
///  - An end tag closes the nearest open element of its name and
///    everything above it, but never reaches past an open <table>. An end
///    tag with no such element is dropped.
///  - Void (<br>, <img>, ...) and self-closing elements take no children.
///  - Elements still open at end of input close there, innermost first.
///  - Comments, doctypes and whitespace-only text are dropped.
///
/// WalkTagSoup applies these rules to the Tokenizer's stream and hands the
/// recovered tree to a visitor as events in document order. The heap DOM
/// builder, the arena DOM builder, StreamPage's flatten and the streaming
/// XPath executor are visitors, so they agree on the tree by construction.
/// StreamPage's raw-byte scanner shares OpenElementStack, which holds the
/// implied-close and end-tag rules.

/// Appends CollapseWhitespace(text) to `out`: runs of ASCII whitespace
/// become one ' ', with none at either end. Returns true when anything
/// was appended, that is, when `text` is not whitespace-only. Every
/// consumer normalizes text nodes through this function; it is inline
/// because StreamPage's scanner calls it for every text run it rewrites.
inline bool AppendCollapsedText(std::string_view text, std::string* out) {
  size_t mark = out->size();
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsAsciiSpace(text[i])) ++i;
    size_t run = i;
    while (run < text.size() && !IsAsciiSpace(text[run])) ++run;
    if (run > i) {
      if (out->size() > mark) out->push_back(' ');
      out->append(text.data() + i, run - i);
      i = run;
    }
  }
  return out->size() > mark;
}

/// The stack of open elements, innermost last.
class OpenElementStack {
 public:
  void Clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// Pushes an element named `tag` (lowercase); the view must stay valid
  /// while the element is open. `may_be_implied_closed` = false promises
  /// that no start tag implies its close, so SizeAfterStartTag skips the
  /// rule check (WalkTagSoup knows this by interned id). A caller that
  /// does not classify leaves the decision to the rule itself.
  void Push(std::string_view tag, bool may_be_implied_closed = true) {
    entries_.push_back({tag, may_be_implied_closed});
  }
  void Pop() { entries_.pop_back(); }

  /// The stack size once start tag `incoming` has closed the elements it
  /// implies closed.
  size_t SizeAfterStartTag(std::string_view incoming) const {
    size_t size = entries_.size();
    while (size > 0 && entries_[size - 1].may_be_implied_closed &&
           CloseImpliedBy(entries_[size - 1].tag, incoming)) {
      --size;
    }
    return size;
  }

  /// The stack size once end tag `name` has closed the nearest open
  /// element of that name. Equal to size() when the end tag is dropped.
  size_t SizeAfterEndTag(std::string_view name) const {
    for (size_t i = entries_.size(); i > 0; --i) {
      std::string_view tag = entries_[i - 1].tag;
      if (tag == name) return i - 1;
      if (tag == "table") break;  // A stray end tag never closes past it.
    }
    return entries_.size();
  }

  /// Pops elements until `size` remain, calling on_close(tag) for each,
  /// innermost first.
  template <class OnClose>
  void PopTo(size_t size, OnClose&& on_close) {
    while (entries_.size() > size) {
      on_close(entries_.back().tag);
      entries_.pop_back();
    }
  }

 private:
  struct Entry {
    std::string_view tag;
    // False only when CloseImpliedBy(tag, x) fails for every x, as it does
    // for every element an implied close must not cross (table, ul, div,
    // body, ...).
    bool may_be_implied_closed;
  };

  /// True when an open <`open`> is implicitly closed by start tag
  /// <`incoming`>.
  static bool CloseImpliedBy(std::string_view open, std::string_view incoming);

  std::vector<Entry> entries_;
};

/// A start tag's name, interned, and its recovery class.
struct StartTag {
  std::string_view name;  // NameTable-interned: stable for the process.
  int32_t id;             // NameTable id.
  bool is_void;
  bool may_be_implied_closed;
};

/// Interns `name` (lowercase) and classifies it by id.
StartTag InternStartTag(std::string_view name);

/// Reusable state of one walk: the token slot and the open-element stack.
/// Both keep their capacity, so a pooled scratch makes steady-state walks
/// allocation-free.
struct RecoveryScratch {
  Token token;
  OpenElementStack open;
};

/// Tokenizes `input`, applies the recovery rules and calls, in document
/// order:
///   visitor.OnOpen(const Token& start_tag, const StartTag& tag)
///       for every element; a non-void element is followed by exactly one
///       OnClose, after its children;
///   visitor.OnText(std::string_view decoded)
///       for every text node that is not whitespace-only (the text is
///       entity-decoded but not yet collapsed: see AppendCollapsedText);
///   visitor.OnClose(std::string_view tag)
///       when an element closes: at its end tag, implied by a later start
///       tag, right after OnOpen when self-closing, or at end of input.
/// The Visitor is a template parameter, so no event pays an indirect call.
template <class Visitor>
void WalkTagSoup(std::string_view input, RecoveryScratch& scratch,
                 Visitor& visitor) {
  Token& token = scratch.token;
  OpenElementStack& open = scratch.open;
  open.Clear();
  auto close = [&visitor](std::string_view tag) { visitor.OnClose(tag); };
  Tokenizer tokenizer(input);
  while (tokenizer.Next(&token)) {
    switch (token.kind) {
      case TokenKind::kText:
        for (char c : token.data) {
          if (!IsAsciiSpace(c)) {
            visitor.OnText(token.data);
            break;
          }
        }
        break;
      case TokenKind::kStartTag: {
        open.PopTo(open.SizeAfterStartTag(token.data), close);
        StartTag tag = InternStartTag(token.data);
        visitor.OnOpen(token, tag);
        if (tag.is_void) break;
        if (token.self_closing) {
          visitor.OnClose(tag.name);
        } else {
          open.Push(tag.name, tag.may_be_implied_closed);
        }
        break;
      }
      case TokenKind::kEndTag:
        open.PopTo(open.SizeAfterEndTag(token.data), close);
        break;
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;
    }
  }
  open.PopTo(0, close);
}

}  // namespace ntw::html

#endif  // NTW_HTML_RECOVERY_H_
