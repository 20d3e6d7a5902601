#include "regex/regex.h"

#include <array>
#include <bitset>

#include "common/strings.h"

namespace ntw::regex {

/// AST node. A pattern compiles to an alternation of concatenations of
/// quantified atoms.
struct Regex::Node {
  enum class Kind {
    kAlternation,  // children: alternatives.
    kConcat,       // children: sequence.
    kRepeat,       // children[0] repeated [min, max] times (max<0: ∞).
    kCharClass,    // `chars` bitset membership.
    kAnchorBegin,
    kAnchorEnd,
    kWordBoundary,
  };

  Kind kind;
  std::vector<std::unique_ptr<Node>> children;
  std::bitset<256> chars;
  int min = 0;
  int max = 0;
};

namespace {

using Node = Regex::Node;
using Kind = Node::Kind;

std::unique_ptr<Node> MakeNode(Kind kind) {
  auto node = std::make_unique<Node>();
  node->kind = kind;
  return node;
}

void AddClassShorthand(char c, std::bitset<256>* set) {
  switch (c) {
    case 'd':
      for (int ch = '0'; ch <= '9'; ++ch) set->set(static_cast<size_t>(ch));
      break;
    case 'w':
      for (int ch = '0'; ch <= '9'; ++ch) set->set(static_cast<size_t>(ch));
      for (int ch = 'a'; ch <= 'z'; ++ch) set->set(static_cast<size_t>(ch));
      for (int ch = 'A'; ch <= 'Z'; ++ch) set->set(static_cast<size_t>(ch));
      set->set('_');
      break;
    case 's':
      set->set(' ');
      set->set('\t');
      set->set('\n');
      set->set('\r');
      set->set('\f');
      set->set('\v');
      break;
    default:
      break;
  }
}

bool IsWordChar(char c) { return IsAsciiAlnum(c) || c == '_'; }

class PatternParser {
 public:
  explicit PatternParser(std::string_view pattern) : pattern_(pattern) {}

  Result<std::unique_ptr<Node>> Parse() {
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseAlternation());
    if (pos_ != pattern_.size()) {
      return Error("unexpected ')'");
    }
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_) +
                              " in /" + std::string(pattern_) + "/");
  }

  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return pattern_[pos_]; }

  Result<std::unique_ptr<Node>> ParseAlternation() {
    auto alternation = MakeNode(Kind::kAlternation);
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> first, ParseConcat());
    alternation->children.push_back(std::move(first));
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> next, ParseConcat());
      alternation->children.push_back(std::move(next));
    }
    if (alternation->children.size() == 1) {
      return std::move(alternation->children[0]);
    }
    return alternation;
  }

  Result<std::unique_ptr<Node>> ParseConcat() {
    auto concat = MakeNode(Kind::kConcat);
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> atom, ParseQuantifiedAtom());
      concat->children.push_back(std::move(atom));
    }
    return concat;
  }

  Result<std::unique_ptr<Node>> ParseQuantifiedAtom() {
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> atom, ParseAtom());
    if (AtEnd()) return atom;
    int min = -1, max = -1;
    switch (Peek()) {
      case '*':
        min = 0;
        max = -1;
        ++pos_;
        break;
      case '+':
        min = 1;
        max = -1;
        ++pos_;
        break;
      case '?':
        min = 0;
        max = 1;
        ++pos_;
        break;
      case '{': {
        size_t save = pos_;
        ++pos_;
        int m = 0;
        bool has_digits = false;
        while (!AtEnd() && IsAsciiDigit(Peek())) {
          m = m * 10 + (Peek() - '0');
          has_digits = true;
          ++pos_;
        }
        if (!has_digits) {
          pos_ = save;  // Literal '{'.
          return atom;
        }
        min = m;
        max = m;
        if (!AtEnd() && Peek() == ',') {
          ++pos_;
          if (!AtEnd() && IsAsciiDigit(Peek())) {
            int n = 0;
            while (!AtEnd() && IsAsciiDigit(Peek())) {
              n = n * 10 + (Peek() - '0');
              ++pos_;
            }
            max = n;
          } else {
            max = -1;
          }
        }
        if (AtEnd() || Peek() != '}') return Error("expected '}'");
        ++pos_;
        break;
      }
      default:
        return atom;
    }
    if (max >= 0 && max < min) return Error("bad repeat range");
    // Quantifying an anchor is meaningless; reject for clarity.
    if (atom->kind == Kind::kAnchorBegin || atom->kind == Kind::kAnchorEnd ||
        atom->kind == Kind::kWordBoundary) {
      return Error("cannot quantify an anchor");
    }
    auto repeat = MakeNode(Kind::kRepeat);
    repeat->min = min;
    repeat->max = max;
    repeat->children.push_back(std::move(atom));
    return repeat;
  }

  Result<std::unique_ptr<Node>> ParseAtom() {
    char c = Peek();
    switch (c) {
      case '(': {
        ++pos_;
        NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> inner, ParseAlternation());
        if (AtEnd() || Peek() != ')') return Error("expected ')'");
        ++pos_;
        return inner;
      }
      case '^':
        ++pos_;
        return MakeNode(Kind::kAnchorBegin);
      case '$':
        ++pos_;
        return MakeNode(Kind::kAnchorEnd);
      case '[':
        return ParseClass();
      case '.': {
        ++pos_;
        auto any = MakeNode(Kind::kCharClass);
        any->chars.set();
        any->chars.reset('\n');
        return any;
      }
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Error("dangling quantifier");
      default: {
        ++pos_;
        auto literal = MakeNode(Kind::kCharClass);
        literal->chars.set(static_cast<unsigned char>(c));
        return literal;
      }
    }
  }

  Result<std::unique_ptr<Node>> ParseEscape() {
    ++pos_;  // Consume backslash.
    if (AtEnd()) return Error("trailing backslash");
    char c = Peek();
    ++pos_;
    if (c == 'b') return MakeNode(Kind::kWordBoundary);
    auto node = MakeNode(Kind::kCharClass);
    switch (c) {
      case 'd':
      case 'w':
      case 's':
        AddClassShorthand(c, &node->chars);
        return node;
      case 'D':
      case 'W':
      case 'S':
        AddClassShorthand(AsciiToLower(c), &node->chars);
        node->chars.flip();
        return node;
      case 'n':
        node->chars.set('\n');
        return node;
      case 't':
        node->chars.set('\t');
        return node;
      case 'r':
        node->chars.set('\r');
        return node;
      default:
        node->chars.set(static_cast<unsigned char>(c));
        return node;
    }
  }

  Result<std::unique_ptr<Node>> ParseClass() {
    ++pos_;  // Consume '['.
    auto node = MakeNode(Kind::kCharClass);
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    bool first = true;
    while (!AtEnd() && (Peek() != ']' || first)) {
      first = false;
      char lo = Peek();
      ++pos_;
      if (lo == '\\') {
        if (AtEnd()) return Error("trailing backslash in class");
        char esc = Peek();
        ++pos_;
        if (esc == 'd' || esc == 'w' || esc == 's') {
          AddClassShorthand(esc, &node->chars);
          continue;
        }
        if (esc == 'n') {
          node->chars.set('\n');
          continue;
        }
        if (esc == 't') {
          node->chars.set('\t');
          continue;
        }
        lo = esc;
      }
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        ++pos_;  // '-'
        char hi = Peek();
        ++pos_;
        if (hi == '\\') {
          if (AtEnd()) return Error("trailing backslash in class");
          hi = Peek();
          ++pos_;
        }
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(lo)) {
          return Error("bad class range");
        }
        for (int ch = static_cast<unsigned char>(lo);
             ch <= static_cast<unsigned char>(hi); ++ch) {
          node->chars.set(static_cast<size_t>(ch));
        }
      } else {
        node->chars.set(static_cast<unsigned char>(lo));
      }
    }
    if (AtEnd()) return Error("unterminated class");
    ++pos_;  // ']'
    if (negate) node->chars.flip();
    return node;
  }

  std::string_view pattern_;
  size_t pos_ = 0;
};

/// Backtracking matcher: MatchHere(node-list position) via continuation
/// passing on the concat stack.
class Matcher {
 public:
  Matcher(std::string_view text) : text_(text) {}

  /// Attempts to match `node` starting at `pos`; on success invokes the
  /// continuation with the end position. Returns true if any alternative
  /// succeeds.
  bool Match(const Node* node, size_t pos, size_t* end) {
    switch (node->kind) {
      case Kind::kAlternation:
        for (const auto& child : node->children) {
          if (Match(child.get(), pos, end)) return true;
        }
        return false;
      case Kind::kConcat:
        return MatchSeq(node, 0, pos, end);
      case Kind::kRepeat:
        return MatchRepeatThen(node, pos, 0, nullptr, 0, end);
      case Kind::kCharClass:
        if (pos < text_.size() &&
            node->chars.test(static_cast<unsigned char>(text_[pos]))) {
          *end = pos + 1;
          return true;
        }
        return false;
      case Kind::kAnchorBegin:
        if (pos == 0) {
          *end = pos;
          return true;
        }
        return false;
      case Kind::kAnchorEnd:
        if (pos == text_.size()) {
          *end = pos;
          return true;
        }
        return false;
      case Kind::kWordBoundary: {
        bool before = pos > 0 && IsWordChar(text_[pos - 1]);
        bool after = pos < text_.size() && IsWordChar(text_[pos]);
        if (before != after) {
          *end = pos;
          return true;
        }
        return false;
      }
    }
    return false;
  }

 private:
  /// Matches children of `concat` from index `i` at `pos`.
  bool MatchSeq(const Node* concat, size_t i, size_t pos, size_t* end) {
    if (i == concat->children.size()) {
      *end = pos;
      return true;
    }
    const Node* child = concat->children[i].get();
    if (child->kind == Kind::kRepeat) {
      return MatchRepeatThen(child, pos, 0, concat, i + 1, end);
    }
    if (child->kind == Kind::kAlternation || child->kind == Kind::kConcat) {
      // Try every way the child can match, continuing with the rest.
      return MatchSubThen(child, pos, concat, i + 1, end);
    }
    size_t next = 0;
    if (!Match(child, pos, &next)) return false;
    return MatchSeq(concat, i + 1, next, end);
  }

  /// Matches a composite child then the remainder of the concat,
  /// backtracking through the child's alternatives.
  bool MatchSubThen(const Node* child, size_t pos, const Node* concat,
                    size_t cont_index, size_t* end) {
    if (child->kind == Kind::kAlternation) {
      for (const auto& alt : child->children) {
        if (MatchSubThen(alt.get(), pos, concat, cont_index, end)) {
          return true;
        }
      }
      return false;
    }
    if (child->kind == Kind::kConcat) {
      // Inline: match child's sequence, then the continuation. Implemented
      // by a recursive helper over the child's children.
      return MatchNestedSeq(child, 0, pos, concat, cont_index, end);
    }
    if (child->kind == Kind::kRepeat) {
      return MatchRepeatThen(child, pos, 0, concat, cont_index, end);
    }
    size_t next = 0;
    if (!Match(child, pos, &next)) return false;
    if (concat == nullptr) {
      *end = next;
      return true;
    }
    return MatchSeq(concat, cont_index, next, end);
  }

  bool MatchNestedSeq(const Node* seq, size_t i, size_t pos,
                      const Node* concat, size_t cont_index, size_t* end) {
    if (i == seq->children.size()) {
      if (concat == nullptr) {
        *end = pos;
        return true;
      }
      return MatchSeq(concat, cont_index, pos, end);
    }
    const Node* child = seq->children[i].get();
    if (child->kind == Kind::kRepeat || child->kind == Kind::kAlternation ||
        child->kind == Kind::kConcat) {
      // Build the "rest of this nested sequence then outer continuation"
      // closure via recursion on a temporary concat view. Simplest sound
      // approach: try all match lengths of the child.
      for (size_t try_end = text_.size() + 1; try_end-- > pos;) {
        if (MatchesExactly(child, pos, try_end) &&
            MatchNestedSeq(seq, i + 1, try_end, concat, cont_index, end)) {
          return true;
        }
      }
      return false;
    }
    size_t next = 0;
    if (!Match(child, pos, &next)) return false;
    return MatchNestedSeq(seq, i + 1, next, concat, cont_index, end);
  }

  /// Greedy repeat of node->children[0], then continuation.
  bool MatchRepeatThen(const Node* repeat, size_t pos, int count,
                       const Node* concat, size_t cont_index, size_t* end) {
    const Node* body = repeat->children[0].get();
    // Greedy: try one more repetition first (when allowed).
    if (repeat->max < 0 || count < repeat->max) {
      // Enumerate possible body matches from pos.
      for (size_t try_end = text_.size() + 1; try_end-- > pos;) {
        if (try_end == pos && count >= 1) {
          // Zero-width body repetition: stop extending to avoid loops.
          continue;
        }
        if (MatchesExactly(body, pos, try_end)) {
          if (MatchRepeatThen(repeat, try_end, count + 1, concat, cont_index,
                              end)) {
            return true;
          }
        }
      }
    }
    if (count >= repeat->min) {
      if (concat == nullptr) {
        *end = pos;
        return true;
      }
      return MatchSeq(concat, cont_index, pos, end);
    }
    return false;
  }

  /// True when node matches text [pos, end_exact) exactly.
  bool MatchesExactly(const Node* node, size_t pos, size_t end_exact) {
    switch (node->kind) {
      case Kind::kCharClass:
        return end_exact == pos + 1 && pos < text_.size() &&
               node->chars.test(static_cast<unsigned char>(text_[pos]));
      case Kind::kAnchorBegin:
      case Kind::kAnchorEnd:
      case Kind::kWordBoundary: {
        size_t e = 0;
        return end_exact == pos && Match(node, pos, &e);
      }
      case Kind::kAlternation:
        for (const auto& child : node->children) {
          if (MatchesExactly(child.get(), pos, end_exact)) return true;
        }
        return false;
      case Kind::kConcat: {
        if (node->children.empty()) return end_exact == pos;
        return MatchesSeqExactly(node, 0, pos, end_exact);
      }
      case Kind::kRepeat: {
        return MatchesRepeatExactly(node, pos, end_exact, 0);
      }
    }
    return false;
  }

  bool MatchesSeqExactly(const Node* seq, size_t i, size_t pos,
                         size_t end_exact) {
    if (i == seq->children.size()) return pos == end_exact;
    const Node* child = seq->children[i].get();
    for (size_t mid = pos; mid <= end_exact; ++mid) {
      if (MatchesExactly(child, pos, mid) &&
          MatchesSeqExactly(seq, i + 1, mid, end_exact)) {
        return true;
      }
    }
    return false;
  }

  bool MatchesRepeatExactly(const Node* repeat, size_t pos, size_t end_exact,
                            int count) {
    if (pos == end_exact && count >= repeat->min) return true;
    if (repeat->max >= 0 && count >= repeat->max) return pos == end_exact;
    const Node* body = repeat->children[0].get();
    for (size_t mid = pos + 1; mid <= end_exact; ++mid) {
      if (MatchesExactly(body, pos, mid) &&
          MatchesRepeatExactly(repeat, mid, end_exact, count + 1)) {
        return true;
      }
    }
    return false;
  }

  std::string_view text_;
};

}  // namespace

Regex::Regex(std::string pattern, std::unique_ptr<Node> root,
             std::unique_ptr<Node> anchored_root)
    : pattern_(std::move(pattern)),
      root_(std::move(root)),
      anchored_root_(std::move(anchored_root)) {}

Regex::~Regex() = default;
Regex::Regex(Regex&&) noexcept = default;
Regex& Regex::operator=(Regex&&) noexcept = default;

Result<Regex> Regex::Compile(std::string_view pattern) {
  PatternParser parser(pattern);
  NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, parser.Parse());
  // Anchored variant "(pattern)$" used by FullMatch: the end anchor makes
  // the backtracker explore alternatives until the whole input is consumed.
  std::string anchored_pattern = "(";
  anchored_pattern.append(pattern).append(")$");
  PatternParser anchored_parser(anchored_pattern);
  NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> anchored_root,
                       anchored_parser.Parse());
  return Regex(std::string(pattern), std::move(root),
               std::move(anchored_root));
}

bool Regex::FullMatch(std::string_view text) const {
  Matcher matcher(text);
  size_t end = 0;
  return matcher.Match(anchored_root_.get(), 0, &end);
}

bool Regex::PartialMatch(std::string_view text) const {
  Matcher matcher(text);
  size_t end = 0;
  for (size_t start = 0; start <= text.size(); ++start) {
    if (matcher.Match(root_.get(), start, &end)) return true;
  }
  return false;
}

std::vector<Regex::Span> Regex::FindAll(std::string_view text) const {
  std::vector<Span> spans;
  Matcher matcher(text);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = 0;
    if (matcher.Match(root_.get(), start, &end)) {
      spans.push_back(Span{start, end});
      start = end > start ? end : start + 1;
    } else {
      ++start;
    }
    if (start > text.size()) break;
  }
  return spans;
}

}  // namespace ntw::regex
