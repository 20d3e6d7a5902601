#include "html/stream_page.h"

#include "common/strings.h"
#include "html/dom.h"
#include "html/entities.h"
#include "html/name_table.h"
#include "html/scan.h"

namespace ntw::html {
namespace {

constexpr size_t kNpos = std::string_view::npos;

// True when CollapseWhitespace(s) == s for a non-empty s: no whitespace
// byte other than ' ', no leading/trailing space, no "  " run. Raw-text
// element contents (not entity-decoded, but collapse-processed) are
// validated with this.
bool IsCollapseIdentity(std::string_view s) {
  if (s.empty()) return true;
  if (IsAsciiSpace(s.front()) || IsAsciiSpace(s.back())) return false;
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    if (!IsAsciiSpace(s[i])) continue;
    if (s[i] != ' ' || IsAsciiSpace(s[i + 1])) return false;
  }
  return true;
}

}  // namespace

void StreamPage::Clear() {
  input_ = std::string_view();
  stream_.clear();
  spans_.clear();
  recovery_.open.Clear();
  attr_names_.clear();
  tier_ = Tier::kFlattened;
}

void StreamPage::Build(std::string_view input) {
  Clear();
  input_ = input;
  if (BuildVerbatim(input)) return;
  stream_.clear();
  spans_.clear();
  tier_ = Tier::kFlattened;
  BuildFlattened(input);
}

// Tiers 1+2: a single scan that proves the input byte-identical to the
// normalized stream (verbatim) or identical up to LOCAL patches — entity
// decodes and whitespace-collapse fixes whose replacements are computable
// in place (patched). Tag names, attributes and raw-text ends are lexed
// by the Tokenizer's own grammar (html/scan.h); every check on what they
// return mirrors a specific normalization the Tokenizer / recovery walk /
// flattener performs, and any STRUCTURAL rewrite (one that moves,
// reorders or synthesizes tag bytes) bails to the flatten. The checks are
// deliberately conservative — a false bail only costs speed, a false
// accept would break the byte-identity contract.
//
// Copy-on-write: while no patch has fired, nothing is copied and the
// recorded spans double as raw-byte offsets. The first patch copies the
// proven-verbatim prefix into stream_ and from then on clean chunks are
// appended in bulk between patch points.
bool StreamPage::BuildVerbatim(std::string_view in) {
  OpenElementStack& open = recovery_.open;
  auto append_close = [this](std::string_view tag) {
    closes_.append("</");
    closes_.append(tag);
    closes_.push_back('>');
  };
  // The lowercase form of a name with uppercase bytes, interned: a
  // process-stable view the open stack and the patch can keep.
  auto folded = [this](std::string_view name) {
    lowered_.assign(name);
    for (char& c : lowered_) c = AsciiToLower(c);
    return NameTable::Global().Intern(lowered_).name;
  };
  size_t n = in.size();
  size_t pos = 0;
  bool copied = false;    // True once the output diverged from the input.
  size_t flush_mark = 0;  // Raw start of the pending clean chunk (copied).

  // Output offset of raw offset `p`: identity until the first patch,
  // afterwards the pending clean chunk [flush_mark, p) lands right after
  // the bytes already in stream_.
  auto out_pos = [&](size_t p) {
    return copied ? stream_.size() + (p - flush_mark) : p;
  };
  // Replaces raw [q, r) with `replacement` in the output; returns the
  // output offset where the replacement begins.
  auto patch = [&](size_t q, size_t r, std::string_view replacement) {
    if (!copied) {
      stream_.assign(in.data(), q);  // The prefix is proven verbatim.
      copied = true;
    } else {
      stream_.append(in.data() + flush_mark, q - flush_mark);
    }
    size_t begin = stream_.size();
    stream_.append(replacement);
    flush_mark = r;
    return begin;
  };

  while (pos < n) {
    if (in[pos] != '<') {
      // Text run, ending at the next '<' or end of input. Verbatim text
      // must survive entity decoding (every '&' fails to start a
      // reference) and whitespace collapsing (interior single spaces
      // only) unchanged; anything else is a local rewrite — decode +
      // collapse the run and patch it in.
      size_t run_begin = pos;
      size_t run_end = n;
      bool rewrite = false;
      size_t p = pos;
      for (;;) {
        size_t q = scan::FindTextSpecial(in, p);
        if (q == kNpos) break;
        char c = in[q];
        if (c == '<') {
          run_end = q;
          break;
        }
        if (c == '&') {
          // The byte ending the run ('<' or the quote below) is never
          // alphanumeric, so reference parsing sees the same extent in
          // the full input as in the token substring.
          if (!StartsReference(in, q)) {
            p = q + 1;
            continue;
          }
          rewrite = true;
        } else if (c == ' ' && q != run_begin && q + 1 < n &&
                   !IsAsciiSpace(in[q + 1]) && in[q + 1] != '<') {
          // A single interior ' ' survives collapsing — keep validating.
          p = q + 1;
          continue;
        } else {
          // Any other whitespace shape gets collapse-rewritten.
          rewrite = true;
        }
        // The run will be decoded + collapsed wholesale; only its end
        // matters now, so skip the per-byte validation and memchr to the
        // closing '<'.
        size_t lt = in.find('<', q + 1);
        run_end = lt == kNpos ? n : lt;
        break;
      }
      if (!rewrite) {
        spans_.push_back({out_pos(run_begin), out_pos(run_end)});
      } else {
        // Same pipeline as the tokenizer + builder: decode the whole
        // run, then collapse; a collapsed-empty run is the whitespace-
        // only text node the builders drop — patch it away, no span.
        decoded_.clear();
        AppendDecodedEntities(in.substr(run_begin, run_end - run_begin),
                              &decoded_);
        normalized_.clear();
        if (AppendCollapsedText(decoded_, &normalized_)) {
          size_t begin = patch(run_begin, run_end, normalized_);
          spans_.push_back({begin, begin + normalized_.size()});
        } else {
          patch(run_begin, run_end, std::string_view());
        }
      }
      pos = run_end;
      continue;
    }

    if (pos + 1 >= n) return false;  // Bare '<' at EOF → text token.
    char next = in[pos + 1];

    if (next == '/') {
      // End tag: the tokenizer lexes the name (folding case) and then
      // skips anything up to '>'. Recovery closes the nearest matching
      // open element — popping, i.e. splicing close tags for, everything
      // above it — never crossing a table boundary; an unmatched end tag
      // is dropped. All of that resolves against the open stack right
      // here, so every shape is a LOCAL patch.
      size_t name_start = pos + 2;
      scan::TagName lexed = scan::LexTagName(in, name_start);
      if (lexed.end == name_start) return false;  // "</>" → text.
      size_t p = lexed.end;
      std::string_view name = in.substr(name_start, p - name_start);
      if (lexed.fold) name = folded(name);
      size_t gt = in.find('>', p);
      if (gt == kNpos) return false;  // EOF inside the end tag.
      size_t match = open.SizeAfterEndTag(name);
      if (match == open.size()) {
        patch(pos, gt + 1, std::string_view());  // Dropped end tag.
        pos = gt + 1;
        continue;
      }
      if (match + 1 < open.size()) {
        // Mis-nested: splice closes for everything above the matching
        // element, innermost first, ahead of this end tag.
        closes_.clear();
        open.PopTo(match + 1, append_close);
        patch(pos, pos, closes_);
      }
      open.Pop();
      if (lexed.fold || p != gt) {
        // Canonical close: folded name, junk before '>' dropped.
        closes_.assign("</");
        closes_.append(name);
        closes_.push_back('>');
        patch(pos, gt + 1, closes_);
      }
      pos = gt + 1;
      continue;
    }

    // Start tag. The tokenizer folds the name's case, so an uppercase
    // byte is a local patch.
    size_t name_start = pos + 1;
    scan::TagName lexed = scan::LexTagName(in, name_start);
    if (lexed.end == name_start) return false;  // <!… <?… "< "… all bail.
    size_t p = lexed.end;
    std::string_view name = in.substr(name_start, p - name_start);
    if (lexed.fold) name = folded(name);

    // Implied end tags: each popped element's close tag is spliced in
    // before the '<' of this start tag.
    if (size_t keep = open.SizeAfterStartTag(name); keep < open.size()) {
      closes_.clear();
      open.PopTo(keep, append_close);
      patch(pos, pos, closes_);
    }
    if (lexed.fold) patch(name_start, p, name);

    // Attributes: the canonical form is ` name="value"` — single-space
    // separators, lowercase names, '=' with no surrounding whitespace, a
    // double-quoted decoded value. Everything the tokenizer's attribute
    // grammar admits except two shapes patches into that form in place:
    // duplicate names (first position, LAST value — bytes would move
    // backwards) and the '/' self-closing machinery bail to the flatten.
    attr_names_.clear();
    for (;;) {
      size_t ws_begin = p;
      p = scan::SkipWhitespace(in, p);
      if (p >= n) return false;  // Unterminated tag → closed at EOF.
      if (in[p] == '>') {
        // "<div >" → "<div>": in-tag whitespace before '>' vanishes.
        if (p != ws_begin) patch(ws_begin, p, std::string_view());
        ++p;
        break;
      }
      if (in[p] == '/') return false;  // Self-closing machinery.
      // Separator: exactly one ' ' survives; anything else (tabs,
      // newlines, runs, or no whitespace at all after a quoted value)
      // patches to a single space.
      if (p != ws_begin + 1 || in[ws_begin] != ' ') {
        patch(ws_begin, p, " ");
      }
      scan::Attribute attr = scan::LexAttribute(in, p);
      if (attr.name_end == p) return false;  // Stray '=' at a name.
      std::string_view attr_name = in.substr(p, attr.name_end - p);
      if (attr.fold) {
        attr_name = folded(attr_name);
        patch(p, attr.name_end, attr_name);
      }
      for (std::string_view seen : attr_names_) {
        if (seen == attr_name) return false;  // Duplicate: bytes move.
      }
      attr_names_.push_back(attr_name);
      if (attr.eq == kNpos) {
        // Valueless attribute → canonical `=""`; the whitespace after
        // the name re-scans as the next separator.
        patch(attr.name_end, attr.name_end, "=\"\"");
        p = attr.name_end;
        continue;
      }
      if (attr.unterminated) return false;  // Tag closed at EOF.
      if (attr.eq != attr.name_end) {
        patch(attr.name_end, attr.eq, std::string_view());  // ws before '='.
      }
      // Already-canonical check: double-quoted, no whitespace after '=',
      // and the bytes survive entity decoding unchanged. The byte ending
      // the value (quote, whitespace or '>') is never alphanumeric, so
      // reference parsing sees the same extent in the full input as in
      // the token substring.
      bool canonical = attr.quote == '"' && attr.value_begin == attr.eq + 2;
      if (canonical) {
        std::string_view value_region = in.substr(0, attr.value_end);
        size_t amp = attr.value_begin;
        while ((amp = value_region.find('&', amp)) != kNpos) {
          if (StartsReference(in, amp)) {
            canonical = false;
            break;
          }
          ++amp;
        }
      }
      if (!canonical) {
        // Re-quote: `='v'`, `=v`, `= "v"` and decodable values all
        // become `="decoded"` in one splice (values are entity-decoded
        // but never collapsed; no span — attr values are not text).
        decoded_.clear();
        decoded_.push_back('"');
        AppendDecodedEntities(
            in.substr(attr.value_begin, attr.value_end - attr.value_begin),
            &decoded_);
        decoded_.push_back('"');
        patch(attr.eq + 1, attr.end, decoded_);
      }
      p = attr.end;
    }

    if (IsVoidElementTag(name)) {
      pos = p;
      continue;
    }
    open.Push(name);  // Unclassified: the implied-close rule decides.

    if (scan::IsRawTextTag(name)) {
      // Raw-text content runs to the tokenizer's raw-text end tag. A
      // `</SCRIPT>` close is content (the search is case-sensitive), so
      // the element runs to EOF and bails, as does a "</script" at EOF.
      // The close tag itself is handled by the main loop's end-tag
      // scanner, which canonicalizes any junk before its '>'. Content is
      // NOT entity-decoded (so '&' is fine) but IS collapse-processed.
      size_t end = scan::FindRawTextEnd(in, p, name);
      if (end == kNpos || end + 2 + name.size() >= n) return false;
      std::string_view content = in.substr(p, end - p);
      if (!content.empty()) {
        // Raw text is NOT entity-decoded but IS collapse-processed;
        // whitespace-only content is dropped (no text node). Both are
        // local fixes.
        if (IsCollapseIdentity(content)) {
          spans_.push_back({out_pos(p), out_pos(end)});
        } else {
          normalized_.clear();
          if (AppendCollapsedText(content, &normalized_)) {
            size_t begin = patch(p, end, normalized_);
            spans_.push_back({begin, begin + normalized_.size()});
          } else {
            patch(p, end, std::string_view());
          }
        }
      }
      pos = end;  // The main loop consumes the "</name>" close next.
      continue;
    }
    pos = p;
  }
  // Elements still open at EOF get their close tags synthesized at the
  // end of the stream, innermost first — exactly where the walk closes
  // them. A pure append, so it is LOCAL.
  if (!open.empty()) {
    closes_.clear();
    open.PopTo(0, append_close);
    patch(n, n, closes_);
  }
  if (copied) {
    stream_.append(in.data() + flush_mark, n - flush_mark);
    tier_ = Tier::kPatched;
  } else {
    tier_ = Tier::kVerbatim;
  }
  return true;
}

// Tier 3: WalkTagSoup with a visitor that appends the flattened stream.
// The walk emits each close where the recursive flattener emits the end
// tag: after the element's children.
void StreamPage::BuildFlattened(std::string_view in) {
  struct Flattener {
    std::string& stream;
    std::vector<StreamSpan>& spans;

    void OnOpen(const Token& token, const StartTag& tag) {
      stream.push_back('<');
      stream.append(tag.name);
      // Duplicate attribute names keep the first position, last value
      // (Node::SetAttr semantics); later duplicates vanish.
      size_t attr_count = token.attrs.size();
      for (size_t i = 0; i < attr_count; ++i) {
        const std::string& attr_name = token.attrs[i].first;
        bool duplicate = false;
        for (size_t j = 0; j < i; ++j) {
          if (token.attrs[j].first == attr_name) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        const std::string* value = &token.attrs[i].second;
        for (size_t j = i + 1; j < attr_count; ++j) {
          if (token.attrs[j].first == attr_name) {
            value = &token.attrs[j].second;
          }
        }
        stream.push_back(' ');
        stream.append(attr_name);
        stream.append("=\"");
        stream.append(*value);
        stream.push_back('"');
      }
      stream.push_back('>');
    }

    void OnText(std::string_view text) {
      size_t begin = stream.size();
      AppendCollapsedText(text, &stream);
      spans.push_back({begin, stream.size()});
    }

    void OnClose(std::string_view tag) {
      stream.append("</");
      stream.append(tag);
      stream.push_back('>');
    }
  };
  Flattener flattener{stream_, spans_};
  WalkTagSoup(in, recovery_, flattener);
}

}  // namespace ntw::html
