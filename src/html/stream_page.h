#ifndef NTW_HTML_STREAM_PAGE_H_
#define NTW_HTML_STREAM_PAGE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "html/recovery.h"

namespace ntw::html {

/// A text node's extent in a StreamPage's flattened stream.
struct StreamSpan {
  size_t begin;
  size_t end;
};

/// A page reduced to the flattened character stream plus its text spans —
/// the only inputs the LR/HLRT delimiter matchers consume — built without
/// constructing any DOM. The produced stream is byte-identical to
/// text::CharView over html::Parse of the same input, which is what makes
/// the interpreter's byte-identity contract carry over to the streaming
/// path (tests/streaming_equivalence_test.cc and
/// tests/differential_test.cc pin it).
///
/// Three tiers, one scanner:
///
///  1. Verbatim (zero-copy): a single-pass scanner proves the raw input
///     already IS its own normalized stream — lowercase tag names, attrs
///     serialized exactly as ` name="value"` with no duplicates, text runs
///     that survive entity decoding and whitespace collapsing unchanged,
///     no comments/doctypes/stray '<', explicit end tags matching the
///     innermost open element, no implied end tags firing, empty stack at
///     end of input. On success stream() aliases the input and the spans
///     are raw-byte offsets: no copy, no decode, no DOM. Entity decoding
///     is thereby lazy in the strongest sense — the scanner only *tests*
///     each '&' (html::StartsReference); bytes are never rewritten.
///
///  2. Patched (copy-on-write): when every divergence the scanner meets
///     is LOCAL — its replacement bytes are computable at the point it is
///     discovered, without reordering anything already emitted — it does
///     not give up the single pass. At the first such divergence it
///     copies the (proven-verbatim) prefix into the reuse buffer and
///     continues, memcpying clean chunks and splicing in the replacement
///     at each patch point. The local set covers the lazy-decode fixes (a
///     decodable character reference in a text run or attribute value, a
///     whitespace-collapse fix, a whitespace-only text node to drop) and
///     the tag-soup rewrites real listing pages need: tag and attribute
///     name case folding, attribute re-quoting (single-quoted, unquoted
///     and valueless attributes, whitespace around '='), implied end tags
///     and mis-nested/stray/EOF closes resolved against the open-element
///     stack (synthesized closes splice in, dropped closes patch out).
///
///  3. Flattened: a STRUCTURAL rewrite the patch stream cannot express —
///     bytes moving backwards (duplicate attributes keep the first
///     position but the last value), the self-closing-slash machinery,
///     comments, doctypes, stray '<', unclosed raw-text elements — bails
///     to WalkTagSoup (recovery.h) with a visitor that appends the
///     normalized stream into the reuse buffer.
///
/// The verbatim/patched scanner resolves implied closes, end tags and
/// EOF closes on the same OpenElementStack the walk uses.
///
/// Reuse: Clear() keeps every buffer's capacity, so steady-state builds
/// allocate nothing (the serving layer pools StreamPages per shard).
///
/// Lifetime rule: stream() and spans() alias the Build() input when
/// verbatim() is true — they are valid only while the input bytes
/// outlive the page, and are invalidated by the next Build()/Clear().
class StreamPage {
 public:
  enum class Tier {
    kVerbatim,   // Zero-copy: stream() aliases the input.
    kPatched,    // Copy-on-write: clean chunks memcpyed, local patches.
    kFlattened,  // Full rebuild by the recovery walk.
  };

  StreamPage() = default;
  StreamPage(const StreamPage&) = delete;
  StreamPage& operator=(const StreamPage&) = delete;

  /// Builds the flattened stream for `input`. Never fails: pages the
  /// verbatim/patched scanner rejects take the flatten path.
  void Build(std::string_view input);

  /// The normalized character stream; aliases the Build() input when
  /// verbatim() is true.
  std::string_view stream() const {
    return tier_ == Tier::kVerbatim ? input_ : std::string_view(stream_);
  }
  const std::vector<StreamSpan>& spans() const { return spans_; }

  /// Which tier the last Build() took.
  Tier tier() const { return tier_; }

  /// True when the last Build() took the zero-copy tier.
  bool verbatim() const { return tier_ == Tier::kVerbatim; }

  /// Recycles for the next page (keeps capacity).
  void Clear();

 private:
  bool BuildVerbatim(std::string_view input);
  void BuildFlattened(std::string_view input);

  std::string_view input_;
  std::string stream_;               // Patched/flattened output buffer.
  std::vector<StreamSpan> spans_;
  RecoveryScratch recovery_;  // Open-element stack (both scanners), token.
  std::vector<std::string_view> attr_names_;  // Per-tag dedup scratch.
  std::string decoded_;                       // Patch entity-decode scratch.
  std::string normalized_;                    // Patch collapse scratch.
  std::string lowered_;                       // Name case-fold scratch.
  std::string closes_;                        // Synthesized end-tag scratch.
  Tier tier_ = Tier::kFlattened;
};

}  // namespace ntw::html

#endif  // NTW_HTML_STREAM_PAGE_H_
