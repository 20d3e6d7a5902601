#ifndef NTW_CORE_COMPILED_WRAPPER_H_
#define NTW_CORE_COMPILED_WRAPPER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/wrapper.h"
#include "html/arena_dom.h"
#include "html/stream_page.h"

namespace ntw::core {

/// Precomputed Boyer–Moore–Horspool substring search. Find() returns the
/// same positions as std::string::find (including the empty-needle edge
/// cases), just faster on long haystacks: the skip table lets the scan
/// advance needle-length bytes on a mismatching last character.
class StringSearcher {
 public:
  StringSearcher() = default;
  explicit StringSearcher(std::string needle);

  /// First occurrence at or after `from`; std::string_view::npos if none.
  size_t Find(std::string_view haystack, size_t from = 0) const;

  const std::string& needle() const { return needle_; }
  bool empty() const { return needle_.empty(); }

 private:
  std::string needle_;
  // Shift for each possible last-window byte.
  size_t skip_[256] = {};
};

/// Reusable per-request buffers for Extract() over the arena DOM: the
/// arena document plus the evaluator scratch. Acquire one from a BufferPool, parse into
/// `doc`, run CompiledWrapper::Extract, copy the values out, release.
/// Everything keeps its capacity across uses; steady state allocates
/// nothing.
class FastPageBuffer {
 public:
  html::ArenaDocument doc;
  /// Output slot for CompiledWrapper::Extract — views into `doc`.
  std::vector<std::string_view> values;

  /// Recycles for the next request (keeps capacity).
  void Clear();

 private:
  friend class CompiledWrapper;

  // XPath step-machine scratch: current/next context sets and an
  // epoch-marked dedup table.
  std::vector<int32_t> current_;
  std::vector<int32_t> next_;
  std::vector<uint32_t> marks_;
  uint32_t epoch_ = 0;
};

/// One open element's state in the fused streaming-XPath executor
/// (CompiledWrapper::ExtractStreaming on streamable() plans): the
/// per-step match bitsets plus the child counters the arena tree builder
/// would keep on its frames. Pooled by depth inside StreamPageBuffer so
/// the tag_counts vectors keep capacity across pages.
struct StreamXPathFrame {
  std::string_view tag;  // Interned — process-stable across the build.
  int32_t tag_id = -1;
  uint64_t match = 0;    // Bit j: this node matches the first j steps.
  uint64_t anc = 0;      // Union of every ancestor's match bits.
  int32_t children = 0;  // Child nodes appended so far (0-based index).
  // CloseImpliedBy(tag, ·) can return true for some incoming tag —
  // cached at push so the per-start-tag implied-close probe is one bool
  // instead of the parse_rules string comparisons. (Scope boundaries are
  // never implied-closable, so this also covers the IsScopeBoundary
  // break in the builders' loops.)
  bool may_imply_close = false;
  // (tag_id, count) for element children seen so far — same_tag_child_
  // number bookkeeping, linear scan as in ArenaTreeBuilder::Frame.
  std::vector<std::pair<int32_t, int32_t>> tag_counts;
};

/// Reusable per-request buffer for the streaming (no-DOM) path: the
/// flattened stream page, the value slot, and the fused streaming-XPath
/// executor's scratch. Much lighter than FastPageBuffer — no arena and
/// no node arrays; the XPath scratch is a depth-pooled frame stack plus
/// one capture string for matched text.
class StreamPageBuffer {
 public:
  html::StreamPage page;
  /// Output slot for CompiledWrapper::ExtractStreaming — views into
  /// `page` or into the XPath capture buffer (either of which may alias
  /// the request body; see StreamPage).
  std::vector<std::string_view> values;

  /// Recycles for the next request (keeps capacity).
  void Clear() {
    page.Clear();
    values.clear();
    xcapture_.clear();
    xextents_.clear();
  }

 private:
  friend class CompiledWrapper;

  std::vector<StreamXPathFrame> xframes_;  // Open-element stack, pooled.
  html::Token xtoken_;                     // Tokenizer slot.
  std::string xcapture_;                   // Matched text, collapsed.
  // Result extents into xcapture_ in document order; npos marks an
  // element match (its value is the empty string, as on the DOM path).
  std::vector<std::pair<size_t, size_t>> xextents_;
};

/// A thread-safe free list of per-request buffers (StreamPageBuffer for
/// the streaming path, FastPageBuffer for the arena DOM). Lease
/// RAII-returns the buffer (Clear()ed) on destruction.
template <class Buffer>
class BufferPool {
 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), buffer_(other.buffer_) {
      other.pool_ = nullptr;
      other.buffer_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease() {
      if (pool_ == nullptr) return;
      buffer_->Clear();
      std::lock_guard<std::mutex> lock(pool_->mu_);
      for (auto& slot : pool_->free_) {
        if (slot == nullptr) {
          slot.reset(buffer_);
          return;
        }
      }
      pool_->free_.emplace_back(buffer_);
    }

    Buffer* operator->() { return buffer_; }
    Buffer& operator*() { return *buffer_; }

   private:
    friend class BufferPool;
    Lease(BufferPool* pool, Buffer* buffer) : pool_(pool), buffer_(buffer) {}
    BufferPool* pool_;
    Buffer* buffer_;
  };

  Lease Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& slot : free_) {
      if (slot != nullptr) {
        return Lease(this, slot.release());
      }
    }
    return Lease(this, new Buffer());
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> free_;
};

using FastBufferPool = BufferPool<FastPageBuffer>;
using StreamBufferPool = BufferPool<StreamPageBuffer>;

/// A wrapper compiled into an executable plan:
///   - XPATH  → a step program over interned tag/attr ids (no string
///              compares on the hot path);
///   - LR     → occurrence-driven scan of the flattened stream using a BMH
///              searcher for the left delimiter;
///   - HLRT   → BMH head/tail region narrowing, then anchored LR checks.
///
/// The production path is ExtractStreaming() (DESIGN.md §12); plans
/// without a streaming form go to the interpreted Wrapper::Extract,
/// which is also the oracle every compiled path is tested against.
///
/// LR and HLRT are defined purely over the flattened character stream —
/// they never touch the tree — so they are classified dom_free() and
/// ExtractStreaming() builds the stream with a StreamPage (no DOM at
/// all); MatchStreamPage() runs the same matchers on a StreamPage the
/// caller already built.
///
/// XPath plans are not dom_free(), but almost all of them are
/// streamable(): the step program can run as a bitset NFA directly
/// against the tokenizer event stream — an explicit open-tag depth stack
/// carrying per-step match frames, interned-id tag/attr comparison
/// through the intern front cache, positional filters computed from the
/// same per-frame counters the tree builder keeps — so matching requests
/// never construct arena nodes and only matched text is ever copied.
/// ExtractStreaming() takes that fused path for streamable() XPath plans.
///
/// Extract() runs any plan over an arena DOM (`buffer.doc`). It has no
/// production caller; the repository benchmark still measures it, and
/// it returns, for the single page in `buffer.doc`, exactly the values
/// the interpreted Wrapper::Extract + node->text() pipeline returns for
/// the same input, in the same order — the byte-identity contract
/// (tests/fastpath_equivalence_test.cc pins it). ExtractStreaming()
/// returns those same bytes again, because StreamPage reproduces the
/// arena flatten byte for byte. The returned string_views point into the
/// buffer (and, on the streaming path's zero-copy tier, possibly into
/// the raw input); consume them before releasing either.
class CompiledWrapper {
 public:
  /// Compiles `wrapper` (an XPathWrapper, LrWrapper or HlrtWrapper).
  /// Returns nullptr for wrapper kinds without a compiled form — callers
  /// fall back to the interpreted path.
  static std::shared_ptr<const CompiledWrapper> Compile(
      const Wrapper& wrapper);

  /// One XPath step in source form, for building a plan without going
  /// through the parsed Wrapper (the wrapper-pack finalize path). The
  /// fields mirror xpath::Step; Compile() and MakeXPath() produce
  /// identical plans for the same steps.
  struct XPathStepSpec {
    bool descendant = false;
    enum class Test { kTag, kAnyElement, kText };
    Test test = Test::kTag;
    std::string tag;            // Test::kTag only
    int32_t child_number = -1;  // -1 = no filter
    std::vector<std::pair<std::string, std::string>> attr_filters;
  };

  /// Direct constructors for the pack's fixed-layout plans — bitwise the
  /// same plans Compile() builds from the equivalent Wrapper.
  static std::shared_ptr<const CompiledWrapper> MakeLr(std::string left,
                                                       std::string right);
  static std::shared_ptr<const CompiledWrapper> MakeHlrt(std::string head,
                                                         std::string tail,
                                                         std::string left,
                                                         std::string right);
  static std::shared_ptr<const CompiledWrapper> MakeXPath(
      const std::vector<XPathStepSpec>& steps);

  void Extract(FastPageBuffer& buffer,
               std::vector<std::string_view>* values) const;

  /// Streaming no-DOM execution over the raw request bytes: the stream
  /// matchers for dom_free() plans (LR/HLRT), the fused tokenize→
  /// plan-execute machine for streamable() XPath plans. An XPath plan
  /// that is not streamable() yields no values — callers route those to
  /// the interpreter.
  void ExtractStreaming(std::string_view raw_page, StreamPageBuffer& buffer,
                        std::vector<std::string_view>* values) const;

  /// The stream matchers of a dom_free() plan run on a StreamPage the
  /// caller already built — ExtractStreaming minus the Build, so one page
  /// can serve every LR/HLRT attribute of a site (FusedSiteExtractor).
  /// Byte-identical to ExtractStreaming on the page's source bytes.
  /// XPath plans yield no values.
  void MatchStreamPage(const html::StreamPage& page,
                       std::vector<std::string_view>* values) const;

  /// Capability flag: true when the plan is defined over the flattened
  /// character stream alone and never needs a DOM (LR/HLRT).
  bool dom_free() const { return kind_ != Kind::kXPath; }

  /// Capability flag: true for XPath step programs the fused streaming
  /// executor can run — any program of 1..63 steps (the per-node match
  /// bitset spends one bit per step plus the accept bit). Child/
  /// descendant axes, tag/any-element/text tests, positional filters and
  /// attribute filters are all prefix-computable from the event stream;
  /// nothing learned by the inductors falls outside this today.
  bool streamable() const { return kind_ == Kind::kXPath && streamable_; }

  /// True when ExtractStreaming() serves this plan (dom_free() or
  /// streamable()). Serve, crawl and ntw_extract route every other plan
  /// to the interpreter.
  bool has_streaming_form() const { return dom_free() || streamable(); }

  /// "xpath", "lr" or "hlrt" — for routing metrics and bench phase labels.
  const char* plan_kind() const;

  bool is_lr() const { return kind_ == Kind::kLr; }
  bool is_hlrt() const { return kind_ == Kind::kHlrt; }
  // Delimiters (empty when absent or not applicable to the plan kind).
  const std::string& left() const { return left_; }
  const std::string& right() const { return right_; }
  const std::string& head() const { return head_; }
  const std::string& tail() const { return tail_; }

 private:
  enum class Kind { kXPath, kLr, kHlrt };

  struct StepOp {
    bool descendant = false;  // child vs descendant axis
    // Node test: kText (tag_id == -2), any element (tag_id == -1), or a
    // specific interned tag id.
    int32_t tag_id = -1;
    bool is_text = false;
    bool any_element = false;
    int32_t child_number = -1;  // -1 = no filter (0 is a legal, unmatchable
                                // value: child numbers are 1-based)
    struct AttrFilter {
      int32_t name_id;    // Arena path: interned-id FindAttr lookup.
      std::string name;   // Fused path: raw byte compare (the tokenizer
                          // already lowercases), no per-attr interning.
      std::string value;
    };
    std::vector<AttrFilter> attr_filters;
  };

  void ExtractXPath(FastPageBuffer& buffer,
                    std::vector<std::string_view>* values) const;
  // The fused tokenize→plan-execute machine (streamable() plans only).
  void ExtractXPathStreaming(std::string_view raw_page,
                             StreamPageBuffer& buffer,
                             std::vector<std::string_view>* values) const;
  // Computes streamable_ and the per-axis step masks from steps_.
  void FinalizeXPath();
  // The LR/HLRT matchers, shared by the DOM path (ArenaDocument spans)
  // and the streaming path (StreamPage spans): any span type with
  // .begin/.end works, so both paths run the identical matching logic.
  template <typename Span>
  void MatchLr(std::string_view stream, const std::vector<Span>& spans,
               std::vector<std::string_view>* values) const;
  template <typename Span>
  void MatchHlrt(std::string_view stream, const std::vector<Span>& spans,
                 std::vector<std::string_view>* values) const;
  bool SpanMatchesLr(std::string_view stream, size_t begin,
                     size_t end) const;

  Kind kind_ = Kind::kXPath;
  std::vector<StepOp> steps_;        // XPATH
  bool streamable_ = false;          // XPATH: fused executor eligible.
  uint64_t child_steps_ = 0;         // XPATH: bit j = step j is child axis.
  uint64_t desc_steps_ = 0;          // XPATH: bit j = step j is descendant.
  // Tags named by a tag[k] step: the fused executor maintains same-tag
  // child counts only for these (no other step ever reads them).
  std::vector<int32_t> positional_tag_ids_;
  std::string left_, right_;         // LR / HLRT
  StringSearcher left_searcher_;     // LR / HLRT (non-empty left only)
  StringSearcher head_searcher_;     // HLRT
  StringSearcher tail_searcher_;     // HLRT
  std::string head_, tail_;          // HLRT
};

}  // namespace ntw::core

#endif  // NTW_CORE_COMPILED_WRAPPER_H_
