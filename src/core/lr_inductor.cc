#include "core/lr_inductor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/strings.h"

namespace ntw::core {
namespace {

/// φ(∅): extracts nothing.
class EmptyLrWrapper : public Wrapper {
 public:
  NodeSet Extract(const PageSet&) const override { return NodeSet(); }
  std::string ToString() const override { return "LR(empty)"; }
};

std::string Abbrev(const std::string& s) {
  constexpr size_t kMax = 40;
  if (s.size() <= kMax) return s;
  return s.substr(0, kMax / 2) + "..." + s.substr(s.size() - kMax / 2);
}

// Attribute handles are (k << 1) | side: Lk on side 0, Rk on side 1.
constexpr int kLeft = 0;
constexpr int kRight = 1;

constexpr uint32_t kNoRank = std::numeric_limits<uint32_t>::max();

/// True when `a` read backwards sorts before `b` read backwards. Any
/// character order works here: it only has to make the contexts that share
/// a suffix contiguous.
bool ReversedLess(std::string_view a, std::string_view b) {
  return std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                      b.rend());
}

size_t CommonPrefix(std::string_view a, std::string_view b) {
  return static_cast<size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
}

size_t CommonSuffix(std::string_view a, std::string_view b) {
  return static_cast<size_t>(
      std::mismatch(a.rbegin(), a.rend(), b.rbegin(), b.rend()).first -
      a.rbegin());
}

/// The sorted contexts of one label set. Per side, the text labels are
/// sorted by context (the left context by its bytes read backwards), so
/// the labels that share their k-character context form a run of sorted
/// neighbours whose common lengths are all >= k. The partition by Lk or Rk
/// is then a walk over that run structure; no context is copied.
struct ContextIndex {
  struct Side {
    /// By label position: the context capped at max_context, a view into
    /// a cached CharView stream; empty for a non-text label.
    std::vector<std::string_view> context;
    /// Positions of the text labels, sorted by context.
    std::vector<uint32_t> sorted;
    /// By label position: the index into `sorted`, or kNoRank.
    std::vector<uint32_t> rank;
    /// common[r]: common length of sorted[r] and sorted[r + 1] (a common
    /// prefix on the right, a common suffix on the left).
    std::vector<size_t> common;
  };

  std::vector<NodeRef> labels;  // The indexed set, sorted.
  size_t max_context = 0;
  Side sides[2];
};

ContextIndex BuildIndex(const std::vector<text::CharView>& views,
                        const NodeSet& labels, size_t max_context) {
  ContextIndex index;
  index.labels = labels.refs();
  index.max_context = max_context;
  const size_t n = index.labels.size();
  for (ContextIndex::Side& side : index.sides) {
    side.context.resize(n);
    side.rank.assign(n, kNoRank);
  }
  for (size_t i = 0; i < n; ++i) {
    const NodeRef& ref = index.labels[i];
    const text::CharView& view = views[static_cast<size_t>(ref.page)];
    const text::TextSpan* span = view.SpanForNode(ref.node);
    if (span == nullptr) continue;  // Non-text label: lacks every Lk, Rk.
    index.sides[kLeft].context[i] = view.Before(*span, max_context);
    index.sides[kRight].context[i] = view.After(*span, max_context);
    for (ContextIndex::Side& side : index.sides) {
      side.sorted.push_back(static_cast<uint32_t>(i));
    }
  }
  for (int s = kLeft; s <= kRight; ++s) {
    ContextIndex::Side& side = index.sides[s];
    const std::vector<std::string_view>& ctx = side.context;
    std::sort(side.sorted.begin(), side.sorted.end(),
              [&](uint32_t a, uint32_t b) {
                return s == kLeft ? ReversedLess(ctx[a], ctx[b])
                                  : ctx[a] < ctx[b];
              });
    for (size_t r = 0; r < side.sorted.size(); ++r) {
      side.rank[side.sorted[r]] = static_cast<uint32_t>(r);
      if (r + 1 < side.sorted.size()) {
        std::string_view a = ctx[side.sorted[r]];
        std::string_view b = ctx[side.sorted[r + 1]];
        side.common.push_back(s == kLeft ? CommonSuffix(a, b)
                                         : CommonPrefix(a, b));
      }
    }
  }
  return index;
}

/// Per-thread flattened views of one PageSet, plus the index of the label
/// set Attributes was last called with over them. The enumeration engine
/// calls Induce from pool workers; a thread-local cache needs no locking
/// and each worker amortizes the flattening across its share of the
/// subsets. The cache is keyed by PageSet::id(), which is unique per
/// instance lifetime, so a recreated page set reusing a freed address is
/// never served stale views. The index points into the views and is
/// dropped whenever they are rebuilt.
struct ThreadCache {
  uint64_t id = 0;  // PageSet ids start at 1, so 0 never matches.
  std::vector<text::CharView> views;
  std::optional<ContextIndex> index;
};

/// The calling thread's cache, rebuilt for `pages` if it holds another
/// page set. References into it stay valid until the same thread asks for
/// a different PageSet.
ThreadCache& CacheFor(const PageSet& pages) {
  thread_local ThreadCache cache;
  if (cache.id != pages.id()) {
    cache.index.reset();
    cache.views.clear();
    cache.views.reserve(pages.size());
    for (size_t p = 0; p < pages.size(); ++p) {
      cache.views.emplace_back(pages.page(p));
    }
    cache.id = pages.id();
  }
  return cache;
}

/// Sorted ranks on one side of the members of `s` whose context has at
/// least k characters. False when `index` does not cover `s`.
bool RanksOf(const ContextIndex& index, int side, const NodeSet& s, size_t k,
             std::vector<uint32_t>* ranks) {
  ranks->clear();
  const ContextIndex::Side& ctx = index.sides[side];
  auto it = index.labels.begin();  // Both sets are sorted.
  for (const NodeRef& ref : s) {
    it = std::lower_bound(it, index.labels.end(), ref);
    if (it == index.labels.end() || !(*it == ref)) return false;
    size_t pos = static_cast<size_t>(it - index.labels.begin());
    // A non-text member, or one closer than k characters to the page
    // boundary, lacks the attribute Lk/Rk.
    if (ctx.rank[pos] == kNoRank || ctx.context[pos].size() < k) continue;
    ranks->push_back(ctx.rank[pos]);
  }
  std::sort(ranks->begin(), ranks->end());
  return true;
}

}  // namespace

NodeSet LrWrapper::Extract(const PageSet& pages) const {
  std::vector<NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    text::CharView view(pages.page(p));
    for (const text::TextSpan& span : view.spans()) {
      std::string_view before = view.Before(span, left_.size());
      std::string_view after = view.After(span, right_.size());
      if (before.size() == left_.size() && before == left_ &&
          after.size() == right_.size() && after == right_) {
        out.push_back(NodeRef{static_cast<int>(p),
                              span.node->preorder_index()});
      }
    }
  }
  return NodeSet(std::move(out));
}

std::string LrWrapper::ToString() const {
  return "LR(l='" + Abbrev(left_) + "', r='" + Abbrev(right_) + "')";
}

Induction LrInductor::Induce(const PageSet& pages,
                             const NodeSet& labels) const {
  if (labels.empty()) {
    Induction result;
    result.wrapper = std::make_shared<EmptyLrWrapper>();
    return result;
  }
  const auto& views = CacheFor(pages).views;

  std::vector<std::string_view> befores;
  std::vector<std::string_view> afters;
  befores.reserve(labels.size());
  afters.reserve(labels.size());
  for (const NodeRef& ref : labels) {
    const text::CharView& view = views[static_cast<size_t>(ref.page)];
    const text::TextSpan* span = view.SpanForNode(ref.node);
    if (span == nullptr) continue;  // Non-text label: contributes nothing.
    befores.push_back(view.Before(*span, max_context_));
    afters.push_back(view.After(*span, max_context_));
  }

  Induction result;
  if (befores.empty()) {
    result.wrapper = std::make_shared<EmptyLrWrapper>();
    result.extraction = labels;
    return result;
  }
  auto wrapper = std::make_shared<LrWrapper>(
      text::LongestCommonSuffix(befores), text::LongestCommonPrefix(afters));
  // Extraction over the cached views (avoids re-flattening every page).
  std::vector<NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    const text::CharView& view = views[p];
    const std::string& l = wrapper->left();
    const std::string& r = wrapper->right();
    for (const text::TextSpan& span : view.spans()) {
      std::string_view before = view.Before(span, l.size());
      std::string_view after = view.After(span, r.size());
      if (before.size() == l.size() && before == l &&
          after.size() == r.size() && after == r) {
        out.push_back(NodeRef{static_cast<int>(p),
                              span.node->preorder_index()});
      }
    }
  }
  result.wrapper = std::move(wrapper);
  result.extraction = NodeSet(std::move(out)).Union(labels);
  return result;
}

std::vector<AttrHandle> LrInductor::Attributes(const PageSet& pages,
                                               const NodeSet& labels) const {
  if (labels.empty()) return {};
  ThreadCache& cache = CacheFor(pages);
  if (!cache.index || cache.index->max_context != max_context_ ||
      cache.index->labels != labels.refs()) {
    cache.index = BuildIndex(cache.views, labels, max_context_);
  }

  // Attributes are L1..Lk* / R1..Rk*. Going from length k-1 to k, a label
  // drops out only if its context has k-1 characters, and a run of sorted
  // neighbours splits only where their common length is k-1. So the
  // partition at k (drop-outs included) can differ from the one at k-1
  // only where k-1 is a context length or a neighbour common length; the
  // other lengths subdivide every subset of the labels as their
  // predecessor does, and are skipped. k* is one past the largest common
  // length: there every group is a singleton, and every longer length
  // only refines singletons.
  std::vector<AttrHandle> attrs;
  std::vector<char> changes;
  for (int s = kLeft; s <= kRight; ++s) {
    const ContextIndex::Side& side = cache.index->sides[s];
    if (side.sorted.empty()) continue;  // No text label: no attribute.
    size_t largest = 0;
    for (size_t common : side.common) largest = std::max(largest, common);
    const size_t last = std::min(largest + 1, max_context_);
    changes.assign(last, 0);
    for (size_t common : side.common) {
      if (common < last) changes[common] = 1;
    }
    for (uint32_t pos : side.sorted) {
      const size_t length = side.context[pos].size();
      if (length < last) changes[length] = 1;
    }
    for (size_t k = 1; k <= last; ++k) {
      if (k == 1 || changes[k - 1]) {
        attrs.push_back(static_cast<AttrHandle>((k << 1) | s));
      }
    }
  }
  return attrs;
}

std::vector<NodeSet> LrInductor::Subdivide(const PageSet& pages,
                                           const NodeSet& s,
                                           AttrHandle attr) const {
  ThreadCache& cache = CacheFor(pages);
  const size_t k = static_cast<size_t>(attr) >> 1;
  const int side = (attr & 1) == 0 ? kLeft : kRight;

  // Subsets of the labels Attributes indexed are walked in that index; any
  // other set is indexed on its own, through the same builder.
  std::vector<uint32_t> ranks;
  std::optional<ContextIndex> own;
  const ContextIndex* index = nullptr;
  if (cache.index && cache.index->max_context == max_context_ &&
      RanksOf(*cache.index, side, s, k, &ranks)) {
    index = &*cache.index;
  } else {
    own = BuildIndex(cache.views, s, max_context_);
    index = &*own;
    RanksOf(*index, side, s, k, &ranks);
  }
  const ContextIndex::Side& ctx = index->sides[side];

  // Consecutive members share their k-character context exactly when no
  // neighbour common length between their ranks falls below k.
  auto same_context = [&](uint32_t a, uint32_t b) {
    return std::all_of(ctx.common.begin() + a, ctx.common.begin() + b,
                       [k](size_t common) { return common >= k; });
  };
  std::vector<std::pair<std::string_view, std::vector<NodeRef>>> groups;
  for (size_t i = 0; i < ranks.size(); ++i) {
    const uint32_t pos = ctx.sorted[ranks[i]];
    if (i == 0 || !same_context(ranks[i - 1], ranks[i])) {
      std::string_view context = ctx.context[pos];
      groups.emplace_back(side == kLeft ? context.substr(context.size() - k)
                                        : context.substr(0, k),
                          std::vector<NodeRef>());
    }
    groups.back().second.push_back(index->labels[pos]);
  }

  // Groups are returned in the forward byte order of their k-character
  // context. Right contexts are sorted that way already; left contexts
  // were sorted backwards, so their groups are reordered here.
  if (side == kLeft) {
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::vector<NodeSet> out;
  out.reserve(groups.size());
  for (auto& [context, refs] : groups) out.push_back(NodeSet(std::move(refs)));
  return out;
}

}  // namespace ntw::core
