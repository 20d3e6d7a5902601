#ifndef NTW_CORE_LR_INDUCTOR_H_
#define NTW_CORE_LR_INDUCTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/wrapper.h"
#include "text/char_view.h"

namespace ntw::core {

/// The WIEN LR wrapper inductor (Kushmerick et al., Sec. 5): the document
/// is a character sequence; the learned rule is a pair (l, r) where l is
/// the longest common string preceding every labeled item and r the
/// longest common string following it. A node is extracted when its left
/// context ends with l and its right context starts with r.
///
/// Feature-based form (Theorem 4 discussion): attributes L1..Lk / R1..Rk
/// where Lk's value is the k characters immediately preceding the node.
/// These are nested equivalence relations, so the feature space is never
/// materialized: Attributes() sorts the labels' contexts once per side
/// (left contexts by their bytes read backwards) and records the common
/// length of each pair of sorted neighbours. The labels sharing a
/// k-character context are then a run of neighbours whose common lengths
/// are all >= k. Attributes() emits only the lengths at which that
/// partition can change, and Subdivide() splits a subset's sorted run
/// where a common length falls below k. The index lives in a per-thread
/// cache next to the flattened pages it points into (lr_inductor.cc).
///
/// Contexts are capped at `max_context` characters, and so are the
/// lengths Attributes() emits. The cap only matters for near-singleton
/// label sets (where the true LR delimiter is the whole page prefix); with
/// ≥2 labels the common context is naturally short.
class LrInductor : public FeatureBasedInductor {
 public:
  explicit LrInductor(size_t max_context = 256)
      : max_context_(max_context) {}

  Induction Induce(const PageSet& pages, const NodeSet& labels) const override;
  std::string Name() const override { return "LR"; }

  std::vector<AttrHandle> Attributes(const PageSet& pages,
                                     const NodeSet& labels) const override;
  std::vector<NodeSet> Subdivide(const PageSet& pages, const NodeSet& s,
                                 AttrHandle attr) const override;

  size_t max_context() const { return max_context_; }

 private:
  size_t max_context_;
};

/// The learned (l, r) rule. Exposed so examples/benches can inspect it.
class LrWrapper : public Wrapper {
 public:
  LrWrapper(std::string left, std::string right)
      : left_(std::move(left)), right_(std::move(right)) {}

  NodeSet Extract(const PageSet& pages) const override;
  std::string ToString() const override;

  const std::string& left() const { return left_; }
  const std::string& right() const { return right_; }

 private:
  std::string left_;
  std::string right_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_LR_INDUCTOR_H_
