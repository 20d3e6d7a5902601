#ifndef NTW_CORE_RANKER_H_
#define NTW_CORE_RANKER_H_

#include <string>
#include <vector>

#include "core/annotation_model.h"
#include "core/enumerate.h"
#include "core/publication_model.h"

namespace ntw::core {

/// Which components of the score participate in ranking (the ablation of
/// Sec. 7.3).
enum class RankerVariant {
  kFull,            // NTW:   P(L|X) · P(X)
  kAnnotationOnly,  // NTW-L: P(L|X) only
  kListOnly,        // NTW-X: P(X) only
};

const char* RankerVariantName(RankerVariant variant);

/// A candidate with its score decomposition.
struct ScoredCandidate {
  size_t candidate_index = 0;
  double log_annotation = 0.0;  // log P(L|X) (up to a constant).
  double log_list = 0.0;        // log P(X).
  double total = 0.0;           // Per the variant.
};

/// Ranks an enumerated wrapper space by Equation (1).
class Ranker {
 public:
  Ranker(AnnotationModel annotation, PublicationModel publication,
         RankerVariant variant = RankerVariant::kFull)
      : annotation_(std::move(annotation)),
        publication_(std::move(publication)),
        variant_(variant) {}

  /// Scores every candidate, returned best-first. Ties break toward the
  /// larger extraction (the more general wrapper), then toward the lower
  /// extraction fingerprint (NodeSet::Fingerprint), then the lower index,
  /// so ranking is deterministic.
  std::vector<ScoredCandidate> Rank(const WrapperSpace& space,
                                    const PageSet& pages,
                                    const NodeSet& labels) const;

  /// Index of the best candidate; fails on an empty space.
  Result<size_t> Best(const WrapperSpace& space, const PageSet& pages,
                      const NodeSet& labels) const;

  const AnnotationModel& annotation_model() const { return annotation_; }
  const PublicationModel& publication_model() const { return publication_; }
  RankerVariant variant() const { return variant_; }

 private:
  AnnotationModel annotation_;
  PublicationModel publication_;
  RankerVariant variant_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_RANKER_H_
