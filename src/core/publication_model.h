#ifndef NTW_CORE_PUBLICATION_MODEL_H_
#define NTW_CORE_PUBLICATION_MODEL_H_

#include <vector>

#include "common/result.h"
#include "core/label.h"
#include "stats/kde.h"

namespace ntw::core {

/// Record segmentation and list features of the web publication model
/// (Sec. 6). Pages are viewed as pre-order token sequences with every text
/// node replaced by <#text>; the nodes of X act as record boundaries; the
/// segments between consecutive boundaries are the records.

/// One record segment: interned structural tokens (tag names and #text).
using Segment = std::vector<int>;

/// The pages' pre-order token streams, flattened once so that scoring
/// many extractions over the same pages (every candidate of a ranking)
/// walks each DOM once. Token ids: 0 is #text; tags are interned across
/// the pages in order of first appearance, starting at 1.
class PageTokens {
 public:
  explicit PageTokens(const PageSet& pages);

  size_t size() const { return pages_.size(); }
  /// Page `p`'s tokens, one per element or text node in pre-order.
  const std::vector<int>& tokens(size_t p) const { return pages_[p].tokens; }
  /// Position in tokens(p) of the text node with pre-order index `node`;
  /// -1 when that node is not a text node of page `p`.
  int TextPosition(size_t p, int node) const;

 private:
  struct Page {
    std::vector<int> tokens;
    /// By pre-order index; -1 for nodes that are not text.
    std::vector<int> text_positions;
  };
  std::vector<Page> pages_;
};

/// Extracts record segments for X over the pages. Text nodes belonging to
/// `typed_sets[t]` (the first such t) get the distinct token -(t+1) so
/// multi-type alignment (Appendix A) can require type positions to match.
/// Segmentation boundaries come from typed_sets[0]. Pages with fewer than
/// two boundary nodes contribute no segments.
std::vector<Segment> SegmentRecords(const PageTokens& pages,
                                    const std::vector<const NodeSet*>& typed_sets);

/// Flattens `pages` and segments them as above.
std::vector<Segment> SegmentRecords(const PageSet& pages,
                                    const std::vector<const NodeSet*>& typed_sets);

/// Convenience overload for single-type extraction.
std::vector<Segment> SegmentRecords(const PageSet& pages, const NodeSet& x);

/// The two list features of Sec. 6.1.
struct ListFeatures {
  /// Median over segment pairs of the number of #text tokens in the
  /// longest common substring — approximates the per-record schema size.
  double schema_size = 0.0;
  /// Maximum pairwise edit distance between segments (capped).
  double alignment = 0.0;
  int segment_count = 0;
};

/// Computes both features from the segments. Pair sampling is
/// deterministic: all pairs for small lists, a fixed adjacent+strided
/// sample for large ones. Distances are capped at `alignment_cap`.
ListFeatures ComputeListFeatures(const std::vector<Segment>& segments,
                                 int alignment_cap = 128);

/// P(X): the product of per-feature densities learned from sample
/// websites' ground-truth lists via kernel density estimation (Sec. 6.1).
class PublicationModel {
 public:
  /// Fits the feature distributions from training feature vectors.
  static Result<PublicationModel> Fit(const std::vector<ListFeatures>& sample);

  /// Fit with explicit KDE options (bandwidth ablations).
  static Result<PublicationModel> Fit(
      const std::vector<ListFeatures>& sample,
      const stats::KernelDensity::Options& kde_options);

  /// log P(X) for an extraction's features.
  double LogProb(const ListFeatures& features) const;

  /// Convenience: segment + featurize + score in one call (single type).
  double LogProb(const PageTokens& pages, const NodeSet& x) const;
  double LogProb(const PageSet& pages, const NodeSet& x) const;

  const stats::KernelDensity& schema_kde() const { return schema_kde_; }
  const stats::KernelDensity& alignment_kde() const { return alignment_kde_; }

 private:
  PublicationModel(stats::KernelDensity schema_kde,
                   stats::KernelDensity alignment_kde)
      : schema_kde_(std::move(schema_kde)),
        alignment_kde_(std::move(alignment_kde)) {}

  stats::KernelDensity schema_kde_;
  stats::KernelDensity alignment_kde_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_PUBLICATION_MODEL_H_
