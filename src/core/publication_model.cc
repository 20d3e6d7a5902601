#include "core/publication_model.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "align/edit_distance.h"

namespace ntw::core {
namespace {

constexpr int kTextToken = 0;

/// Deterministic pair sample over `n` segments: everything for small n,
/// adjacent + strided pairs for large n, capped.
std::vector<std::pair<size_t, size_t>> SamplePairs(size_t n) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (n < 2) return pairs;
  if (n <= 12) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
    return pairs;
  }
  constexpr size_t kMaxPairs = 64;
  // Adjacent pairs spread across the list.
  size_t adjacent = kMaxPairs / 2;
  for (size_t k = 0; k < adjacent; ++k) {
    size_t i = k * (n - 1) / adjacent;
    pairs.emplace_back(i, i + 1);
  }
  // Long-range pairs (first half vs second half).
  size_t far = kMaxPairs - pairs.size();
  for (size_t k = 0; k < far; ++k) {
    size_t i = k * (n / 2) / far;
    size_t j = i + n / 2;
    if (j < n && i != j) pairs.emplace_back(i, j);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

PageTokens::PageTokens(const PageSet& pages) {
  std::unordered_map<std::string_view, int> tag_ids;
  pages_.resize(pages.size());
  for (size_t p = 0; p < pages.size(); ++p) {
    const html::Document& doc = pages.page(p);
    Page& page = pages_[p];
    page.tokens.reserve(doc.node_count());
    page.text_positions.assign(doc.node_count(), -1);
    // Pre-order index order is the pre-order token order.
    for (size_t i = 0; i < doc.node_count(); ++i) {
      const html::Node* node = doc.node(static_cast<int>(i));
      if (node->is_text()) {
        page.text_positions[i] = static_cast<int>(page.tokens.size());
        page.tokens.push_back(kTextToken);
      } else if (node->is_element()) {
        auto [it, inserted] = tag_ids.emplace(
            node->tag(), static_cast<int>(tag_ids.size()) + 1);
        page.tokens.push_back(it->second);
      }
    }
  }
}

int PageTokens::TextPosition(size_t p, int node) const {
  const std::vector<int>& positions = pages_[p].text_positions;
  if (node < 0 || static_cast<size_t>(node) >= positions.size()) return -1;
  return positions[static_cast<size_t>(node)];
}

std::vector<Segment> SegmentRecords(
    const PageTokens& pages, const std::vector<const NodeSet*>& typed_sets) {
  std::vector<Segment> segments;
  if (typed_sets.empty() || typed_sets[0] == nullptr) return segments;

  // The references of `set` on page p: a contiguous run of the sorted set.
  auto on_page = [](const NodeSet& set, size_t p) {
    const int page = static_cast<int>(p);
    constexpr int kFirstNode = std::numeric_limits<int>::min();
    return std::make_pair(
        std::lower_bound(set.begin(), set.end(), NodeRef{page, kFirstNode}),
        std::lower_bound(set.begin(), set.end(),
                         NodeRef{page + 1, kFirstNode}));
  };

  std::vector<size_t> boundary_positions;
  std::vector<int> typed;
  for (size_t p = 0; p < pages.size(); ++p) {
    // Boundary text nodes in pre-order, hence in token order.
    boundary_positions.clear();
    auto [first, last] = on_page(*typed_sets[0], p);
    for (auto it = first; it != last; ++it) {
      int pos = pages.TextPosition(p, it->node);
      if (pos >= 0) boundary_positions.push_back(static_cast<size_t>(pos));
    }
    if (boundary_positions.size() < 2) continue;

    // Re-token text nodes that belong to a typed set (the first type t
    // claiming a node gives it −(t+1)), so records must align their typed
    // items (Appendix A ranking). Only the span the segments cover is
    // copied.
    const std::vector<int>& tokens = pages.tokens(p);
    const size_t begin = boundary_positions.front();
    const size_t end = boundary_positions.back();
    typed.assign(tokens.begin() + static_cast<long>(begin),
                 tokens.begin() + static_cast<long>(end));
    for (size_t t = 0; t < typed_sets.size(); ++t) {
      if (typed_sets[t] == nullptr) continue;
      auto [type_first, type_last] = on_page(*typed_sets[t], p);
      for (auto it = type_first; it != type_last; ++it) {
        int pos = pages.TextPosition(p, it->node);
        if (pos < 0 || static_cast<size_t>(pos) < begin ||
            static_cast<size_t>(pos) >= end) {
          continue;
        }
        int& token = typed[static_cast<size_t>(pos) - begin];
        if (token == kTextToken) token = -static_cast<int>(t) - 1;
      }
    }

    // Segments between consecutive boundary nodes (pre-order traversal
    // from one element of X to the next, Sec. 6 / Fig. 7).
    for (size_t b = 0; b + 1 < boundary_positions.size(); ++b) {
      segments.emplace_back(
          typed.begin() + static_cast<long>(boundary_positions[b] - begin),
          typed.begin() + static_cast<long>(boundary_positions[b + 1] - begin));
    }
  }
  return segments;
}

std::vector<Segment> SegmentRecords(
    const PageSet& pages, const std::vector<const NodeSet*>& typed_sets) {
  return SegmentRecords(PageTokens(pages), typed_sets);
}

std::vector<Segment> SegmentRecords(const PageSet& pages, const NodeSet& x) {
  return SegmentRecords(PageTokens(pages), {&x});
}

ListFeatures ComputeListFeatures(const std::vector<Segment>& segments,
                                 int alignment_cap) {
  ListFeatures features;
  features.segment_count = static_cast<int>(segments.size());
  if (segments.empty()) {
    // No list structure at all (e.g. <2 extracted nodes per page):
    // schema 0 / alignment 0; the learned schema distribution penalizes
    // this naturally.
    return features;
  }
  if (segments.size() == 1) {
    int text_count = 0;
    for (int token : segments[0]) {
      if (token <= kTextToken) ++text_count;
    }
    features.schema_size = text_count;
    return features;
  }

  std::vector<double> schema_samples;
  int max_distance = 0;
  for (const auto& [i, j] : SamplePairs(segments.size())) {
    align::CommonSubstring common =
        align::LongestCommonSubstring(segments[i], segments[j]);
    int text_count = 0;
    for (int token : common.tokens) {
      if (token <= kTextToken) ++text_count;
    }
    schema_samples.push_back(text_count);
    int distance = align::EditDistanceBounded(segments[i], segments[j],
                                              alignment_cap);
    max_distance = std::max(max_distance, distance);
  }
  features.schema_size = stats::Median(schema_samples);
  features.alignment = max_distance;
  return features;
}

Result<PublicationModel> PublicationModel::Fit(
    const std::vector<ListFeatures>& sample) {
  return Fit(sample, stats::KernelDensity::Options());
}

Result<PublicationModel> PublicationModel::Fit(
    const std::vector<ListFeatures>& sample,
    const stats::KernelDensity::Options& kde_options) {
  if (sample.empty()) {
    return Status::InvalidArgument("PublicationModel: empty sample");
  }
  std::vector<double> schema_values;
  std::vector<double> alignment_values;
  schema_values.reserve(sample.size());
  alignment_values.reserve(sample.size());
  for (const ListFeatures& f : sample) {
    schema_values.push_back(f.schema_size);
    alignment_values.push_back(f.alignment);
  }
  NTW_ASSIGN_OR_RETURN(stats::KernelDensity schema_kde,
                       stats::KernelDensity::Fit(schema_values, kde_options));
  NTW_ASSIGN_OR_RETURN(
      stats::KernelDensity alignment_kde,
      stats::KernelDensity::Fit(alignment_values, kde_options));
  return PublicationModel(std::move(schema_kde), std::move(alignment_kde));
}

double PublicationModel::LogProb(const ListFeatures& features) const {
  return schema_kde_.LogDensity(features.schema_size) +
         alignment_kde_.LogDensity(features.alignment);
}

double PublicationModel::LogProb(const PageTokens& pages,
                                 const NodeSet& x) const {
  return LogProb(ComputeListFeatures(SegmentRecords(pages, {&x})));
}

double PublicationModel::LogProb(const PageSet& pages,
                                 const NodeSet& x) const {
  return LogProb(PageTokens(pages), x);
}

}  // namespace ntw::core
