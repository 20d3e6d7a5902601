#ifndef NTW_CORE_FUSED_MATCHER_H_
#define NTW_CORE_FUSED_MATCHER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_wrapper.h"

namespace ntw::core {

/// Multi-attribute extraction for `attribute=*` and the crawl (DESIGN.md
/// §15): a site's LR/HLRT attributes are all defined over the same
/// flattened character stream, so the page is flattened once (one
/// StreamPage build) and every dom_free plan runs its own BMH matchers
/// on that shared stream — instead of one StreamPage build per
/// attribute.
///
/// Byte-identity contract: for every bound attribute, the fused
/// extraction returns exactly the bytes CompiledWrapper::ExtractStreaming
/// returns for the same input — both run CompiledWrapper::MatchStreamPage
/// on the same StreamPage (tests/fused_extract_test.cc pins it, as do the
/// loadgen gate and crawl byte-identity).

/// Reusable per-request scratch for fused extraction (per-attribute value
/// slots); pool it like the page buffers.
struct FusedScratch {
  std::vector<std::vector<std::string_view>> values;

  void Clear() {
    // Keep capacity: steady state refills the same vectors.
    for (auto& list : values) list.clear();
  }
};

using FusedScratchPool = BufferPool<FusedScratch>;

/// One site's fused extractor: per attribute, the dom_free compiled plan.
/// Immutable and thread-safe after construction.
class FusedSiteExtractor {
 public:
  struct Attribute {
    std::string name;
    std::shared_ptr<const CompiledWrapper> plan;  // dom_free() only
  };

  /// Binds a site's dom_free plans, sorted by name; other plans are
  /// skipped. Returns nullptr when no plan is dom_free.
  static std::shared_ptr<const FusedSiteExtractor> Build(
      std::vector<std::pair<std::string,
                            std::shared_ptr<const CompiledWrapper>>> plans);

  /// Flattens the page once and extracts every attribute:
  /// scratch.values[i] receives attributes()[i]'s values, byte-identical
  /// to plan->ExtractStreaming on the same input. Views point into
  /// `buffer` (or the raw input on the zero-copy tier).
  void ExtractAllStreaming(std::string_view raw_page,
                           StreamPageBuffer& buffer,
                           FusedScratch& scratch) const;

  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of `name` in attributes(), or npos.
  size_t FindAttribute(std::string_view name) const;

  /// Serialized per-site matcher state. Always empty: every plan carries
  /// its own searchers. Kept for callers that report its size.
  const std::string& blob() const { return blob_; }

 private:
  explicit FusedSiteExtractor(std::vector<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  std::string blob_;
  std::vector<Attribute> attributes_;  // Sorted by name.
};

}  // namespace ntw::core

#endif  // NTW_CORE_FUSED_MATCHER_H_
