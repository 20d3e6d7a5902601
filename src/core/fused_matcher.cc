#include "core/fused_matcher.h"

#include <algorithm>

namespace ntw::core {

std::shared_ptr<const FusedSiteExtractor> FusedSiteExtractor::Build(
    std::vector<std::pair<std::string, std::shared_ptr<const CompiledWrapper>>>
        plans) {
  std::vector<Attribute> attributes;
  std::sort(plans.begin(), plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [name, plan] : plans) {
    if (plan == nullptr || !plan->dom_free()) continue;
    attributes.push_back({std::move(name), std::move(plan)});
  }
  if (attributes.empty()) return nullptr;
  return std::shared_ptr<const FusedSiteExtractor>(
      new FusedSiteExtractor(std::move(attributes)));
}

size_t FusedSiteExtractor::FindAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
  if (it == attributes_.end() || it->name != name) {
    return std::string_view::npos;
  }
  return static_cast<size_t>(it - attributes_.begin());
}

void FusedSiteExtractor::ExtractAllStreaming(std::string_view raw_page,
                                             StreamPageBuffer& buffer,
                                             FusedScratch& scratch) const {
  buffer.page.Build(raw_page);
  scratch.values.resize(attributes_.size());
  for (size_t i = 0; i < attributes_.size(); ++i) {
    attributes_[i].plan->MatchStreamPage(buffer.page, &scratch.values[i]);
  }
}

}  // namespace ntw::core
