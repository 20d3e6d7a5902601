#include "core/wrapper.h"

#include <cassert>

#include "html/parser.h"

namespace ntw::core {

std::vector<std::string> ExtractValuesInterpreted(const Wrapper& wrapper,
                                                  std::string_view page_html) {
  Result<html::Document> doc = html::Parse(page_html);
  if (!doc.ok()) return {};
  PageSet pages;
  pages.AddPage(std::move(*doc));
  NodeSet extraction = wrapper.Extract(pages);
  std::vector<std::string> values;
  values.reserve(extraction.size());
  for (const NodeRef& ref : extraction) {
    const html::Node* node = pages.Resolve(ref);
    if (node != nullptr) values.push_back(node->text());
  }
  return values;
}

std::vector<AttrHandle> CountingInductor::Attributes(
    const PageSet& pages, const NodeSet& labels) const {
  auto* feature_based = dynamic_cast<const FeatureBasedInductor*>(base_);
  assert(feature_based != nullptr &&
         "underlying inductor is not feature-based");
  return feature_based->Attributes(pages, labels);
}

std::vector<NodeSet> CountingInductor::Subdivide(const PageSet& pages,
                                                 const NodeSet& s,
                                                 AttrHandle attr) const {
  auto* feature_based = dynamic_cast<const FeatureBasedInductor*>(base_);
  assert(feature_based != nullptr &&
         "underlying inductor is not feature-based");
  return feature_based->Subdivide(pages, s, attr);
}

}  // namespace ntw::core
