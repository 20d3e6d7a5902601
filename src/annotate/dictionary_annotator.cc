#include "annotate/dictionary_annotator.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ntw::annotate {

DictionaryAnnotator::DictionaryAnnotator(std::vector<std::string> entries,
                                         Options options)
    : options_(options) {
  for (const std::string& entry : entries) {
    if (entry.size() < options_.min_entry_length) continue;
    ++size_;
    // An empty needle never matches (ContainsWordIgnoreCase), so "" is
    // counted but not indexed.
    if (entry.empty()) continue;
    index_.insert(ToLower(entry));
    lengths_.push_back(entry.size());
  }
  std::sort(lengths_.begin(), lengths_.end());
  lengths_.erase(std::unique(lengths_.begin(), lengths_.end()),
                 lengths_.end());
}

bool DictionaryAnnotator::Matches(const std::string& text) const {
  const size_t n = text.size();
  std::string mention;
  for (size_t start = 0; start < n; ++start) {
    if (start > 0 && IsAsciiAlnum(text[start - 1])) continue;
    for (size_t length : lengths_) {
      size_t end = start + length;
      if (end > n) break;
      if (end < n && IsAsciiAlnum(text[end])) continue;
      mention.assign(text, start, length);
      for (char& c : mention) c = AsciiToLower(c);
      if (index_.count(mention) > 0) return true;
    }
  }
  return false;
}

core::NodeSet DictionaryAnnotator::Annotate(
    const core::PageSet& pages) const {
  obs::Span span("annotate.dictionary");
  static obs::Counter* const labels =
      obs::Registry::Global().GetCounter("ntw.annotate.labels");
  std::vector<core::NodeRef> refs;
  size_t page_limit = options_.max_pages == 0
                          ? pages.size()
                          : std::min(options_.max_pages, pages.size());
  for (size_t p = 0; p < page_limit; ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (Matches(node->text())) {
        refs.push_back(
            core::NodeRef{static_cast<int>(p), node->preorder_index()});
      }
    }
  }
  core::NodeSet result(std::move(refs));
  labels->Add(static_cast<int64_t>(result.size()));
  return result;
}

}  // namespace ntw::annotate
