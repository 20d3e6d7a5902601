#ifndef NTW_TEXT_CHAR_VIEW_H_
#define NTW_TEXT_CHAR_VIEW_H_

#include <string>
#include <string_view>
#include <vector>

#include "html/dom.h"

namespace ntw::text {

/// Position of one text node's character span inside the flattened page.
struct TextSpan {
  const html::Node* node = nullptr;
  size_t begin = 0;  // Inclusive offset into CharView::stream.
  size_t end = 0;    // Exclusive.
};

/// The WIEN/LR view of a page: the serialized markup as one character
/// stream, with the span of every text node recorded. LR wrappers reason
/// about the strings immediately preceding/following a candidate item
/// (Sec. 5), which are exactly prefix/suffix windows around these spans.
class CharView {
 public:
  /// Builds the view for a finalized document.
  explicit CharView(const html::Document& doc);

  const std::string& stream() const { return stream_; }
  const std::vector<TextSpan>& spans() const { return spans_; }

  /// Span for the text node with the given pre-order index, or nullptr
  /// when that node is not a text node of this document.
  const TextSpan* SpanForNode(int preorder_index) const;

  /// The k characters before span.begin (shorter near the page start).
  std::string_view Before(const TextSpan& span, size_t k) const;

  /// The k characters from span.end (shorter near the page end).
  std::string_view After(const TextSpan& span, size_t k) const;

 private:
  void Flatten(const html::Node* root);

  std::string stream_;
  std::vector<TextSpan> spans_;
  std::vector<int> span_index_by_node_;  // preorder index -> spans_ index+1.
};

/// Longest common suffix of a set of strings (the LR left delimiter).
std::string LongestCommonSuffix(const std::vector<std::string_view>& strings);

/// Longest common prefix of a set of strings (the LR right delimiter).
std::string LongestCommonPrefix(const std::vector<std::string_view>& strings);

}  // namespace ntw::text

#endif  // NTW_TEXT_CHAR_VIEW_H_
