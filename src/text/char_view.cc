#include "text/char_view.h"

#include <algorithm>

#include "common/strings.h"

namespace ntw::text {

CharView::CharView(const html::Document& doc) {
  span_index_by_node_.assign(doc.node_count(), 0);
  Flatten(doc.root());
}

void CharView::Flatten(const html::Node* root) {
  // Iterative pre-order walk: nesting depth is bounded only by page size.
  // An element's entry comes back with `close` set once its children are
  // done, to emit its end tag.
  struct Pending {
    const html::Node* node;
    bool close;
  };
  std::vector<Pending> pending = {{root, false}};
  auto push_children = [&pending](const html::Node* node) {
    for (size_t i = node->child_count(); i > 0; --i) {
      pending.push_back({node->child(i - 1), false});
    }
  };
  while (!pending.empty()) {
    auto [node, close] = pending.back();
    pending.pop_back();
    if (close) {
      stream_.append("</");
      stream_.append(node->tag());
      stream_.push_back('>');
      continue;
    }
    switch (node->kind()) {
      case html::NodeKind::kDocument:
        push_children(node);
        continue;
      case html::NodeKind::kText: {
        TextSpan span;
        span.node = node;
        span.begin = stream_.size();
        stream_.append(node->text());
        span.end = stream_.size();
        span_index_by_node_[static_cast<size_t>(node->preorder_index())] =
            static_cast<int>(spans_.size()) + 1;
        spans_.push_back(span);
        continue;
      }
      case html::NodeKind::kElement:
        break;
    }
    stream_.push_back('<');
    stream_.append(node->tag());
    for (const auto& [name, value] : node->attrs()) {
      stream_.push_back(' ');
      stream_.append(name);
      stream_.append("=\"");
      stream_.append(value);
      stream_.push_back('"');
    }
    stream_.push_back('>');
    if (html::IsVoidElementTag(node->tag())) continue;
    pending.push_back({node, true});
    push_children(node);
  }
}

const TextSpan* CharView::SpanForNode(int preorder_index) const {
  if (preorder_index < 0 ||
      static_cast<size_t>(preorder_index) >= span_index_by_node_.size()) {
    return nullptr;
  }
  int idx = span_index_by_node_[static_cast<size_t>(preorder_index)];
  if (idx == 0) return nullptr;
  return &spans_[static_cast<size_t>(idx - 1)];
}

std::string_view CharView::Before(const TextSpan& span, size_t k) const {
  size_t start = span.begin >= k ? span.begin - k : 0;
  return std::string_view(stream_).substr(start, span.begin - start);
}

std::string_view CharView::After(const TextSpan& span, size_t k) const {
  size_t len = std::min(k, stream_.size() - span.end);
  return std::string_view(stream_).substr(span.end, len);
}

std::string LongestCommonSuffix(
    const std::vector<std::string_view>& strings) {
  if (strings.empty()) return "";
  size_t max_len = strings[0].size();
  for (const auto& s : strings) max_len = std::min(max_len, s.size());
  size_t k = 0;
  while (k < max_len) {
    char c = strings[0][strings[0].size() - 1 - k];
    for (const auto& s : strings) {
      if (s[s.size() - 1 - k] != c) {
        return std::string(strings[0].substr(strings[0].size() - k));
      }
    }
    ++k;
  }
  return std::string(strings[0].substr(strings[0].size() - k));
}

std::string LongestCommonPrefix(
    const std::vector<std::string_view>& strings) {
  if (strings.empty()) return "";
  size_t max_len = strings[0].size();
  for (const auto& s : strings) max_len = std::min(max_len, s.size());
  size_t k = 0;
  while (k < max_len) {
    char c = strings[0][k];
    for (const auto& s : strings) {
      if (s[k] != c) return std::string(strings[0].substr(0, k));
    }
    ++k;
  }
  return std::string(strings[0].substr(0, k));
}

}  // namespace ntw::text
