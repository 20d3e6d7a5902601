#include "html/dom.h"

#include <unordered_map>

namespace ntw::html {

bool IsVoidElementTag(std::string_view tag) {
  return tag == "area" || tag == "base" || tag == "br" || tag == "col" ||
         tag == "embed" || tag == "hr" || tag == "img" || tag == "input" ||
         tag == "link" || tag == "meta" || tag == "param" ||
         tag == "source" || tag == "track" || tag == "wbr";
}

std::unique_ptr<Node> Node::MakeText(std::string text) {
  auto node = std::make_unique<Node>();
  node->kind_ = NodeKind::kText;
  node->text_ = std::move(text);
  return node;
}

const std::string* Node::GetAttr(std::string_view name) const {
  for (const auto& [key, value] : attrs_) {
    if (key == name) return &value;
  }
  return nullptr;
}

Node::~Node() {
  // Each node is destroyed after its children were moved out, so no
  // destructor recurses.
  std::vector<std::unique_ptr<Node>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children_) pending.push_back(std::move(child));
    node->children_.clear();
  }
}

std::string Node::TextContent() const {
  // Iterative pre-order walk: nesting depth is bounded only by page size.
  std::string out;
  std::vector<const Node*> stack = {this};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_text()) out += node->text_;
    for (size_t i = node->children_.size(); i > 0; --i) {
      stack.push_back(node->children_[i - 1].get());
    }
  }
  return out;
}

Node* Node::AppendChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

void Node::SetAttr(std::string name, std::string value) {
  for (auto& [key, existing] : attrs_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::move(name), std::move(value));
}

void Document::Finalize() {
  by_index_.clear();
  text_nodes_.clear();
  element_nodes_.clear();

  // Iterative pre-order traversal assigning indices, sibling indices and
  // same-tag child numbers.
  struct Frame {
    Node* node;
  };
  std::vector<Frame> stack;
  stack.push_back({root_.get()});
  while (!stack.empty()) {
    Node* node = stack.back().node;
    stack.pop_back();
    node->preorder_index_ = static_cast<int>(by_index_.size());
    by_index_.push_back(node);
    if (node->is_text()) text_nodes_.push_back(node);
    if (node->is_element()) element_nodes_.push_back(node);

    std::unordered_map<std::string, int> tag_counts;
    for (size_t i = 0; i < node->children_.size(); ++i) {
      Node* child = node->children_[i].get();
      child->sibling_index_ = static_cast<int>(i);
      if (child->is_element()) {
        child->same_tag_child_number_ = ++tag_counts[child->tag_];
      }
    }
    // Push children in reverse so they pop in document order.
    for (size_t i = node->children_.size(); i > 0; --i) {
      stack.push_back({node->children_[i - 1].get()});
    }
  }
}

}  // namespace ntw::html
