#ifndef NTW_HTML_DOM_H_
#define NTW_HTML_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ntw::html {

/// True for HTML void elements (<br>, <img>, ...) which never have
/// children or end tags.
bool IsVoidElementTag(std::string_view tag);

/// Kind of a DOM node. The library models only what the paper's framework
/// needs: elements and text. Comments and doctypes are dropped at parse
/// time (as jtidy does for the paper's pipeline).
enum class NodeKind {
  kDocument,  // Synthetic root owning the top-level nodes.
  kElement,
  kText,
};

/// A node in the parsed HTML tree. Nodes are owned by their parent via
/// unique_ptr; the Document owns the root. Raw Node* handles returned by
/// queries remain valid for the lifetime of the Document and are never
/// invalidated (the tree is immutable after parsing).
class Node {
 public:
  /// Creates a document root.
  Node() : kind_(NodeKind::kDocument) {}
  /// Creates an element with the given (lowercased) tag name.
  explicit Node(std::string tag)
      : kind_(NodeKind::kElement), tag_(std::move(tag)) {}
  /// Creates a text node.
  static std::unique_ptr<Node> MakeText(std::string text);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  /// Tears the subtree down iteratively: the default unique_ptr chain
  /// would recurse once per level and overflow the stack on deeply nested
  /// pages.
  ~Node();

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  /// Lowercased tag name; empty for text/document nodes.
  const std::string& tag() const { return tag_; }
  /// Raw character data; empty for element/document nodes.
  const std::string& text() const { return text_; }

  Node* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  size_t child_count() const { return children_.size(); }
  Node* child(size_t i) const { return children_[i].get(); }

  /// Document-wide pre-order index; assigned by Document::Finalize().
  /// The document root has index 0.
  int preorder_index() const { return preorder_index_; }

  /// 1-based position among element siblings with the same tag name
  /// (the XPath `tag[k]` child-number of Sec. 5); 0 for non-elements.
  int same_tag_child_number() const { return same_tag_child_number_; }

  /// 0-based position within the parent's child list.
  int sibling_index() const { return sibling_index_; }

  /// Attribute access. Names are lowercased at parse time. Returns nullptr
  /// when absent. Attribute order is preserved for serialization.
  const std::string* GetAttr(std::string_view name) const;
  bool HasAttr(std::string_view name) const {
    return GetAttr(name) != nullptr;
  }
  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  /// Concatenation of all descendant text, in document order.
  std::string TextContent() const;

  /// Mutators used by the parser / generators before Finalize().
  Node* AppendChild(std::unique_ptr<Node> child);
  void SetAttr(std::string name, std::string value);
  void SetText(std::string text) { text_ = std::move(text); }

 private:
  friend class Document;

  NodeKind kind_;
  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
  int preorder_index_ = -1;
  int same_tag_child_number_ = 0;
  int sibling_index_ = 0;
};

/// An immutable parsed HTML page. Construction: build a tree under root(),
/// then call Finalize() exactly once; Finalize assigns pre-order indices and
/// child numbers and freezes the node table used for O(1) lookup by index.
class Document {
 public:
  Document() : root_(std::make_unique<Node>()) {}

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// Assigns preorder indices / child numbers and builds the index table.
  void Finalize();
  bool finalized() const { return !by_index_.empty(); }

  /// Total node count (including the document root).
  size_t node_count() const { return by_index_.size(); }

  /// Node with the given pre-order index; requires Finalize() was called.
  const Node* node(int preorder_index) const {
    return by_index_[static_cast<size_t>(preorder_index)];
  }

  /// All text nodes in document order; requires Finalize().
  const std::vector<const Node*>& text_nodes() const { return text_nodes_; }

  /// All element nodes in document order; requires Finalize().
  const std::vector<const Node*>& element_nodes() const {
    return element_nodes_;
  }

 private:
  std::unique_ptr<Node> root_;
  std::vector<const Node*> by_index_;
  std::vector<const Node*> text_nodes_;
  std::vector<const Node*> element_nodes_;
};

}  // namespace ntw::html

#endif  // NTW_HTML_DOM_H_
