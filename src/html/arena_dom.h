#ifndef NTW_HTML_ARENA_DOM_H_
#define NTW_HTML_ARENA_DOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "html/dom.h"
#include "html/name_table.h"

namespace ntw::html {

/// One attribute of an arena DOM element. The name is interned; the value
/// bytes live in the owning ArenaDocument's arena.
struct ArenaAttr {
  int32_t name_id;
  std::string_view name;   // Interned, process-stable.
  std::string_view value;  // Arena-backed.
};

/// One node of an arena DOM. Nodes live in a contiguous array inside
/// ArenaDocument, linked by indices; because the builder appends nodes in
/// document order, a node's array index IS its pre-order index — identical
/// to Node::preorder_index() on the heap DOM for the same input.
struct ArenaNode {
  NodeKind kind = NodeKind::kDocument;
  int32_t tag_id = -1;           // Interned tag; -1 for text/document nodes.
  int32_t parent = -1;
  int32_t first_child = -1;
  int32_t next_sibling = -1;
  int32_t attrs_begin = 0;       // [attrs_begin, attrs_end) into attrs().
  int32_t attrs_end = 0;
  int32_t same_tag_child_number = 0;  // 1-based among same-tag element sibs.
  int32_t sibling_index = 0;          // 0-based in parent's child list.
  std::string_view tag;          // Interned, process-stable; empty for text.
  std::string_view text;         // Arena-backed; empty for elements.
};

/// An HTML page parsed into index-linked arrays with every transient byte
/// (text, attribute values, the flattened char stream) in one arena.
/// Designed for reuse: Clear() recycles the arena and keeps every vector's
/// capacity, so re-parsing a similarly-sized page performs no allocations.
///
/// Lifetime rule: all string_views and spans obtained from an ArenaDocument
/// are invalidated by Clear() and by destruction — never retain them past
/// the request that parsed the page.
class ArenaDocument {
 public:
  /// A text node's extent in the flattened stream (mirrors text::TextSpan).
  struct TextSpan {
    int32_t node;  // Pre-order index of the text node.
    size_t begin;
    size_t end;
  };

  ArenaDocument() = default;
  ArenaDocument(const ArenaDocument&) = delete;
  ArenaDocument& operator=(const ArenaDocument&) = delete;

  size_t node_count() const { return nodes_.size(); }
  const ArenaNode& node(int32_t index) const {
    return nodes_[static_cast<size_t>(index)];
  }
  const std::vector<ArenaNode>& nodes() const { return nodes_; }

  /// Attribute slice of `n`, or nullptr when the name is absent.
  const ArenaAttr* FindAttr(const ArenaNode& n, int32_t name_id) const {
    for (int32_t i = n.attrs_begin; i < n.attrs_end; ++i) {
      if (attrs_[static_cast<size_t>(i)].name_id == name_id) {
        return &attrs_[static_cast<size_t>(i)];
      }
    }
    return nullptr;
  }
  const std::vector<ArenaAttr>& attrs() const { return attrs_; }

  /// The flattened character stream and its text spans, byte-identical to
  /// text::CharView over the heap DOM of the same input. Built lazily on
  /// first use (XPath plans never need it); stays valid until Clear().
  const std::string& stream();
  const std::vector<TextSpan>& spans();

  /// Recycles the document for the next parse. Keeps arena chunks and
  /// vector capacity.
  void Clear();

  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

 private:
  friend class ArenaTreeBuilder;  // The parse-time builder (arena_dom.cc).

  void BuildStream();

  Arena arena_;
  std::vector<ArenaNode> nodes_;
  std::vector<ArenaAttr> attrs_;
  std::string stream_;
  std::vector<TextSpan> spans_;
  bool stream_built_ = false;
};

/// Parses `input` into `doc` (which is Clear()ed first). Produces a tree
/// structurally identical to html::Parse: same nodes in the same pre-order,
/// same sibling/child numbering, same attribute order, same decoded/
/// collapsed text — both build from WalkTagSoup's events (recovery.h).
void ArenaParse(std::string_view input, ArenaDocument* doc);

}  // namespace ntw::html

#endif  // NTW_HTML_ARENA_DOM_H_
