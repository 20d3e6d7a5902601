#include "html/serializer.h"

#include <vector>

#include "common/strings.h"

namespace ntw::html {
namespace {

// Raw-text elements: the tokenizer consumes their contents without
// entity decoding, so they must be emitted verbatim — escaping would
// double-encode on every parse/serialize cycle. Their text cannot
// contain "</tag" (it would have terminated the element at parse time).
bool IsRawTextTag(const std::string& tag) {
  return tag == "script" || tag == "style" || tag == "textarea";
}

// One pending step of an iterative pre-order walk: visit `node`, or
// (close) emit the end tag of an element whose children are done.
struct WalkFrame {
  const Node* node;
  bool close = false;
  bool raw_text = false;  // The parent is a raw-text element.
};

void PushChildren(const Node* node, bool raw_text,
                  std::vector<WalkFrame>* stack) {
  const auto& children = node->children();
  for (size_t i = children.size(); i > 0; --i) {
    stack->push_back({children[i - 1].get(), false, raw_text});
  }
}

// Both walkers below are iterative: nesting depth is bounded only by
// page size.
void SerializeTo(const Node* root, std::string* out) {
  std::vector<WalkFrame> stack = {{root}};
  while (!stack.empty()) {
    WalkFrame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    if (frame.close) {
      out->append("</");
      out->append(node->tag());
      out->push_back('>');
      continue;
    }
    switch (node->kind()) {
      case NodeKind::kDocument:
        PushChildren(node, false, &stack);
        continue;
      case NodeKind::kText:
        if (frame.raw_text) {
          out->append(node->text());
        } else {
          out->append(HtmlEscape(node->text()));
        }
        continue;
      case NodeKind::kElement:
        break;
    }
    out->push_back('<');
    out->append(node->tag());
    for (const auto& [name, value] : node->attrs()) {
      out->push_back(' ');
      out->append(name);
      out->append("=\"");
      out->append(HtmlEscape(value));
      out->push_back('"');
    }
    out->push_back('>');
    if (IsVoidElementTag(node->tag())) continue;
    stack.push_back({node, true});
    PushChildren(node, IsRawTextTag(node->tag()), &stack);
  }
}

void DumpTo(const Node* node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node->kind()) {
    case NodeKind::kDocument:
      out->append("#document\n");
      break;
    case NodeKind::kText:
      out->append("#text \"");
      out->append(node->text());
      out->append("\"\n");
      return;
    case NodeKind::kElement:
      out->append(node->tag());
      for (const auto& [name, value] : node->attrs()) {
        out->push_back(' ');
        out->append(name);
        out->append("=\"");
        out->append(value);
        out->push_back('"');
      }
      out->push_back('\n');
      break;
  }
  for (const auto& child : node->children()) {
    DumpTo(child.get(), depth + 1, out);
  }
}

void SignatureTo(const Node* root, std::string* out) {
  std::vector<WalkFrame> stack = {{root}};
  while (!stack.empty()) {
    WalkFrame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    if (frame.close) {
      out->append("</");
      out->append(node->tag());
      out->push_back('>');
      continue;
    }
    switch (node->kind()) {
      case NodeKind::kDocument:
        PushChildren(node, false, &stack);
        continue;
      case NodeKind::kText:
        out->append("#text ");
        continue;
      case NodeKind::kElement:
        break;
    }
    out->push_back('<');
    out->append(node->tag());
    out->push_back('>');
    stack.push_back({node, true});
    PushChildren(node, false, &stack);
  }
}

}  // namespace

std::string Serialize(const Node* node) {
  std::string out;
  SerializeTo(node, &out);
  return out;
}

std::string DumpTree(const Node* node) {
  std::string out;
  DumpTo(node, 0, &out);
  return out;
}

std::string StructuralSignature(const Node* node) {
  std::string out;
  SignatureTo(node, &out);
  return out;
}

}  // namespace ntw::html
