#include "xpath/evaluator.h"

#include <algorithm>
#include <unordered_set>

namespace ntw::xpath {
namespace {

// Appends every descendant of `node` in pre-order. Iterative: nesting
// depth is bounded only by page size.
void CollectDescendants(const html::Node* node,
                        std::vector<const html::Node*>* out) {
  std::vector<const html::Node*> stack = {node};
  while (!stack.empty()) {
    const html::Node* next = stack.back();
    stack.pop_back();
    if (next != node) out->push_back(next);
    const auto& children = next->children();
    for (size_t i = children.size(); i > 0; --i) {
      stack.push_back(children[i - 1].get());
    }
  }
}

}  // namespace

bool StepMatches(const Step& step, const html::Node* node) {
  switch (step.test) {
    case NodeTest::kText:
      if (!node->is_text()) return false;
      break;
    case NodeTest::kAnyElement:
      if (!node->is_element()) return false;
      break;
    case NodeTest::kTag:
      if (!node->is_element() || node->tag() != step.tag) return false;
      break;
  }
  if (step.child_number.has_value()) {
    if (step.test == NodeTest::kTag) {
      if (node->same_tag_child_number() != *step.child_number) return false;
    } else {
      // For `*[k]` / `text()[k]` use the position in the parent's child
      // list (1-based).
      if (node->sibling_index() + 1 != *step.child_number) return false;
    }
  }
  for (const auto& [name, value] : step.attr_filters) {
    const std::string* actual = node->GetAttr(name);
    if (actual == nullptr || *actual != value) return false;
  }
  return true;
}

std::vector<const html::Node*> Evaluate(const Expr& expr,
                                        const html::Document& doc) {
  std::vector<const html::Node*> current = {doc.root()};
  std::vector<const html::Node*> candidates;
  for (const auto& step : expr.steps) {
    std::vector<const html::Node*> next;
    std::unordered_set<const html::Node*> seen;
    for (const html::Node* context : current) {
      candidates.clear();
      if (step.axis == Axis::kChild) {
        for (const auto& child : context->children()) {
          candidates.push_back(child.get());
        }
      } else {
        CollectDescendants(context, &candidates);
      }
      for (const html::Node* candidate : candidates) {
        if (StepMatches(step, candidate) && seen.insert(candidate).second) {
          next.push_back(candidate);
        }
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  std::sort(current.begin(), current.end(),
            [](const html::Node* a, const html::Node* b) {
              return a->preorder_index() < b->preorder_index();
            });
  return current;
}

}  // namespace ntw::xpath
