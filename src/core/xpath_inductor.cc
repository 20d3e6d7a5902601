#include "core/xpath_inductor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace ntw::core {
namespace {

/// φ(∅): extracts nothing.
class EmptyXPathWrapper : public Wrapper {
 public:
  NodeSet Extract(const PageSet&) const override { return NodeSet(); }
  std::string ToString() const override { return "XPATH(empty)"; }
};

/// Number of element ancestors of a node (its distance from the
/// synthetic document root, minus one).
size_t Depth(const html::Node* node) {
  size_t depth = 0;
  for (const html::Node* cur = node->parent();
       cur != nullptr && cur->is_element(); cur = cur->parent()) {
    ++depth;
  }
  return depth;
}

/// The ancestor of a node at distance `pos` >= 1, or nullptr when the node
/// has fewer than `pos` element ancestors.
const html::Node* AncestorAt(const html::Node* node, int pos) {
  for (int i = 0; i < pos && node != nullptr; ++i) node = node->parent();
  return node != nullptr && node->is_element() ? node : nullptr;
}

// Attribute-handle layout, from the most significant bit: pos (31 bits) |
// kind (2 bits) | name id (31 bits). pos and the name id are non-negative
// ints, so no field can spill into another, and handles compared as
// unsigned integers order by (pos, kind, name id). Attribute names are
// interned in a process-wide append-only table so handles stay decodable
// across calls.
constexpr int kKindTag = 0;
constexpr int kKindTagChildNumber = 1;
constexpr int kKindAttr = 2;
constexpr int kPosShift = 33;
constexpr int kKindShift = 31;

AttrHandle MakeHandle(int pos, int kind, int name_id) {
  return static_cast<AttrHandle>(
      (static_cast<uint64_t>(pos) << kPosShift) |
      (static_cast<uint64_t>(kind) << kKindShift) |
      static_cast<uint64_t>(name_id));
}
int HandlePos(AttrHandle h) {
  return static_cast<int>(static_cast<uint64_t>(h) >> kPosShift);
}
int HandleKind(AttrHandle h) {
  return static_cast<int>((static_cast<uint64_t>(h) >> kKindShift) & 0x3);
}
int HandleNameId(AttrHandle h) {
  return static_cast<int>(static_cast<uint64_t>(h) & 0x7fffffff);
}

class AttrNameTable {
 public:
  int Intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }
  std::string Lookup(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    return names_[static_cast<size_t>(id)];
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> names_;
};

AttrNameTable& NameTable() {
  static AttrNameTable* table = new AttrNameTable();
  return *table;
}

}  // namespace

NodeSet XPathWrapper::Extract(const PageSet& pages) const {
  std::vector<NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (const html::Node* node : xpath::Evaluate(expr_, pages.page(p))) {
      out.push_back(NodeRef{static_cast<int>(p), node->preorder_index()});
    }
  }
  return NodeSet(std::move(out));
}

xpath::Expr XPathInductor::LearnExpr(const PageSet& pages,
                                     const NodeSet& labels) const {
  assert(!labels.empty());

  // Resolve labels to text nodes.
  std::vector<const html::Node*> nodes;
  for (const NodeRef& ref : labels) {
    const html::Node* node = pages.Resolve(ref);
    if (node == nullptr || !node->is_text()) continue;
    nodes.push_back(node);
  }
  assert(!nodes.empty());

  size_t min_depth = Depth(nodes[0]);
  for (const html::Node* node : nodes) {
    min_depth = std::min(min_depth, Depth(node));
  }

  // Position-0 child number of the text node itself.
  std::optional<int> text_child_number = nodes[0]->sibling_index() + 1;
  for (const html::Node* node : nodes) {
    if (node->sibling_index() + 1 != *text_child_number) {
      text_child_number.reset();
      break;
    }
  }

  // Steps from position 1 up to the highest shared position, walking every
  // label's ancestors in lockstep; reversed into path order below.
  xpath::Expr expr;
  std::vector<const html::Node*> ancestors = nodes;
  for (size_t pos = 1; pos <= min_depth; ++pos) {
    for (const html::Node*& anc : ancestors) anc = anc->parent();
    xpath::Step step;
    step.axis = (pos == min_depth) ? xpath::Axis::kDescendant
                                   : xpath::Axis::kChild;

    const html::Node* first = ancestors[0];
    bool tag_common = true;
    bool child_number_common = true;
    for (const html::Node* anc : ancestors) {
      if (anc->tag() != first->tag()) tag_common = false;
      if (anc->same_tag_child_number() != first->same_tag_child_number()) {
        child_number_common = false;
      }
    }
    if (tag_common) {
      step.test = xpath::NodeTest::kTag;
      step.tag = first->tag();
      if (child_number_common) {
        step.child_number = first->same_tag_child_number();
      }
    } else {
      step.test = xpath::NodeTest::kAnyElement;
    }

    // Attribute filters: attributes present with identical values on the
    // position-pos ancestor of every label.
    for (const auto& [name, value] : first->attrs()) {
      bool common = true;
      for (const html::Node* anc : ancestors) {
        const std::string* other = anc->GetAttr(name);
        if (other == nullptr || *other != value) {
          common = false;
          break;
        }
      }
      if (common) step.attr_filters.emplace_back(name, value);
    }
    std::sort(step.attr_filters.begin(), step.attr_filters.end());
    expr.steps.push_back(std::move(step));
  }
  std::reverse(expr.steps.begin(), expr.steps.end());

  // Strip the maximal prefix of unconstrained `*` steps: a bare `*` at
  // the top encodes only "some ancestor exists at that distance", which is
  // not a feature of the representation — keeping it would make φ deviate
  // from the feature-based semantics {n | F(n) ⊇ ∩F(ℓ)} and break the
  // TopDown/BottomUp equivalence (Theorems 1-3). Interior `*` steps stay:
  // they pin the exact distance between constrained positions, which the
  // position-indexed features do express.
  auto is_unconstrained = [](const xpath::Step& step) {
    return step.test == xpath::NodeTest::kAnyElement &&
           !step.child_number.has_value() && step.attr_filters.empty();
  };
  size_t first_constrained = 0;
  while (first_constrained < expr.steps.size() &&
         is_unconstrained(expr.steps[first_constrained])) {
    ++first_constrained;
  }
  expr.steps.erase(expr.steps.begin(),
                   expr.steps.begin() +
                       static_cast<long>(first_constrained));
  if (!expr.steps.empty()) {
    expr.steps.front().axis = xpath::Axis::kDescendant;
  }

  xpath::Step text_step;
  text_step.axis = expr.steps.empty() ? xpath::Axis::kDescendant
                                      : xpath::Axis::kChild;
  text_step.test = xpath::NodeTest::kText;
  text_step.child_number = text_child_number;
  expr.steps.push_back(std::move(text_step));
  return expr;
}

Induction XPathInductor::Induce(const PageSet& pages,
                                const NodeSet& labels) const {
  Induction result;
  if (labels.empty()) {
    result.wrapper = std::make_shared<EmptyXPathWrapper>();
    return result;
  }
  auto wrapper = std::make_shared<XPathWrapper>(LearnExpr(pages, labels));
  // φ(L)'s extraction by the feature semantics {n | F(n) ⊇ ∩F(ℓ)}: a text
  // node is extracted when it passes the learned text() step and its
  // ancestors at distances 1..m pass step_m..step_1. LearnExpr emits a
  // descendant first step, then child steps, then text(), so this is
  // exactly the expression's evaluation from the root (Extract, which
  // tests check it against), without walking every page top-down.
  const std::vector<xpath::Step>& steps = wrapper->expr().steps;
  std::vector<NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (!xpath::StepMatches(steps.back(), node)) continue;
      const html::Node* anc = node;
      size_t i = steps.size() - 1;
      for (; i > 0; --i) {
        anc = anc->parent();
        if (anc == nullptr || !xpath::StepMatches(steps[i - 1], anc)) break;
      }
      if (i == 0) {
        out.push_back(NodeRef{static_cast<int>(p), node->preorder_index()});
      }
    }
  }
  result.extraction = NodeSet(std::move(out)).Union(labels);
  result.wrapper = std::move(wrapper);
  return result;
}

std::vector<AttrHandle> XPathInductor::Attributes(
    const PageSet& pages, const NodeSet& labels) const {
  if (labels.empty()) return {};

  std::vector<AttrHandle> attrs = {MakeHandle(0, kKindTagChildNumber, 0)};
  for (const NodeRef& ref : labels) {
    const html::Node* node = pages.Resolve(ref);
    if (node == nullptr || !node->is_text()) continue;
    int pos = 1;
    for (const html::Node* anc = node->parent();
         anc != nullptr && anc->is_element(); anc = anc->parent(), ++pos) {
      attrs.push_back(MakeHandle(pos, kKindTag, 0));
      attrs.push_back(MakeHandle(pos, kKindTagChildNumber, 0));
      for (const auto& [name, value] : anc->attrs()) {
        int name_id = NameTable().Intern(name);
        attrs.push_back(MakeHandle(pos, kKindAttr, name_id));
      }
    }
  }
  auto unsigned_less = [](AttrHandle a, AttrHandle b) {
    return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
  };
  std::sort(attrs.begin(), attrs.end(), unsigned_less);
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

std::vector<NodeSet> XPathInductor::Subdivide(const PageSet& pages,
                                              const NodeSet& s,
                                              AttrHandle attr) const {
  int pos = HandlePos(attr);
  int kind = HandleKind(attr);
  std::string attr_name =
      kind == kKindAttr ? NameTable().Lookup(HandleNameId(attr)) : "";

  std::map<std::string, std::vector<NodeRef>> groups;
  for (const NodeRef& ref : s) {
    const html::Node* node = pages.Resolve(ref);
    if (node == nullptr || !node->is_text()) continue;

    std::string value;
    if (pos == 0) {
      value = std::to_string(node->sibling_index() + 1);
    } else {
      const html::Node* anc = AncestorAt(node, pos);
      if (anc == nullptr) continue;  // No attribute.
      switch (kind) {
        case kKindTag:
          value = anc->tag();
          break;
        case kKindTagChildNumber:
          value = anc->tag() + "#" +
                  std::to_string(anc->same_tag_child_number());
          break;
        case kKindAttr: {
          const std::string* attr_value = anc->GetAttr(attr_name);
          if (attr_value == nullptr) continue;  // Lacks the attribute.
          value = *attr_value;
          break;
        }
        default:
          continue;
      }
    }
    groups[value].push_back(ref);
  }
  std::vector<NodeSet> out;
  out.reserve(groups.size());
  for (auto& [value, refs] : groups) {
    out.push_back(NodeSet(std::move(refs)));
  }
  return out;
}

}  // namespace ntw::core
