#ifndef NTW_CORE_XPATH_INDUCTOR_H_
#define NTW_CORE_XPATH_INDUCTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/wrapper.h"
#include "xpath/ast.h"
#include "xpath/evaluator.h"

namespace ntw::core {

/// The XPATH wrapper inductor (Dalvi et al. [6], as summarised in Sec. 5):
/// learns a rule in the fragment {child edges, descendant edges, attribute
/// filters, child-number filters} by intersecting the root-path features of
/// the labeled text nodes.
///
/// Features of a text node n (Sec. 5's representation): at position 0 the
/// node's own child number; at position i >= 1 the ancestor at distance i
/// contributes (i:tagname, t), (i:tagchildnumber, t#k) — the child-number
/// feature is tag-qualified so that `t[k]` steps have consistent
/// semantics — and (i:attr:a, v) for each attribute a="v".
///
/// φ(L) takes the intersection of the labels' features and emits the xpath
///   //step_m/.../step_1/text()[c?]
/// where m is the minimum label depth and step_i realises the common
/// position-i features (`*` when none). Induce() computes the extraction
/// by the feature-based semantics {n | F(n) ⊇ ∩ F(ℓ)}, bottom-up: a text
/// node is extracted when it passes text()[c?] and its ancestor at each
/// distance i passes step_i (xpath::StepMatches). For this path shape that
/// equals evaluating the xpath from the root, which XPathWrapper::Extract
/// does and tests check Induce() against.
///
/// Attribute handles pack (distance, kind, attribute-name id) into the
/// 64-bit AttrHandle without overlap, at any nesting depth.
class XPathInductor : public FeatureBasedInductor {
 public:
  Induction Induce(const PageSet& pages, const NodeSet& labels) const override;
  std::string Name() const override { return "XPATH"; }

  std::vector<AttrHandle> Attributes(const PageSet& pages,
                                     const NodeSet& labels) const override;
  std::vector<NodeSet> Subdivide(const PageSet& pages, const NodeSet& s,
                                 AttrHandle attr) const override;

  /// Learns just the xpath expression (no extraction); exposed for
  /// examples and tests. Requires non-empty labels resolving to text nodes.
  xpath::Expr LearnExpr(const PageSet& pages, const NodeSet& labels) const;
};

/// A learned xpath rule.
class XPathWrapper : public Wrapper {
 public:
  explicit XPathWrapper(xpath::Expr expr) : expr_(std::move(expr)) {}

  NodeSet Extract(const PageSet& pages) const override;
  std::string ToString() const override { return expr_.ToString(); }

  const xpath::Expr& expr() const { return expr_; }

 private:
  xpath::Expr expr_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_XPATH_INDUCTOR_H_
