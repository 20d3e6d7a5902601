#ifndef NTW_CORE_WRAPPER_H_
#define NTW_CORE_WRAPPER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/label.h"

namespace ntw::core {

/// A learned extraction rule. A wrapper is identified by its *output* on
/// the page set it was learned for (Sec. 6: "the actual language used to
/// express w does not matter, as the score of a wrapper only depends on
/// its output"), so Extract() is the semantic identity and ToString() is
/// the rule in its native language (an xpath, an (l,r) pair, ...).
class Wrapper {
 public:
  virtual ~Wrapper() = default;

  /// Applies the rule to a page set, returning the extracted text nodes.
  virtual NodeSet Extract(const PageSet& pages) const = 0;

  /// Human-readable rendering of the rule in its wrapper language.
  virtual std::string ToString() const = 0;
};

using WrapperPtr = std::shared_ptr<const Wrapper>;

/// The interpreter: parses one page into a heap DOM, applies `wrapper` and
/// returns the extracted nodes' text in document order (elements yield
/// ""). It is the oracle every compiled path is tested against, and the
/// serve and crawl path for plans without a streaming form.
std::vector<std::string> ExtractValuesInterpreted(const Wrapper& wrapper,
                                                  std::string_view page_html);

/// Result of one inductor invocation: the rule plus its extraction on the
/// training page set (φ(L) denotes both, Sec. 4).
struct Induction {
  WrapperPtr wrapper;
  NodeSet extraction;
};

/// A supervised wrapper induction algorithm φ, used as a black box by the
/// noise-tolerant framework. Implementations are expected (and tested) to
/// be *well-behaved* (Definition 1):
///   fidelity      L ⊆ φ(L);
///   closure       ℓ ∈ φ(L) ⇒ φ(L) = φ(L ∪ {ℓ});
///   monotonicity  L1 ⊆ L2 ⇒ φ(L1) ⊆ φ(L2).
/// φ(∅) must return an empty extraction.
class WrapperInductor {
 public:
  virtual ~WrapperInductor() = default;

  /// Learns a rule from (assumed-correct) labels over `pages`.
  virtual Induction Induce(const PageSet& pages,
                           const NodeSet& labels) const = 0;

  /// Name for logs/reports, e.g. "XPATH" or "LR".
  virtual std::string Name() const = 0;
};

/// Opaque handle for an attribute of a feature-based inductor (Sec. 4.2).
/// Meaning is inductor-specific (e.g. "ancestor distance 2, tag name" for
/// XPATH; "left context of length 7" for LR). 64 bits, so that XPATH can
/// pack any ancestor distance and attribute-name id without overlap.
using AttrHandle = int64_t;

/// A feature-based inductor (Sec. 4.2): φ(L) = {n | F(n) ⊇ ∩_{ℓ∈L} F(ℓ)}.
/// TopDown enumeration only needs the two extra hooks below; the feature
/// space itself is never materialized ("the charm of the algorithm",
/// Sec. 5).
class FeatureBasedInductor : public WrapperInductor {
 public:
  /// Attributes attrs(L) that can subdivide the given label set. Handles
  /// are only meaningful for this (pages, labels) pair.
  virtual std::vector<AttrHandle> Attributes(const PageSet& pages,
                                             const NodeSet& labels) const = 0;

  /// subdivision(s, a): partitions `s` into groups of equal attribute
  /// value. Nodes lacking the attribute are omitted (the subdivision need
  /// not cover s). Groups of size |s| (no actual split) are still returned;
  /// the caller deduplicates.
  virtual std::vector<NodeSet> Subdivide(const PageSet& pages,
                                         const NodeSet& s,
                                         AttrHandle attr) const = 0;
};

/// Decorator counting Induce() calls — the measurement instrument for
/// Fig. 2(a,b). Also forwards the feature-based hooks when the underlying
/// inductor provides them. The counter is atomic because the enumeration
/// engine probes expansions from multiple pool workers; with memoization
/// (BottomUp) it observes the *actual* invocations, i.e. the enumeration's
/// cache_misses, not its logical inductor_calls.
class CountingInductor : public FeatureBasedInductor {
 public:
  explicit CountingInductor(const WrapperInductor* base) : base_(base) {}

  Induction Induce(const PageSet& pages, const NodeSet& labels) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return base_->Induce(pages, labels);
  }

  std::string Name() const override { return base_->Name(); }

  std::vector<AttrHandle> Attributes(const PageSet& pages,
                                     const NodeSet& labels) const override;
  std::vector<NodeSet> Subdivide(const PageSet& pages, const NodeSet& s,
                                 AttrHandle attr) const override;

  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  void ResetCalls() { calls_.store(0, std::memory_order_relaxed); }

 private:
  const WrapperInductor* base_;
  mutable std::atomic<int64_t> calls_{0};
};

}  // namespace ntw::core

#endif  // NTW_CORE_WRAPPER_H_
