#include "core/lr_inductor.h"

#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "core/enumerate.h"
#include "datasets/dealers.h"
#include "datasets/disc.h"
#include "datasets/products.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "text/char_view.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;

class LrInductorTest : public ::testing::Test {
 protected:
  LrInductorTest() : pages_(FigureOnePages()) {}

  NodeRef Name(const std::string& text) {
    std::vector<NodeRef> found = FindText(pages_, text);
    EXPECT_EQ(found.size(), 1u);
    return found[0];
  }

  PageSet pages_;
  LrInductor inductor_;
};

TEST_F(LrInductorTest, EmptyLabelsExtractNothing) {
  Induction induction = inductor_.Induce(pages_, NodeSet());
  EXPECT_TRUE(induction.extraction.empty());
}

TEST_F(LrInductorTest, TwoNamesLearnTheUDelimiters) {
  // Labels in different record positions whose following addresses start
  // with different digits: the common left context is the record-local
  // "<tr><td><u>" and the right context "</u><br>", so the rule
  // generalizes to every name. (Two first-record labels would share the
  // entire page prefix and learn an over-specific rule — see
  // SingletonLearnsLongDelimiters.)
  NodeSet labels(
      {Name("HELLER HOME CENTER"), Name("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  const auto* wrapper = dynamic_cast<const LrWrapper*>(induction.wrapper.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->left().ends_with("<u>")) << wrapper->left();
  EXPECT_TRUE(wrapper->right().starts_with("</u>")) << wrapper->right();
  // Extracts exactly the five dealer names.
  EXPECT_EQ(induction.extraction.size(), 5u);
  EXPECT_TRUE(induction.extraction.Contains(Name("LULLABY LANE")));
}

TEST_F(LrInductorTest, SingletonLearnsLongDelimiters) {
  NodeSet labels({Name("WOODLAND FURNITURE")});
  Induction induction = inductor_.Induce(pages_, labels);
  // The delimiters are maximally specific: only nodes in the same
  // "second record" position can match; here only the label itself
  // (page 2's second record differs in preceding text).
  EXPECT_TRUE(induction.extraction.Contains(labels[0]));
  EXPECT_LE(induction.extraction.size(), 2u);
}

TEST_F(LrInductorTest, MixedLabelsOverGeneralize) {
  // A name plus an address: common delimiters degrade toward ">"/"<",
  // matching many text nodes — the paper's over-generalization effect.
  NodeSet labels({Name("PORTER FURNITURE"), Name("123 MAIN ST.")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_GT(induction.extraction.size(), 5u);
}

TEST_F(LrInductorTest, ExtractionMatchesWrapperReapplication) {
  NodeSet labels(
      {Name("PORTER FURNITURE"), Name("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_EQ(induction.wrapper->Extract(pages_), induction.extraction);
}

TEST_F(LrInductorTest, ContextCapRespected) {
  LrInductor capped(/*max_context=*/4);
  NodeSet labels({Name("PORTER FURNITURE")});
  Induction induction = capped.Induce(pages_, labels);
  const auto* wrapper = dynamic_cast<const LrWrapper*>(induction.wrapper.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_LE(wrapper->left().size(), 4u);
  EXPECT_LE(wrapper->right().size(), 4u);
}

TEST_F(LrInductorTest, AttributesSeparateLabels) {
  NodeSet labels(
      {Name("PORTER FURNITURE"), Name("KIDDIE WORLD CENTER"),
       Name("123 MAIN ST.")});
  std::vector<AttrHandle> attrs = inductor_.Attributes(pages_, labels);
  ASSERT_FALSE(attrs.empty());
  // Some attribute must split names from the address.
  bool separated = false;
  for (AttrHandle attr : attrs) {
    for (const NodeSet& group : inductor_.Subdivide(pages_, labels, attr)) {
      if (group.size() == 2 && group.Contains(Name("PORTER FURNITURE")) &&
          group.Contains(Name("KIDDIE WORLD CENTER"))) {
        separated = true;
      }
    }
  }
  EXPECT_TRUE(separated);
}

TEST_F(LrInductorTest, SubdivisionGroupsShareContext) {
  NodeSet all = pages_.AllTextNodes();
  std::vector<AttrHandle> attrs = inductor_.Attributes(pages_, all);
  ASSERT_FALSE(attrs.empty());
  // Every subdivision group is a subset of the input.
  for (AttrHandle attr : attrs) {
    size_t covered = 0;
    for (const NodeSet& group : inductor_.Subdivide(pages_, all, attr)) {
      EXPECT_TRUE(group.IsSubsetOf(all));
      covered += group.size();
    }
    EXPECT_LE(covered, all.size());  // Drop-outs allowed, no duplication.
  }
}

TEST_F(LrInductorTest, EmptyDelimitersMatchEverything) {
  // Construct labels with nothing in common: fall back to (l="", r="")
  // which matches every text node — maximal over-generalization.
  PageSet page;
  page.AddPage(testing::MustParse("<a>x1</a><b>y2</b><i>z3</i>"));
  NodeSet labels = page.AllTextNodes();
  Induction induction = inductor_.Induce(page, labels);
  EXPECT_EQ(induction.extraction.size(), 3u);
}

TEST_F(LrInductorTest, ToStringAbbreviatesLongDelimiters) {
  NodeSet labels({Name("WOODLAND FURNITURE")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_LE(induction.wrapper->ToString().size(), 120u);
}

// ------------------------------- Sorted contexts vs the map reference.

// The map-based Attributes and Subdivide that the sorted-context index
// replaced, kept as the reference. For every length k it groups the labels
// by their k-character context in a std::map (so groups come out in the
// forward byte order of that context) and emits k whenever the partition
// key, which also encodes the group order, differs from k-1's.
class ReferenceLrInductor : public LrInductor {
 public:
  ReferenceLrInductor(const PageSet& pages, size_t max_context)
      : LrInductor(max_context) {
    for (size_t p = 0; p < pages.size(); ++p) {
      views_.emplace_back(pages.page(p));
    }
  }

  std::vector<AttrHandle> Attributes(const PageSet&,
                                     const NodeSet& labels) const override {
    if (labels.empty()) return {};
    auto partition_key = [&](bool left, size_t k, bool* all_singleton) {
      std::map<std::string, std::vector<NodeRef>> groups;
      std::string key;
      for (const NodeRef& ref : labels) {
        const text::CharView& view = views_[static_cast<size_t>(ref.page)];
        const text::TextSpan* span = view.SpanForNode(ref.node);
        if (span == nullptr) continue;
        std::string_view ctx =
            left ? view.Before(*span, k) : view.After(*span, k);
        if (ctx.size() == k) {
          groups[std::string(ctx)].push_back(ref);
        } else {
          key.append("!").append(std::to_string(ref.page)).append(":");
          key.append(std::to_string(ref.node));
        }
      }
      *all_singleton = true;
      for (const auto& [ctx, refs] : groups) {
        key += "|";
        for (const NodeRef& ref : refs) {
          key += std::to_string(ref.page) + ":" + std::to_string(ref.node) +
                 ",";
        }
        if (refs.size() > 1) *all_singleton = false;
      }
      return key;
    };

    std::vector<AttrHandle> attrs;
    for (int side = 0; side < 2; ++side) {
      bool left = side == 0;
      std::string prev_key;
      for (size_t k = 1; k <= max_context(); ++k) {
        bool all_singleton = false;
        std::string key = partition_key(left, k, &all_singleton);
        if (key != prev_key) {
          attrs.push_back(static_cast<AttrHandle>((k << 1) | (left ? 0 : 1)));
          prev_key = std::move(key);
        }
        if (all_singleton) break;
      }
    }
    return attrs;
  }

  std::vector<NodeSet> Subdivide(const PageSet&, const NodeSet& s,
                                 AttrHandle attr) const override {
    size_t k = static_cast<size_t>(attr) >> 1;
    bool left = (attr & 1) == 0;
    std::map<std::string, std::vector<NodeRef>> groups;
    for (const NodeRef& ref : s) {
      const text::CharView& view = views_[static_cast<size_t>(ref.page)];
      const text::TextSpan* span = view.SpanForNode(ref.node);
      if (span == nullptr) continue;
      std::string_view ctx =
          left ? view.Before(*span, k) : view.After(*span, k);
      if (ctx.size() != k) continue;
      groups[std::string(ctx)].push_back(ref);
    }
    std::vector<NodeSet> out;
    for (auto& [ctx, refs] : groups) out.push_back(NodeSet(std::move(refs)));
    return out;
  }

 private:
  std::vector<text::CharView> views_;
};

// Z of Algorithm 2, in the order EnumerateTopDown builds it. With `check`,
// each Subdivide call is also made on `check`, which must return the same
// groups in the same order.
std::vector<NodeSet> ZSequence(const FeatureBasedInductor& inductor,
                               const PageSet& pages, const NodeSet& labels,
                               const FeatureBasedInductor* check = nullptr) {
  std::vector<NodeSet> z = {labels};
  std::set<uint64_t> seen = {labels.Fingerprint()};
  for (AttrHandle attr : inductor.Attributes(pages, labels)) {
    size_t snapshot_size = z.size();
    for (size_t i = 0; i < snapshot_size; ++i) {
      NodeSet s = z[i];
      std::vector<NodeSet> groups = inductor.Subdivide(pages, s, attr);
      if (check != nullptr) {
        EXPECT_EQ(check->Subdivide(pages, s, attr), groups)
            << "attribute " << attr << " s=" << s.ToString();
      }
      for (NodeSet& group : groups) {
        if (!group.empty() && seen.insert(group.Fingerprint()).second) {
          z.push_back(std::move(group));
        }
      }
    }
  }
  return z;
}

// The partition of `labels` by one attribute, order aside: its groups and
// the labels that lack the attribute.
std::pair<std::set<std::vector<NodeRef>>, NodeSet> Partition(
    const LrInductor& inductor, const PageSet& pages, const NodeSet& labels,
    AttrHandle attr) {
  std::set<std::vector<NodeRef>> groups;
  NodeSet covered;
  for (const NodeSet& group : inductor.Subdivide(pages, labels, attr)) {
    groups.insert(group.refs());
    covered = covered.Union(group);
  }
  return {groups, labels.Difference(covered)};
}

// Checks the sorted-context LrInductor against the reference on one label
// set: Attributes omits only lengths whose partition equals the previous
// length's, every Subdivide call of the reference's Z loop returns the same
// groups, Z is identical, and so is the TopDown space.
void ExpectMatchesReference(const PageSet& pages, const NodeSet& labels,
                            size_t max_context) {
  LrInductor inductor(max_context);
  ReferenceLrInductor reference(pages, max_context);
  const std::string where = "labels=" + labels.ToString() +
                            " max_context=" + std::to_string(max_context);

  std::vector<AttrHandle> got = inductor.Attributes(pages, labels);
  std::vector<AttrHandle> want = reference.Attributes(pages, labels);
  size_t matched = 0;
  for (AttrHandle attr : want) {
    if (matched < got.size() && got[matched] == attr) {
      ++matched;
      continue;
    }
    EXPECT_EQ(Partition(reference, pages, labels, attr),
              Partition(reference, pages, labels, attr - 2))
        << "omitted attribute " << attr << " changes the partition; "
        << where;
  }
  EXPECT_EQ(matched, got.size()) << "not a subsequence; " << where;

  // The reference's Z loop makes every Subdivide call TopDown would make
  // with its attributes, a superset of the sorted-context ones.
  std::vector<NodeSet> z = ZSequence(reference, pages, labels, &inductor);
  EXPECT_EQ(ZSequence(inductor, pages, labels), z) << where;

  WrapperSpace space = EnumerateTopDown(inductor, pages, labels);
  WrapperSpace reference_space = EnumerateTopDown(reference, pages, labels);
  ASSERT_EQ(space.size(), reference_space.size()) << where;
  for (size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.candidates[i].extraction,
              reference_space.candidates[i].extraction);
    EXPECT_EQ(space.candidates[i].trained_on,
              reference_space.candidates[i].trained_on);
    EXPECT_EQ(space.candidates[i].wrapper->ToString(),
              reference_space.candidates[i].wrapper->ToString());
  }
}

// `want` (at least 1) random text nodes of the pages.
NodeSet RandomLabels(const PageSet& pages, size_t want, Rng* rng) {
  const NodeSet text = pages.AllTextNodes();
  std::vector<NodeRef> refs;
  for (size_t i = 0; i < want; ++i) {
    refs.push_back(text[rng->NextBounded(text.size())]);
  }
  return NodeSet(std::move(refs));
}

void ExpectMatchesReferenceOnSites(const datasets::Dataset& dataset,
                                   uint64_t seed) {
  Rng rng(seed);
  for (const datasets::SiteData& data : dataset.sites) {
    const PageSet& pages = data.site.pages;
    for (const auto& [type, labels] : data.annotations) {
      if (!labels.empty()) ExpectMatchesReference(pages, labels, 256);
    }
    ExpectMatchesReference(pages, RandomLabels(pages, 8, &rng), 256);
    ExpectMatchesReference(pages, RandomLabels(pages, 8, &rng), 12);
  }
}

TEST(LrReferenceTest, MatchesOnDealersSites) {
  datasets::DealersConfig config;
  config.num_sites = 6;
  config.pages_per_site = 4;
  ExpectMatchesReferenceOnSites(datasets::MakeDealers(config), 1);
}

TEST(LrReferenceTest, MatchesOnDiscSites) {
  datasets::DiscConfig config;
  config.num_sites = 2;
  ExpectMatchesReferenceOnSites(datasets::MakeDisc(config), 2);
}

TEST(LrReferenceTest, MatchesOnProductsSites) {
  datasets::ProductsConfig config;
  config.num_sites = 4;
  config.pages_per_site = 3;
  ExpectMatchesReferenceOnSites(datasets::MakeProducts(config), 3);
}

// Pages over a tiny alphabet: many equal contexts, common lengths of every
// size, and text right at the page start and end, so some labels lie
// closer than k to a page boundary.
PageSet RandomContextPages(Rng* rng) {
  static const char* kPieces[] = {"<b>", "</b>", "<i>", "</i>", "<br>",
                                  "x",   "y",    "xy",  "yx",  "x:y"};
  PageSet pages;
  for (int p = 0; p < 3; ++p) {
    std::string html;
    size_t pieces = 2 + rng->NextBounded(30);
    for (size_t i = 0; i < pieces; ++i) html += kPieces[rng->NextBounded(10)];
    pages.AddPage(testing::MustParse(html));
  }
  return pages;
}

TEST(LrReferenceTest, MatchesOnRandomContexts) {
  Rng rng(9);
  for (int trial = 0; trial < 150; ++trial) {
    PageSet pages = RandomContextPages(&rng);
    if (pages.TextNodeCount() == 0) continue;
    // Caps 0..6 make most contexts reach max_context (0: no attribute).
    size_t max_context = trial % 3 == 0 ? 256 : rng.NextBounded(7);
    NodeSet labels = trial % 5 == 0
                         ? pages.AllTextNodes()
                         : RandomLabels(pages, 1 + rng.NextBounded(8), &rng);
    ExpectMatchesReference(pages, labels, max_context);
  }
}

TEST(LrReferenceTest, NonTextLabelLacksEveryAttribute) {
  PageSet pages = FigureOnePages();
  Rng rng(4);
  NodeSet labels = RandomLabels(pages, 6, &rng);
  // An element: LR has no context for it, at any length.
  const html::Node* element = pages.page(0).element_nodes()[3];
  const NodeRef element_ref{0, element->preorder_index()};
  labels.Insert(element_ref);
  ExpectMatchesReference(pages, labels, 256);
  ExpectMatchesReference(pages, labels, 5);
  // With no text label at all there is no attribute.
  EXPECT_TRUE(LrInductor().Attributes(pages, NodeSet({element_ref})).empty());
  ExpectMatchesReference(pages, NodeSet({element_ref}), 256);
}

TEST(LrReferenceTest, SetsOutsideTheIndexedLabels) {
  // Subdivide on a set the last Attributes call did not index builds its
  // own index; the results must not depend on which index answered.
  PageSet pages = FigureOnePages();
  Rng rng(6);
  NodeSet labels = RandomLabels(pages, 5, &rng);
  NodeSet all = pages.AllTextNodes();
  LrInductor inductor;
  ReferenceLrInductor reference(pages, 256);
  ASSERT_FALSE(inductor.Attributes(pages, labels).empty());
  for (AttrHandle attr : reference.Attributes(pages, all)) {
    EXPECT_EQ(inductor.Subdivide(pages, all, attr),
              reference.Subdivide(pages, all, attr))
        << attr;
    // And a covered subset, answered by the cached index, still matches.
    EXPECT_EQ(inductor.Subdivide(pages, labels, attr),
              reference.Subdivide(pages, labels, attr))
        << attr;
  }
}

TEST(LrReferenceTest, EqualContextsShareAGroupAtEveryLength) {
  // Identical records: their labels have equal contexts up to the records'
  // start, so no length within the cap separates the two middle items.
  PageSet pages;
  pages.AddPage(testing::MustParse(
      "<ul><li><b>A</b></li><li><b>B</b></li><li><b>C</b></li></ul>"));
  NodeSet labels = pages.AllTextNodes();
  ExpectMatchesReference(pages, labels, 256);
  ExpectMatchesReference(pages, labels, 3);
}

}  // namespace
}  // namespace ntw::core
