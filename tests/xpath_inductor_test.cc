#include "core/xpath_inductor.h"

#include "common/rng.h"
#include "datasets/dealers.h"
#include "datasets/disc.h"
#include "datasets/products.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xpath/parser.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;
using ::ntw::testing::MustParse;

class XPathInductorTest : public ::testing::Test {
 protected:
  XPathInductorTest() : pages_(FigureOnePages()) {}

  NodeRef Node(const std::string& text) {
    std::vector<NodeRef> found = FindText(pages_, text);
    EXPECT_EQ(found.size(), 1u) << text;
    return found[0];
  }

  PageSet pages_;
  XPathInductor inductor_;
};

TEST_F(XPathInductorTest, EmptyLabelsExtractNothing) {
  EXPECT_TRUE(inductor_.Induce(pages_, NodeSet()).extraction.empty());
}

TEST_F(XPathInductorTest, TwoNamesAcrossRowsLearnNameColumn) {
  // Labels in different row positions: the tr child number is dropped and
  // the rule generalizes to every record's name.
  NodeSet labels(
      {Node("WOODLAND FURNITURE"), Node("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_EQ(induction.extraction.size(), 5u);
  std::string rule = induction.wrapper->ToString();
  EXPECT_NE(rule.find("/u"), std::string::npos) << rule;
  EXPECT_NE(rule.find("@class='dealerlinks'"), std::string::npos) << rule;
  EXPECT_NE(rule.find("/tr/"), std::string::npos) << rule;  // No tr[k].
}

TEST_F(XPathInductorTest, SingletonKeepsChildNumbers) {
  NodeSet labels({Node("PORTER FURNITURE")});
  Induction induction = inductor_.Induce(pages_, labels);
  std::string rule = induction.wrapper->ToString();
  EXPECT_NE(rule.find("tr[1]"), std::string::npos) << rule;
  // Extracts the first-row name on each structurally identical page.
  EXPECT_EQ(induction.extraction.size(), 2u);
  EXPECT_TRUE(induction.extraction.Contains(Node("PORTER FURNITURE")));
  EXPECT_TRUE(induction.extraction.Contains(Node("KIDDIE WORLD CENTER")));
}

TEST_F(XPathInductorTest, MixedDepthLabelsOverGeneralize) {
  // A name (inside <u>) and an address (directly inside <td>): no tag is
  // common at any position and the nodes' child numbers differ, so the
  // learned rule degenerates to //text() — every text node. (Bare `*`
  // steps are stripped: they are not features of the representation.)
  NodeSet labels({Node("PORTER FURNITURE"), Node("123 MAIN ST.")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_EQ(induction.wrapper->ToString(), "//text()");
  EXPECT_EQ(induction.extraction.size(), pages_.TextNodeCount());
}

TEST_F(XPathInductorTest, FidelityHolds) {
  NodeSet labels({Node("PORTER FURNITURE"), Node("123 MAIN ST."),
                  Node("LULLABY LANE")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_TRUE(labels.IsSubsetOf(induction.extraction));
}

TEST_F(XPathInductorTest, LearnedExprEvaluatesToExtraction) {
  NodeSet labels(
      {Node("WOODLAND FURNITURE"), Node("KIDDIE WORLD CENTER")});
  xpath::Expr expr = inductor_.LearnExpr(pages_, labels);
  XPathWrapper wrapper(expr);
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_EQ(wrapper.Extract(pages_), induction.extraction);
}

TEST_F(XPathInductorTest, AttributeFiltersLearned) {
  PageSet page;
  page.AddPage(MustParse(
      "<div class='hits'><span class='name'>A</span>"
      "<span class='name'>B</span><span class='other'>C</span></div>"));
  NodeSet labels(FindText(page, "A"));
  for (const NodeRef& ref : FindText(page, "B")) labels.Insert(ref);
  Induction induction = inductor_.Induce(page, labels);
  std::string rule = induction.wrapper->ToString();
  EXPECT_NE(rule.find("@class='name'"), std::string::npos) << rule;
  EXPECT_EQ(induction.extraction.size(), 2u);  // C is excluded.
}

TEST_F(XPathInductorTest, TextChildNumberDistinguishesSiblings) {
  // Two text nodes under one parent at fixed positions: labeling the
  // second across records must not extract the first.
  PageSet page;
  page.AddPage(MustParse(
      "<ul><li><b>t1</b>d1</li><li><b>t2</b>d2</li><li><b>t3</b>d3</li>"
      "</ul>"));
  NodeSet labels(FindText(page, "d1"));
  for (const NodeRef& ref : FindText(page, "d2")) labels.Insert(ref);
  Induction induction = inductor_.Induce(page, labels);
  EXPECT_EQ(induction.extraction.size(), 3u);
  for (const NodeRef& ref : induction.extraction) {
    EXPECT_EQ(page.Resolve(ref)->text().substr(0, 1), "d");
  }
}

TEST_F(XPathInductorTest, SubdivisionByAncestorTag) {
  NodeSet labels({Node("PORTER FURNITURE"), Node("123 MAIN ST."),
                  Node("KIDDIE WORLD CENTER")});
  std::vector<AttrHandle> attrs = inductor_.Attributes(pages_, labels);
  ASSERT_FALSE(attrs.empty());
  bool separated = false;
  for (AttrHandle attr : attrs) {
    for (const NodeSet& group : inductor_.Subdivide(pages_, labels, attr)) {
      EXPECT_TRUE(group.IsSubsetOf(labels));
      if (group.size() == 2 &&
          group.Contains(Node("PORTER FURNITURE")) &&
          group.Contains(Node("KIDDIE WORLD CENTER"))) {
        separated = true;  // Split by position-1 tag u vs td.
      }
    }
  }
  EXPECT_TRUE(separated);
}

TEST_F(XPathInductorTest, DeepLabelAndShallowLabel) {
  PageSet page;
  page.AddPage(MustParse("<div><p><b><i>deep</i></b></p>shallow</div>"));
  NodeSet labels(FindText(page, "deep"));
  for (const NodeRef& ref : FindText(page, "shallow")) labels.Insert(ref);
  Induction induction = inductor_.Induce(page, labels);
  // min depth is 1 (shallow under div): single '*'-ish step; both match.
  EXPECT_TRUE(labels.IsSubsetOf(induction.extraction));
}

TEST_F(XPathInductorTest, RuleIsParseableByOwnParser) {
  NodeSet labels(
      {Node("WOODLAND FURNITURE"), Node("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  Result<xpath::Expr> reparsed =
      xpath::ParseXPath(induction.wrapper->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  XPathWrapper wrapper(std::move(reparsed).value());
  EXPECT_EQ(wrapper.Extract(pages_), induction.extraction);
}

// ------------------------------- Induce's bottom-up φ vs the interpreter.

// Induce computes φ(L)'s extraction bottom-up from each text node; the
// interpreter evaluates the same learned xpath top-down from the root.
// They must agree on every label set: `trials` random subsets of the
// text nodes, and as many of `annotated` (where regular rules come from).
void ExpectInduceMatchesInterpreter(const PageSet& pages,
                                    const NodeSet& annotated, Rng* rng,
                                    int trials) {
  XPathInductor inductor;
  const NodeSet text = pages.AllTextNodes();
  for (const NodeSet* pool : {&text, &annotated}) {
    if (pool->empty()) continue;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<NodeRef> refs;
      size_t want = 1 + rng->NextBounded(6);
      for (size_t i = 0; i < want; ++i) {
        refs.push_back((*pool)[rng->NextBounded(pool->size())]);
      }
      NodeSet labels(std::move(refs));
      XPathWrapper oracle(inductor.LearnExpr(pages, labels));
      EXPECT_EQ(inductor.Induce(pages, labels).extraction,
                oracle.Extract(pages).Union(labels))
          << oracle.ToString() << " labels=" << labels.ToString();
    }
  }
}

// Every annotation of a site, whatever its type.
NodeSet AllAnnotations(const datasets::SiteData& data) {
  NodeSet all;
  for (const auto& [type, set] : data.annotations) all = all.Union(set);
  return all;
}

TEST(XPathPhiTest, BottomUpMatchesInterpreterOnDealers) {
  datasets::DealersConfig config;
  config.num_sites = 6;
  config.pages_per_site = 4;
  Rng rng(3);
  for (const datasets::SiteData& data : datasets::MakeDealers(config).sites) {
    ExpectInduceMatchesInterpreter(data.site.pages, AllAnnotations(data),
                                   &rng, 12);
  }
}

TEST(XPathPhiTest, BottomUpMatchesInterpreterOnDisc) {
  datasets::DiscConfig config;
  config.num_sites = 4;
  Rng rng(5);
  for (const datasets::SiteData& data : datasets::MakeDisc(config).sites) {
    ExpectInduceMatchesInterpreter(data.site.pages, AllAnnotations(data),
                                   &rng, 12);
  }
}

TEST(XPathPhiTest, BottomUpMatchesInterpreterOnProducts) {
  datasets::ProductsConfig config;
  config.num_sites = 4;
  config.pages_per_site = 3;
  Rng rng(7);
  for (const datasets::SiteData& data :
       datasets::MakeProducts(config).sites) {
    ExpectInduceMatchesInterpreter(data.site.pages, AllAnnotations(data),
                                   &rng, 12);
  }
}

TEST(XPathPhiTest, BottomUpMatchesInterpreterOnTagSoup) {
  // Recovered tag soup: text under the document root, under void and
  // implied-closed elements, and at every depth.
  Rng rng(11);
  for (int site = 0; site < 40; ++site) {
    PageSet pages;
    for (int p = 0; p < 3; ++p) {
      pages.AddPage(MustParse(testing::RandomSoup(&rng, 60)));
    }
    ExpectInduceMatchesInterpreter(pages, NodeSet(), &rng, 8);
  }
}

}  // namespace
}  // namespace ntw::core
