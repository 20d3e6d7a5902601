#include "core/enumerate.h"

#include <map>
#include <set>

#include "common/rng.h"
#include "core/lr_inductor.h"
#include "core/table_inductor.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ntw::core {
namespace {

using ::ntw::testing::ExampleCell;
using ::ntw::testing::ExampleTablePage;

std::multiset<uint64_t> Fingerprints(const WrapperSpace& space) {
  std::multiset<uint64_t> prints;
  for (const Candidate& candidate : space.candidates) {
    prints.insert(candidate.extraction.Fingerprint());
  }
  return prints;
}

// ------------------------------- Example 2: the paper's worked example.

class Example2Test : public ::testing::Test {
 protected:
  Example2Test() : pages_(ExampleTablePage()) {
    // L = {n1, n2, n4, a4, z5}.
    labels_ = NodeSet({ExampleCell(pages_, 1, 1), ExampleCell(pages_, 2, 1),
                       ExampleCell(pages_, 4, 1), ExampleCell(pages_, 4, 2),
                       ExampleCell(pages_, 5, 3)});
  }

  PageSet pages_;
  NodeSet labels_;
  TableInductor inductor_;
};

TEST_F(Example2Test, BottomUpFindsTheEightWrappers) {
  WrapperSpace space = EnumerateBottomUp(inductor_, pages_, labels_);
  // {n1}, {n2}, {n4}, {a4}, {z5}, C1, R4, T (Equation 2).
  EXPECT_EQ(space.size(), 8u);

  std::map<size_t, int> by_size;
  for (const Candidate& candidate : space.candidates) {
    ++by_size[candidate.extraction.size()];
  }
  EXPECT_EQ(by_size[1], 5);   // Five singletons.
  EXPECT_EQ(by_size[5], 1);   // The first column (5 rows).
  EXPECT_EQ(by_size[4], 1);   // Row 4 (4 columns).
  EXPECT_EQ(by_size[20], 1);  // The entire table.
}

TEST_F(Example2Test, TopDownFindsTheSameSpace) {
  WrapperSpace bottom_up = EnumerateBottomUp(inductor_, pages_, labels_);
  WrapperSpace top_down = EnumerateTopDown(inductor_, pages_, labels_);
  EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(top_down));
}

TEST_F(Example2Test, NaiveFindsTheSameSpace) {
  Result<WrapperSpace> naive =
      EnumerateNaive(inductor_, pages_, labels_, 20);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->inductor_calls, 31);  // 2^5 − 1 subsets.
  WrapperSpace bottom_up = EnumerateBottomUp(inductor_, pages_, labels_);
  EXPECT_EQ(Fingerprints(*naive), Fingerprints(bottom_up));
}

TEST_F(Example2Test, BottomUpCallBoundHolds) {
  WrapperSpace space = EnumerateBottomUp(inductor_, pages_, labels_);
  // Theorem 2: at most k·|L| calls.
  EXPECT_LE(space.inductor_calls,
            static_cast<int64_t>(space.size() * labels_.size()));
}

TEST_F(Example2Test, TopDownCallsEqualSpaceSizePlusDuplicates) {
  WrapperSpace space = EnumerateTopDown(inductor_, pages_, labels_);
  // Theorem 3: exactly k calls (one per closed set).
  EXPECT_EQ(space.inductor_calls, static_cast<int64_t>(space.size()));
}

TEST_F(Example2Test, TrainedOnRecorded) {
  WrapperSpace space = EnumerateBottomUp(inductor_, pages_, labels_);
  for (const Candidate& candidate : space.candidates) {
    EXPECT_FALSE(candidate.trained_on.empty());
    EXPECT_TRUE(candidate.trained_on.IsSubsetOf(labels_));
  }
}

// Fully-labeled n×m table: the wrapper space is nm + n + m + 1 (Sec. 3
// states n² + 2n + 1 for an n×n table).
TEST(EnumerateTest, FullyLabeledTableSpaceSize) {
  PageSet pages = ExampleTablePage();  // 5×4.
  NodeSet labels = TableInductor::CellTextNodes(pages);
  ASSERT_EQ(labels.size(), 20u);
  TableInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages, labels);
  EXPECT_EQ(space.size(), 20u + 5u + 4u + 1u);
  WrapperSpace bottom_up = EnumerateBottomUp(inductor, pages, labels);
  EXPECT_EQ(Fingerprints(space), Fingerprints(bottom_up));
}

// ------------------------------- Cross-algorithm agreement (property).

struct AgreementCase {
  std::string name;
  std::shared_ptr<const FeatureBasedInductor> inductor;
};

class AgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(AgreementTest, AllThreeAlgorithmsAgreeOnRandomLabels) {
  PageSet pages = testing::FigureOnePages();
  NodeSet candidates = pages.AllTextNodes();
  const FeatureBasedInductor& inductor = *GetParam().inductor;
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<NodeRef> refs;
    size_t want = 2 + rng.NextBounded(6);
    for (size_t i = 0; i < want; ++i) {
      refs.push_back(candidates[rng.NextBounded(candidates.size())]);
    }
    NodeSet labels(std::move(refs));
    WrapperSpace bottom_up = EnumerateBottomUp(inductor, pages, labels);
    WrapperSpace top_down = EnumerateTopDown(inductor, pages, labels);
    Result<WrapperSpace> naive = EnumerateNaive(inductor, pages, labels, 10);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(top_down))
        << GetParam().name << " labels=" << labels.ToString();
    EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(*naive))
        << GetParam().name << " labels=" << labels.ToString();
    // Theorem bounds.
    EXPECT_LE(bottom_up.inductor_calls,
              static_cast<int64_t>(bottom_up.size() * labels.size()));
    EXPECT_LE(top_down.inductor_calls,
              static_cast<int64_t>(naive->inductor_calls));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inductors, AgreementTest,
    ::testing::Values(
        AgreementCase{"XPATH", std::make_shared<XPathInductor>()},
        AgreementCase{"LR", std::make_shared<LrInductor>()}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return info.param.name;
    });

// ------------------------------- Edge cases and plumbing.

// Regression: labels of different depths whose only shared feature is the
// position-0 child number. The learned xpath must NOT encode the deeper
// label's depth via bare `*` steps — "depth >= k" is not a feature, and
// keeping it made BottomUp's closure sets diverge from TopDown's
// subdivision lattice (found on generated dealer sites).
TEST(EnumerateTest, MixedDepthLabelsKeepAlgorithmsInAgreement) {
  PageSet pages;
  pages.AddPage(testing::MustParse(
      "<html><body>"
      "<div class='deep'><table><tr><td><a><b>DEEP ONE</b></a></td></tr>"
      "<tr><td><a><b>DEEP TWO</b></a></td></tr></table></div>"
      "<p>SHALLOW ONE</p><p>SHALLOW TWO</p>"
      "<span>other</span></body></html>"));
  NodeSet labels;
  for (const char* text :
       {"DEEP ONE", "DEEP TWO", "SHALLOW ONE", "SHALLOW TWO"}) {
    for (const NodeRef& ref : testing::FindText(pages, text)) {
      labels.Insert(ref);
    }
  }
  ASSERT_EQ(labels.size(), 4u);
  XPathInductor inductor;
  WrapperSpace bottom_up = EnumerateBottomUp(inductor, pages, labels);
  WrapperSpace top_down = EnumerateTopDown(inductor, pages, labels);
  Result<WrapperSpace> naive = EnumerateNaive(inductor, pages, labels, 6);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(top_down));
  EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(*naive));
  // And the mixed wrapper trained on a deep + a shallow label matches
  // every text node sharing the child number, regardless of depth.
  NodeSet mixed({testing::FindText(pages, "DEEP ONE")[0],
                 testing::FindText(pages, "SHALLOW ONE")[0]});
  Induction induction = inductor.Induce(pages, mixed);
  EXPECT_TRUE(
      induction.extraction.Contains(testing::FindText(pages, "other")[0]));
}

TEST(EnumerateTest, AgreementOnGeneratedDealerSites) {
  // The generated corpora are the harshest agreement workload (regression
  // cover for feature-semantics bugs that toy pages miss).
  datasets::DealersConfig config;
  config.num_sites = 6;
  config.pages_per_site = 4;
  datasets::Dataset dealers = datasets::MakeDealers(config);
  XPathInductor xpath_inductor;
  LrInductor lr_inductor;
  for (const datasets::SiteData& data : dealers.sites) {
    const NodeSet& labels = data.annotations.at("name");
    if (labels.empty()) continue;
    for (const FeatureBasedInductor* inductor :
         {static_cast<const FeatureBasedInductor*>(&xpath_inductor),
          static_cast<const FeatureBasedInductor*>(&lr_inductor)}) {
      WrapperSpace bottom_up =
          EnumerateBottomUp(*inductor, data.site.pages, labels);
      WrapperSpace top_down =
          EnumerateTopDown(*inductor, data.site.pages, labels);
      EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(top_down))
          << data.site.name << " with " << inductor->Name();
    }
  }
}

// One page with two 3-item lists that differ only in the class of a
// <section> `levels` ancestors above each item's text.
PageSet DeepListsPage(int levels) {
  std::string html = "<html><body>";
  for (const std::string cls : {"left", "right"}) {
    html += "<section class='" + cls + "'>";
    for (int i = 0; i < levels - 3; ++i) html += "<div>";
    html += "<ul>";
    for (int item = 1; item <= 3; ++item) {
      html += "<li>" + cls + std::to_string(item) + "</li>";
    }
    html += "</ul>";
    for (int i = 0; i < levels - 3; ++i) html += "</div>";
    html += "</section>";
  }
  html += "</body></html>";
  PageSet pages;
  pages.AddPage(testing::MustParse(html));
  return pages;
}

// Regression: XPATH attribute handles packed the ancestor distance into 12
// bits and the attribute-name id into 18 of an int, so a label more than
// 2047 levels deep spilled into the neighbouring fields and TopDown
// silently dropped subdivisions (4 candidates where BottomUp found 12).
TEST(EnumerateTest, DeepLabelsKeepAlgorithmsInAgreement) {
  XPathInductor inductor;
  for (int levels : {2100, 4100}) {
    PageSet pages = DeepListsPage(levels);
    NodeSet labels = pages.AllTextNodes();
    ASSERT_EQ(labels.size(), 6u);
    WrapperSpace bottom_up = EnumerateBottomUp(inductor, pages, labels);
    WrapperSpace top_down = EnumerateTopDown(inductor, pages, labels);
    EXPECT_EQ(bottom_up.size(), 12u) << levels << " levels";
    EXPECT_EQ(Fingerprints(bottom_up), Fingerprints(top_down))
        << levels << " levels";
  }
}

TEST(EnumerateTest, NaiveRejectsTooManyLabels) {
  PageSet pages = testing::FigureOnePages();
  NodeSet labels = pages.AllTextNodes();
  XPathInductor inductor;
  EXPECT_FALSE(EnumerateNaive(inductor, pages, labels, 10).ok());
}

TEST(EnumerateTest, EmptyLabelsGiveEmptySpace) {
  PageSet pages = testing::FigureOnePages();
  XPathInductor inductor;
  EXPECT_EQ(EnumerateBottomUp(inductor, pages, NodeSet()).size(), 0u);
  EXPECT_EQ(EnumerateTopDown(inductor, pages, NodeSet()).size(), 0u);
}

TEST(EnumerateTest, SingleLabel) {
  PageSet pages = testing::FigureOnePages();
  NodeSet labels(testing::FindText(pages, "PORTER FURNITURE"));
  XPathInductor inductor;
  WrapperSpace space = EnumerateBottomUp(inductor, pages, labels);
  EXPECT_EQ(space.size(), 1u);
  EXPECT_TRUE(labels.IsSubsetOf(space.candidates[0].extraction));
}

TEST(EnumerateTest, DispatcherRoutes) {
  PageSet pages = testing::FigureOnePages();
  NodeSet labels(testing::FindText(pages, "PORTER FURNITURE"));
  XPathInductor inductor;
  for (EnumAlgorithm algo : {EnumAlgorithm::kBottomUp,
                             EnumAlgorithm::kTopDown, EnumAlgorithm::kNaive}) {
    Result<WrapperSpace> space = Enumerate(algo, inductor, pages, labels);
    ASSERT_TRUE(space.ok()) << EnumAlgorithmName(algo);
    EXPECT_EQ(space->size(), 1u);
  }
}

TEST(EnumerateTest, CountingInductorCounts) {
  PageSet pages = testing::FigureOnePages();
  NodeSet labels(testing::FindText(pages, "PORTER FURNITURE"));
  for (const NodeRef& ref : testing::FindText(pages, "LULLABY LANE")) {
    labels.Insert(ref);
  }
  XPathInductor base;
  CountingInductor counting(&base);
  WrapperSpace space = EnumerateBottomUp(counting, pages, labels);
  // With memoization the inductor only sees the cache misses; the logical
  // call count the theorems bound is hits + misses.
  EXPECT_EQ(counting.calls(), space.cache_misses);
  EXPECT_EQ(space.cache_hits + space.cache_misses, space.inductor_calls);
  counting.ResetCalls();
  EXPECT_EQ(counting.calls(), 0);
}

TEST(EnumerateTest, BottomUpMemoizationNeverInducesASubsetTwice) {
  // Example 2's label set makes BottomUp revisit expansions: several
  // closed frontier sets expand to the same |s|+1 subset. The cache must
  // turn every revisit into a hit, so the distinct-Induce count (what the
  // inductor actually ran) is strictly below the uncached call count.
  PageSet pages = testing::ExampleTablePage();
  NodeSet labels({testing::ExampleCell(pages, 1, 1),
                  testing::ExampleCell(pages, 2, 1),
                  testing::ExampleCell(pages, 4, 1),
                  testing::ExampleCell(pages, 4, 2),
                  testing::ExampleCell(pages, 5, 3)});
  TableInductor base;
  CountingInductor counting(&base);
  WrapperSpace space = EnumerateBottomUp(counting, pages, labels);
  EXPECT_EQ(counting.calls(), space.cache_misses);
  EXPECT_LE(space.cache_misses, space.inductor_calls);
  EXPECT_GT(space.cache_hits, 0) << "expected overlapping frontier "
                                    "expansions on the Example 2 corpus";
  EXPECT_EQ(space.cache_hits + space.cache_misses, space.inductor_calls);
}

TEST(EnumerateTest, NaiveAndTopDownReportAllMisses) {
  // Naive enumerates each subset once and TopDown's Z is
  // fingerprint-distinct, so neither can hit the memo; their accounting
  // still splits logical calls into hits + misses.
  PageSet pages = testing::FigureOnePages();
  NodeSet labels(testing::FindText(pages, "PORTER FURNITURE"));
  for (const NodeRef& ref : testing::FindText(pages, "LULLABY LANE")) {
    labels.Insert(ref);
  }
  XPathInductor inductor;
  Result<WrapperSpace> naive = EnumerateNaive(inductor, pages, labels, 10);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->cache_hits, 0);
  EXPECT_EQ(naive->cache_misses, naive->inductor_calls);
  WrapperSpace top_down = EnumerateTopDown(inductor, pages, labels);
  EXPECT_EQ(top_down.cache_hits, 0);
  EXPECT_EQ(top_down.cache_misses, top_down.inductor_calls);
}

TEST(EnumerateTest, AlgorithmNames) {
  EXPECT_STREQ(EnumAlgorithmName(EnumAlgorithm::kBottomUp), "BottomUp");
  EXPECT_STREQ(EnumAlgorithmName(EnumAlgorithm::kTopDown), "TopDown");
  EXPECT_STREQ(EnumAlgorithmName(EnumAlgorithm::kNaive), "Naive");
}

}  // namespace
}  // namespace ntw::core
