#include "core/ranker.h"

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>

#include "core/lr_inductor.h"
#include "core/multi_type.h"
#include "core/xpath_inductor.h"
#include "datasets/dataset.h"
#include "datasets/dealers.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;

class RankerTest : public ::testing::Test {
 protected:
  RankerTest() : pages_(FigureOnePages()) {
    for (const char* name :
         {"PORTER FURNITURE", "WOODLAND FURNITURE", "HELLER HOME CENTER",
          "KIDDIE WORLD CENTER", "LULLABY LANE"}) {
      for (const NodeRef& ref : FindText(pages_, name)) truth_.Insert(ref);
    }
    // Noisy labels: two clean names + an address.
    labels_ = NodeSet(FindText(pages_, "WOODLAND FURNITURE"));
    for (const NodeRef& ref : FindText(pages_, "KIDDIE WORLD CENTER")) {
      labels_.Insert(ref);
    }
    for (const NodeRef& ref : FindText(pages_, "532 SAN MATEO AVE.")) {
      labels_.Insert(ref);
    }
  }

  PublicationModel FitPrior() {
    ListFeatures truth_features =
        ComputeListFeatures(SegmentRecords(pages_, truth_));
    Result<PublicationModel> model =
        PublicationModel::Fit({truth_features, truth_features});
    EXPECT_TRUE(model.ok());
    return std::move(model).value();
  }

  PageSet pages_;
  NodeSet truth_;
  NodeSet labels_;
};

TEST_F(RankerTest, FullVariantRecoversTruth) {
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  Ranker ranker(AnnotationModel(0.95, 0.4), FitPrior(), RankerVariant::kFull);
  std::vector<ScoredCandidate> ranked = ranker.Rank(space, pages_, labels_);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(space.candidates[ranked[0].candidate_index].extraction, truth_);
}

TEST_F(RankerTest, RankIsSortedDescending) {
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  Ranker ranker(AnnotationModel(0.95, 0.4), FitPrior());
  std::vector<ScoredCandidate> ranked = ranker.Rank(space, pages_, labels_);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].total, ranked[i].total);
  }
}

TEST_F(RankerTest, VariantsDecomposeScore) {
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  PublicationModel prior = FitPrior();
  AnnotationModel annotation(0.95, 0.4);

  Ranker full(annotation, prior, RankerVariant::kFull);
  Ranker ann_only(annotation, prior, RankerVariant::kAnnotationOnly);
  Ranker list_only(annotation, prior, RankerVariant::kListOnly);

  auto full_ranked = full.Rank(space, pages_, labels_);
  for (const ScoredCandidate& sc : full_ranked) {
    EXPECT_NEAR(sc.total, sc.log_annotation + sc.log_list, 1e-9);
  }
  for (const ScoredCandidate& sc : ann_only.Rank(space, pages_, labels_)) {
    EXPECT_DOUBLE_EQ(sc.total, sc.log_annotation);
  }
  for (const ScoredCandidate& sc : list_only.Rank(space, pages_, labels_)) {
    EXPECT_DOUBLE_EQ(sc.total, sc.log_list);
  }
}

TEST_F(RankerTest, BestReturnsTopIndex) {
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  Ranker ranker(AnnotationModel(0.95, 0.4), FitPrior());
  Result<size_t> best = ranker.Best(space, pages_, labels_);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, ranker.Rank(space, pages_, labels_)[0].candidate_index);
}

TEST_F(RankerTest, BestFailsOnEmptySpace) {
  Ranker ranker(AnnotationModel(0.95, 0.4), FitPrior());
  EXPECT_FALSE(ranker.Best(WrapperSpace(), pages_, labels_).ok());
}

TEST_F(RankerTest, ListOnlyVariantIgnoresLabels) {
  // NTW-X scores do not depend on which labels were given.
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  Ranker list_only(AnnotationModel(0.95, 0.4), FitPrior(),
                   RankerVariant::kListOnly);
  auto with_labels = list_only.Rank(space, pages_, labels_);
  auto with_other = list_only.Rank(space, pages_, NodeSet());
  ASSERT_EQ(with_labels.size(), with_other.size());
  for (size_t i = 0; i < with_labels.size(); ++i) {
    EXPECT_EQ(with_labels[i].candidate_index, with_other[i].candidate_index);
    EXPECT_DOUBLE_EQ(with_labels[i].total, with_other[i].total);
  }
}

TEST_F(RankerTest, RankingIsDeterministic) {
  XPathInductor inductor;
  WrapperSpace space = EnumerateTopDown(inductor, pages_, labels_);
  Ranker ranker(AnnotationModel(0.95, 0.4), FitPrior());
  auto first = ranker.Rank(space, pages_, labels_);
  auto second = ranker.Rank(space, pages_, labels_);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].candidate_index, second[i].candidate_index);
    EXPECT_DOUBLE_EQ(first[i].total, second[i].total);
  }
}

// ------------------------------------------------- Ranking equivalence.

// The segmentation that flattening the pages once per ranking replaced:
// every call walks each page's DOM and interns tag names in a string map.
// The reference oracle for the equivalence tests below.
std::vector<Segment> ReferenceSegmentRecords(
    const PageSet& pages, const std::vector<const NodeSet*>& typed_sets) {
  std::vector<Segment> segments;
  if (typed_sets.empty() || typed_sets[0] == nullptr) return segments;
  std::unordered_map<std::string, int> tag_ids;
  for (size_t p = 0; p < pages.size(); ++p) {
    std::vector<int> tokens;
    std::vector<std::pair<int, size_t>> text_positions;
    std::vector<const html::Node*> stack = {pages.page(p).root()};
    while (!stack.empty()) {
      const html::Node* node = stack.back();
      stack.pop_back();
      if (node->is_text()) {
        text_positions.emplace_back(node->preorder_index(), tokens.size());
        tokens.push_back(0);
      } else if (node->is_element()) {
        auto [it, inserted] = tag_ids.emplace(
            node->tag(), static_cast<int>(tag_ids.size()) + 1);
        tokens.push_back(it->second);
      }
      for (size_t i = node->children().size(); i > 0; --i) {
        stack.push_back(node->children()[i - 1].get());
      }
    }
    std::vector<size_t> boundary_positions;
    for (const auto& [preorder, pos] : text_positions) {
      NodeRef ref{static_cast<int>(p), preorder};
      for (size_t t = 0; t < typed_sets.size(); ++t) {
        if (typed_sets[t] != nullptr && typed_sets[t]->Contains(ref)) {
          tokens[pos] = -static_cast<int>(t) - 1;
          break;
        }
      }
      if (typed_sets[0]->Contains(ref)) boundary_positions.push_back(pos);
    }
    for (size_t b = 0; b + 1 < boundary_positions.size(); ++b) {
      segments.emplace_back(
          tokens.begin() + static_cast<long>(boundary_positions[b]),
          tokens.begin() + static_cast<long>(boundary_positions[b + 1]));
    }
  }
  return segments;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

datasets::TrainedModels MustLearnModels(const datasets::Dataset& dataset,
                                        const std::string& type,
                                        const std::vector<size_t>& train) {
  Result<datasets::TrainedModels> models =
      datasets::LearnModels(dataset, type, train);
  EXPECT_TRUE(models.ok()) << type;
  return std::move(models).value();
}

datasets::Dataset SmallDealers() {
  datasets::DealersConfig config;
  config.num_sites = 12;
  config.seed = 5;
  return datasets::MakeDealers(config);
}

// A small DEALERS corpus with models fitted on its even sites; the odd
// sites are the ones learned.
struct DealersFixture {
  DealersFixture()
      : dealers(SmallDealers()),
        split(datasets::MakeSplit(dealers)),
        name_models(MustLearnModels(dealers, "name", split.train)),
        zip_models(MustLearnModels(dealers, "zip", split.train)) {}

  datasets::Dataset dealers;
  datasets::Split split;
  datasets::TrainedModels name_models;
  datasets::TrainedModels zip_models;
};

TEST(RankEquivalenceTest, RankEqualsPerCandidateScoringOnDealers) {
  DealersFixture f;
  Ranker ranker(f.name_models.annotation, f.name_models.publication);
  const PublicationModel& publication = ranker.publication_model();
  LrInductor lr;
  XPathInductor xpath;
  size_t candidates = 0;
  for (size_t index : f.split.test) {
    const datasets::SiteData& data = f.dealers.sites[index];
    const PageSet& pages = data.site.pages;
    const NodeSet& labels = data.annotations.at("name");
    for (const WrapperInductor* inductor :
         {static_cast<const WrapperInductor*>(&lr),
          static_cast<const WrapperInductor*>(&xpath)}) {
      Result<WrapperSpace> space =
          Enumerate(EnumAlgorithm::kTopDown, *inductor, pages, labels);
      ASSERT_TRUE(space.ok());
      std::vector<ScoredCandidate> ranked = ranker.Rank(*space, pages, labels);
      ASSERT_EQ(ranked.size(), space->candidates.size());

      // Per-candidate scores through the PageSet entry point and through
      // the reference segmentation must agree bit for bit.
      std::vector<double> list(space->candidates.size());
      std::vector<double> total(space->candidates.size());
      for (size_t i = 0; i < space->candidates.size(); ++i) {
        const NodeSet& x = space->candidates[i].extraction;
        EXPECT_EQ(SegmentRecords(pages, x), ReferenceSegmentRecords(pages, {&x}));
        list[i] = publication.LogProb(pages, x);
        EXPECT_EQ(Bits(list[i]),
                  Bits(publication.LogProb(ComputeListFeatures(
                      ReferenceSegmentRecords(pages, {&x})))));
        total[i] = ranker.annotation_model().LogProb(labels, x) + list[i];
      }
      // Rank must report those scores, in the order its documented
      // comparator gives them.
      std::vector<size_t> order(space->candidates.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (total[a] != total[b]) return total[a] > total[b];
        const NodeSet& xa = space->candidates[a].extraction;
        const NodeSet& xb = space->candidates[b].extraction;
        if (xa.size() != xb.size()) return xa.size() > xb.size();
        if (xa.Fingerprint() != xb.Fingerprint()) {
          return xa.Fingerprint() < xb.Fingerprint();
        }
        return a < b;
      });
      for (size_t k = 0; k < ranked.size(); ++k) {
        const ScoredCandidate& sc = ranked[k];
        EXPECT_EQ(sc.candidate_index, order[k]);
        EXPECT_EQ(Bits(sc.log_list), Bits(list[sc.candidate_index]));
        EXPECT_EQ(Bits(sc.total), Bits(total[sc.candidate_index]));
      }
      candidates += ranked.size();
    }
  }
  EXPECT_GT(candidates, 100u);
}

TEST(RankEquivalenceTest, TypedSegmentationEqualsReferenceOnDealers) {
  DealersFixture f;
  XPathInductor xpath;
  size_t checked = 0;
  for (size_t index : f.split.test) {
    const datasets::SiteData& data = f.dealers.sites[index];
    const PageSet& pages = data.site.pages;
    const PageTokens tokens(pages);
    Result<WrapperSpace> names = Enumerate(EnumAlgorithm::kTopDown, xpath,
                                           pages, data.annotations.at("name"));
    Result<WrapperSpace> zips = Enumerate(EnumAlgorithm::kTopDown, xpath,
                                          pages, data.annotations.at("zip"));
    ASSERT_TRUE(names.ok() && zips.ok());
    // References a segmentation must ignore: elements, the document root,
    // out-of-range pages and nodes.
    NodeSet stray = NodeSet::Of({{-1, 3}, {0, -2}, {0, 0}, {0, 1},
                                 {0, 1 << 30}, {1 << 20, 4}});
    auto check = [&](const std::vector<const NodeSet*>& typed) {
      std::vector<Segment> expected = ReferenceSegmentRecords(pages, typed);
      EXPECT_EQ(SegmentRecords(tokens, typed), expected);
      EXPECT_EQ(SegmentRecords(pages, typed), expected);
      ++checked;
    };
    size_t limit = 6;
    for (size_t i = 0; i < std::min(limit, names->candidates.size()); ++i) {
      const NodeSet& name = names->candidates[i].extraction;
      for (size_t j = 0; j < std::min(limit, zips->candidates.size()); ++j) {
        const NodeSet& zip = zips->candidates[j].extraction;
        // The typed sets LearnMultiTypeNtw segments by.
        RecordSet records = AssembleRecords(pages, {name, zip});
        NodeSet record_names = records.TypeNodes(0);
        NodeSet record_zips = records.TypeNodes(1);
        check({&record_names, &record_zips});
        // Raw, swapped, overlapping, gapped and polluted typed sets.
        check({&name, &zip});
        check({&zip, &name});
        check({&name, &name});
        check({&name, nullptr, &zip});
        NodeSet polluted = name.Union(stray).Union(zip);
        check({&polluted, &zip});
        check({&name, &polluted});
      }
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(RankEquivalenceTest, MultiTypeOutcomeUnchangedOnDealers) {
  // Pinned from the DOM-walking segmentation: flattening once per ranking
  // must leave every joint score and assembled record set bit-identical.
  struct Expected {
    double score;
    size_t records;
  };
  const std::vector<Expected> expected = {
      {0x1.4b5e5589416c7p+8, 93}, {0x1.b0a0ea16e067bp+7, 65},
      {0x1.9899b4ee55042p+7, 62}, {0x1.1c8ef1ef48f9dp+8, 79},
      {0x1.c0e4596d9cadep+7, 69}, {0x1.6fbb31266574ep+7, 55},
  };
  DealersFixture f;
  ASSERT_EQ(f.split.test.size(), expected.size());
  XPathInductor xpath;
  for (size_t s = 0; s < f.split.test.size(); ++s) {
    const datasets::SiteData& data = f.dealers.sites[f.split.test[s]];
    MultiTypeLabels labels;
    labels.type_names = {"name", "zip"};
    labels.labels = {data.annotations.at("name"), data.annotations.at("zip")};
    Result<MultiTypeOutcome> outcome = LearnMultiTypeNtw(
        xpath, data.site.pages, labels,
        {f.name_models.annotation, f.zip_models.annotation},
        f.name_models.publication);
    ASSERT_TRUE(outcome.ok()) << data.site.name;
    EXPECT_EQ(Bits(outcome->score), Bits(expected[s].score)) << data.site.name;
    EXPECT_EQ(outcome->records.records.size(), expected[s].records);
    EXPECT_TRUE(outcome->records.failed_pages.empty());
  }
}

TEST(RankerVariantTest, Names) {
  EXPECT_STREQ(RankerVariantName(RankerVariant::kFull), "NTW");
  EXPECT_STREQ(RankerVariantName(RankerVariant::kAnnotationOnly), "NTW-L");
  EXPECT_STREQ(RankerVariantName(RankerVariant::kListOnly), "NTW-X");
}

}  // namespace
}  // namespace ntw::core
