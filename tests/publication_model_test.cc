#include "core/publication_model.h"

#include <algorithm>
#include <utility>

#include "align/edit_distance.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "stats/kde.h"
#include "test_util.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;
using ::ntw::testing::MustParse;

NodeSet Names(const PageSet& pages) {
  NodeSet set;
  for (const char* name :
       {"PORTER FURNITURE", "WOODLAND FURNITURE", "HELLER HOME CENTER",
        "KIDDIE WORLD CENTER", "LULLABY LANE"}) {
    for (const NodeRef& ref : FindText(pages, name)) set.Insert(ref);
  }
  return set;
}

TEST(SegmentationTest, SegmentsBetweenConsecutiveBoundaries) {
  PageSet pages = FigureOnePages();
  NodeSet names = Names(pages);
  std::vector<Segment> segments = SegmentRecords(pages, names);
  // Page 1 has 3 names → 2 segments; page 2 has 2 names → 1 segment.
  ASSERT_EQ(segments.size(), 3u);
  // Identical record structure ⇒ identical segments.
  EXPECT_EQ(segments[0], segments[1]);
  EXPECT_EQ(segments[0], segments[2]);
}

TEST(SegmentationTest, SegmentStartsAtBoundaryToken) {
  PageSet pages = FigureOnePages();
  std::vector<Segment> segments = SegmentRecords(pages, Names(pages));
  ASSERT_FALSE(segments.empty());
  // The boundary text node itself is the first token (a typed token < 0
  // for set 0... single-type: token -1).
  EXPECT_EQ(segments[0].front(), -1);
}

TEST(SegmentationTest, SegmentContainsRecordTextNodes) {
  PageSet pages = FigureOnePages();
  std::vector<Segment> segments = SegmentRecords(pages, Names(pages));
  int text_tokens = 0;
  for (int token : segments[0]) {
    if (token <= 0) ++text_tokens;
  }
  // name + street + city + "Map" = 4 text nodes per record.
  EXPECT_EQ(text_tokens, 4);
}

TEST(SegmentationTest, FewerThanTwoBoundariesNoSegments) {
  PageSet pages = FigureOnePages();
  NodeSet one(FindText(pages, "PORTER FURNITURE"));
  EXPECT_TRUE(SegmentRecords(pages, one).empty());
}

TEST(SegmentationTest, ShiftedBoundariesPreserveSimilarity) {
  // Sec. 6: using mid-record elements as boundaries yields cyclically
  // shifted records whose structural similarity is preserved.
  PageSet pages = FigureOnePages();
  NodeSet streets;
  for (const char* street :
       {"201 HWY. 30 WEST", "123 MAIN ST.", "514 4TH STREET",
        "1899 W. SAN CARLOS ST.", "532 SAN MATEO AVE."}) {
    for (const NodeRef& ref : FindText(pages, street)) streets.Insert(ref);
  }
  std::vector<Segment> shifted = SegmentRecords(pages, streets);
  ASSERT_EQ(shifted.size(), 3u);
  EXPECT_EQ(shifted[0], shifted[1]);
  ListFeatures names_features =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  ListFeatures shifted_features = ComputeListFeatures(shifted);
  EXPECT_EQ(shifted_features.alignment, names_features.alignment);
  EXPECT_EQ(shifted_features.schema_size, names_features.schema_size);
}

TEST(SegmentationTest, MultiTypeTokensDistinguished) {
  PageSet pages = FigureOnePages();
  NodeSet names = Names(pages);
  NodeSet streets;
  for (const NodeRef& ref : FindText(pages, "201 HWY. 30 WEST")) {
    streets.Insert(ref);
  }
  std::vector<Segment> segments =
      SegmentRecords(pages, {&names, &streets});
  ASSERT_FALSE(segments.empty());
  // Type-0 boundary token -1 opens each segment; the street node in the
  // first page-1 segment is typed -2.
  EXPECT_EQ(segments[0].front(), -1);
  bool saw_typed_street = false;
  for (int token : segments[0]) {
    if (token == -2) saw_typed_street = true;
  }
  EXPECT_TRUE(saw_typed_street);
}

TEST(ListFeaturesTest, PerfectListHasZeroAlignment) {
  PageSet pages = FigureOnePages();
  ListFeatures features =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  EXPECT_EQ(features.alignment, 0.0);
  EXPECT_EQ(features.schema_size, 4.0);
  EXPECT_EQ(features.segment_count, 3);
}

TEST(ListFeaturesTest, AllTextWrapperHasSchemaOne) {
  // X = every text node ⇒ single-step segments ⇒ schema 1 (Sec. 3's X3).
  PageSet pages = FigureOnePages();
  ListFeatures features =
      ComputeListFeatures(SegmentRecords(pages, pages.AllTextNodes()));
  EXPECT_LE(features.schema_size, 2.0);
  EXPECT_GE(features.segment_count, 15);
}

TEST(ListFeaturesTest, BadlyAlignedListScoresWorse) {
  // X2-style list (names + streets as one type): alternating gap pattern.
  PageSet pages = FigureOnePages();
  NodeSet mixed = Names(pages);
  for (const char* street : {"201 HWY. 30 WEST", "123 MAIN ST."}) {
    for (const NodeRef& ref : FindText(pages, street)) mixed.Insert(ref);
  }
  ListFeatures bad = ComputeListFeatures(SegmentRecords(pages, mixed));
  ListFeatures good =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  EXPECT_GT(bad.alignment, good.alignment);
}

TEST(ListFeaturesTest, EmptySegments) {
  ListFeatures features = ComputeListFeatures({});
  EXPECT_EQ(features.schema_size, 0.0);
  EXPECT_EQ(features.alignment, 0.0);
  EXPECT_EQ(features.segment_count, 0);
}

TEST(ListFeaturesTest, SingleSegmentCountsItsTextNodes) {
  std::vector<Segment> segments = {{-1, 3, 0, 4, 0}};
  ListFeatures features = ComputeListFeatures(segments);
  EXPECT_EQ(features.schema_size, 3.0);  // Tokens <= 0: -1, 0, 0.
  EXPECT_EQ(features.segment_count, 1);
}

TEST(ListFeaturesTest, AlignmentCapped) {
  std::vector<Segment> segments;
  segments.push_back(Segment(300, 1));
  segments.push_back(Segment(300, 2));
  ListFeatures features = ComputeListFeatures(segments, /*alignment_cap=*/64);
  EXPECT_EQ(features.alignment, 64.0);
}

// ------------------------------- ComputeListFeatures against both DPs.

// The pair sample ComputeListFeatures scores, copied from
// publication_model.cc: every pair up to 12 segments, adjacent and
// strided pairs beyond.
std::vector<std::pair<size_t, size_t>> ReferencePairs(size_t n) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (n < 2) return pairs;
  if (n <= 12) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
    return pairs;
  }
  constexpr size_t kMaxPairs = 64;
  size_t adjacent = kMaxPairs / 2;
  for (size_t k = 0; k < adjacent; ++k) {
    size_t i = k * (n - 1) / adjacent;
    pairs.emplace_back(i, i + 1);
  }
  size_t far = kMaxPairs - pairs.size();
  for (size_t k = 0; k < far; ++k) {
    size_t i = k * (n / 2) / far;
    size_t j = i + n / 2;
    if (j < n && i != j) pairs.emplace_back(i, j);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

// ComputeListFeatures as it was before equal pairs skipped the DPs: the
// longest common substring and the bounded edit distance of every pair.
ListFeatures ReferenceListFeatures(const std::vector<Segment>& segments,
                                   int alignment_cap) {
  ListFeatures features;
  features.segment_count = static_cast<int>(segments.size());
  if (segments.empty()) return features;
  auto text_count = [](const std::vector<int>& tokens) {
    int count = 0;
    for (int token : tokens) {
      if (token <= 0) ++count;
    }
    return count;
  };
  if (segments.size() == 1) {
    features.schema_size = text_count(segments[0]);
    return features;
  }
  std::vector<double> schema_samples;
  int max_distance = 0;
  for (const auto& [i, j] : ReferencePairs(segments.size())) {
    schema_samples.push_back(text_count(
        align::LongestCommonSubstring(segments[i], segments[j]).tokens));
    max_distance = std::max(
        max_distance,
        align::EditDistanceBounded(segments[i], segments[j], alignment_cap));
  }
  features.schema_size = stats::Median(schema_samples);
  features.alignment = max_distance;
  return features;
}

void ExpectSameFeatures(const std::vector<Segment>& segments, int cap) {
  ListFeatures got = ComputeListFeatures(segments, cap);
  ListFeatures want = ReferenceListFeatures(segments, cap);
  EXPECT_EQ(got.schema_size, want.schema_size) << "cap " << cap;
  EXPECT_EQ(got.alignment, want.alignment) << "cap " << cap;
  EXPECT_EQ(got.segment_count, want.segment_count) << "cap " << cap;
}

TEST(ListFeaturesTest, MatchesBothDpsOnEqualEmptyAndDifferingPairs) {
  const Segment record = {-1, 3, 0, 4, 0, 5};
  const Segment shifted = {0, 4, 0, 5, -1, 3};
  const Segment empty;
  const std::vector<std::vector<Segment>> lists = {
      {record, record},                    // One equal pair.
      {record, record, record, record},    // Only equal pairs.
      {empty, empty},                      // Equal and empty.
      {empty, record},                     // Empty against non-empty.
      {record, shifted},                   // Differing pair.
      {record, shifted, record, empty, record, shifted},
      std::vector<Segment>(40, record),    // Sampled pairs, all equal.
  };
  for (int cap : {0, 1, 128}) {
    for (const std::vector<Segment>& segments : lists) {
      ExpectSameFeatures(segments, cap);
    }
  }
}

TEST(ListFeaturesTest, MatchesBothDpsOnRandomLists) {
  // Segments drawn from a small pool, so equal pairs are common, including
  // empty segments and typed text tokens; lists long enough to be sampled.
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Segment> pool(1 + rng.NextBounded(4));
    for (Segment& segment : pool) {
      segment.resize(rng.NextBounded(9));
      for (int& token : segment) {
        token = static_cast<int>(rng.NextInRange(-2, 4));
      }
    }
    std::vector<Segment> segments(rng.NextBounded(30));
    for (Segment& segment : segments) {
      segment = pool[rng.NextBounded(pool.size())];
    }
    for (int cap : {0, 1, 128}) ExpectSameFeatures(segments, cap);
  }
}

TEST(PublicationModelTest, FitRequiresData) {
  EXPECT_FALSE(PublicationModel::Fit({}).ok());
}

TEST(PublicationModelTest, PrefersListsLikeTraining) {
  std::vector<ListFeatures> training;
  for (double schema : {4.0, 3.0, 4.0, 5.0, 4.0}) {
    ListFeatures f;
    f.schema_size = schema;
    f.alignment = 2.0;
    training.push_back(f);
  }
  Result<PublicationModel> model = PublicationModel::Fit(training);
  ASSERT_TRUE(model.ok());

  ListFeatures like_training;
  like_training.schema_size = 4.0;
  like_training.alignment = 2.0;
  ListFeatures degenerate;  // Whole-table / singleton wrappers.
  degenerate.schema_size = 0.0;
  degenerate.alignment = 0.0;
  ListFeatures misaligned;
  misaligned.schema_size = 4.0;
  misaligned.alignment = 40.0;
  EXPECT_GT(model->LogProb(like_training), model->LogProb(degenerate));
  EXPECT_GT(model->LogProb(like_training), model->LogProb(misaligned));
}

TEST(PublicationModelTest, EndToEndLogProbOnPages) {
  PageSet pages = FigureOnePages();
  std::vector<ListFeatures> training = {
      ComputeListFeatures(SegmentRecords(pages, Names(pages)))};
  Result<PublicationModel> model = PublicationModel::Fit(training);
  ASSERT_TRUE(model.ok());
  double good = model->LogProb(pages, Names(pages));
  double bad = model->LogProb(pages, pages.AllTextNodes());
  EXPECT_GT(good, bad);
}

}  // namespace
}  // namespace ntw::core
