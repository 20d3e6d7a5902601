#include <string>
#include <vector>

#include "annotate/dictionary_annotator.h"
#include "annotate/regex_annotator.h"
#include "annotate/synthetic_annotator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/dealers.h"
#include "datasets/products.h"
#include "gtest/gtest.h"
#include "sitegen/vocab.h"
#include "test_util.h"

namespace ntw::annotate {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;
using ::ntw::testing::MustParse;

TEST(DictionaryAnnotatorTest, LabelsExactMentions) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator annotator({"PORTER FURNITURE", "LULLABY LANE"});
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(testing::TextOf(pages, labels[0]), "PORTER FURNITURE");
  EXPECT_EQ(testing::TextOf(pages, labels[1]), "LULLABY LANE");
}

TEST(DictionaryAnnotatorTest, MatchesInsideLongerText) {
  core::PageSet pages;
  pages.AddPage(MustParse(
      "<p>An authorized BestBuy retailer since 1999</p>"
      "<p>BestBuyify is different</p>"));
  DictionaryAnnotator annotator({"BestBuy"});
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 1u);  // Word boundaries: no BestBuyify hit.
}

TEST(DictionaryAnnotatorTest, CaseInsensitive) {
  core::PageSet pages;
  pages.AddPage(MustParse("<p>office depot</p>"));
  DictionaryAnnotator annotator({"Office Depot"});
  EXPECT_EQ(annotator.Annotate(pages).size(), 1u);
}

TEST(DictionaryAnnotatorTest, ShortEntriesDropped) {
  DictionaryAnnotator::Options options;
  options.min_entry_length = 4;
  DictionaryAnnotator annotator({"abc", "abcd"}, options);
  EXPECT_EQ(annotator.size(), 1u);
}

TEST(DictionaryAnnotatorTest, MaxPagesLimitsScope) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator::Options options;
  options.max_pages = 1;
  DictionaryAnnotator annotator(
      {"PORTER FURNITURE", "KIDDIE WORLD CENTER"}, options);
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 1u);  // KIDDIE is on page 2 — out of scope.
  EXPECT_EQ(labels[0].page, 0);
}

TEST(DictionaryAnnotatorTest, EmptyDictionary) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator annotator({});
  EXPECT_TRUE(annotator.Annotate(pages).empty());
}

// The linear scan the indexed matcher replaced: some kept entry is a
// word-bounded, case-insensitive mention. The reference oracle for the
// differential tests below.
bool ReferenceMatches(const std::vector<std::string>& entries,
                      size_t min_entry_length, const std::string& text) {
  for (const std::string& entry : entries) {
    if (entry.size() >= min_entry_length &&
        ContainsWordIgnoreCase(text, entry)) {
      return true;
    }
  }
  return false;
}

core::NodeSet ReferenceAnnotate(const std::vector<std::string>& entries,
                                size_t min_entry_length,
                                const core::PageSet& pages) {
  std::vector<core::NodeRef> refs;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (ReferenceMatches(entries, min_entry_length, node->text())) {
        refs.push_back(
            core::NodeRef{static_cast<int>(p), node->preorder_index()});
      }
    }
  }
  return core::NodeSet(std::move(refs));
}

// A random string over a small alphabet, so that mentions, near misses and
// boundary cases are all frequent: mixed case, digits, punctuation, space
// and the bytes of a UTF-8 "é".
std::string RandomText(Rng* rng, size_t max_length) {
  static const std::string kAlphabet = "aAbB1 -.(\xc3\xa9Z";
  size_t length = rng->NextBounded(max_length + 1);
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    text.push_back(kAlphabet[rng->NextBounded(kAlphabet.size())]);
  }
  return text;
}

// Flips the ASCII case of some letters so mentions differ from entries.
std::string ShuffleCase(Rng* rng, std::string s) {
  for (char& c : s) {
    if (IsAsciiAlpha(c) && rng->NextBernoulli(0.5)) {
      c = c == AsciiToLower(c) ? AsciiToUpper(c) : AsciiToLower(c);
    }
  }
  return s;
}

TEST(DictionaryAnnotatorTest, IndexedMatchesEqualLinearScanOnRandomInputs) {
  Rng rng(20240613);
  size_t matched = 0;
  size_t unmatched = 0;
  for (size_t min_entry_length : {size_t{0}, size_t{2}, size_t{3}}) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<std::string> texts;
      for (int i = 0; i < 40; ++i) texts.push_back(RandomText(&rng, 24));
      std::vector<std::string> entries;
      size_t entry_count = rng.NextBounded(13);
      for (size_t i = 0; i < entry_count; ++i) {
        switch (rng.NextBounded(5)) {
          case 0:  // A random entry; may start or end with punctuation.
            entries.push_back(RandomText(&rng, 6));
            break;
          case 1: {  // A slice of a text, case-shuffled: a likely hit.
            const std::string& text = texts[rng.NextBounded(texts.size())];
            size_t begin = rng.NextBounded(text.size() + 1);
            size_t length = rng.NextBounded(text.size() - begin + 1);
            entries.push_back(ShuffleCase(&rng, text.substr(begin, length)));
            break;
          }
          case 2:  // Longer than every text.
            entries.push_back(std::string(25, 'a') + RandomText(&rng, 10));
            break;
          case 3:  // Empty: admitted when min_entry_length is 0.
            entries.push_back("");
            break;
          default:  // A duplicate of an earlier entry.
            if (!entries.empty()) {
              entries.push_back(entries[rng.NextBounded(entries.size())]);
            }
            break;
        }
      }
      DictionaryAnnotator::Options options;
      options.min_entry_length = min_entry_length;
      DictionaryAnnotator annotator(entries, options);
      for (const std::string& text : texts) {
        bool expected = ReferenceMatches(entries, min_entry_length, text);
        ASSERT_EQ(annotator.Matches(text), expected)
            << "text '" << CEscape(text) << "' min_entry_length "
            << min_entry_length;
        ++(expected ? matched : unmatched);
      }
    }
  }
  // Both outcomes must be well represented for the comparison to bite.
  EXPECT_GT(matched, 1000u);
  EXPECT_GT(unmatched, 1000u);
}

TEST(DictionaryAnnotatorTest, EmptyEntryNeverMatches) {
  DictionaryAnnotator::Options options;
  options.min_entry_length = 0;
  DictionaryAnnotator annotator({""}, options);
  EXPECT_EQ(annotator.size(), 1u);
  EXPECT_FALSE(annotator.Matches(""));
  EXPECT_FALSE(annotator.Matches(" x "));
}

TEST(DictionaryAnnotatorTest, WordBoundariesAroundNonAlnumEntryEdges) {
  DictionaryAnnotator annotator({"(ab", "cd.", "-x-"});
  // Boundaries concern the text bytes around a mention, whatever the
  // entry's own first and last bytes are.
  EXPECT_TRUE(annotator.Matches("q (AB"));
  EXPECT_FALSE(annotator.Matches("q(ab"));  // 'q' precedes the mention.
  EXPECT_FALSE(annotator.Matches("(abc"));  // 'c' follows it.
  EXPECT_TRUE(annotator.Matches("CD. e"));
  EXPECT_FALSE(annotator.Matches("CD.e"));
  EXPECT_TRUE(annotator.Matches("--X--"));
  EXPECT_FALSE(annotator.Matches("a-x-b"));
}

TEST(DictionaryAnnotatorTest, AnnotateEqualsLinearScanOnDealers) {
  datasets::DealersConfig config;
  config.num_sites = 8;
  config.seed = 3;
  datasets::Dataset dealers = datasets::MakeDealers(config);
  // The whole name universe: a superset of the dataset's dictionary, so
  // street, promo and sidebar mentions hit too.
  std::vector<std::string> names = sitegen::BusinessNameUniverse(
      config.universe_size, config.seed * 977);
  for (size_t min_entry_length : {size_t{2}, size_t{3}}) {
    DictionaryAnnotator::Options options;
    options.min_entry_length = min_entry_length;
    DictionaryAnnotator annotator(names, options);
    size_t labels = 0;
    for (const datasets::SiteData& data : dealers.sites) {
      core::NodeSet expected =
          ReferenceAnnotate(names, min_entry_length, data.site.pages);
      EXPECT_EQ(annotator.Annotate(data.site.pages), expected)
          << data.site.name;
      labels += expected.size();
    }
    EXPECT_GT(labels, 0u);
  }
}

TEST(DictionaryAnnotatorTest, AnnotateEqualsLinearScanOnProducts) {
  datasets::ProductsConfig config;
  config.num_sites = 4;
  datasets::Dataset products = datasets::MakeProducts(config);
  std::vector<std::string> catalogue = sitegen::PhoneModelCatalogue(
      config.catalogue_per_brand, config.seed * 131);
  DictionaryAnnotator annotator(catalogue);
  size_t labels = 0;
  for (const datasets::SiteData& data : products.sites) {
    core::NodeSet expected = ReferenceAnnotate(catalogue, 3, data.site.pages);
    EXPECT_EQ(annotator.Annotate(data.site.pages), expected)
        << data.site.name;
    // The dataset's own labels came from the indexed annotator with the
    // trimmed catalogue, which can only label a subset.
    EXPECT_TRUE(data.annotations.at("model").IsSubsetOf(expected));
    labels += expected.size();
  }
  EXPECT_GT(labels, 0u);
}

TEST(RegexAnnotatorTest, ZipcodeAnnotator) {
  core::PageSet pages = FigureOnePages();
  RegexAnnotator annotator = RegexAnnotator::Zipcode();
  core::NodeSet labels = annotator.Annotate(pages);
  // The five city/state/zip lines (street numbers here are < 5 digits).
  ASSERT_EQ(labels.size(), 5u);
  for (const core::NodeRef& ref : labels) {
    EXPECT_NE(testing::TextOf(pages, ref).find(","), std::string::npos);
  }
}

TEST(RegexAnnotatorTest, FiveDigitStreetIsFalsePositive) {
  core::PageSet pages;
  pages.AddPage(MustParse("<p>10245 MAIN ST.</p><p>38652</p><p>1234</p>"));
  RegexAnnotator annotator = RegexAnnotator::Zipcode();
  EXPECT_EQ(annotator.Annotate(pages).size(), 2u);
}

TEST(RegexAnnotatorTest, CustomPattern) {
  Result<RegexAnnotator> annotator =
      RegexAnnotator::Create("phone", R"(\d{3}-\d{3}-\d{4})");
  ASSERT_TRUE(annotator.ok());
  core::PageSet pages;
  pages.AddPage(MustParse("<p>Phone: 662-534-3672</p><p>no digits</p>"));
  EXPECT_EQ(annotator->Annotate(pages).size(), 1u);
  EXPECT_EQ(annotator->Name(), "phone");
}

TEST(RegexAnnotatorTest, BadPatternFails) {
  EXPECT_FALSE(RegexAnnotator::Create("broken", "(a").ok());
}

TEST(SyntheticAnnotatorTest, ExtremesAreExact) {
  core::PageSet pages = FigureOnePages();
  core::NodeSet truth(FindText(pages, "PORTER FURNITURE"));
  for (const core::NodeRef& ref : FindText(pages, "LULLABY LANE")) {
    truth.Insert(ref);
  }
  Rng rng(1);
  SyntheticAnnotator perfect(1.0, 0.0);
  EXPECT_EQ(perfect.Annotate(pages, truth, &rng), truth);
  SyntheticAnnotator silent(0.0, 0.0);
  EXPECT_TRUE(silent.Annotate(pages, truth, &rng).empty());
}

TEST(SyntheticAnnotatorTest, RatesApproximateP1P2) {
  // A larger page set for stable statistics.
  core::PageSet pages;
  std::string html = "<ul>";
  for (int i = 0; i < 200; ++i) {
    html += "<li><b>t" + std::to_string(i) + "</b><span>o" +
            std::to_string(i) + "</span></li>";
  }
  html += "</ul>";
  pages.AddPage(MustParse(html));
  core::NodeSet truth;
  for (int i = 0; i < 200; ++i) {
    for (const core::NodeRef& ref :
         FindText(pages, "t" + std::to_string(i))) {
      truth.Insert(ref);
    }
  }
  ASSERT_EQ(truth.size(), 200u);

  SyntheticAnnotator annotator(0.3, 0.05);
  Rng rng(42);
  size_t hits = 0, false_hits = 0;
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::NodeSet labels = annotator.Annotate(pages, truth, &rng);
    hits += labels.IntersectSize(truth);
    false_hits += labels.size() - labels.IntersectSize(truth);
  }
  double recall = static_cast<double>(hits) / (200.0 * kTrials);
  double fp_rate = static_cast<double>(false_hits) / (200.0 * kTrials);
  EXPECT_NEAR(recall, 0.3, 0.04);
  EXPECT_NEAR(fp_rate, 0.05, 0.02);
}

TEST(SyntheticAnnotatorTest, SolveP2MatchesPrecisionTarget) {
  // n1 = 100 true, n2 = 900 false, p1 = 0.5, want precision 0.8:
  // p2 = 100·0.5·0.2 / (0.8·900).
  double p2 = SyntheticAnnotator::SolveP2(0.5, 0.8, 100, 900);
  EXPECT_NEAR(p2, 100 * 0.5 * 0.2 / (0.8 * 900), 1e-12);
  double expected_precision = 100 * 0.5 / (100 * 0.5 + 900 * p2);
  EXPECT_NEAR(expected_precision, 0.8, 1e-9);
}

TEST(SyntheticAnnotatorTest, SolveP2Extremes) {
  EXPECT_EQ(SyntheticAnnotator::SolveP2(0.5, 1.0, 10, 10), 0.0);
  EXPECT_EQ(SyntheticAnnotator::SolveP2(0.5, 0.8, 10, 0), 0.0);
  EXPECT_LE(SyntheticAnnotator::SolveP2(1.0, 0.01, 1000, 1), 1.0);
}

}  // namespace
}  // namespace ntw::annotate
