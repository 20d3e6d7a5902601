#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "sitegen/chrome.h"
#include "sitegen/list_template.h"
#include "sitegen/mutate.h"
#include "sitegen/page_builder.h"
#include "sitegen/site.h"
#include "sitegen/vocab.h"

namespace ntw::sitegen {
namespace {

// ------------------------------------------------------------------ Vocab.

TEST(VocabTest, BusinessUniverseUniqueAndContainmentFree) {
  std::vector<std::string> names = BusinessNameUniverse(300, 99);
  ASSERT_EQ(names.size(), 300u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), 300u);
  // No name contains another as a word sequence (the annotator-noise
  // control the dealer dataset depends on).
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(ContainsWordIgnoreCase(names[j], names[i]))
          << "'" << names[i] << "' inside '" << names[j] << "'";
    }
  }
}

TEST(VocabTest, UniverseDeterministicBySeed) {
  EXPECT_EQ(BusinessNameUniverse(50, 7), BusinessNameUniverse(50, 7));
  EXPECT_NE(BusinessNameUniverse(50, 7), BusinessNameUniverse(50, 8));
}

TEST(VocabTest, GeneratorsProduceNonEmpty) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(BusinessName(&rng).empty());
    EXPECT_FALSE(StreetAddress(&rng).empty());
    EXPECT_FALSE(PhoneNumber(&rng).empty());
    EXPECT_FALSE(AlbumTitle(&rng).empty());
    EXPECT_FALSE(TrackTitle(&rng).empty());
    EXPECT_FALSE(ArtistName(&rng).empty());
    EXPECT_FALSE(ManufacturerBrand(&rng).empty());
  }
}

TEST(VocabTest, CityStateZipShape) {
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    CityStateZip csz = RandomCityStateZip(&rng);
    EXPECT_EQ(csz.state.size(), 2u);
    EXPECT_EQ(csz.zip.size(), 5u);
    for (char c : csz.zip) EXPECT_TRUE(IsAsciiDigit(c));
    EXPECT_NE(csz.ToString().find(", "), std::string::npos);
  }
}

TEST(VocabTest, TrackDurationShape) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::string d = TrackDuration(&rng);
    size_t colon = d.find(':');
    ASSERT_NE(colon, std::string::npos);
    EXPECT_EQ(d.size() - colon - 1, 2u);  // Two-digit seconds.
  }
}

TEST(VocabTest, SeedAlbumsMatchFigureNine) {
  const std::vector<SeedAlbum>& albums = SeedAlbums();
  ASSERT_EQ(albums.size(), 11u);
  EXPECT_EQ(albums[1].title, "Abbey Road");
  EXPECT_EQ(albums[1].artist, "Beatles");
  EXPECT_EQ(albums[5].title, "Strangers In the Night");
  for (const SeedAlbum& album : albums) {
    EXPECT_GE(album.tracks.size(), 8u);
    EXPECT_LE(album.tracks.size(), 14u);
  }
  // The planted title tracks (annotation noise sources).
  EXPECT_EQ(albums[2].tracks[0], albums[2].title);
  EXPECT_EQ(albums[9].tracks[0], albums[9].title);
}

TEST(VocabTest, PhoneCatalogueSized) {
  std::vector<std::string> catalogue = PhoneModelCatalogue(93, 5);
  EXPECT_EQ(catalogue.size(), 93u * 5u);
  std::set<std::string> unique(catalogue.begin(), catalogue.end());
  EXPECT_EQ(unique.size(), catalogue.size());
  // Every entry carries one of the five brands.
  for (const std::string& model : catalogue) {
    bool branded = false;
    for (const std::string& brand : PhoneBrands()) {
      if (model.find(brand) == 0) branded = true;
    }
    EXPECT_TRUE(branded) << model;
  }
}

// ----------------------------------------------------------- PageBuilder.

TEST(PageBuilderTest, TargetsResolveToPreorderIndices) {
  PageBuilder builder;
  html::Node* div = builder.El(builder.root(), "div", {{"class", "x"}});
  builder.Text(div, "before");
  html::Node* target = builder.TargetText(div, "THE NAME", "name");
  builder.Text(div, "after");
  PageBuilder::Built built = builder.Finish();
  ASSERT_EQ(built.targets["name"].size(), 1u);
  const html::Node* node = built.doc.node(built.targets["name"][0]);
  EXPECT_EQ(node, target);
  EXPECT_EQ(node->text(), "THE NAME");
}

TEST(SiteAccumulatorTest, RebasesAcrossPages) {
  SiteAccumulator accumulator("test-site");
  for (int p = 0; p < 2; ++p) {
    PageBuilder builder;
    html::Node* body = builder.El(builder.root(), "body");
    builder.TargetText(body, "target" + std::to_string(p), "name");
    accumulator.Add(builder.Finish());
  }
  GeneratedSite site = accumulator.Take();
  EXPECT_EQ(site.name, "test-site");
  EXPECT_EQ(site.pages.size(), 2u);
  ASSERT_EQ(site.truth["name"].size(), 2u);
  EXPECT_EQ(site.truth["name"][0].page, 0);
  EXPECT_EQ(site.truth["name"][1].page, 1);
}

// ---------------------------------------------------------- ListTemplate.

class ListTemplateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ListTemplateTest, RendersAllRecordsAndTargets) {
  Rng rng(GetParam());
  ListTemplate list_template = ListTemplate::Random(&rng, 3);

  std::vector<ListRecord> records;
  for (int i = 0; i < 4; ++i) {
    ListRecord record;
    record.fields = {"NAME" + std::to_string(i), "addr" + std::to_string(i),
                     "extra" + std::to_string(i)};
    record.field_types = {"name", "", ""};
    record.present = {true, true, true};
    records.push_back(record);
  }

  PageBuilder builder;
  html::Node* body = builder.El(builder.root(), "body");
  list_template.Render(&builder, body, records);
  PageBuilder::Built built = builder.Finish();

  ASSERT_EQ(built.targets["name"].size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(built.doc.node(built.targets["name"][i])->text(),
              "NAME" + std::to_string(i));
  }
  // All field texts present somewhere in the page.
  std::string content = built.doc.root()->TextContent();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(content.find("addr" + std::to_string(i)), std::string::npos);
  }
}

TEST_P(ListTemplateTest, SerializeParseRoundTripPreservesTargets) {
  // The generated DOM must survive serialize → reparse with identical
  // pre-order indices (the pipeline guarantee that lets benches work on
  // reparsed HTML).
  Rng rng(GetParam() * 31 + 1);
  ListTemplate list_template = ListTemplate::Random(&rng, 4);
  std::vector<ListRecord> records;
  for (int i = 0; i < 3; ++i) {
    auto field = [i](const char* prefix) {
      return std::string(prefix).append(std::to_string(i));
    };
    ListRecord record;
    record.fields = {field("N"), field("A"), field("C"), field("P")};
    record.field_types = {"name", "", "zip", ""};
    record.present = {true, true, true, i % 2 == 0};
    records.push_back(record);
  }
  PageBuilder builder;
  html::Node* body = builder.El(builder.root(), "body");
  list_template.Render(&builder, body, records);
  PageBuilder::Built built = builder.Finish();

  std::string serialized = html::Serialize(built.doc.root());
  Result<html::Document> reparsed = html::Parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->node_count(), built.doc.node_count());
  for (int index : built.targets["name"]) {
    EXPECT_EQ(reparsed->node(index)->text(), built.doc.node(index)->text());
  }
}

TEST_P(ListTemplateTest, SameTemplateSameStructureAcrossPages) {
  Rng rng(GetParam() * 7 + 3);
  ListTemplate list_template = ListTemplate::Random(&rng, 2);
  auto render = [&](const std::string& suffix) {
    PageBuilder builder;
    html::Node* body = builder.El(builder.root(), "body");
    std::vector<ListRecord> records;
    for (int i = 0; i < 2; ++i) {
      ListRecord record;
      record.fields = {"N" + suffix + std::to_string(i),
                       "A" + suffix + std::to_string(i)};
      record.field_types = {"name", ""};
      record.present = {true, true};
      records.push_back(record);
    }
    list_template.Render(&builder, body, records);
    return builder.Finish();
  };
  PageBuilder::Built a = render("x");
  PageBuilder::Built b = render("y");
  EXPECT_EQ(html::StructuralSignature(a.doc.root()),
            html::StructuralSignature(b.doc.root()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListTemplateTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------- Chrome.

TEST(ChromeTest, RendersHeaderSidebarFooter) {
  Rng rng(5);
  ChromeTemplate chrome = ChromeTemplate::Random(&rng, "Acme Locator");
  chrome.has_sidebar = true;

  PageBuilder builder;
  html::Node* body = BeginPage(&builder, "Acme");
  html::Node* content =
      RenderChromeTop(&builder, chrome, {"BrandOne", "BrandTwo"});
  builder.Text(builder.El(content, "h2"), "Listing");
  RenderChromeBottom(&builder, body, chrome, &rng, {"promo line"});
  PageBuilder::Built built = builder.Finish();

  std::string text = built.doc.root()->TextContent();
  EXPECT_NE(text.find("Acme Locator"), std::string::npos);
  EXPECT_NE(text.find("BrandOne"), std::string::npos);
  EXPECT_NE(text.find("promo line"), std::string::npos);
  EXPECT_NE(text.find("(c) 2010"), std::string::npos);
  EXPECT_NE(text.find("Listing"), std::string::npos);
}

TEST(ChromeTest, RandomChromeVaries) {
  Rng rng(6);
  std::set<std::string> header_classes;
  for (int i = 0; i < 12; ++i) {
    header_classes.insert(ChromeTemplate::Random(&rng, "t").header_class);
  }
  EXPECT_GT(header_classes.size(), 3u);
}

// ------------------------------------------------------- Fault injection.

constexpr char kMutantPage[] =
    "<html><head><title>Listing page 7</title></head>"
    "<body><h1>Dealers</h1>"
    "<div class=\"list\">"
    "<div class=\"rec\"><b>Acme Motors</b><br><span>12 Elm</span></div>"
    "<div class=\"rec\"><b>Bay Auto</b><br><span>9 Oak</span></div>"
    "</div>"
    "<a href=\"/next\" class=\"nav\">next</a>"
    "</body></html>";

TEST(MutateTest, ClassRenameSuffixesEveryClassValue) {
  Mutation mutation{MutationKind::kClassRename};
  std::string mutated = MutatePage(kMutantPage, mutation);
  EXPECT_NE(mutated.find("class=\"list-v2\""), std::string::npos);
  EXPECT_NE(mutated.find("class=\"rec-v2\""), std::string::npos);
  EXPECT_NE(mutated.find("class=\"nav-v2\""), std::string::npos);
  EXPECT_EQ(mutated.find("class=\"rec\""), std::string::npos);
  // Text content is untouched.
  EXPECT_NE(mutated.find("<b>Acme Motors</b>"), std::string::npos);
}

TEST(MutateTest, WrapperDivInsertionAddsOneShellAroundBodyContent) {
  Mutation mutation{MutationKind::kWrapperDivInsertion};
  std::string mutated = MutatePage(kMutantPage, mutation);
  EXPECT_NE(mutated.find("<body><div class=\"shell\"><h1>"),
            std::string::npos)
      << mutated;
  EXPECT_NE(mutated.find("</a></div></body>"), std::string::npos) << mutated;
}

TEST(MutateTest, DelimiterTextChangeRenamesExactTagOnly) {
  Mutation mutation{MutationKind::kDelimiterTextChange};
  std::string mutated = MutatePage(kMutantPage, mutation);
  EXPECT_NE(mutated.find("<strong>Acme Motors</strong>"), std::string::npos)
      << mutated;
  EXPECT_EQ(mutated.find("<b>"), std::string::npos);
  // <br> shares the prefix but is not at a tag boundary — untouched.
  EXPECT_NE(mutated.find("<br>"), std::string::npos);
}

TEST(MutateTest, AttributeReorderKeepsDomShape) {
  constexpr char kMultiAttr[] =
      "<html><body>"
      "<div id=\"main\" class=\"list\" data-x=\"1\">"
      "<a href=\"/d\" class=\"go\">Acme Motors</a></div>"
      "</body></html>";
  Mutation mutation{MutationKind::kAttributeReorder};
  std::string mutated = MutatePage(kMultiAttr, mutation);
  EXPECT_NE(mutated, kMultiAttr);
  EXPECT_NE(mutated.find("<div data-x=\"1\" class=\"list\" id=\"main\">"),
            std::string::npos)
      << mutated;
  EXPECT_NE(mutated.find("<a class=\"go\" href=\"/d\">"), std::string::npos);
  // Byte-level churn only: parsing and reserializing both shows the same
  // text content in the same structure.
  EXPECT_NE(mutated.find("Acme Motors"), std::string::npos);
}

TEST(MutateTest, WhitespaceChurnPadsTextWithoutNewNodes) {
  Mutation mutation{MutationKind::kWhitespaceChurn};
  mutation.seed = 2;
  std::string mutated = MutatePage(kMutantPage, mutation);
  EXPECT_NE(mutated, kMutantPage);
  // Padding lands inside the first long text run (the varying title), so
  // the tag structure is byte-identical outside it.
  EXPECT_NE(mutated.find("Listing    page 7"), std::string::npos) << mutated;
  EXPECT_EQ(mutated.size(), sizeof(kMutantPage) - 1 + 3);
}

TEST(MutateTest, MutationsComposeLeftToRight) {
  std::string mutated =
      MutatePage(kMutantPage, {Mutation{MutationKind::kClassRename},
                               Mutation{MutationKind::kDelimiterTextChange}});
  EXPECT_NE(mutated.find("class=\"rec-v2\""), std::string::npos);
  EXPECT_NE(mutated.find("<strong>Bay Auto</strong>"), std::string::npos);
}

}  // namespace
}  // namespace ntw::sitegen
