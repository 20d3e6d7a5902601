// Robustness property tests for the HTML pipeline: the parser must accept
// arbitrary byte soup without crashing, produce stable (idempotent)
// serialize→parse fixpoints, and preserve generated-site structure — the
// invariant the corpus I/O format depends on.

#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "test_util.h"

namespace ntw::html {
namespace {

TEST(HtmlFuzzTest, ParserNeverChokesOnTagSoup) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup = testing::RandomSoup(&rng, 1 + rng.NextBounded(60));
    Result<Document> doc = Parse(soup);
    ASSERT_TRUE(doc.ok()) << soup;
    // The document is well-formed: every node resolvable, text nodes
    // indexed consistently.
    EXPECT_GE(doc->node_count(), 1u);
    for (const Node* text : doc->text_nodes()) {
      EXPECT_TRUE(text->is_text());
      EXPECT_EQ(doc->node(text->preorder_index()), text);
    }
  }
}

TEST(HtmlFuzzTest, ParserNeverChokesOnRandomBytes) {
  Rng rng(2025);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes;
    for (size_t i = 0; i < rng.NextBounded(300); ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    Result<Document> doc = Parse(bytes);
    ASSERT_TRUE(doc.ok());
  }
}

TEST(HtmlFuzzTest, SerializeParseReachesFixpoint) {
  // Tag soup need not round-trip in one step (the tree builder inserts
  // implied end tags), but serialize∘parse must reach a fixpoint by the
  // second iteration: parse(serialize(parse(x))) serializes identically.
  Rng rng(2026);
  for (int trial = 0; trial < 150; ++trial) {
    std::string soup = testing::RandomSoup(&rng, 1 + rng.NextBounded(50));
    Document first = std::move(Parse(soup)).value();
    std::string once = Serialize(first.root());
    Document second = std::move(Parse(once)).value();
    std::string twice = Serialize(second.root());
    EXPECT_EQ(once, twice) << soup;
  }
}

TEST(HtmlFuzzTest, SecondParseIsStructurallyStable) {
  // The first reparse may merge text nodes that were originally split by
  // dropped comments; from the second parse on, structure is canonical.
  Rng rng(2027);
  for (int trial = 0; trial < 100; ++trial) {
    std::string soup = testing::RandomSoup(&rng, 1 + rng.NextBounded(40));
    Document first = std::move(Parse(soup)).value();
    Document second = std::move(Parse(Serialize(first.root()))).value();
    Document third = std::move(Parse(Serialize(second.root()))).value();
    EXPECT_EQ(second.node_count(), third.node_count()) << soup;
    EXPECT_EQ(StructuralSignature(second.root()),
              StructuralSignature(third.root()))
        << soup;
  }
}

TEST(HtmlFuzzTest, GeneratedPagesRoundTripExactly) {
  // Generated pages (no comments, no stray metacharacters) round-trip in
  // one step with identical node counts — the corpus-I/O invariant.
  core::PageSet pages = testing::FigureOnePages();
  for (size_t p = 0; p < pages.size(); ++p) {
    std::string serialized = Serialize(pages.page(p).root());
    Document reparsed = std::move(Parse(serialized)).value();
    EXPECT_EQ(reparsed.node_count(), pages.page(p).node_count());
    EXPECT_EQ(StructuralSignature(reparsed.root()),
              StructuralSignature(pages.page(p).root()));
  }
}

TEST(HtmlFuzzTest, DeeplyNestedInputSurvives) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "<div>";
  deep += "x";
  // No closing tags at all.
  Result<Document> doc = Parse(deep);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->text_nodes().size(), 1u);
  EXPECT_EQ(doc->node_count(), 2002u);  // Root + 2000 divs + text.
}

TEST(HtmlFuzzTest, ManySiblingsSurvive) {
  std::string wide = "<ul>";
  for (int i = 0; i < 5000; ++i) {
    wide += "<li>item" + std::to_string(i) + "</li>";
  }
  wide += "</ul>";
  Result<Document> doc = Parse(wide);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->text_nodes().size(), 5000u);
  const Node* ul = doc->root()->child(0);
  EXPECT_EQ(ul->child(4999)->same_tag_child_number(), 5000);
}

}  // namespace
}  // namespace ntw::html
