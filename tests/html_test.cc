#include <string>
#include <utility>
#include <vector>

#include "core/lr_inductor.h"
#include "gtest/gtest.h"
#include "html/entities.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "html/tokenizer.h"
#include "test_util.h"
#include "text/char_view.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace ntw::html {
namespace {

using ::ntw::testing::MustParse;

// -------------------------------------------------------------- Entities.

TEST(EntitiesTest, NamedEntities) {
  EXPECT_EQ(DecodeEntities("a &amp; b"), "a & b");
  EXPECT_EQ(DecodeEntities("&lt;td&gt;"), "<td>");
  EXPECT_EQ(DecodeEntities("&quot;x&quot; &apos;y&apos;"), "\"x\" 'y'");
}

TEST(EntitiesTest, NumericDecimal) {
  EXPECT_EQ(DecodeEntities("&#65;&#66;"), "AB");
}

TEST(EntitiesTest, NumericHex) {
  EXPECT_EQ(DecodeEntities("&#x41;&#X42;"), "AB");
}

TEST(EntitiesTest, NumericUtf8MultiByte) {
  EXPECT_EQ(DecodeEntities("&#233;"), "\xc3\xa9");        // é
  EXPECT_EQ(DecodeEntities("&#x20AC;"), "\xe2\x82\xac");  // €
  EXPECT_EQ(DecodeEntities("&#x1F600;"), "\xf0\x9f\x98\x80");
}

TEST(EntitiesTest, OverflowBecomesReplacement) {
  EXPECT_EQ(DecodeEntities("&#x110000;"), "\xef\xbf\xbd");
}

TEST(EntitiesTest, UnknownPassesThrough) {
  EXPECT_EQ(DecodeEntities("&bogus; &"), "&bogus; &");
  EXPECT_EQ(DecodeEntities("AT&T"), "AT&T");
}

TEST(EntitiesTest, MissingSemicolonStillDecodes) {
  EXPECT_EQ(DecodeEntities("&amp x"), "& x");
}

TEST(EntitiesTest, HugeNumericSaturatesToReplacement) {
  // Values far past the uint32 range must saturate, not wrap back into a
  // valid code point.
  EXPECT_EQ(DecodeEntities("&#99999999999999999999;"), "\xef\xbf\xbd");
  EXPECT_EQ(DecodeEntities("&#xFFFFFFFFFFFFFFFF;"), "\xef\xbf\xbd");
  // One past the Unicode maximum, and exactly the maximum.
  EXPECT_EQ(DecodeEntities("&#1114112;"), "\xef\xbf\xbd");
  EXPECT_EQ(DecodeEntities("&#x10FFFF;"), "\xf4\x8f\xbf\xbf");
}

TEST(EntitiesTest, TruncatedNumericReferencePassesThrough) {
  // A reference cut off before any digit is not a reference at all.
  EXPECT_EQ(DecodeEntities("&#"), "&#");
  EXPECT_EQ(DecodeEntities("&#x"), "&#x");
  EXPECT_EQ(DecodeEntities("&#X"), "&#X");
  EXPECT_EQ(DecodeEntities("&#;"), "&#;");
  EXPECT_EQ(DecodeEntities("&#x;"), "&#x;");
  EXPECT_EQ(DecodeEntities("value &#x"), "value &#x");
  EXPECT_EQ(DecodeEntities("&#xZZ;"), "&#xZZ;");
}

TEST(EntitiesTest, TrailingAmpersandAndEmptyName) {
  EXPECT_EQ(DecodeEntities("&"), "&");
  EXPECT_EQ(DecodeEntities("&;"), "&;");
  EXPECT_EQ(DecodeEntities("a & b"), "a & b");
}

TEST(EntitiesTest, UnknownNamedEntityKeepsSemicolonAndCase) {
  EXPECT_EQ(DecodeEntities("&AMP;"), "&AMP;");  // Names are case-sensitive.
  // The name scan is maximal: "nbspx" is not an entity, so nothing decodes.
  EXPECT_EQ(DecodeEntities("&nbsp &nbspx;"), "\xc2\xa0 &nbspx;");
  EXPECT_EQ(DecodeEntities("&verylongunknownentityname;"),
            "&verylongunknownentityname;");
}

TEST(EntitiesTest, NumericZeroAndControlDecodeLiterally) {
  EXPECT_EQ(DecodeEntities("&#65;&#0;&#66;"),
            std::string("A\0B", 3));
}

// -------------------------------------------------------------- Tokenizer.

TEST(TokenizerTest, BasicTags) {
  Tokenizer tokenizer("<div class='a'>hi</div>");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].data, "div");
  ASSERT_EQ(tokens[0].attrs.size(), 1u);
  EXPECT_EQ(tokens[0].attrs[0].first, "class");
  EXPECT_EQ(tokens[0].attrs[0].second, "a");
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[1].data, "hi");
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[2].data, "div");
}

TEST(TokenizerTest, TagNamesLowercased) {
  Tokenizer tokenizer("<DIV Class=\"X\">t</DIV>");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  EXPECT_EQ(tokens[0].data, "div");
  EXPECT_EQ(tokens[0].attrs[0].first, "class");
  EXPECT_EQ(tokens[0].attrs[0].second, "X");  // Values keep their case.
}

TEST(TokenizerTest, AttributeStyles) {
  Tokenizer tokenizer("<a href=x b='y' c=\"z\" checked>t</a>");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens[0].attrs.size(), 4u);
  EXPECT_EQ(tokens[0].attrs[0], (std::pair<std::string, std::string>{"href", "x"}));
  EXPECT_EQ(tokens[0].attrs[1], (std::pair<std::string, std::string>{"b", "y"}));
  EXPECT_EQ(tokens[0].attrs[2], (std::pair<std::string, std::string>{"c", "z"}));
  EXPECT_EQ(tokens[0].attrs[3].first, "checked");
  EXPECT_EQ(tokens[0].attrs[3].second, "");
}

TEST(TokenizerTest, SelfClosing) {
  Tokenizer tokenizer("<br/><img src='a' />");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_TRUE(tokens[1].self_closing);
}

TEST(TokenizerTest, CommentsAndDoctype) {
  Tokenizer tokenizer("<!DOCTYPE html><!-- note -->x");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDoctype);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].data, " note ");
  EXPECT_EQ(tokens[2].data, "x");
}

TEST(TokenizerTest, StrayLessThanIsText) {
  Tokenizer tokenizer("a < b <td>c</td>");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kText);
  EXPECT_EQ(tokens[0].data, "a ");
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[1].data, "< b ");
  EXPECT_EQ(tokens[2].kind, TokenKind::kStartTag);
}

TEST(TokenizerTest, ScriptIsRawText) {
  Tokenizer tokenizer("<script>if (a<b) { x(); }</script>after");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].data, "script");
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[1].data, "if (a<b) { x(); }");
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[3].data, "after");

  // The raw-text end rule: "</tag" followed by '>', whitespace or end of
  // input, matched case-sensitively. Every consumer lexes through this
  // rule, so the equivalence suites cannot catch a change to it.
  using Expected = std::vector<std::pair<TokenKind, std::string>>;
  const std::pair<const char*, Expected> cases[] = {
      {"<script>a</scriptx>b</script>c",
       {{TokenKind::kStartTag, "script"},
        {TokenKind::kText, "a</scriptx>b"},
        {TokenKind::kEndTag, "script"},
        {TokenKind::kText, "c"}}},
      {"<style>a</style >b",
       {{TokenKind::kStartTag, "style"},
        {TokenKind::kText, "a"},
        {TokenKind::kEndTag, "style"},
        {TokenKind::kText, "b"}}},
      {"<script>a</script",
       {{TokenKind::kStartTag, "script"},
        {TokenKind::kText, "a"},
        {TokenKind::kEndTag, "script"}}},
      {"<textarea>x</TEXTAREA>y",
       {{TokenKind::kStartTag, "textarea"},
        {TokenKind::kText, "x</TEXTAREA>y"}}},
  };
  for (const auto& [input, expected] : cases) {
    Expected actual;
    for (const Token& token : Tokenizer(input).TokenizeAll()) {
      actual.emplace_back(token.kind, token.data);
    }
    EXPECT_EQ(actual, expected) << input;
  }
}

TEST(TokenizerTest, EntityInTextAndAttr) {
  Tokenizer tokenizer("<a title=\"A&amp;B\">x &lt; y</a>");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  EXPECT_EQ(tokens[0].attrs[0].second, "A&B");
  EXPECT_EQ(tokens[1].data, "x < y");
}

TEST(TokenizerTest, UnterminatedTagAtEof) {
  Tokenizer tokenizer("<div class='x'");
  std::vector<Token> tokens = tokenizer.TokenizeAll();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
}

// ----------------------------------------------------------------- Parser.

TEST(ParserTest, SimpleTree) {
  Document doc = MustParse("<div><p>one</p><p>two</p></div>");
  const Node* div = doc.root()->child(0);
  EXPECT_EQ(div->tag(), "div");
  ASSERT_EQ(div->child_count(), 2u);
  EXPECT_EQ(div->child(0)->tag(), "p");
  EXPECT_EQ(div->child(0)->child(0)->text(), "one");
  EXPECT_EQ(div->child(1)->child(0)->text(), "two");
}

TEST(ParserTest, WhitespaceTextDropped) {
  Document doc = MustParse("<div>\n  <p>x</p>\n</div>");
  EXPECT_EQ(doc.root()->child(0)->child_count(), 1u);
}

TEST(ParserTest, TextCollapsed) {
  Document doc = MustParse("<p>a\n   b</p>");
  EXPECT_EQ(doc.root()->child(0)->child(0)->text(), "a b");
}

TEST(ParserTest, VoidElementsDontNest) {
  Document doc = MustParse("<td>a<br>b<br>c</td>");
  const Node* td = doc.root()->child(0);
  ASSERT_EQ(td->child_count(), 5u);
  EXPECT_EQ(td->child(0)->text(), "a");
  EXPECT_EQ(td->child(1)->tag(), "br");
  EXPECT_EQ(td->child(1)->child_count(), 0u);
  EXPECT_EQ(td->child(2)->text(), "b");
}

TEST(ParserTest, ImpliedEndTagsLi) {
  Document doc = MustParse("<ul><li>a<li>b<li>c</ul>");
  const Node* ul = doc.root()->child(0);
  ASSERT_EQ(ul->child_count(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ul->child(i)->tag(), "li");
    EXPECT_EQ(ul->child(i)->child_count(), 1u);
  }
}

TEST(ParserTest, ImpliedEndTagsTableCells) {
  Document doc = MustParse("<table><tr><td>a<td>b<tr><td>c</table>");
  const Node* table = doc.root()->child(0);
  ASSERT_EQ(table->child_count(), 2u);
  EXPECT_EQ(table->child(0)->child_count(), 2u);
  EXPECT_EQ(table->child(1)->child_count(), 1u);
}

TEST(ParserTest, ImpliedParagraphEnd) {
  Document doc = MustParse("<div><p>one<p>two</div>");
  const Node* div = doc.root()->child(0);
  ASSERT_EQ(div->child_count(), 2u);
  EXPECT_EQ(div->child(0)->tag(), "p");
  EXPECT_EQ(div->child(1)->tag(), "p");
}

TEST(ParserTest, UnmatchedEndTagIgnored) {
  Document doc = MustParse("<div>a</span>b</div>");
  const Node* div = doc.root()->child(0);
  ASSERT_EQ(div->child_count(), 2u);
  EXPECT_EQ(div->child(0)->text(), "a");
  EXPECT_EQ(div->child(1)->text(), "b");
}

TEST(ParserTest, StrayEndTagCannotCrossTable) {
  Document doc = MustParse("<div><table><tr><td>x</div>y</table></div>");
  // The </div> inside the table must not close the outer div.
  const Node* div = doc.root()->child(0);
  EXPECT_EQ(div->tag(), "div");
  EXPECT_EQ(div->child(0)->tag(), "table");
}

TEST(ParserTest, AttributesPreserved) {
  Document doc =
      MustParse("<div class='dealer links' id=main data-x='1'>t</div>");
  const Node* div = doc.root()->child(0);
  EXPECT_EQ(*div->GetAttr("class"), "dealer links");
  EXPECT_EQ(*div->GetAttr("id"), "main");
  EXPECT_EQ(*div->GetAttr("data-x"), "1");
  EXPECT_EQ(div->GetAttr("missing"), nullptr);
}

TEST(ParserTest, PreorderIndicesAreDocumentOrder) {
  Document doc = MustParse("<a><b>x</b><c>y</c></a>");
  EXPECT_EQ(doc.root()->preorder_index(), 0);
  const Node* a = doc.root()->child(0);
  EXPECT_EQ(a->preorder_index(), 1);
  EXPECT_EQ(a->child(0)->preorder_index(), 2);            // b
  EXPECT_EQ(a->child(0)->child(0)->preorder_index(), 3);  // x
  EXPECT_EQ(a->child(1)->preorder_index(), 4);            // c
  EXPECT_EQ(a->child(1)->child(0)->preorder_index(), 5);  // y
  EXPECT_EQ(doc.node_count(), 6u);
  EXPECT_EQ(doc.node(4)->tag(), "c");
}

TEST(ParserTest, SameTagChildNumbers) {
  Document doc = MustParse("<tr><td>a</td><th>h</th><td>b</td></tr>");
  const Node* tr = doc.root()->child(0);
  EXPECT_EQ(tr->child(0)->same_tag_child_number(), 1);  // td[1]
  EXPECT_EQ(tr->child(1)->same_tag_child_number(), 1);  // th[1]
  EXPECT_EQ(tr->child(2)->same_tag_child_number(), 2);  // td[2]
}

TEST(ParserTest, TextNodesIndexed) {
  Document doc = MustParse("<div>a<span>b</span>c</div>");
  ASSERT_EQ(doc.text_nodes().size(), 3u);
  EXPECT_EQ(doc.text_nodes()[0]->text(), "a");
  EXPECT_EQ(doc.text_nodes()[1]->text(), "b");
  EXPECT_EQ(doc.text_nodes()[2]->text(), "c");
}

TEST(ParserTest, TextContentConcatenates) {
  Document doc = MustParse("<td><u>NAME</u><br>ADDR</td>");
  EXPECT_EQ(doc.root()->child(0)->TextContent(), "NAMEADDR");
}

TEST(ParserTest, MillionLevelNestingSurvivesTextContentAndTeardown) {
  // ~5 MB, under the serving default max_body_bytes: the heap DOM must
  // not recurse per level in TextContent, its destructor, the
  // interpreted XPath `//` step, Serialize, StructuralSignature or the
  // LR view (text::CharView, and through it the interpreted LrWrapper).
  constexpr size_t kDepth = 1000000;
  std::string html = "<html><body>";
  html.reserve(html.size() + kDepth * 5 + 4);
  for (size_t i = 0; i < kDepth; ++i) html += "<div>";
  html += "deep";
  {
    Result<Document> doc = Parse(html);
    ASSERT_TRUE(doc.ok());
    // Root, html, body, the divs and one text node.
    EXPECT_EQ(doc->node_count(), kDepth + 4);
    ASSERT_EQ(doc->text_nodes().size(), 1u);
    EXPECT_EQ(doc->root()->TextContent(), "deep");
    EXPECT_EQ(doc->root()->child(0)->TextContent(), "deep");

    Result<xpath::Expr> expr = xpath::ParseXPath("//text()");
    ASSERT_TRUE(expr.ok());
    std::vector<const Node*> texts = xpath::Evaluate(*expr, *doc);
    ASSERT_EQ(texts.size(), 1u);
    EXPECT_EQ(texts[0]->text(), "deep");

    std::string serialized = Serialize(doc->root());
    std::string divs_open;
    std::string divs_close;
    divs_open.reserve(kDepth * 5);
    divs_close.reserve(kDepth * 6);
    for (size_t i = 0; i < kDepth; ++i) {
      divs_open += "<div>";
      divs_close += "</div>";
    }
    EXPECT_EQ(serialized, "<html><body>" + divs_open + "deep" + divs_close +
                              "</body></html>");
    EXPECT_EQ(StructuralSignature(doc->root()),
              "<html><body>" + divs_open + "#text " + divs_close +
                  "</body></html>");

    text::CharView view(*doc);
    ASSERT_EQ(view.spans().size(), 1u);
    const text::TextSpan& span = view.spans()[0];
    EXPECT_EQ(view.stream().substr(span.begin, span.end - span.begin),
              "deep");
    EXPECT_EQ(view.stream(), serialized);

    core::LrWrapper lr("<div>", "</div>");
    core::PageSet pages;
    pages.AddPage(std::move(*doc));
    core::NodeSet extracted = lr.Extract(pages);
    ASSERT_EQ(extracted.size(), 1u);
    EXPECT_EQ(testing::TextOf(pages, extracted[0]), "deep");
  }  // Destroys the million-level chain.
}

TEST(ParserTest, CommentsDropped) {
  Document doc = MustParse("<div><!-- hidden -->x</div>");
  EXPECT_EQ(doc.root()->child(0)->child_count(), 1u);
}

TEST(ParserTest, EmptyInput) {
  Document doc = MustParse("");
  EXPECT_EQ(doc.root()->child_count(), 0u);
  EXPECT_EQ(doc.node_count(), 1u);
}

TEST(ParserTest, FigureOneSnippet) {
  // The paper's Figure 1 markup (with its quirky tr-inside-div).
  Document doc = MustParse(
      "<div class='dealerlinks'>"
      "<tr><td><u>PORTER FURNITURE</u><br>201 HWY.30 West<br>"
      "NEW ALBANY, MS 38652</td></tr>"
      "<tr><td><u>WOODLAND FURNITURE</u><br>123 Main St.<br>"
      "WOODLAND, MS 3977</td></tr></div>");
  EXPECT_EQ(doc.text_nodes().size(), 6u);
  EXPECT_EQ(doc.text_nodes()[0]->text(), "PORTER FURNITURE");
  EXPECT_EQ(doc.text_nodes()[0]->parent()->tag(), "u");
}

// -------------------------------------------------------------- Serializer.

TEST(SerializerTest, RoundTripsSimpleTree) {
  std::string source =
      "<div class=\"a\"><p>one</p><ul><li>x</li><li>y</li></ul></div>";
  Document doc = MustParse(source);
  EXPECT_EQ(Serialize(doc.root()), source);
}

TEST(SerializerTest, EscapesText) {
  Document doc;
  auto* el = doc.root()->AppendChild(std::make_unique<Node>("p"));
  el->AppendChild(Node::MakeText("a<b & c"));
  doc.Finalize();
  EXPECT_EQ(Serialize(doc.root()), "<p>a&lt;b &amp; c</p>");
}

TEST(SerializerTest, VoidElements) {
  Document doc = MustParse("<td>a<br>b</td>");
  EXPECT_EQ(Serialize(doc.root()), "<td>a<br>b</td>");
}

TEST(SerializerTest, ParseSerializeParseIsStable) {
  std::string source =
      "<html><body><div class='x'><table><tr><td><u>N</u><br>A</td>"
      "<td><a href='#m'>Map</a></td></tr></table></div></body></html>";
  Document first = MustParse(source);
  std::string serialized = Serialize(first.root());
  Document second = MustParse(serialized);
  EXPECT_EQ(Serialize(second.root()), serialized);
  EXPECT_EQ(first.node_count(), second.node_count());
  for (size_t i = 0; i < first.node_count(); ++i) {
    EXPECT_EQ(first.node(static_cast<int>(i))->tag(),
              second.node(static_cast<int>(i))->tag());
    EXPECT_EQ(first.node(static_cast<int>(i))->text(),
              second.node(static_cast<int>(i))->text());
  }
}

TEST(SerializerTest, DumpTreeShape) {
  Document doc = MustParse("<div><u>N</u></div>");
  std::string dump = DumpTree(doc.root());
  EXPECT_NE(dump.find("#document"), std::string::npos);
  EXPECT_NE(dump.find("  div"), std::string::npos);
  EXPECT_NE(dump.find("    u"), std::string::npos);
  EXPECT_NE(dump.find("      #text \"N\""), std::string::npos);
}

TEST(SerializerTest, StructuralSignatureMasksText) {
  Document a = MustParse("<td><u>PORTER</u><br>X</td>");
  Document b = MustParse("<td><u>WOODLAND</u><br>Y</td>");
  EXPECT_EQ(StructuralSignature(a.root()), StructuralSignature(b.root()));
  Document c = MustParse("<td><b>PORTER</b><br>X</td>");
  EXPECT_NE(StructuralSignature(a.root()), StructuralSignature(c.root()));
}

}  // namespace
}  // namespace ntw::html
