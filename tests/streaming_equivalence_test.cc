// Pins the streaming (no-DOM) extraction path's byte-identity contract:
//
//  1. StreamPage produces exactly the same flattened stream + text spans
//     as ArenaDocument (which itself mirrors text::CharView) for every
//     input — including the entity and whitespace constructs the patched
//     (copy-on-write) tier fixes in place and the tag-soup and raw-text
//     constructs that force the fused flatten.
//  2. CompiledWrapper::ExtractStreaming returns byte-identical values to
//     the DOM fast path AND the interpreted Wrapper::Extract pipeline,
//     for LR and HLRT plans — the entity-decoding edge cases (delimiters
//     straddling or containing references, numeric references at span
//     boundaries) are exercised explicitly, then a randomized seeded
//     sweep (sites × LR/HLRT × both paths) pins the general case.
//  3. The verbatim (zero-copy) tier engages exactly when it should: its
//     accept is a claim that raw bytes == normalized stream, so every
//     accepted page is also cross-checked against the arena flatten.
//  4. The patched (copy-on-write) tier's tag-soup rewrites — tag/attr
//     case folding, attribute re-quoting, implied end tags and stray/
//     mis-nested/EOF closes resolved against the open stack — engage on
//     a randomized tag-soup corpus with no fused-tokenize fallback, and
//     every patched page is byte-identical to the heap-parser reference.
//  5. CompiledWrapper::ExtractStreaming for streamable() XPath plans (the
//     fused tokenize→plan-execute machine) returns byte-identical values
//     to the arena DOM fast path AND the interpreter, across axis/test/
//     predicate combinations and on the tag-soup corpus.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_wrapper.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "datasets/disc.h"
#include "gtest/gtest.h"
#include "html/arena_dom.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "html/stream_page.h"
#include "xpath/parser.h"

namespace ntw {
namespace {

std::vector<std::string> DomFastValues(const core::CompiledWrapper& compiled,
                                       core::FastPageBuffer& buffer,
                                       const std::string& source) {
  buffer.Clear();
  html::ArenaParse(source, &buffer.doc);
  compiled.Extract(buffer, &buffer.values);
  return std::vector<std::string>(buffer.values.begin(), buffer.values.end());
}

std::vector<std::string> StreamingValues(
    const core::CompiledWrapper& compiled, core::StreamPageBuffer& buffer,
    const std::string& source) {
  buffer.Clear();
  compiled.ExtractStreaming(source, buffer, &buffer.values);
  return std::vector<std::string>(buffer.values.begin(), buffer.values.end());
}

/// The ground truth for StreamPage: the arena DOM's flatten of the same
/// input. Any stream or span divergence here breaks every contract above.
void ExpectStreamMatchesArena(const std::string& source) {
  html::ArenaDocument doc;
  html::ArenaParse(source, &doc);
  html::StreamPage page;
  page.Build(source);
  ASSERT_EQ(page.stream(), doc.stream()) << "input: " << source;
  ASSERT_EQ(page.spans().size(), doc.spans().size()) << "input: " << source;
  for (size_t i = 0; i < page.spans().size(); ++i) {
    EXPECT_EQ(page.spans()[i].begin, doc.spans()[i].begin)
        << "span " << i << " input: " << source;
    EXPECT_EQ(page.spans()[i].end, doc.spans()[i].end)
        << "span " << i << " input: " << source;
  }
}

TEST(StreamPageTest, MatchesArenaFlattenOnTrickyInputs) {
  const char* inputs[] = {
      "",
      "just text",
      "<html><body><b>x</b></body></html>",
      // Entities everywhere: text, attributes, double-encoded.
      "<p>A &amp; B</p>",
      "<p title=\"A &amp; B\">x</p>",
      "<p>&amp;amp;</p>",
      "<p>&#65;BC&#66;</p>",
      "<p>&#x41;&#x42;</p>",
      "<p>&unknown; &amp</p>",
      "<p>&</p>",
      "<p>trailing &</p>",
      // Whitespace normalization.
      "<p>  leading and   internal  </p>",
      "<p>\ttabs\nand\nnewlines\r</p>",
      "<div>   </div>",
      // Tag soup: implied ends, mis-nesting, unmatched closes, EOF.
      "<ul><li>a<li>b</ul>",
      "<table><tr><td>a<td>b<tr><td>c</table>",
      "<p>one<p>two<div>three",
      "<b><i>x</b>y",
      "<div></span></div>",
      "<table><tr><td>x</div></td></tr></table>",
      "<div><p>unclosed",
      // Case folding and attribute handling.
      "<DIV CLASS=\"A\">x</DIV>",
      "<a href='single'>x</a>",
      "<a href=bare>x</a>",
      "<a href>x</a>",
      "<a a=\"1\" b=\"2\" a=\"3\">x</a>",
      "<a  spaced = \"v\" >x</a>",
      "<br/><hr /><img src=\"i\">",
      "<div/>x",
      // Comments, doctype, stray '<'.
      "<!doctype html><p>x</p>",
      "<p><!-- gone -->x</p>",
      "<p>1 < 2</p>",
      "<p>a<3</p>",
      // Raw text elements.
      "<script>var a = 1 && 2;</script><p>x</p>",
      "<script> if (a < b) { c(); } </script>",
      "<style>.a{color:red}</style>",
      "<textarea>A &amp; B</textarea>",
      "<script></script>after",
      "<script>unclosed",
      "<script/>sibling",
      "<script>a</scriptx>b</script>c",
      "<style>a</style >b",
      // Canonical serializer-style output (the verbatim tier's domain).
      "<html><head><title>t</title></head><body><ul><li>one</li>"
      "<li>two</li></ul></body></html>",
  };
  for (const char* input : inputs) {
    ExpectStreamMatchesArena(input);
  }
}

TEST(StreamPageTest, VerbatimTierEngagesOnCanonicalPages) {
  // A page in canonical serialized form: lowercase tags, double-quoted
  // attrs, no entities, tight whitespace (no whitespace-only text nodes —
  // the stream drops those) — the zero-copy tier must accept it and alias
  // the input.
  std::string source =
      "<html><body><div class=\"row\"><b>Ada Lovelace</b><i>1815</i>"
      "</div></body></html>";
  html::StreamPage page;
  page.Build(source);
  EXPECT_TRUE(page.verbatim());
  EXPECT_EQ(page.stream(), source);
  EXPECT_EQ(page.stream().data(), std::string_view(source).data());
  ExpectStreamMatchesArena(source);
}

TEST(StreamPageTest, PatchedTierFixesLocalRewritesInPlace) {
  // Each construct diverges from the normalized stream only LOCALLY — an
  // entity decode, a collapse fix, a dropped whitespace-only text node,
  // a case fold, an attribute re-quote, or a close tag resolved against
  // the open stack — so the copy-on-write scanner must patch it rather
  // than bail to the full tokenize, and the patched stream must match
  // the arena flatten.
  const char* inputs[] = {
      "<p>A &amp; B</p>",           // Entity in text.
      "<p title=\"&amp;\">x</p>",   // Entity in attribute value.
      "<p>a  b</p>",                // Double space.
      "<p> a</p>",                  // Leading space.
      "<p>a </p>",                  // Trailing space.
      "<p>a\tb</p>",                // Non-space whitespace.
      "<script> a </script>",       // Raw text with edge whitespace.
      "<div>x</div> <div>y</div>",  // Whitespace-only text node (dropped).
      // Tag/attribute case folding.
      "<P>x</P>",                   // Uppercase tag, both ends.
      "<DiV cLaSs=\"a\">x</dIv>",   // Mixed case tag + attribute name.
      "<SCRIPT>if (a < b) c();</script>",  // Folded raw-text element (the
                                           // lowercase close is the scan
                                           // needle, so it must stay).
      // Attribute re-quoting.
      "<a href='v'>x</a>",          // Single-quoted attribute.
      "<a href='A &amp; B'>x</a>",  // Single-quoted with entity.
      "<a href=bare>x</a>",         // Bare attribute.
      "<a href>x</a>",              // Valueless attribute.
      "<a href=>x</a>",             // Empty unquoted value.
      "<a  spaced = \"v\" >x</a>",  // Whitespace around '=' and '>'.
      "<a\nhref=\"v\"\tid='i'>x</a>",  // Tab/newline separators.
      "<a href=\"1\"id=\"2\">x</a>",   // Missing separator space.
      // Implied end tags against the open stack.
      "<ul><li>a<li>b</ul>",        // Implied </li>.
      "<p>one<p>two<div>three</div>",  // Implied </p> twice.
      "<table><tr><td>a<td>b<tr><td>c</table>",  // Implied </td>/</tr>.
      // Stray / mis-nested / EOF closes.
      "</p><b>x</b>",               // Unmatched end tag (dropped).
      "<div></span></div>",         // Stray close inside open element.
      "<b><i>x</b>y",               // Mis-nested close + EOF close.
      "<p>x",                       // Unclosed at EOF.
      "<div><p>unclosed",           // Two unclosed at EOF.
      "<ul><li>a</ul\t>",           // Junk before '>' in an end tag.
  };
  html::StreamPage page;
  for (const char* input : inputs) {
    page.Build(input);
    EXPECT_EQ(page.tier(), html::StreamPage::Tier::kPatched)
        << "input: " << input;
    ExpectStreamMatchesArena(input);
  }
}

TEST(StreamPageTest, FlattenTierHandlesStructuralRewrites) {
  // Each construct forces a STRUCTURAL normalization the forward-only
  // patch stream cannot express — bytes moving backwards (duplicate
  // attributes keep the first position but the last value), the
  // self-closing machinery, dropped comments/doctypes, stray '<' text,
  // raw-text elements running to EOF — so the scanner must bail to the
  // fused flatten, whose stream must still match the arena flatten.
  const char* inputs[] = {
      "<a a=\"1\" a=\"2\">x</a>",  // Duplicate attribute.
      "<a A=\"1\" a=\"2\">x</a>",  // Duplicate after case folding.
      "<br/>",                     // Self-closing slash.
      "<div/>x",                   // Self-closing non-void.
      "<!doctype html><p>x</p>",   // Doctype.
      "<p><!--c-->x</p>",          // Comment.
      "<p>1 < 2</p>",              // Stray '<' becomes text.
      "<script>unclosed",          // Raw text to EOF.
      "<SCRIPT>var a;</SCRIPT>x",  // Folded raw text: the scan needle is
                                   // lowercase, so the uppercase close is
                                   // content and the element runs to EOF.
  };
  html::StreamPage page;
  for (const char* input : inputs) {
    page.Build(input);
    EXPECT_EQ(page.tier(), html::StreamPage::Tier::kFlattened)
        << "input: " << input;
    ExpectStreamMatchesArena(input);
  }
}

/// Asserts the three-way byte identity for one wrapper on one page.
void ExpectThreeWayEqual(const core::Wrapper& wrapper,
                         const std::string& source,
                         const std::vector<std::string>& expected) {
  std::shared_ptr<const core::CompiledWrapper> compiled =
      core::CompiledWrapper::Compile(wrapper);
  ASSERT_NE(compiled, nullptr);
  ASSERT_TRUE(compiled->dom_free());
  core::FastPageBuffer dom_buffer;
  core::StreamPageBuffer stream_buffer;
  std::vector<std::string> interpreted =
      core::ExtractValuesInterpreted(wrapper, source);
  EXPECT_EQ(interpreted, expected) << "interpreted, input: " << source;
  EXPECT_EQ(DomFastValues(*compiled, dom_buffer, source), expected)
      << "dom fast path, input: " << source;
  EXPECT_EQ(StreamingValues(*compiled, stream_buffer, source), expected)
      << "streaming path, input: " << source;
}

TEST(StreamingEntityEdgeCases, EntityInsideLeftDelimiter) {
  // The left delimiter "A &<i>" contains a decoded ampersand: in the raw
  // page it is "A &amp; <i>" (the trailing space collapses away), so the
  // delimiter straddles the reference.
  std::string source = "<html><body>A &amp; <i>V</i></body></html>";
  core::LrWrapper lr("A &<i>", "</i>");
  ExpectThreeWayEqual(lr, source, {"V"});
}

TEST(StreamingEntityEdgeCases, NumericReferencesAtSpanBoundaries) {
  // The extracted span both starts and ends with decoded numeric
  // references (&#65; = 'A', &#x42; = 'B').
  std::string source = "<html><body><i>&#65;mid&#x42;</i></body></html>";
  core::LrWrapper lr("<i>", "</i>");
  ExpectThreeWayEqual(lr, source, {"AmidB"});
}

TEST(StreamingEntityEdgeCases, DoubleEncodedAmpersandInValue) {
  // &amp;amp; decodes once to the literal bytes "&amp;" — the streaming
  // path must not decode twice.
  std::string source = "<html><body><i>&amp;amp;</i></body></html>";
  core::LrWrapper lr("<i>", "</i>");
  ExpectThreeWayEqual(lr, source, {"&amp;"});
}

TEST(StreamingEntityEdgeCases, EntityInAttributeInsideDelimiter) {
  // The delimiter runs through an attribute value whose raw form carries
  // a reference: stream is <td title="A & B">V</td>.
  std::string source =
      "<html><body><td title=\"A &amp; B\">V</td></body></html>";
  core::LrWrapper lr("<td title=\"A & B\">", "</td>");
  ExpectThreeWayEqual(lr, source, {"V"});
}

TEST(StreamingEntityEdgeCases, UndecodableAmpersandStaysVerbatim) {
  // "&nosuch;" is not a known reference: the bytes pass through and the
  // page can still take the zero-copy tier.
  std::string source = "<html><body><i>a &nosuch; b</i></body></html>";
  core::LrWrapper lr("<i>", "</i>");
  ExpectThreeWayEqual(lr, source, {"a &nosuch; b"});
  html::StreamPage page;
  page.Build(source);
  EXPECT_TRUE(page.verbatim());
}

TEST(StreamingEntityEdgeCases, HlrtHeadContainsDecodedEntity) {
  // HLRT whose head region marker contains a decoded entity, with two
  // candidate spans — only the one inside the region extracts.
  std::string source =
      "<html><body><i>skip</i>Deals &amp; Offers<i>take</i>"
      "END<i>after</i></body></html>";
  core::HlrtWrapper hlrt("Deals & Offers", "END", "<i>", "</i>");
  ExpectThreeWayEqual(hlrt, source, {"take"});
}

TEST(StreamingEntityEdgeCases, HlrtHeadAbsentYieldsNoValues) {
  std::string source = "<html><body><i>v</i></body></html>";
  core::HlrtWrapper hlrt("NO-SUCH-HEAD", "", "<i>", "</i>");
  ExpectThreeWayEqual(hlrt, source, {});
}

TEST(StreamingEntityEdgeCases, EmptyLeftDelimiter) {
  // Empty left: every span is a candidate (the all-spans loop, not the
  // BMH occurrence scan).
  std::string source = "<html><body><i>a</i><b>b</b></body></html>";
  core::LrWrapper lr("", "</b>");
  ExpectThreeWayEqual(lr, source, {"b"});
}

// The randomized wellbehaved-style sweep: seeded generated sites, one
// learned LR and one learned HLRT wrapper per site, every page through
// all three paths, byte identity required. Streams are also cross-checked
// against the arena flatten page by page.
class StreamingSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingSweepTest, SeededSitesAllPathsIdentical) {
  datasets::DealersConfig config;
  config.num_sites = 3;
  config.seed = GetParam();
  datasets::Dataset dealers = datasets::MakeDealers(config);

  core::LrInductor lr;
  core::HlrtInductor hlrt;
  core::FastPageBuffer dom_buffer;
  core::StreamPageBuffer stream_buffer;
  size_t verbatim_pages = 0;
  size_t patched_pages = 0;
  size_t flattened_pages = 0;
  for (const datasets::SiteData& site : dealers.sites) {
    auto truth = site.site.truth.find("name");
    ASSERT_NE(truth, site.site.truth.end());
    for (const core::WrapperInductor* inductor :
         std::initializer_list<const core::WrapperInductor*>{&lr, &hlrt}) {
      core::Induction induction =
          inductor->Induce(site.site.pages, truth->second);
      ASSERT_NE(induction.wrapper, nullptr);
      std::shared_ptr<const core::CompiledWrapper> compiled =
          core::CompiledWrapper::Compile(*induction.wrapper);
      ASSERT_NE(compiled, nullptr);
      ASSERT_TRUE(compiled->dom_free());
      for (size_t p = 0; p < site.site.pages.size(); ++p) {
        std::string source = html::Serialize(site.site.pages.page(p).root());
        ExpectStreamMatchesArena(source);
        std::vector<std::string> interpreted =
            core::ExtractValuesInterpreted(*induction.wrapper, source);
        EXPECT_EQ(DomFastValues(*compiled, dom_buffer, source), interpreted)
            << "site " << site.site.name << " page " << p;
        EXPECT_EQ(StreamingValues(*compiled, stream_buffer, source),
                  interpreted)
            << "site " << site.site.name << " page " << p;
        switch (stream_buffer.page.tier()) {
          case html::StreamPage::Tier::kVerbatim: ++verbatim_pages; break;
          case html::StreamPage::Tier::kPatched: ++patched_pages; break;
          case html::StreamPage::Tier::kFlattened: ++flattened_pages; break;
        }
      }
    }
  }
  // Every dealers page carries an "&amp;" somewhere (business or dealer
  // names) but is otherwise canonical serializer output, so the patched
  // copy-on-write tier must be doing ALL the work here — never zero-copy,
  // never the full tokenize. The zero-copy tier is exercised by the DISC
  // sweep and the handcrafted canonical pages above.
  EXPECT_GT(patched_pages, 0u);
  EXPECT_EQ(verbatim_pages, 0u);
  EXPECT_EQ(flattened_pages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingSweepTest,
                         ::testing::Values(11u, 99u, 12345u));

TEST(StreamingSweepTest, DiscDatasetStreamsMatchArena) {
  // A second domain (DISC discographies: apostrophes, punctuation-heavy
  // titles) purely at the stream level.
  datasets::DiscConfig config;
  config.num_sites = 2;
  datasets::Dataset disc = datasets::MakeDisc(config);
  html::StreamPage page;
  size_t verbatim_pages = 0;
  for (const datasets::SiteData& site : disc.sites) {
    for (size_t p = 0; p < site.site.pages.size(); ++p) {
      std::string source = html::Serialize(site.site.pages.page(p).root());
      ExpectStreamMatchesArena(source);
      page.Build(source);
      if (page.verbatim()) ++verbatim_pages;
    }
  }
  // Unlike dealers, this corpus has entity-free pages, so the zero-copy
  // tier must engage on a real generated site, not just handcrafted HTML.
  EXPECT_GT(verbatim_pages, 0u);
}

// -------------------------------------------------------------------
// Fused streaming XPath: the bitset executor against the tokenizer
// stream must match the interpreted evaluator and the arena step
// machine on every axis/test/predicate combination.
// -------------------------------------------------------------------

/// Parses `expr_text`, compiles it, and asserts the interpreted, arena
/// DOM and fused streaming executors all return `expected`. XPath plans
/// are never dom_free() (they walk structure, not delimiters) but every
/// parseable program here must be streamable().
void ExpectXPathThreeWay(const std::string& expr_text,
                         const std::string& source,
                         const std::vector<std::string>& expected) {
  Result<xpath::Expr> expr = xpath::ParseXPath(expr_text);
  ASSERT_TRUE(expr.ok()) << expr_text;
  core::XPathWrapper wrapper(std::move(*expr));
  std::shared_ptr<const core::CompiledWrapper> compiled =
      core::CompiledWrapper::Compile(wrapper);
  ASSERT_NE(compiled, nullptr) << expr_text;
  EXPECT_FALSE(compiled->dom_free()) << expr_text;
  ASSERT_TRUE(compiled->streamable()) << expr_text;
  core::FastPageBuffer dom_buffer;
  core::StreamPageBuffer stream_buffer;
  EXPECT_EQ(core::ExtractValuesInterpreted(wrapper, source), expected)
      << "interpreted, expr: " << expr_text;
  EXPECT_EQ(DomFastValues(*compiled, dom_buffer, source), expected)
      << "dom fast path, expr: " << expr_text;
  EXPECT_EQ(StreamingValues(*compiled, stream_buffer, source), expected)
      << "streaming path, expr: " << expr_text;
}

TEST(StreamingXPath, ChildVersusDescendantAxes) {
  // Element matches extract the empty string on every path (values come
  // from text() steps); what these pin down is the match COUNT and that
  // the child axis needs the parent itself while the descendant axis
  // accepts any ancestor.
  std::string source =
      "<html><body><div><span>a</span><p><span>b</span></p></div>"
      "<span>c</span></body></html>";
  ExpectXPathThreeWay("/html/body/div/span", source, {""});
  ExpectXPathThreeWay("//div//span", source, {"", ""});
  ExpectXPathThreeWay("//span", source, {"", "", ""});
  ExpectXPathThreeWay("/html/body/div/span/text()[1]", source, {"a"});
  ExpectXPathThreeWay("//div//span/text()[1]", source, {"a", "b"});
  ExpectXPathThreeWay("//span/text()[1]", source, {"a", "b", "c"});
}

TEST(StreamingXPath, TagPositionUsesSameTagNumbering) {
  // b[2] counts only <b> element siblings: the interleaved <i> and the
  // text nodes do not shift it.
  std::string source =
      "<html><body><p>t<b>one</b><i>x</i><b>two</b><b>three</b></p>"
      "</body></html>";
  ExpectXPathThreeWay("//p/b[2]/text()[1]", source, {"two"});
  ExpectXPathThreeWay("//p/b[3]/text()[1]", source, {"three"});
  ExpectXPathThreeWay("//p/b[4]", source, {});
}

TEST(StreamingXPath, TextAndWildcardUseSiblingNumbering) {
  // text()[k] and *[k] count positions among ALL children: in
  // <p>a<b>x</b>c</p> the text "c" is the third child and <b> the
  // second.
  std::string source = "<html><body><p>a<b>x</b>c</p></body></html>";
  ExpectXPathThreeWay("//p/text()[1]", source, {"a"});
  ExpectXPathThreeWay("//p/text()[3]", source, {"c"});
  ExpectXPathThreeWay("//p/text()[2]", source, {});
  ExpectXPathThreeWay("//p/*[2]/text()[1]", source, {"x"});
  ExpectXPathThreeWay("//p/*[1]", source, {});
}

TEST(StreamingXPath, AttributeFiltersKeepLastDuplicateValue) {
  // A duplicated attribute name keeps the LAST value in every path: the
  // tree builders overwrite in place, and the fused executor scans the
  // token's attribute list backward.
  std::string source =
      "<html><body><div a=\"1\" a=\"2\"><b>x</b></div>"
      "<div a=\"1\"><b>y</b></div></body></html>";
  ExpectXPathThreeWay("//div[@a='2']/b/text()[1]", source, {"x"});
  ExpectXPathThreeWay("//div[@a='1']/b/text()[1]", source, {"y"});
  ExpectXPathThreeWay("//div[@a='3']", source, {});
  // Attribute filters always fail text nodes (no attributes to match).
  ExpectXPathThreeWay("//div/b/text()[@a='1']", source, {});
}

TEST(StreamingXPath, VoidAndSelfClosingSiblingsCountInPositions) {
  // <br> and <br/> produce childless element nodes that still occupy
  // sibling and same-tag slots.
  std::string source =
      "<html><body><div><br><span>x</span><br/><span>y</span></div>"
      "</body></html>";
  ExpectXPathThreeWay("//div/span[2]/text()[1]", source, {"y"});
  ExpectXPathThreeWay("//div/*[4]/text()[1]", source, {"y"});
  ExpectXPathThreeWay("//div/br[2]", source, {""});
}

TEST(StreamingXPath, TextCaptureCollapsesWhitespaceAndDecodesEntities) {
  std::string source =
      "<html><body><li>  a &amp;\n b  </li><li>&#32; </li></body></html>";
  ExpectXPathThreeWay("//li/text()[1]", source, {"a & b"});
  // The second <li>'s text decodes to pure whitespace and is skipped, so
  // it has no text child at all.
  ExpectXPathThreeWay("//li[2]/text()[1]", source, {});
}

TEST(StreamingXPath, TagSoupPageThroughFusedTokenizer) {
  // The fused executor runs the tokenizer directly: case folding,
  // single-quoted and bare attributes, and implied </li> closes must
  // resolve identically to both tree builders.
  std::string source =
      "<HTML><BODY><UL id=list><LI><B class='n'>a</B>"
      "<LI><B class='n'>b</B></UL></BODY></HTML>";
  ExpectXPathThreeWay("//li/b/text()[1]", source, {"a", "b"});
  ExpectXPathThreeWay("//ul[@id='list']/li[2]/b[@class='n']/text()[1]",
                      source, {"b"});
}

TEST(StreamingXPath, MisnestedAndStrayEndTags) {
  // </ul> closes the still-open <li>; the stray </table> is dropped
  // without crossing anything.
  std::string source =
      "<html><body><ul><li>one</table><li>two</ul>"
      "<p>after</p></body></html>";
  ExpectXPathThreeWay("//li/text()[1]", source, {"one", "two"});
  ExpectXPathThreeWay("/html/body/p/text()[1]", source, {"after"});
}

// -------------------------------------------------------------------
// Randomized tag-soup corpus: pages built from the LOCAL rewrite
// vocabulary (mixed-case names, re-quotable attributes, implied end
// tags) must all take the PATCHED tier — no fused-tokenize fallback —
// and stay byte-identical across every path.
// -------------------------------------------------------------------

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

/// Randomly uppercases letters of a canonical lowercase name.
std::string RandomCase(uint64_t* s, std::string_view name) {
  std::string out;
  for (char c : name) {
    bool up = c >= 'a' && c <= 'z' && (XorShift(s) & 1) != 0;
    out.push_back(up ? static_cast<char>(c - 'a' + 'A') : c);
  }
  return out;
}

/// Appends one attribute in a randomly chosen soup spelling: double,
/// single or unquoted value, optional whitespace around '=', random
/// separator whitespace. `value` must be quote- and space-free so the
/// bare form round-trips.
void AppendSoupAttr(uint64_t* s, std::string_view name,
                    std::string_view value, std::string* out) {
  out->push_back(" \t\n"[XorShift(s) % 3]);
  out->append(RandomCase(s, name));
  switch (XorShift(s) % 4) {
    case 0:
      out->append("=\"").append(value).append("\"");
      break;
    case 1:
      out->append("='").append(value).append("'");
      break;
    case 2:
      out->append("=").append(value);
      break;
    default:
      out->append(" = '").append(value).append("'");
      break;
  }
}

TEST(TagSoupCorpus, PatchedTierEngagesWithThreeWayIdentity) {
  core::LrWrapper name_lr("<b class=\"name\">", "</b>");
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    uint64_t s = seed * 0x9e3779b97f4a7c15ull;
    XorShift(&s);
    size_t items = 3 + XorShift(&s) % 4;
    std::vector<std::string> names;
    std::vector<std::string> cells;

    std::string page;
    // Where two cased names are written together, the second one is
    // drawn first: the seeded pages depend on that order.
    std::string body_tag = RandomCase(&s, "body");
    std::string html_tag = RandomCase(&s, "html");
    page.append("<").append(html_tag).append("><").append(body_tag);
    AppendSoupAttr(&s, "class", "top", &page);
    page.append("><").append(RandomCase(&s, "p")).append(">Intro text");
    // No </p>: the following <ul> implies it. Each <li> is likewise
    // implied closed by the next <li> or by </ul>.
    page.append("<").append(RandomCase(&s, "ul"));
    AppendSoupAttr(&s, "id", "list", &page);
    page += ">";
    for (size_t i = 1; i <= items; ++i) {
      names.push_back("Item ");
      names.back() += std::to_string(i);
      page.append("<").append(RandomCase(&s, "li"));
      if (XorShift(&s) & 1) {
        // Valueless attribute: canonicalizes to data-sale="".
        page.push_back(' ');
        page += RandomCase(&s, "data-sale");
      }
      page.append("><").append(RandomCase(&s, "b"));
      AppendSoupAttr(&s, "class", "name", &page);
      page.append(">").append(names.back()).append("</");
      page.append(RandomCase(&s, "b")).append(">");
      page.append(" $").append(std::to_string(100 * i));
    }
    page.append("</").append(RandomCase(&s, "ul")).append(">");
    // Table rows and cells left open: </table> resolves the whole pile
    // through the nearest-match walk.
    page.append("<").append(RandomCase(&s, "table")).append(">");
    for (size_t r = 0; r < 2; ++r) {
      page.append("<").append(RandomCase(&s, "tr")).append(">");
      for (size_t c = 0; c < 2; ++c) {
        cells.push_back("c");
        cells.back() += std::to_string(2 * r + c);
        page.append("<").append(RandomCase(&s, "td")).append(">");
        page += cells.back();
      }
    }
    page.append("</").append(RandomCase(&s, "table")).append(">");
    html_tag = RandomCase(&s, "html");
    body_tag = RandomCase(&s, "body");
    page.append("</").append(body_tag).append("></").append(html_tag);
    page += ">";

    // The implied-</li> splices alone guarantee at least one patch, so
    // the tier must be exactly kPatched: these rewrites are all LOCAL.
    html::StreamPage stream_page;
    stream_page.Build(page);
    EXPECT_EQ(stream_page.tier(), html::StreamPage::Tier::kPatched)
        << "seed " << seed << " page: " << page;
    ExpectStreamMatchesArena(page);

    ExpectThreeWayEqual(name_lr, page, names);
    ExpectXPathThreeWay("//li/b[@class='name']/text()[1]", page, names);
    ExpectXPathThreeWay("//table/tr[2]/td/text()[1]", page,
                        {cells[2], cells[3]});
    ExpectXPathThreeWay("/html/body/p/text()[1]", page, {"Intro text"});
  }
}

}  // namespace
}  // namespace ntw
