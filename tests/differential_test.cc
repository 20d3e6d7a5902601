// Differential test of the compiled extraction paths against the
// interpreter on seeded tag soup and random bytes:
//
//  1. StreamPage::Build (every tier) produces exactly the stream and text
//     spans of the interpreter's flatten, heap html::Parse + text::CharView.
//  2. CompiledWrapper::ExtractStreaming of XPath plans (the streaming
//     executor) returns exactly the values of XPathWrapper::Extract +
//     node->text() on that heap DOM.
//
// The inputs are fixed-seed, so a failure reproduces; each one is printed
// with its divergence. The run also asserts that the verbatim, patched and
// flattened StreamPage tiers each occur.

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/compiled_wrapper.h"
#include "core/xpath_inductor.h"
#include "gtest/gtest.h"
#include "html/parser.h"
#include "html/stream_page.h"
#include "test_util.h"
#include "text/char_view.h"
#include "xpath/parser.h"

namespace ntw {
namespace {

/// RandomSoup plus the constructs the recovery rules and the StreamPage
/// tiers treat specially: mixed-case names, raw-text elements, dt/dd/
/// option implied closes, whitespace runs, entity forms and `/>`.
std::string DifferentialSoup(Rng* rng, size_t pieces) {
  static const char* kExtra[] = {
      "<DIV>", "</Div>", "<TD Class='c1'>", "<Li>", "</LI>", "<P>",
      "<div CLASS=\"c1\">", "<Table>", "</TR>",
      "<script>if (a < b && c) x();</script>", "<style> .c1 { x: y } </style>",
      "<textarea>A &amp; B</textarea>", "<script>", "</script >", "</SCRIPT>",
      "<dl>", "</dl>", "<dt>", "<dd>", "</dd>", "<select>", "<option>",
      "</option>", "  ", "\n\t ", " \r\n  ", "a  b", " lead", "trail ",
      "&lt;", "&#x41;", "&#66;", "&amp;amp;", "&nbsp;", "&unknown;", "&",
      "&#;", "&ampx", "<br/>", "<div/>", "<td />", "<p/ >", "/>",
      "<a href=x/>", "<li class=\"c1\"/>", "<div class=\"c1\">", "<li>",
      "</li>", "<td>", "</td>", "<tr>", "<ul>", "</ul>", "<div>", "</div>",
      "<body>", "<html>", "</body>", "<img src=\"i\">", "<a b='1' b='2'>",
  };
  constexpr size_t kExtraCount = sizeof(kExtra) / sizeof(kExtra[0]);
  std::string out;
  for (size_t i = 0; i < pieces; ++i) {
    if (rng->NextBounded(2) == 0) {
      out += kExtra[rng->NextBounded(kExtraCount)];
    } else {
      out += testing::RandomSoup(rng, 1);
    }
  }
  return out;
}

std::string RandomBytes(Rng* rng) {
  std::string bytes;
  size_t size = rng->NextBounded(300);
  for (size_t i = 0; i < size; ++i) {
    bytes.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return bytes;
}

struct Plan {
  std::string source;
  std::unique_ptr<core::XPathWrapper> wrapper;
  std::shared_ptr<const core::CompiledWrapper> compiled;
};

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* source :
         {"//text()", "//td/text()", "//li[2]", "//*[@class='c1']/text()",
          "/html/body/div/text()[1]", "//div/*[2]", "//dd/text()",
          "//option[1]/text()", "//li/text()[2]", "//tr/td[2]/text()"}) {
      Result<xpath::Expr> expr = xpath::ParseXPath(source);
      ASSERT_TRUE(expr.ok()) << source;
      Plan plan;
      plan.source = source;
      plan.wrapper = std::make_unique<core::XPathWrapper>(std::move(*expr));
      plan.compiled = core::CompiledWrapper::Compile(*plan.wrapper);
      ASSERT_NE(plan.compiled, nullptr);
      ASSERT_TRUE(plan.compiled->streamable()) << source;
      plans_.push_back(std::move(plan));
    }
  }

  // Runs both checks on one input; returns false on the first divergence
  // (already reported).
  bool Check(const std::string& input) {
    Result<html::Document> doc = html::Parse(input);
    if (!doc.ok()) {
      ADD_FAILURE() << "parse failed: " << input;
      return false;
    }
    core::PageSet pages;
    pages.AddPage(std::move(*doc));

    // Check 1: StreamPage vs the interpreter's flatten.
    text::CharView view(pages.page(0));
    page_.Build(input);
    ++tiers_[static_cast<size_t>(page_.tier())];
    if (page_.stream() != view.stream()) {
      ADD_FAILURE() << "stream differs (tier "
                    << static_cast<int>(page_.tier()) << ")\ninput: " << input
                    << "\nstream: " << page_.stream()
                    << "\nexpected: " << view.stream();
      return false;
    }
    bool spans_equal = page_.spans().size() == view.spans().size();
    for (size_t i = 0; spans_equal && i < view.spans().size(); ++i) {
      spans_equal = page_.spans()[i].begin == view.spans()[i].begin &&
                    page_.spans()[i].end == view.spans()[i].end;
    }
    if (!spans_equal) {
      ADD_FAILURE() << "spans differ (tier " << static_cast<int>(page_.tier())
                    << ")\ninput: " << input;
      return false;
    }

    // Check 2: streaming XPath vs the interpreted wrapper.
    for (const Plan& plan : plans_) {
      std::vector<std::string> expected;
      for (const core::NodeRef& ref : plan.wrapper->Extract(pages)) {
        expected.push_back(pages.Resolve(ref)->text());
      }
      buffer_.Clear();
      plan.compiled->ExtractStreaming(input, buffer_, &buffer_.values);
      std::vector<std::string> actual(buffer_.values.begin(),
                                      buffer_.values.end());
      if (actual != expected) {
        ADD_FAILURE() << plan.source << ": " << actual.size() << " values, "
                      << expected.size() << " expected\ninput: " << input;
        return false;
      }
    }
    return true;
  }

  std::vector<Plan> plans_;
  html::StreamPage page_;
  core::StreamPageBuffer buffer_;
  std::array<int, 3> tiers_ = {0, 0, 0};
};

TEST_F(DifferentialTest, TagSoupAndRandomBytesMatchTheInterpreter) {
  constexpr int kSoupInputs = 8000;
  constexpr int kByteInputs = 2000;
  Rng soup_rng(16001);
  int divergences = 0;
  for (int i = 0; i < kSoupInputs && divergences < 5; ++i) {
    std::string input =
        DifferentialSoup(&soup_rng, 1 + soup_rng.NextBounded(60));
    if (!Check(input)) ++divergences;
  }
  Rng byte_rng(16002);
  for (int i = 0; i < kByteInputs && divergences < 5; ++i) {
    if (!Check(RandomBytes(&byte_rng))) ++divergences;
  }
  EXPECT_EQ(divergences, 0);
  using Tier = html::StreamPage::Tier;
  EXPECT_GT(tiers_[static_cast<size_t>(Tier::kVerbatim)], 0);
  EXPECT_GT(tiers_[static_cast<size_t>(Tier::kPatched)], 0);
  EXPECT_GT(tiers_[static_cast<size_t>(Tier::kFlattened)], 0);
  std::printf("tiers: verbatim %d, patched %d, flattened %d\n",
              tiers_[static_cast<size_t>(Tier::kVerbatim)],
              tiers_[static_cast<size_t>(Tier::kPatched)],
              tiers_[static_cast<size_t>(Tier::kFlattened)]);
}

}  // namespace
}  // namespace ntw
