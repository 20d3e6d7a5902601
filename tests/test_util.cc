#include "test_util.h"

#include <cassert>

#include "gtest/gtest.h"

namespace ntw::testing {

html::Document MustParse(const std::string& source) {
  Result<html::Document> doc = html::Parse(source);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  assert(doc.ok());
  return std::move(doc).value();
}

core::PageSet ExampleTablePage() {
  std::string html = "<html><body><table>";
  for (int row = 1; row <= 5; ++row) {
    html += "<tr>";
    html += "<td>n" + std::to_string(row) + "</td>";
    for (int col = 2; col <= 4; ++col) {
      html +=
          "<td>r" + std::to_string(row) + "c" + std::to_string(col) + "</td>";
    }
    html += "</tr>";
  }
  html += "</table></body></html>";
  core::PageSet pages;
  pages.AddPage(MustParse(html));
  return pages;
}

core::NodeRef ExampleCell(const core::PageSet& pages, int row, int col) {
  std::string want(col == 1 ? "n" : "r");
  want += std::to_string(row);
  if (col != 1) {
    want += 'c';
    want += std::to_string(col);
  }
  std::vector<core::NodeRef> found = FindText(pages, want);
  EXPECT_EQ(found.size(), 1u) << "cell " << want;
  assert(found.size() == 1);
  return found[0];
}

core::PageSet FigureOnePages() {
  auto make_page = [](const std::vector<std::array<std::string, 3>>& rows) {
    std::string html = "<html><body><div class='dealerlinks'><table>";
    for (const auto& row : rows) {
      html += "<tr><td><u>" + row[0] + "</u><br>" + row[1] + "<br>" + row[2] +
              "</td><td><a href='#map'>Map</a></td></tr>";
    }
    html += "</table></div></body></html>";
    return html;
  };
  core::PageSet pages;
  pages.AddPage(MustParse(make_page(
      {{"PORTER FURNITURE", "201 HWY. 30 WEST", "NEW ALBANY, MS 38652"},
       {"WOODLAND FURNITURE", "123 MAIN ST.", "WOODLAND, MS 39776"},
       {"HELLER HOME CENTER", "514 4TH STREET", "SAN RAFAEL, CA 94901"}})));
  pages.AddPage(MustParse(make_page(
      {{"KIDDIE WORLD CENTER", "1899 W. SAN CARLOS ST.", "SAN JOSE, CA 95128"},
       {"LULLABY LANE", "532 SAN MATEO AVE.", "SAN BRUNO, CA 94066"}})));
  return pages;
}

std::string TextOf(const core::PageSet& pages, const core::NodeRef& ref) {
  const html::Node* node = pages.Resolve(ref);
  return node == nullptr ? "" : node->text();
}

std::vector<core::NodeRef> FindText(const core::PageSet& pages,
                                    const std::string& text) {
  std::vector<core::NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (node->text() == text) {
        out.push_back(
            core::NodeRef{static_cast<int>(p), node->preorder_index()});
      }
    }
  }
  return out;
}

std::string RandomSoup(Rng* rng, size_t pieces) {
  static const char* kTags[] = {"div", "td",   "tr", "table", "u",
                                "b",   "li",   "ul", "span",  "br",
                                "p",   "html", "a",  "script"};
  static const char* kText[] = {"PORTER", "38652", "a < b", "x & y",
                                "&amp;",  "&#65;", "<",     "plain text",
                                "\"q\"",  "'s'"};
  std::string out;
  for (size_t i = 0; i < pieces; ++i) {
    switch (rng->NextBounded(7)) {
      case 0:
        out.append("<").append(kTags[rng->NextBounded(14)]).append(">");
        break;
      case 1:
        out.append("</").append(kTags[rng->NextBounded(14)]).append(">");
        break;
      case 2: {
        // Drawn data, class, tag: the seeded inputs of the differential,
        // fuzz and XPATH φ tests depend on this order.
        uint64_t data = rng->NextBounded(100);
        uint64_t klass = rng->NextBounded(5);
        const char* tag = kTags[rng->NextBounded(14)];
        out.append("<").append(tag).append(" class='c");
        out.append(std::to_string(klass)).append("' data=");
        out.append(std::to_string(data)).append(">");
        break;
      }
      case 3:
        out += kText[rng->NextBounded(10)];
        break;
      case 4:
        out += "<!-- comment " + std::to_string(rng->NextBounded(10)) +
               " -->";
        break;
      case 5:
        out += "<";  // Stray metacharacter.
        break;
      default:
        out.push_back(static_cast<char>(rng->NextBounded(94) + 32));
    }
  }
  return out;
}

}  // namespace ntw::testing
