#ifndef NTW_TESTS_TEST_UTIL_H_
#define NTW_TESTS_TEST_UTIL_H_

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/label.h"
#include "html/parser.h"

namespace ntw::testing {

/// Parses HTML into a finalized document, aborting the test on failure.
html::Document MustParse(const std::string& source);

/// Builds the 5×4 table of Example 1: five business rows, four columns
/// (name, address, zip, phone). Cell (i, j) holds the text "r<i>c<j>"
/// except the first column, which holds "n<i>".
core::PageSet ExampleTablePage();

/// Node reference for the text node in row `row`, column `col` (1-based)
/// of ExampleTablePage.
core::NodeRef ExampleCell(const core::PageSet& pages, int row, int col);

/// A small two-page dealer-locator page set in Figure-1 style: each record
/// is <tr><td><u>NAME</u><br>ADDR<br>CITY</td><td><a>Map</a></td></tr>.
core::PageSet FigureOnePages();

/// Text of a resolved node, empty if unresolvable.
std::string TextOf(const core::PageSet& pages, const core::NodeRef& ref);

/// Refs of all text nodes whose text equals `text`.
std::vector<core::NodeRef> FindText(const core::PageSet& pages,
                                    const std::string& text);

/// Random tag soup of `pieces` pieces: a mix of (possibly unbalanced)
/// tags, attributes, text, entities, comments and stray metacharacters.
std::string RandomSoup(Rng* rng, size_t pieces);

}  // namespace ntw::testing

#endif  // NTW_TESTS_TEST_UTIL_H_
