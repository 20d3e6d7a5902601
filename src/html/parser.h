#ifndef NTW_HTML_PARSER_H_
#define NTW_HTML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "html/dom.h"

namespace ntw::html {

/// Parses tag-soup HTML into a finalized Document: the tree WalkTagSoup
/// recovers (recovery.h), with text nodes whitespace-collapsed. This is
/// the library's stand-in for the paper's jtidy clean-up + DOM parse.
/// Never fails on any input; the Result is for interface uniformity and
/// only errors on pathological internal states (currently none).
Result<Document> Parse(std::string_view input);

}  // namespace ntw::html

#endif  // NTW_HTML_PARSER_H_
