#include "html/recovery.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "html/dom.h"
#include "html/name_table.h"

namespace ntw::html {
namespace {

// The open elements CloseImpliedBy can close. Every other element stops
// an implied close, the scope boundaries (table, ul, div, ...) included.
constexpr std::string_view kImpliedClosable[] = {
    "li", "option", "p", "td", "th", "tr", "thead", "tbody", "tfoot",
    "dt", "dd"};

constexpr std::string_view kVoidTags[] = {
    "area", "base", "br",   "col",   "embed",  "hr",    "img",
    "input", "link", "meta", "param", "source", "track", "wbr"};

// NameTable ids of the two sets, interned once per process, so the walk
// classifies each start tag by id instead of by name.
struct ClassIds {
  std::array<int32_t, std::size(kVoidTags)> voids;
  std::array<int32_t, std::size(kImpliedClosable)> implied_closable;

  static const ClassIds& Get() {
    static const ClassIds ids = [] {
      NameTable& names = NameTable::Global();
      ClassIds c;
      for (size_t i = 0; i < c.voids.size(); ++i) {
        c.voids[i] = names.Intern(kVoidTags[i]).id;
      }
      for (size_t i = 0; i < c.implied_closable.size(); ++i) {
        c.implied_closable[i] = names.Intern(kImpliedClosable[i]).id;
      }
      return c;
    }();
    return ids;
  }
};

template <size_t N>
bool Contains(const std::array<int32_t, N>& ids, int32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

bool IsVoidElementTag(std::string_view tag) {
  // One comparison per name against a constant of known length, as a
  // hand-written `tag == "br" || ...` chain would be; a loop over the array
  // compares through memcmp calls instead, which costs StreamPage's scanner
  // (it asks on every start tag) a measurable share of its time.
  return [tag]<size_t... I>(std::index_sequence<I...>) {
    return ((tag == kVoidTags[I]) || ...);
  }(std::make_index_sequence<std::size(kVoidTags)>());
}

bool OpenElementStack::CloseImpliedBy(std::string_view open,
                                      std::string_view incoming) {
  if (open == "li" && incoming == "li") return true;
  if (open == "option" && incoming == "option") return true;
  if (open == "p" &&
      (incoming == "p" || incoming == "div" || incoming == "table" ||
       incoming == "ul" || incoming == "ol" || incoming == "li" ||
       incoming == "h1" || incoming == "h2" || incoming == "h3" ||
       incoming == "h4" || incoming == "blockquote" || incoming == "pre")) {
    return true;
  }
  if ((open == "td" || open == "th") &&
      (incoming == "td" || incoming == "th" || incoming == "tr")) {
    return true;
  }
  if (open == "tr" && incoming == "tr") return true;
  if ((open == "thead" || open == "tbody" || open == "tfoot") &&
      (incoming == "thead" || incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if (open == "dt" && (incoming == "dt" || incoming == "dd")) return true;
  if (open == "dd" && (incoming == "dt" || incoming == "dd")) return true;
  return false;
}

StartTag InternStartTag(std::string_view name) {
  NameTable::Interned interned = NameTable::Global().Intern(name);
  const ClassIds& ids = ClassIds::Get();
  return {interned.name, interned.id, Contains(ids.voids, interned.id),
          Contains(ids.implied_closable, interned.id)};
}

}  // namespace ntw::html
