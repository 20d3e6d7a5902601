#include "xpath/ast.h"

namespace ntw::xpath {

bool Step::operator==(const Step& other) const {
  return axis == other.axis && test == other.test && tag == other.tag &&
         child_number == other.child_number &&
         attr_filters == other.attr_filters;
}

std::string Step::ToString() const {
  std::string out = axis == Axis::kChild ? "/" : "//";
  switch (test) {
    case NodeTest::kTag:
      out += tag;
      break;
    case NodeTest::kAnyElement:
      out += "*";
      break;
    case NodeTest::kText:
      out += "text()";
      break;
  }
  if (child_number.has_value()) {
    out.append("[").append(std::to_string(*child_number)).append("]");
  }
  for (const auto& [name, value] : attr_filters) {
    out.append("[@").append(name).append("='").append(value).append("']");
  }
  return out;
}

std::string Expr::ToString() const {
  std::string out;
  for (const auto& step : steps) {
    out += step.ToString();
  }
  return out;
}

}  // namespace ntw::xpath
