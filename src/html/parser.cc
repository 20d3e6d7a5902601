#include "html/parser.h"

#include <memory>
#include <string>
#include <vector>

#include "html/recovery.h"

namespace ntw::html {
namespace {

// Builds the heap DOM from the recovered tree's events.
class TreeBuilder {
 public:
  explicit TreeBuilder(Document* doc) { open_.push_back(doc->root()); }

  void OnOpen(const Token& token, const StartTag& tag) {
    auto element = std::make_unique<Node>(std::string(tag.name));
    for (const auto& [name, value] : token.attrs) {
      element->SetAttr(name, value);
    }
    Node* placed = open_.back()->AppendChild(std::move(element));
    if (!tag.is_void) open_.push_back(placed);
  }

  void OnText(std::string_view text) {
    std::string collapsed;
    collapsed.reserve(text.size());
    AppendCollapsedText(text, &collapsed);
    open_.back()->AppendChild(Node::MakeText(std::move(collapsed)));
  }

  void OnClose(std::string_view) { open_.pop_back(); }

 private:
  std::vector<Node*> open_;
};

}  // namespace

Result<Document> Parse(std::string_view input) {
  Document doc;
  TreeBuilder builder(&doc);
  RecoveryScratch scratch;
  WalkTagSoup(input, scratch, builder);
  doc.Finalize();
  return doc;
}

}  // namespace ntw::html
