#include "html/arena_dom.h"

#include <utility>

#include "html/recovery.h"

namespace ntw::html {

// Builds the arena DOM from the recovered tree's events: the arena twin
// of parser.cc's TreeBuilder, node for node. (Named, not anonymous, so
// ArenaDocument can befriend it.)
class ArenaTreeBuilder {
 public:
  // One open element on the builder stack. Frames are pooled per thread and
  // reused across parses so their tag_counts vectors keep capacity.
  struct Frame {
    int32_t node = 0;
    int32_t last_child = -1;
    int32_t children = 0;
    // (tag_id, count) for element children seen so far; the distinct-tag
    // count per parent is small, so a linear scan beats a hash map.
    std::vector<std::pair<int32_t, int32_t>> tag_counts;
  };

  // Per-thread reusable builder state.
  struct ParseScratch {
    RecoveryScratch recovery;
    std::vector<Frame> frames;
    std::string collapsed;
  };

  ArenaTreeBuilder(ArenaDocument* doc, ParseScratch* scratch)
      : doc_(doc), frames_(scratch->frames), collapsed_(scratch->collapsed) {
    doc_->nodes_.emplace_back();  // Document root, pre-order index 0.
    PushFrame(0);
  }

  void OnOpen(const Token& token, const StartTag& tag) {
    int32_t idx = AppendNode(NodeKind::kElement);
    {
      ArenaNode& n = doc_->nodes_[static_cast<size_t>(idx)];
      n.tag_id = tag.id;
      n.tag = tag.name;
      n.attrs_begin = static_cast<int32_t>(doc_->attrs_.size());
      n.attrs_end = n.attrs_begin;
    }
    for (const auto& [name, value] : token.attrs) {
      SetAttr(idx, name, value);
    }

    // Same-tag child number among element siblings (XPath tag[k]).
    {
      Frame& parent = frames_[depth_ - 1];
      int32_t count = 0;
      for (auto& [tag_id, c] : parent.tag_counts) {
        if (tag_id == tag.id) {
          count = ++c;
          break;
        }
      }
      if (count == 0) {
        parent.tag_counts.emplace_back(tag.id, 1);
        count = 1;
      }
      doc_->nodes_[static_cast<size_t>(idx)].same_tag_child_number = count;
    }

    if (!tag.is_void) PushFrame(idx);
  }

  void OnText(std::string_view text) {
    collapsed_.clear();
    AppendCollapsedText(text, &collapsed_);
    int32_t idx = AppendNode(NodeKind::kText);
    doc_->nodes_[static_cast<size_t>(idx)].text =
        doc_->arena_.CopyString(collapsed_);
  }

  void OnClose(std::string_view) { --depth_; }

 private:
  void PushFrame(int32_t node) {
    if (frames_.size() <= depth_) frames_.emplace_back();
    Frame& f = frames_[depth_++];
    f.node = node;
    f.last_child = -1;
    f.children = 0;
    f.tag_counts.clear();
  }

  // Appends a node under the current top frame and links it in.
  int32_t AppendNode(NodeKind kind) {
    Frame& f = frames_[depth_ - 1];
    int32_t idx = static_cast<int32_t>(doc_->nodes_.size());
    doc_->nodes_.emplace_back();
    ArenaNode& n = doc_->nodes_.back();
    n.kind = kind;
    n.parent = f.node;
    n.sibling_index = f.children++;
    if (f.last_child >= 0) {
      doc_->nodes_[static_cast<size_t>(f.last_child)].next_sibling = idx;
    } else {
      doc_->nodes_[static_cast<size_t>(f.node)].first_child = idx;
    }
    f.last_child = idx;
    return idx;
  }

  // Duplicate attribute names keep the first position, last value — the
  // same semantics as Node::SetAttr.
  void SetAttr(int32_t node, std::string_view name, std::string_view value) {
    ArenaNode& n = doc_->nodes_[static_cast<size_t>(node)];
    NameTable::Interned interned = NameTable::Global().Intern(name);
    for (int32_t i = n.attrs_begin; i < n.attrs_end; ++i) {
      ArenaAttr& attr = doc_->attrs_[static_cast<size_t>(i)];
      if (attr.name_id == interned.id) {
        attr.value = doc_->arena_.CopyString(value);
        return;
      }
    }
    doc_->attrs_.push_back(
        {interned.id, interned.name, doc_->arena_.CopyString(value)});
    n.attrs_end = static_cast<int32_t>(doc_->attrs_.size());
  }

  ArenaDocument* doc_;
  std::vector<Frame>& frames_;
  std::string& collapsed_;
  size_t depth_ = 0;
};

void ArenaParse(std::string_view input, ArenaDocument* doc) {
  thread_local ArenaTreeBuilder::ParseScratch scratch;
  doc->Clear();
  ArenaTreeBuilder builder(doc, &scratch);
  WalkTagSoup(input, scratch.recovery, builder);
}

namespace {

// Mirrors text::CharView::Flatten byte for byte: raw node text, raw
// `<tag attr="value">` markup (no escaping), void elements without end tags.
void FlattenNode(const ArenaDocument& doc, const std::vector<ArenaNode>& nodes,
                 int32_t index, std::string* stream,
                 std::vector<ArenaDocument::TextSpan>* spans) {
  const ArenaNode& n = nodes[static_cast<size_t>(index)];
  switch (n.kind) {
    case NodeKind::kDocument:
      for (int32_t c = n.first_child; c >= 0;
           c = nodes[static_cast<size_t>(c)].next_sibling) {
        FlattenNode(doc, nodes, c, stream, spans);
      }
      return;
    case NodeKind::kText: {
      ArenaDocument::TextSpan span;
      span.node = index;
      span.begin = stream->size();
      stream->append(n.text);
      span.end = stream->size();
      spans->push_back(span);
      return;
    }
    case NodeKind::kElement:
      break;
  }
  stream->push_back('<');
  stream->append(n.tag);
  for (int32_t i = n.attrs_begin; i < n.attrs_end; ++i) {
    const ArenaAttr& attr = doc.attrs()[static_cast<size_t>(i)];
    stream->push_back(' ');
    stream->append(attr.name);
    stream->append("=\"");
    stream->append(attr.value);
    stream->push_back('"');
  }
  stream->push_back('>');
  if (IsVoidElementTag(n.tag)) return;
  for (int32_t c = n.first_child; c >= 0;
       c = nodes[static_cast<size_t>(c)].next_sibling) {
    FlattenNode(doc, nodes, c, stream, spans);
  }
  stream->append("</");
  stream->append(n.tag);
  stream->push_back('>');
}

}  // namespace

void ArenaDocument::BuildStream() {
  stream_.clear();
  spans_.clear();
  if (!nodes_.empty()) {
    FlattenNode(*this, nodes_, 0, &stream_, &spans_);
  }
  stream_built_ = true;
}

const std::string& ArenaDocument::stream() {
  if (!stream_built_) BuildStream();
  return stream_;
}

const std::vector<ArenaDocument::TextSpan>& ArenaDocument::spans() {
  if (!stream_built_) BuildStream();
  return spans_;
}

void ArenaDocument::Clear() {
  arena_.Reset();
  nodes_.clear();
  attrs_.clear();
  stream_.clear();
  spans_.clear();
  stream_built_ = false;
}

}  // namespace ntw::html
