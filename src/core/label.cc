#include "core/label.h"

#include <atomic>

namespace ntw::core {

void NodeSet::Insert(const NodeRef& ref) {
  auto it = std::lower_bound(refs_.begin(), refs_.end(), ref);
  if (it != refs_.end() && *it == ref) return;
  refs_.insert(it, ref);
}

bool NodeSet::IsSubsetOf(const NodeSet& other) const {
  return std::includes(other.refs_.begin(), other.refs_.end(),
                       refs_.begin(), refs_.end());
}

NodeSet NodeSet::Union(const NodeSet& other) const {
  std::vector<NodeRef> out;
  out.reserve(refs_.size() + other.refs_.size());
  std::set_union(refs_.begin(), refs_.end(), other.refs_.begin(),
                 other.refs_.end(), std::back_inserter(out));
  NodeSet result;
  result.refs_ = std::move(out);  // Already sorted and unique.
  return result;
}

NodeSet NodeSet::Intersect(const NodeSet& other) const {
  std::vector<NodeRef> out;
  std::set_intersection(refs_.begin(), refs_.end(), other.refs_.begin(),
                        other.refs_.end(), std::back_inserter(out));
  NodeSet result;
  result.refs_ = std::move(out);
  return result;
}

NodeSet NodeSet::Difference(const NodeSet& other) const {
  std::vector<NodeRef> out;
  std::set_difference(refs_.begin(), refs_.end(), other.refs_.begin(),
                      other.refs_.end(), std::back_inserter(out));
  NodeSet result;
  result.refs_ = std::move(out);
  return result;
}

size_t NodeSet::IntersectSize(const NodeSet& other) const {
  size_t count = 0;
  auto a = refs_.begin();
  auto b = other.refs_.begin();
  while (a != refs_.end() && b != other.refs_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

uint64_t NodeSet::Fingerprint() const {
  // FNV-1a over the (page, node) stream.
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (v >> shift) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const NodeRef& ref : refs_) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(ref.page)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(ref.node)));
  }
  return hash;
}

std::string NodeSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < refs_.size(); ++i) {
    if (i > 0) out += ",";
    out.append("(").append(std::to_string(refs_[i].page)).append(",");
    out.append(std::to_string(refs_[i].node)).append(")");
  }
  out += "}";
  return out;
}

const html::Node* PageSet::Resolve(const NodeRef& ref) const {
  if (ref.page < 0 || static_cast<size_t>(ref.page) >= pages_.size()) {
    return nullptr;
  }
  const html::Document& doc = pages_[static_cast<size_t>(ref.page)];
  if (ref.node < 0 || static_cast<size_t>(ref.node) >= doc.node_count()) {
    return nullptr;
  }
  return doc.node(ref.node);
}

NodeSet PageSet::AllTextNodes() const {
  std::vector<NodeRef> refs;
  for (size_t p = 0; p < pages_.size(); ++p) {
    for (const html::Node* node : pages_[p].text_nodes()) {
      refs.push_back(
          NodeRef{static_cast<int>(p), node->preorder_index()});
    }
  }
  return NodeSet(std::move(refs));
}

size_t PageSet::TextNodeCount() const {
  size_t count = 0;
  for (const auto& page : pages_) count += page.text_nodes().size();
  return count;
}

uint64_t PageSet::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ntw::core
