#include "xml/node_index.h"

#include <algorithm>

#include "common/logging.h"

namespace xjoin {

NodeIndex NodeIndex::Build(const XmlDocument* doc, Dictionary* dict,
                           ValuePolicy policy) {
  NodeIndex index;
  index.doc_ = doc;
  index.policy_ = policy;
  const size_t n = doc->num_nodes();
  index.values_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const XmlNode& node = doc->node(static_cast<NodeId>(i));
    if (policy == ValuePolicy::kTextOrNodeId && !node.text.empty()) {
      index.values_[i] = dict->Intern(node.text);
    } else {
      // '\x1F' cannot occur in parsed text, so synthetic values never
      // collide with real ones.
      index.values_[i] = dict->Intern("\x1Fnode:" + std::to_string(i));
    }
  }

  const size_t num_tags = static_cast<size_t>(doc->tag_dict().size());
  index.by_tag_.resize(num_tags);
  index.by_tag_value_.resize(num_tags);
  for (size_t i = 0; i < n; ++i) {
    const XmlNode& node = doc->node(static_cast<NodeId>(i));
    index.by_tag_[static_cast<size_t>(node.tag)].push_back(
        static_cast<NodeId>(i));
    index.by_tag_value_[static_cast<size_t>(node.tag)].push_back(
        ValueNode{index.values_[i], static_cast<NodeId>(i)});
  }
  for (auto& list : index.by_tag_value_) {
    std::sort(list.begin(), list.end(),
              [](const ValueNode& a, const ValueNode& b) {
                if (a.value != b.value) return a.value < b.value;
                return a.node < b.node;
              });
  }
  return index;
}

const std::vector<NodeId>& NodeIndex::NodesByTag(int32_t tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= by_tag_.size())
    return empty_nodes_;
  return by_tag_[static_cast<size_t>(tag)];
}

const std::vector<ValueNode>& NodeIndex::ValueSortedNodes(int32_t tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= by_tag_value_.size()) {
    return empty_value_nodes_;
  }
  return by_tag_value_[static_cast<size_t>(tag)];
}

std::pair<const ValueNode*, const ValueNode*> NodeIndex::TagValueRange(
    int32_t tag, int64_t value) const {
  const std::vector<ValueNode>& list = ValueSortedNodes(tag);
  const ValueNode* last = list.data() + list.size();
  auto cmp = [](const ValueNode& a, int64_t v) { return a.value < v; };
  const ValueNode* first = std::lower_bound(list.data(), last, value, cmp);
  // Runs are short (values are mostly unique per tag), and a caller
  // walks the whole run anyway, so find its end by scanning.
  const ValueNode* end = first;
  while (end != last && end->value == value) ++end;
  return {first, end};
}

}  // namespace xjoin
