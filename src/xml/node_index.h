// NodeIndex: per-document access structures shared by the twig-join
// algorithms and the multi-model engine. It assigns every node a *join
// value code* in the same dictionary the relational side uses, and keeps
// per-tag node streams (document order: TwigStack, path relations) and
// per-tag value-sorted lists (the lazy path trie's root level and the
// validator's candidate runs).
#ifndef XJOIN_XML_NODE_INDEX_H_
#define XJOIN_XML_NODE_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "xml/document.h"

namespace xjoin {

/// How a matched node's join value is derived.
enum class ValuePolicy : uint8_t {
  /// Text content when the node has any, otherwise a synthetic unique
  /// per-node value ("\x1Fnode:<id>"). Default; matches the paper's
  /// Figure 1 where value-carrying elements join with relational columns.
  kTextOrNodeId,
  /// Always the synthetic unique per-node value; turns every value join
  /// into a node-identity join (useful as an exact structural oracle).
  kNodeIdAlways,
};

/// A (value, node) pair; lists are sorted by (value, node).
struct ValueNode {
  int64_t value;
  NodeId node;
  bool operator==(const ValueNode& o) const {
    return value == o.value && node == o.node;
  }
};

/// Immutable index over one document. The dictionary is shared with the
/// database's relations so value codes agree across models.
class NodeIndex {
 public:
  /// Builds the index, interning node values into `dict`.
  static NodeIndex Build(const XmlDocument* doc, Dictionary* dict,
                         ValuePolicy policy = ValuePolicy::kTextOrNodeId);

  const XmlDocument& doc() const { return *doc_; }
  ValuePolicy policy() const { return policy_; }

  /// Join value code of a node.
  int64_t ValueOf(NodeId id) const { return values_[static_cast<size_t>(id)]; }

  /// Nodes with tag code `tag` in document order; empty for unknown tags.
  const std::vector<NodeId>& NodesByTag(int32_t tag) const;

  /// (value, node) pairs for tag code `tag`, sorted by value then node.
  const std::vector<ValueNode>& ValueSortedNodes(int32_t tag) const;

  /// The run of ValueSortedNodes(tag) whose value is `value`, as a
  /// [first, last) range with node ids ascending; empty for unknown tags
  /// or values. A view into the index, no copy; O(log n + run length).
  std::pair<const ValueNode*, const ValueNode*> TagValueRange(
      int32_t tag, int64_t value) const;

 private:
  NodeIndex() = default;

  const XmlDocument* doc_ = nullptr;
  ValuePolicy policy_ = ValuePolicy::kTextOrNodeId;
  std::vector<int64_t> values_;                      // by NodeId
  std::vector<std::vector<NodeId>> by_tag_;          // by tag code
  std::vector<std::vector<ValueNode>> by_tag_value_; // by tag code
  std::vector<NodeId> empty_nodes_;
  std::vector<ValueNode> empty_value_nodes_;
};

}  // namespace xjoin

#endif  // XJOIN_XML_NODE_INDEX_H_
