// XML path relations. For a root-leaf path q1/q2/.../qk of a sub-twig,
// the logical relation is
//     { (val(x1), ..., val(xk)) : x(i+1) child of x(i), tag(xi)=tag(qi) }.
// The paper's XJoin "considers P-C relations as relational tables for
// the size bound, but does not physically transform them" — LazyPathTrie
// realizes exactly that: a TrieIterator that navigates the document in
// place, grouping candidate nodes by join value level by level. It is
// the lazy ablation (XJoinOptions::materialize_paths = false). The
// default flattens each path once into a CSR RelationTrie (BuildTrie),
// cached per document version, so the join runs on raw CSR cursors;
// Materialize gives the same relation as a Relation for exact
// size-bound inputs.
#ifndef XJOIN_CORE_VIRTUAL_RELATION_H_
#define XJOIN_CORE_VIRTUAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/decompose.h"
#include "relational/relation.h"
#include "relational/trie.h"
#include "relational/trie_iterator.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Static description of one path relation over a document.
class PathRelation {
 public:
  /// Binds a decomposed path to a document. Fails if a tag on the path is
  /// "*" (wildcards are not joinable) — unknown tags are fine and yield
  /// an empty relation.
  static Result<PathRelation> Make(const Twig& twig, const TwigPath& path,
                                   const NodeIndex* index);

  /// Attribute names, root first (the trie's level order).
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Tag codes per level (-1 for a tag absent from the document).
  const std::vector<int32_t>& tags() const { return tags_; }

  const NodeIndex& index() const { return *index_; }
  int arity() const { return static_cast<int>(attributes_.size()); }

  /// A lazy cursor over the path trie (no materialization).
  std::unique_ptr<TrieIterator> NewLazyIterator() const;

  /// Flattens to value tuples (set semantics). O(#chains).
  Result<Relation> Materialize() const;

  /// The materialized path trie: the relation as a CSR RelationTrie in
  /// attribute order (root first). O(#chains).
  Result<RelationTrie> BuildTrie(const TrieBuildOptions& options) const;

  /// Number of P-C chains matching the path (duplicate value tuples
  /// counted), by dynamic programming over the document — an upper bound
  /// on the relation's cardinality, computed without enumeration.
  int64_t CountChains() const;

 private:
  PathRelation() = default;

  std::vector<std::string> attributes_;
  std::vector<int32_t> tags_;
  const NodeIndex* index_ = nullptr;
};

/// TrieIterator over a PathRelation that walks the document lazily.
/// Level state is a value-sorted list of (value, node) candidates for the
/// current parent group; Open() on level i gathers the tag-matching
/// children of the nodes in the parent's current value group.
class LazyPathTrieIterator final : public TrieIterator {
 public:
  explicit LazyPathTrieIterator(const PathRelation* relation);

  int arity() const override { return relation_->arity(); }
  int depth() const override { return depth_; }
  void Open() override;
  void Up() override;
  bool AtEnd() const override;
  int64_t Key() const override;
  void Next() override;
  void Seek(int64_t key) override;
  int64_t EstimateKeys() const override;
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  struct Frame {
    std::vector<ValueNode> entries;  // sorted by (value, node)
    size_t pos = 0;                  // start of current value group
    size_t group_end = 0;            // one past the group
  };

  void FixGroup();

  const PathRelation* relation_;
  int depth_ = -1;
  std::vector<Frame> frames_;
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VIRTUAL_RELATION_H_
