// Structural validation of value-level join results (the final "Filter R
// by validating structure of Sx" of Algorithm 1, and the in-join partial
// validation the paper lists as on-going work).
//
// A value assignment to twig attributes is *structurally valid* when at
// least one embedding of the twig binds every query node q to a document
// node with tag(q) and the assigned value. The check is a tree-shaped
// constraint-satisfaction problem solved bottom-up over candidate node
// sets — exact for full assignments; for partial assignments the twig is
// contracted onto the bound nodes (nearest-bound-ancestor skeleton with
// level-distance constraints), a sound relaxation used for pruning.
#ifndef XJOIN_CORE_VALIDATE_H_
#define XJOIN_CORE_VALIDATE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Validator for one (twig, document) pair. Immutable after
/// construction and safe to share across threads; all per-call state
/// lives in a caller-owned Scratch.
class TwigStructureValidator {
 public:
  class Scratch;

  TwigStructureValidator(const Twig* twig, const NodeIndex* index);

  /// Validates the bindings held in `scratch` (see Scratch::Bind): true
  /// when some embedding is consistent with every bound value (exact if
  /// all nodes are bound). Allocation-free once `scratch` has seen the
  /// call's bound mask and its feasible sets have grown to the
  /// document's candidate counts.
  bool ExistsEmbedding(Scratch* scratch, Metrics* metrics = nullptr) const;

  /// One-shot form over a fresh scratch: `values[q]` is the value bound
  /// to twig node q, or nullopt when the node is not (yet) bound.
  bool ExistsEmbedding(const std::vector<std::optional<int64_t>>& values,
                       Metrics* metrics = nullptr) const;

 private:
  struct SkeletonEdge {
    TwigNodeId child;      // bound twig node
    bool exact_parent;     // direct P-C edge: require parent(y) == x
    bool exact_level;      // all-P-C contracted path: level diff == dist
    int32_t distance;      // number of twig edges contracted
  };

  // The twig contracted onto one bound mask: each bound node hangs off
  // its nearest bound proper ancestor.
  struct Skeleton {
    std::vector<uint8_t> mask;            // bound flag per twig node
    std::vector<TwigNodeId> bound_nodes;  // preorder
    std::vector<std::vector<SkeletonEdge>> children;  // per twig node
  };

  void BuildSkeleton(Skeleton* skeleton) const;
  const Skeleton& SkeletonFor(Scratch* scratch) const;

  const Twig* twig_;
  const NodeIndex* index_;
  std::vector<int32_t> tag_codes_;  // per twig node; -1 if absent in doc
};

/// Working memory of one validator on one thread: the per-node binding
/// slots, the feasible candidate sets, and the skeletons of the bound
/// masks seen so far. Reuse one scratch across calls (one per
/// validation worker, one per join shard); never share it between
/// threads or validators.
class TwigStructureValidator::Scratch {
 public:
  explicit Scratch(const TwigStructureValidator& validator);

  /// Binds twig node q to `value`.
  void Bind(TwigNodeId q, int64_t value) {
    values_[static_cast<size_t>(q)] = value;
    bound_[static_cast<size_t>(q)] = 1;
  }
  /// Marks twig node q as unbound.
  void Unbind(TwigNodeId q) { bound_[static_cast<size_t>(q)] = 0; }

 private:
  friend class TwigStructureValidator;

  const TwigStructureValidator* owner_;
  std::vector<int64_t> values_;  // per twig node; read only where bound
  std::vector<uint8_t> bound_;   // per twig node
  // Skeleton cache, at most twig-size + 1 entries: enough for every
  // mask of one expansion order (the prefix filter's nested masks plus
  // the full mask). Beyond that, entries are replaced round-robin.
  std::vector<Skeleton> skeletons_;
  size_t next_evict_ = 0;
  std::vector<std::vector<NodeId>> feasible_;  // per twig node
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VALIDATE_H_
