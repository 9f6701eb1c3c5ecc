#include "core/validate.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace xjoin {

TwigStructureValidator::TwigStructureValidator(const Twig* twig,
                                               const NodeIndex* index)
    : twig_(twig), index_(index) {
  tag_codes_.reserve(twig->num_nodes());
  for (size_t i = 0; i < twig->num_nodes(); ++i) {
    tag_codes_.push_back(
        index->doc().LookupTag(twig->node(static_cast<TwigNodeId>(i)).tag));
  }
}

TwigStructureValidator::Scratch::Scratch(
    const TwigStructureValidator& validator)
    : owner_(&validator),
      values_(validator.twig_->num_nodes(), 0),
      bound_(validator.twig_->num_nodes(), 0),
      feasible_(validator.twig_->num_nodes()) {}

void TwigStructureValidator::BuildSkeleton(Skeleton* skeleton) const {
  // Contract the twig onto its bound nodes: for each bound node, find the
  // nearest bound proper ancestor and the properties of the contracted
  // edge (distance, all-P-C?, direct edge?).
  const size_t n = twig_->num_nodes();
  const std::vector<uint8_t>& bound = skeleton->mask;
  skeleton->bound_nodes.clear();
  skeleton->children.resize(n);
  for (auto& edges : skeleton->children) edges.clear();
  for (size_t i = 0; i < n; ++i) {
    if (bound[i] == 0) continue;
    TwigNodeId q = static_cast<TwigNodeId>(i);
    skeleton->bound_nodes.push_back(q);
    // Walk up until a bound ancestor (or root).
    int32_t distance = 0;
    bool all_pc = true;
    TwigNodeId cur = q;
    while (twig_->node(cur).parent != kNullTwigNode) {
      if (twig_->node(cur).axis == TwigAxis::kDescendant) all_pc = false;
      ++distance;
      cur = twig_->node(cur).parent;
      if (bound[static_cast<size_t>(cur)] != 0) {
        SkeletonEdge e;
        e.child = q;
        e.distance = distance;
        e.exact_parent = (distance == 1 && all_pc);
        e.exact_level = all_pc;
        skeleton->children[static_cast<size_t>(cur)].push_back(e);
        break;
      }
    }
  }
}

const TwigStructureValidator::Skeleton& TwigStructureValidator::SkeletonFor(
    Scratch* scratch) const {
  const size_t n = twig_->num_nodes();
  auto matches = [&](const Skeleton& s) {
    return std::memcmp(s.mask.data(), scratch->bound_.data(), n) == 0;
  };
  std::vector<Skeleton>& cache = scratch->skeletons_;
  for (const Skeleton& s : cache) {
    if (matches(s)) return s;
  }
  size_t slot = cache.size();
  if (slot < n + 1) {
    cache.emplace_back();
  } else {
    slot = scratch->next_evict_;
    scratch->next_evict_ = (slot + 1) % cache.size();
  }
  cache[slot].mask = scratch->bound_;
  BuildSkeleton(&cache[slot]);
  return cache[slot];
}

bool TwigStructureValidator::ExistsEmbedding(Scratch* scratch,
                                             Metrics* metrics) const {
  XJ_DCHECK(scratch->owner_ == this);
  const XmlDocument& doc = index_->doc();
  const Skeleton& skeleton = SkeletonFor(scratch);

  // Bottom-up feasibility: bound nodes are in preorder, so reverse order
  // processes children before parents. feasible_[q] holds feasible
  // candidate nodes sorted by NodeId (a value run of the index is in
  // node order); only entries written earlier in this call are read.
  // "validate.candidates" counts every candidate looked up; it is charged
  // once per call, on every exit path after the first lookup.
  bool looked_up = false;
  int64_t candidates = 0;
  auto finish = [&](bool result) {
    if (looked_up) MetricsAdd(metrics, "validate.candidates", candidates);
    return result;
  };
  for (auto it = skeleton.bound_nodes.rbegin();
       it != skeleton.bound_nodes.rend(); ++it) {
    const size_t qi = static_cast<size_t>(*it);
    if (tag_codes_[qi] < 0) return finish(false);  // tag absent from doc
    auto [first, last] =
        index_->TagValueRange(tag_codes_[qi], scratch->values_[qi]);
    looked_up = true;
    candidates += last - first;
    if (first == last) return finish(false);
    std::vector<NodeId>& kept = scratch->feasible_[qi];
    kept.clear();
    for (const ValueNode* c = first; c != last; ++c) {
      const NodeId x = c->node;
      bool ok = true;
      for (const SkeletonEdge& e : skeleton.children[qi]) {
        const std::vector<NodeId>& fc =
            scratch->feasible_[static_cast<size_t>(e.child)];
        // Descendants of x occupy the NodeId range (x, subtree_end].
        auto lo = std::upper_bound(fc.begin(), fc.end(), x);
        NodeId end = doc.node(x).subtree_end;
        bool found = false;
        for (auto yit = lo; yit != fc.end() && *yit <= end; ++yit) {
          NodeId y = *yit;
          if (e.exact_parent) {
            if (doc.node(y).parent == x) {
              found = true;
              break;
            }
          } else if (e.exact_level) {
            if (doc.node(y).level == doc.node(x).level + e.distance) {
              found = true;
              break;
            }
          } else {
            if (doc.node(y).level >= doc.node(x).level + e.distance) {
              found = true;
              break;
            }
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) kept.push_back(x);
    }
    if (kept.empty()) return finish(false);
  }
  return finish(true);
}

bool TwigStructureValidator::ExistsEmbedding(
    const std::vector<std::optional<int64_t>>& values, Metrics* metrics) const {
  XJ_DCHECK(values.size() == twig_->num_nodes());
  Scratch scratch(*this);
  for (size_t q = 0; q < values.size(); ++q) {
    if (values[q].has_value()) {
      scratch.Bind(static_cast<TwigNodeId>(q), *values[q]);
    }
  }
  return ExistsEmbedding(&scratch, metrics);
}

}  // namespace xjoin
