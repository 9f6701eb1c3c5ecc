#include "twigjoin/twig_matchers.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "relational/operators.h"
#include "twigjoin/structural_join.h"

namespace xjoin {

namespace {

// Document-order stream of candidate nodes for one twig node.
std::vector<NodeId> StreamFor(const XmlDocument& doc, const NodeIndex& index,
                              const TwigNode& qn) {
  if (qn.tag == "*") {
    std::vector<NodeId> all(doc.num_nodes());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
    return all;
  }
  int32_t code = doc.LookupTag(qn.tag);
  if (code < 0) return {};
  return index.NodesByTag(code);
}

}  // namespace

Result<Relation> MatchesToRelation(const Twig& twig,
                                   const std::vector<TwigMatch>& matches) {
  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(twig.attributes()));
  Relation rel(std::move(schema));
  Tuple row(twig.num_nodes());
  for (const auto& m : matches) {
    if (m.size() != twig.num_nodes()) {
      return Status::InvalidArgument("match arity mismatch");
    }
    for (size_t i = 0; i < m.size(); ++i) row[i] = m[i];
    rel.AppendRow(row);
  }
  return rel;
}

Result<Relation> MatchTwigStructuralPlan(const XmlDocument& doc,
                                         const NodeIndex& index,
                                         const Twig& twig, Metrics* metrics) {
  if (twig.num_nodes() == 1) {
    XJ_ASSIGN_OR_RETURN(Schema schema,
                        Schema::Make({twig.node(twig.root()).attribute}));
    Relation rel(std::move(schema));
    for (NodeId n : StreamFor(doc, index, twig.node(twig.root()))) {
      rel.AppendRow({n});
    }
    return rel;
  }

  // One pair relation per edge, joined left-deep in edge order.
  std::vector<Relation> edge_relations;
  for (size_t i = 1; i < twig.num_nodes(); ++i) {
    TwigNodeId child = static_cast<TwigNodeId>(i);
    const TwigNode& cn = twig.node(child);
    const TwigNode& pn = twig.node(cn.parent);
    std::vector<NodePair> pairs = StructuralJoin(
        doc, StreamFor(doc, index, pn), StreamFor(doc, index, cn), cn.axis);
    XJ_ASSIGN_OR_RETURN(Schema schema,
                        Schema::Make({pn.attribute, cn.attribute}));
    Relation rel(std::move(schema));
    for (const auto& [a, d] : pairs) rel.AppendRow({a, d});
    MetricsAdd(metrics, "twig_plan.edge_pairs",
               static_cast<int64_t>(rel.num_rows()));
    edge_relations.push_back(std::move(rel));
  }

  std::vector<const Relation*> inputs;
  inputs.reserve(edge_relations.size());
  for (const auto& r : edge_relations) inputs.push_back(&r);
  Metrics local;
  XJ_ASSIGN_OR_RETURN(Relation joined, JoinAll(inputs, &local));
  if (metrics != nullptr) {
    metrics->RecordMax("twig_plan.max_intermediate",
                       local.Get("plan.max_intermediate"));
    metrics->Add("twig_plan.total_intermediate",
                 local.Get("plan.total_intermediate"));
  }
  return joined;
}

std::vector<std::vector<NodeId>> MatchPathStack(
    const XmlDocument& doc, const NodeIndex& index, const Twig& twig,
    const std::vector<TwigNodeId>& path) {
  const size_t k = path.size();
  std::vector<std::vector<NodeId>> solutions;
  if (k == 0) return solutions;

  struct StackEntry {
    NodeId node;
    int parent_ptr;  // index of top of parent stack at push time, or -1
  };
  std::vector<std::vector<NodeId>> streams(k);
  std::vector<size_t> cursor(k, 0);
  std::vector<std::vector<StackEntry>> stacks(k);
  std::vector<TwigAxis> axis(k, TwigAxis::kChild);
  for (size_t i = 0; i < k; ++i) {
    streams[i] = StreamFor(doc, index, twig.node(path[i]));
    if (i > 0) axis[i] = twig.node(path[i]).axis;
  }

  constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
  auto head = [&](size_t i) -> int64_t {
    return cursor[i] < streams[i].size() ? streams[i][cursor[i]] : kInf;
  };

  // Recursive chain expansion from a just-pushed leaf entry.
  std::vector<NodeId> partial(k);
  auto expand = [&](auto&& self, size_t level,
                    const StackEntry& entry) -> void {
    partial[level] = entry.node;
    if (level == 0) {
      solutions.emplace_back(partial);
      return;
    }
    for (int pos = 0; pos <= entry.parent_ptr; ++pos) {
      const StackEntry& cand = stacks[level - 1][static_cast<size_t>(pos)];
      if (axis[level] == TwigAxis::kChild) {
        if (doc.node(entry.node).parent != cand.node) continue;
      } else if (cand.node >= entry.node) {
        // Repeated tags can put the same document node on adjacent
        // stacks in the same round; proper ancestry requires a strictly
        // earlier start.
        continue;
      }
      self(self, level - 1, cand);
    }
  };

  while (head(k - 1) != kInf) {
    // Pick the stream with the minimal next start position.
    size_t qmin = 0;
    int64_t best = kInf;
    for (size_t i = 0; i < k; ++i) {
      if (head(i) < best) {
        best = head(i);
        qmin = i;
      }
    }
    NodeId v = static_cast<NodeId>(best);
    // Clean all stacks: entries whose region ended before v are dead.
    for (auto& s : stacks) {
      while (!s.empty() && doc.node(s.back().node).subtree_end < v)
        s.pop_back();
    }
    ++cursor[qmin];
    if (qmin > 0 && stacks[qmin - 1].empty()) {
      continue;  // no live ancestor chain; skip this element
    }
    StackEntry entry{v, qmin > 0 ? static_cast<int>(stacks[qmin - 1].size()) - 1
                                 : -1};
    if (qmin == k - 1) {
      // Leaf: emit solutions through this entry, do not keep it (a leaf
      // entry can never be an ancestor of a later leaf element of the
      // same path query node... unless the path has repeated tags where
      // a leaf node is also an ancestor; keeping it is unnecessary since
      // leaves never serve as chain parents).
      expand(expand, k - 1, entry);
    } else {
      stacks[qmin].push_back(entry);
    }
  }
  return solutions;
}

Result<Relation> MatchTwigPathStack(const XmlDocument& doc,
                                    const NodeIndex& index, const Twig& twig,
                                    Metrics* metrics) {
  std::vector<TwigNodeId> leaves = twig.Leaves();
  std::vector<Relation> path_relations;
  int64_t total_path_solutions = 0;
  for (TwigNodeId leaf : leaves) {
    std::vector<TwigNodeId> path = twig.PathFromRoot(leaf);
    std::vector<std::vector<NodeId>> sols =
        MatchPathStack(doc, index, twig, path);
    total_path_solutions += static_cast<int64_t>(sols.size());
    std::vector<std::string> attrs;
    attrs.reserve(path.size());
    for (TwigNodeId q : path) attrs.push_back(twig.node(q).attribute);
    XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
    Relation rel(std::move(schema));
    for (const auto& s : sols) {
      Tuple row(s.size());
      for (size_t i = 0; i < s.size(); ++i) row[i] = s[i];
      rel.AppendRow(row);
    }
    path_relations.push_back(std::move(rel));
  }
  MetricsAdd(metrics, "twig_path.path_solutions", total_path_solutions);

  std::vector<const Relation*> inputs;
  inputs.reserve(path_relations.size());
  for (const auto& r : path_relations) inputs.push_back(&r);
  Metrics local;
  XJ_ASSIGN_OR_RETURN(Relation joined, JoinAll(inputs, &local));
  if (metrics != nullptr) {
    metrics->RecordMax("twig_path.max_intermediate",
                       std::max(local.Get("plan.max_intermediate"),
                                total_path_solutions));
  }
  return joined;
}

}  // namespace xjoin
