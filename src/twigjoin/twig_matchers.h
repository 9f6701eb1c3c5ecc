// Twig matching strategies above the primitives:
//
//   * MatchTwigStructuralPlan — one stack-tree structural join per twig
//     edge, then hash joins of the pair lists on shared query nodes (a
//     "binary structural join plan", the classic pre-holistic approach).
//   * MatchTwigPathStack — PathStack per root-to-leaf path (linear chain
//     matching with linked stacks), then a merge join of path solutions
//     on their shared prefix nodes. This is the decomposition whose
//     intermediate path solutions can blow up — the behaviour the paper's
//     baseline exhibits on A-D-free twigs too.
//
// Both return the set of embeddings as a Relation whose schema is the
// twig's attribute list (node-id bindings stored directly as int64),
// which lets callers reuse the relational operators for merging and
// comparison. MatchesToRelation converts a match list to that form.
#ifndef XJOIN_TWIGJOIN_TWIG_MATCHERS_H_
#define XJOIN_TWIGJOIN_TWIG_MATCHERS_H_

#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/relation.h"
#include "twigjoin/naive_twig.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Converts matches to a relation over the twig's attributes.
Result<Relation> MatchesToRelation(const Twig& twig,
                                   const std::vector<TwigMatch>& matches);

/// Binary structural-join plan. Metrics (nullable): records
/// "twig_plan.max_intermediate" and "twig_plan.total_intermediate".
Result<Relation> MatchTwigStructuralPlan(const XmlDocument& doc,
                                         const NodeIndex& index,
                                         const Twig& twig,
                                         Metrics* metrics = nullptr);

/// PathStack per root-leaf path + merge. Metrics (nullable): records
/// "twig_path.path_solutions" (total path solutions materialized,
/// the paper's blow-up quantity) and "twig_path.max_intermediate".
Result<Relation> MatchTwigPathStack(const XmlDocument& doc,
                                    const NodeIndex& index, const Twig& twig,
                                    Metrics* metrics = nullptr);

/// Matches one root-to-leaf chain (`path` = twig node ids, root first)
/// with the linked-stack PathStack algorithm; returns one column per
/// path node, bindings in document order of the leaf.
std::vector<std::vector<NodeId>> MatchPathStack(
    const XmlDocument& doc, const NodeIndex& index, const Twig& twig,
    const std::vector<TwigNodeId>& path);

}  // namespace xjoin

#endif  // XJOIN_TWIGJOIN_TWIG_MATCHERS_H_
