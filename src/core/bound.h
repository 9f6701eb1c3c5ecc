// Multi-model worst-case size bounds (paper Section 3, Equation 1,
// Example 3.3): build the hypergraph of relational schemas plus
// decomposed twig-path schemas and solve the fractional edge cover LPs.
#ifndef XJOIN_CORE_BOUND_H_
#define XJOIN_CORE_BOUND_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "lp/edge_cover.h"
#include "lp/hypergraph.h"

namespace xjoin {

/// How twig-path edge cardinalities are determined.
enum class PathSizeMode {
  /// Exact: materialize each path relation and count tuples.
  /// O(#matching P-C chains) time and memory per path.
  kExact,
  /// DP chain count — an enumeration-free upper bound (docs/
  /// ARCHITECTURE.md, "The bound pipeline"), O(document size) per path
  /// via PathRelation::CountChains.
  kChainCount,
  /// All edges get size `uniform_n` — the paper's "each tag consists of n
  /// nodes" analytical setting (Examples 3.3/3.4).
  kUniform,
};

/// Options for BuildQueryHypergraph.
struct BoundOptions {
  PathSizeMode path_size_mode = PathSizeMode::kExact;
  double uniform_n = 1.0;  ///< used by kUniform (applies to relations too)
};

/// Builds the Equation-1 hypergraph: one edge per relational table, one
/// edge per decomposed twig path (paper Section 3, Example 3.3 —
/// "consider P-C relations as relational tables for the size bound").
/// Cost: one DecomposeTwig per twig plus the per-path size evaluation
/// selected by `options.path_size_mode`.
Result<Hypergraph> BuildQueryHypergraph(const MultiModelQuery& query,
                                        const BoundOptions& options = {});

/// The complete bound report for a query (paper Equation 1).
struct MultiModelBound {
  Hypergraph hypergraph;    ///< the Equation-1 program's structure
  EdgeCoverResult cover;    ///< primal/dual optima; log2_bound is Eq. 1
  /// Bound restricted to the query's output attributes (== full bound
  /// when output_attributes is empty) — a Log2BoundForSubset cover.
  double log2_output_bound = 0.0;
};

/// Computes the AGM-style worst-case output bound of the multi-model
/// query (paper Section 3, Equation 1): hypergraph construction plus one
/// fractional-edge-cover LP solve (see lp/edge_cover.h for LP cost).
Result<MultiModelBound> ComputeBound(const MultiModelQuery& query,
                                     const BoundOptions& options = {});

}  // namespace xjoin

#endif  // XJOIN_CORE_BOUND_H_
