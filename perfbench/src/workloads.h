// The three workloads. Each is a closed loop driven from this process
// with a deterministic operation schedule derived from the seed:
//
//   xmark_serve  read-only multi-model serving over loopback (net, core,
//                xml paths); 3 closed_auction : 1 open_auction
//   graph_join   read-only cyclic relational joins in process (CSR
//                tries + intersection kernels); 3 triangle : 1
//                agm_triangle
//   update_mix   ItemCat deltas and periodic document replacement, each
//                followed by a read on a fresh session
//
// A workload object owns its generated inputs and oracle (untimed), and
// exposes a timed Setup, the measured Loop, the traced-run Probe that
// times single layers, and Counts for the determinism check.
#ifndef XJOIN_PERFBENCH_WORKLOADS_H_
#define XJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "harness.h"

namespace perfbench {

/// One query shape: the text the program parses, and the same query
/// assembled by hand for the oracle.
struct ShapeSpec {
  std::string name;                     ///< metric-name shape tag
  std::vector<std::string> relations;   ///< relational inputs
  std::string document;                 ///< "" = relational only
  std::string twig;                     ///< twig pattern on `document`
  std::vector<std::string> outputs;     ///< head attributes

  std::string Text() const;
  /// The MultiModelQuery over `db`'s current storage (for the oracle).
  xjoin::Result<xjoin::MultiModelQuery> Assemble(
      const xjoin::MultiModelDatabase& db) const;
};

/// Per-operation latency sample from a measured loop.
struct Sample {
  double ms = 0;
  int shape = 0;        ///< index into the workload's shape list
  bool traced = false;  ///< spans recorded for this operation
};

struct LoopResult {
  std::vector<Sample> reads;    ///< query_p50/p95 samples
  std::vector<Sample> deltas;   ///< update_mix only
  std::vector<Sample> refresh;  ///< update_mix only
  std::vector<double> compact_ms;  ///< deltas that compacted a trie
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t verified_reads = 0;
  /// Seconds qps is taken over: the sum of the timed operations, so the
  /// benchmark's own verification is not counted.
  double busy_seconds = 0;
  Status first_error;
};

/// Exact counts (gj.*, xjoin.*, cache-stat deltas, response sizes) that
/// must repeat bit for bit for one seed.
using ExactCounts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual const std::vector<ShapeSpec>& shapes() const = 0;
  /// From an empty database to the first verified result per shape;
  /// `*seconds` excludes verification. Replaces any earlier set-up.
  virtual Status Setup(double* seconds) = 0;
  /// Runs the closed loop for `seconds`, adding to `out`. With `tracer`,
  /// alternate stretches record spans (the others give the untraced
  /// comparison).
  virtual Status Loop(double seconds, Tracer* tracer, LoopResult* out) = 0;
  /// Traced run only: times single layers and adds per-layer metrics.
  virtual Status Probe(Tracer* tracer, RunReport* report) = 0;
  /// Exact counts on a fresh set-up.
  virtual Status Counts(ExactCounts* out) = 0;
};

/// Builds the named workload's inputs and oracle from `seed`; null for
/// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

std::unique_ptr<Workload> MakeXmarkServe(uint64_t seed);
std::unique_ptr<Workload> MakeGraphJoin(uint64_t seed);
std::unique_ptr<Workload> MakeUpdateMix(uint64_t seed);

const std::vector<std::string>& WorkloadNames();

// ------------------------------------------------------ shared helpers

/// XMark-like inputs: `num_docs` documents from distinct seeds plus the
/// ItemCat / PersonGeo tables as CSV text.
struct XmarkInputs {
  std::vector<std::string> docs;  ///< serialized XML
  std::string item_cat_csv;
  std::string person_geo_csv;
  int64_t num_items = 0;
  int64_t num_categories = 0;
  std::vector<int64_t> item_category;  ///< initial category per item
};

struct XmarkScale {
  int64_t items;
  int64_t persons;
  int64_t open_auctions;
  int64_t closed_auctions;
  int64_t categories;
};

/// `closed_scale`, when given, multiplies document d's closed-auction
/// count by closed_scale[d % closed_scale.size()]; items, persons and
/// categories stay the same in every document, so the tables fit all.
XmarkInputs MakeXmarkInputs(uint64_t seed, int num_docs,
                            const XmarkScale& scale,
                            const std::vector<double>& closed_scale = {});

/// closed_auction / open_auction over `document`, joined with ItemCat
/// (and PersonGeo): the two XMarkInstance query shapes.
ShapeSpec ClosedAuctionShape(const std::string& document);
ShapeSpec OpenAuctionShape(const std::string& document);

/// Registers ItemCat, PersonGeo and documents `doc_names[i]` =
/// inputs.docs[i].
Status RegisterXmark(xjoin::MultiModelDatabase* db, const XmarkInputs& in,
                     const std::vector<std::string>& doc_names);

/// Oracle digest, independent of the XJoin engine: the twig is matched
/// on its own by the baseline engine's TwigStack, each relation is read
/// as stored, and a hash join written here combines them (the baseline
/// engine's own combine step would form the ItemCat x PersonGeo cross
/// product first). Hashed over decoded strings.
xjoin::Result<Digest> OracleDigest(const xjoin::MultiModelDatabase& db,
                                   const ShapeSpec& shape);

/// The same oracle on a session's snapshot: each input is evaluated by
/// Engine::kBaseline through `session`, then combined as above.
xjoin::Result<Digest> SessionOracleDigest(const xjoin::Session& session,
                                          const ShapeSpec& shape,
                                          CodeDigester* digester);

/// The rows as the server ships them: cells decoded through `dict`.
xjoin::net::QueryResultSet ToResultSet(const xjoin::Relation& rel,
                                       const xjoin::Dictionary& dict);

/// Runs `shape` once through a session with metrics on and folds the
/// generic-join / xjoin counters into `out` as "<counter>.<shape>".
Status CountShape(const xjoin::MultiModelDatabase& db, const ShapeSpec& shape,
                  ExactCounts* out);

/// Times ComputeBound on the assembled query and reports lp.bound_ms and
/// lp.bound_tightness (= output rows / AGM bound).
Status ProbeBound(const xjoin::MultiModelDatabase& db, const ShapeSpec& shape,
                  Tracer* tracer, RunReport* report);

/// Cold prepare (after ClearPlanCache), prepare hit, and execute time for
/// `shape`, reported as core.prepare_cold_ms / core.prepare_hit_us /
/// core.execute_ms, medians over `reps`.
Status ProbePrepareExecute(xjoin::MultiModelDatabase* db,
                           const ShapeSpec& shape, int reps, Tracer* tracer,
                           RunReport* report);

/// Median of `reps` timed calls of `fn`, in ms. `fn` returns a Status;
/// the first failure is returned instead of a time.
template <typename Fn>
xjoin::Result<double> MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t start = NowNs();
    XJ_RETURN_NOT_OK(fn());
    ms.push_back(MsSince(start));
  }
  return Median(ms);
}

}  // namespace perfbench

#endif  // XJOIN_PERFBENCH_WORKLOADS_H_
