// Micro: the generic-join expansion loop on output-heavy workloads —
// where per-key dispatch and materialization dominate. Four shapes:
//
//   triangle  R(A,B) x S(B,C) x T(A,C) over dense random relations —
//             two CSR participants at the deepest level, so the raw
//             cursor policy drains it through the SIMD kernel
//   agm_tight the AGM-tight triangle (XJoin end to end) — skewed level
//             cardinalities, both the gallop and merge strategies
//   path2     R(A,B) x S(B,C) — the deepest level has one participant,
//             so it drains as bulk block copies
//   xmark     the XMark closed-auction join (XJoin end to end on the
//             lazy path tries of the paper's ablation — the virtual
//             cursor policy)
//
// The first table times each workload (best of --reps). A second sweep
// pins the SIMD dispatch override to each compiled kernel table
// (portable scalar, AVX2) and times the engine under each on the
// triangle and AGM-tight workloads — the scalar-vs-SIMD trajectory CI
// tracks as BENCH_simd.json. Every level's result and gj.* counters
// are checked identical to the portable table's before its timing is
// trusted (the kernels accelerate each seek's interior search, never
// the jump sequence).
//
// Flags: --reps=5          best-of repetitions per measurement
//        --n=220           triangle/path2 key domain (~n^2-row inputs)
//        --agm-scale=64    AGM-tight instance scale
//        --xmark-scale=32  XMark size multiplier
//        --json=PATH       also write the per-workload records there
//        --simd-json=PATH  also write the dispatch-sweep records there
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/generic_join.h"
#include "relational/trie.h"
#include "workload/adversarial.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

struct Record {
  std::string workload;
  double seconds = 0.0;
  int64_t rows = 0;
  int64_t seeks = 0;
};

Relation MakeBinary(const char* a, const char* b, int n, int num, int den) {
  auto schema = Schema::Make({a, b});
  Relation rel(*schema);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if ((i * num + j) % den == 0) rel.AppendRow({i, j});
    }
  }
  return rel;
}

void CheckEquivalent(const Relation& reference, const Relation& candidate,
                     const Metrics& reference_m, const Metrics& candidate_m,
                     const std::string& label) {
  XJ_CHECK(reference.ToTuples() == candidate.ToTuples())
      << label << ": result diverged from the portable kernel table";
  for (const auto& [name, value] : reference_m.counters()) {
    if (name.rfind("gj.", 0) == 0) {
      XJ_CHECK(candidate_m.Get(name) == value)
          << label << ": counter " << name << " diverged (portable " << value
          << ", dispatched " << candidate_m.Get(name) << ")";
    }
  }
}

// Executes one run and returns (seconds, result).
using RunFn = std::function<std::pair<double, Relation>(Metrics*)>;

// Best-of-`reps` timing of `run`, with the first run's row and seek
// counts.
Record Measure(const std::string& label, const RunFn& run, int reps) {
  Record record;
  record.workload = label;
  Metrics m;
  auto [seconds, rel] = run(&m);
  record.seconds = seconds;
  record.rows = static_cast<int64_t>(rel.num_rows());
  record.seeks = m.Get("gj.seeks");
  for (int rep = 1; rep < reps; ++rep) {
    Metrics mm;
    record.seconds = std::min(record.seconds, run(&mm).first);
  }
  return record;
}

RunFn GenericJoinRunFn(std::vector<JoinInput> inputs,
                       std::vector<std::string> order) {
  return [inputs = std::move(inputs),
          order = std::move(order)](Metrics* metrics) {
    GenericJoinOptions options;
    options.attribute_order = order;
    options.metrics = metrics;
    Timer timer;
    auto result = GenericJoin(inputs, options);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    return std::make_pair(seconds, *std::move(result));
  };
}

RunFn XJoinRunFn(const MultiModelQuery& query) {
  return [&query](Metrics* metrics) {
    XJoinOptions options;
    // Lazy path tries, so xmark keeps the virtual cursor policy in the
    // mix (no effect on the relation-only agm_tight).
    options.materialize_paths = false;
    options.metrics = metrics;
    Timer timer;
    auto result = ExecuteXJoin(query, options);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    return std::make_pair(seconds, *std::move(result));
  };
}

// One dispatch-sweep measurement: the engine pinned to one kernel table.
struct SimdRecord {
  std::string workload;
  std::string dispatch;
  double seconds = 0.0;
  int64_t rows = 0;
  int64_t seeks = 0;
};

// Times `run` under every kernel table that is both compiled in and
// runnable on this host, checking each level's result and counters
// against the portable table's run first.
void SweepDispatch(const std::string& label, const RunFn& run, int reps,
                   std::vector<SimdRecord>* out) {
  SetSimdDispatchOverride(SimdLevel::kScalar);
  Metrics scalar_m;
  auto [scalar_s, scalar_rel] = run(&scalar_m);
  ClearSimdDispatchOverride();
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (IntersectKernelFor(level) == nullptr) continue;  // not compiled in
    if (level > DetectedSimdLevel()) continue;           // not runnable here
    SetSimdDispatchOverride(level);
    SimdRecord record;
    record.workload = label;
    record.dispatch = SimdLevelName(level);
    Metrics m;
    auto [seconds, rel] = run(&m);
    CheckEquivalent(scalar_rel, rel, scalar_m, m,
                    label + "@" + record.dispatch);
    record.seconds = level == SimdLevel::kScalar
                         ? std::min(seconds, scalar_s)
                         : seconds;
    record.rows = static_cast<int64_t>(rel.num_rows());
    record.seeks = m.Get("gj.seeks");
    for (int rep = 1; rep < reps; ++rep) {
      Metrics mm;
      record.seconds = std::min(record.seconds, run(&mm).first);
    }
    ClearSimdDispatchOverride();
    out->push_back(record);
  }
}

void Run(int argc, char** argv) {
  const int reps = static_cast<int>(IntFlag(argc, argv, "reps", 5));
  const int n = static_cast<int>(IntFlag(argc, argv, "n", 220));
  const int agm_scale = static_cast<int>(IntFlag(argc, argv, "agm-scale", 64));
  const int64_t xmark_scale = IntFlag(argc, argv, "xmark-scale", 32);
  const char* json_path = FlagValue(argc, argv, "json");
  const char* simd_json_path = FlagValue(argc, argv, "simd-json");

  Banner("Generic join: expansion loop (output-heavy mix)");

  std::vector<Record> records;
  std::vector<SimdRecord> simd_records;

  {
    // Dense triangle: ~n^2/2 rows per relation, many closing wedges.
    Relation r = MakeBinary("A", "B", n, 7, 2);
    Relation s = MakeBinary("B", "C", n, 5, 2);
    Relation t = MakeBinary("A", "C", n, 3, 2);
    auto tr = RelationTrie::Build(r, {"A", "B"});
    auto ts = RelationTrie::Build(s, {"B", "C"});
    auto tt = RelationTrie::Build(t, {"A", "C"});
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    auto it = tt->NewIterator();
    std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                  {"S", {"B", "C"}, is.get()},
                                  {"T", {"A", "C"}, it.get()}};
    RunFn run = GenericJoinRunFn(inputs, {"A", "B", "C"});
    records.push_back(Measure("triangle", run, reps));
    SweepDispatch("triangle", run, reps, &simd_records);
  }

  {
    // AGM-tight triangle: the adversarial instance whose output meets
    // the worst-case bound — skewed level cardinalities, so the sweep
    // exercises both the gallop and merge strategies.
    auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}},
                                     agm_scale);
    XJ_CHECK(inst.ok()) << inst.status().ToString();
    MultiModelQuery query;
    for (size_t i = 0; i < inst->relations.size(); ++i) {
      query.relations.push_back(
          {"R" + std::to_string(i + 1), inst->relations[i].get()});
    }
    RunFn run = XJoinRunFn(query);
    records.push_back(Measure("agm_tight", run, reps));
    SweepDispatch("agm_tight", run, reps, &simd_records);
  }

  {
    // Two-hop path: the C level is covered by S alone, so it drains
    // with bulk block copies.
    Relation r = MakeBinary("A", "B", n, 3, 3);
    Relation s = MakeBinary("B", "C", n, 5, 3);
    auto tr = RelationTrie::Build(r, {"A", "B"});
    auto ts = RelationTrie::Build(s, {"B", "C"});
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                  {"S", {"B", "C"}, is.get()}};
    records.push_back(
        Measure("path2", GenericJoinRunFn(inputs, {"A", "B", "C"}), reps));
  }

  {
    XMarkOptions opts;
    opts.num_items = 200 * xmark_scale;
    opts.num_persons = 100 * xmark_scale;
    opts.num_open_auctions = 120 * xmark_scale;
    opts.num_closed_auctions = 100 * xmark_scale;
    XMarkInstance inst = MakeXMark(opts);
    MultiModelQuery query = inst.ClosedAuctionQuery();
    records.push_back(Measure("xmark.closed_auction", XJoinRunFn(query), reps));
  }

  Table table({"workload", "seconds", "|Q|", "seeks"});
  JsonArrayWriter json;
  for (const Record& r : records) {
    table.AddRow({r.workload, FmtSeconds(r.seconds), FmtInt(r.rows),
                  FmtInt(r.seeks)});
    json.BeginObject()
        .Field("bench", "bench_micro_gj")
        .Field("workload", r.workload)
        .Field("batched_s", r.seconds, 6)
        .Field("rows", r.rows)
        .Field("seeks", r.seeks);
  }
  table.Print();
  json.Emit(json_path);

  Banner("SIMD dispatch sweep: engine per kernel table");

  Table simd_table(
      {"workload", "dispatch", "seconds", "vs scalar", "|Q|", "seeks"});
  JsonArrayWriter simd_json;
  for (const SimdRecord& r : simd_records) {
    double scalar_s = 0.0;
    for (const SimdRecord& s : simd_records) {
      if (s.workload == r.workload && s.dispatch == std::string("scalar")) {
        scalar_s = s.seconds;
      }
    }
    simd_table.AddRow({r.workload, r.dispatch, FmtSeconds(r.seconds),
                       FmtRatio(scalar_s, r.seconds), FmtInt(r.rows),
                       FmtInt(r.seeks)});
    simd_json.BeginObject()
        .Field("bench", "bench_micro_gj.simd")
        .Field("workload", r.workload)
        .Field("dispatch", r.dispatch)
        .Field("seconds", r.seconds, 6)
        .Field("speedup_vs_scalar",
               r.seconds > 0 ? scalar_s / r.seconds : 0.0, 3)
        .Field("rows", r.rows)
        .Field("seeks", r.seeks);
  }
  simd_table.Print();
  simd_json.Emit(simd_json_path);
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
