// perfbench_xjoin: the repository's end-to-end benchmark.
//
//   perfbench_xjoin --workload <xmark_serve|graph_join|update_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>]
//   perfbench_xjoin --selftest
//
// --trace 0 prints the end-to-end metrics of one workload. --trace 1 is
// the per-layer run: it runs every workload with spans on alternate
// stretches of the loop, times single layers, checks that the exact
// counts repeat on a second set-up with the same seed and that the
// correctness gate holds on the next seed, and writes the spans to
// <trace-dir>. The last stdout line is the JSON result; a human summary
// goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 7;
const char* const kLayers[] = {"bench", "net", "core", "relational", "xml",
                               "lp"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir = ".bench_trace";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0 &&
          (args->trace == 0 || args->trace == 1));
}

std::vector<double> Ms(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

/// p50 and p95 of the reads, refused when the tail is unsupported or a
/// percentile sits near a boundary between two shapes' latency modes.
Status ReadPercentiles(const LoopResult& loop, size_t num_shapes, double* p50,
                       double* p95) {
  std::vector<std::vector<double>> modes(num_shapes);
  for (const Sample& s : loop.reads) modes[s.shape].push_back(s.ms);
  XJ_RETURN_NOT_OK(CheckMixBoundaries(modes, {50, 95}));
  XJ_ASSIGN_OR_RETURN(*p50, SupportedPercentile(Ms(loop.reads), 50));
  XJ_ASSIGN_OR_RETURN(*p95, SupportedPercentile(Ms(loop.reads), 95));
  return Status::OK();
}

/// Untraced run of one workload: the end-to-end metrics.
Status RunMeasured(const Args& args, RunReport* report) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) return Status::InvalidArgument("unknown workload");
  // The set-ups are spread over the run, each followed by an equal slice
  // of the loop, so their median averages the host's fast and slow
  // phases instead of sampling only the run's first second.
  std::vector<double> setups;
  LoopResult loop;
  for (int i = 0; i < kSetupReps; ++i) {
    double s = 0;
    XJ_RETURN_NOT_OK(w->Setup(&s));
    setups.push_back(s);
    XJ_RETURN_NOT_OK(w->Loop(args.seconds / kSetupReps, nullptr, &loop));
  }
  report->attempted = loop.attempted;
  report->failed = loop.failed;
  if (!loop.first_error.ok()) report->Fail(loop.first_error);
  std::fprintf(stderr, "%s: set-ups", w->name());
  for (double s : setups) std::fprintf(stderr, " %.3fs", s);
  std::fprintf(stderr, "; %zu reads", loop.reads.size());
  for (size_t k = 0; k < w->shapes().size(); ++k) {
    std::vector<double> ms;
    for (const Sample& s : loop.reads) {
      if (s.shape == static_cast<int>(k)) ms.push_back(s.ms);
    }
    std::fprintf(stderr, ", %s n=%zu p50=%.3fms", w->shapes()[k].name.c_str(),
                 ms.size(), Median(ms));
  }
  std::fprintf(stderr, "\n");
  if (!loop.deltas.empty()) {
    std::fprintf(stderr,
                 "update_mix: %zu deltas p50=%.3fms (%zu compacting), "
                 "%zu refreshes p50=%.3fms\n",
                 loop.deltas.size(), Median(Ms(loop.deltas)),
                 loop.compact_ms.size(), loop.refresh.size(),
                 Median(Ms(loop.refresh)));
  }
  double p50 = 0, p95 = 0;
  XJ_RETURN_NOT_OK(ReadPercentiles(loop, w->shapes().size(), &p50, &p95));
  report->Set("setup_s", Median(setups), "s");
  report->Set("query_p50_ms", p50, "ms");
  report->Set("query_p95_ms", p95, "ms");
  report->Set("qps", static_cast<double>(loop.verified_reads) /
                         loop.busy_seconds, "1/s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  return Status::OK();
}

/// Traced run: every workload, per-layer metrics.
Status RunTraced(const Args& args, RunReport* report) {
  Tracer tracer;
  ExactCounts counts;
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> w = MakeWorkload(name, args.seed);
    double s = 0;
    XJ_RETURN_NOT_OK(w->Setup(&s));
    LoopResult loop;
    XJ_RETURN_NOT_OK(w->Loop(args.seconds / 3, &tracer, &loop));
    report->attempted += loop.attempted;
    report->failed += loop.failed;
    if (!loop.first_error.ok()) report->Fail(loop.first_error);
    std::vector<double> on, off;
    for (const Sample& r : loop.reads) (r.traced ? on : off).push_back(r.ms);
    report->Set("trace.overhead." + name, Median(on) / Median(off), "ratio");
    if (!loop.deltas.empty()) {
      XJ_ASSIGN_OR_RETURN(double d50, SupportedPercentile(Ms(loop.deltas), 50));
      XJ_ASSIGN_OR_RETURN(double d95, SupportedPercentile(Ms(loop.deltas), 95));
      report->Set("core.delta_p50_ms", d50, "ms");
      report->Set("core.delta_p95_ms", d95, "ms");
      report->Set("core.refresh_p50_ms", Median(Ms(loop.refresh)), "ms");
      report->Set("relational.compact_share",
                  static_cast<double>(loop.compact_ms.size()) /
                      static_cast<double>(loop.deltas.size()),
                  "ratio");
      if (loop.compact_ms.empty()) {
        return Status::OutOfRange("no delta compacted a trie");
      }
      report->Set("relational.compact_ms", Median(loop.compact_ms), "ms");
    }
    XJ_RETURN_NOT_OK(w->Probe(&tracer, report));
    w.reset();

    // Determinism: the exact counts of two fresh set-ups from one seed
    // must agree bit for bit.
    ExactCounts a, b;
    XJ_RETURN_NOT_OK(MakeWorkload(name, args.seed)->Counts(&a));
    XJ_RETURN_NOT_OK(MakeWorkload(name, args.seed)->Counts(&b));
    if (a != b) {
      for (const auto& [key, value] : a) {
        if (b.count(key) == 0 || b[key] != value) {
          std::fprintf(stderr, "count %s differs between runs (first %.17g)\n",
                       key.c_str(), value);
        }
      }
      return Status::Internal(name + ": exact counts differ across two runs "
                              "with one seed");
    }
    counts.insert(a.begin(), a.end());

    // The correctness gate on a second seed.
    std::unique_ptr<Workload> next = MakeWorkload(name, args.seed + 1);
    XJ_RETURN_NOT_OK(next->Setup(&s));
    LoopResult check;
    XJ_RETURN_NOT_OK(next->Loop(0.3, nullptr, &check));
    if (!check.first_error.ok()) return check.first_error;
  }
  for (const auto& [key, value] : counts) {
    if (key.rfind("rows.", 0) == 0) continue;  // compared, not reported
    const bool ratio = key.find("ratio") != std::string::npos;
    const bool kb = key.find("_kb") != std::string::npos;
    report->Set(key, value, ratio ? "ratio" : kb ? "KiB" : "count");
  }
  // Time per seek: the probe's execute median over the exact seek count.
  for (const auto& [key, value] : counts) {
    if (key.rfind("gj.seeks.", 0) != 0 || value <= 0) continue;
    const std::string shape = key.substr(std::strlen("gj.seeks."));
    auto it = report->metrics.find("core.execute_ms." + shape);
    if (it == report->metrics.end()) continue;
    report->Set("gj.ns_per_seek." + shape, it->second.value * 1e6 / value,
                "ns");
  }
  const std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    if (it == self.end()) {
      return Status::Internal(std::string("no spans in layer ") + layer);
    }
    report->Set(std::string("trace.self_ms.") + layer, it->second, "ms");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/spans-seed" +
                           std::to_string(args.seed) + ".jsonl";
  XJ_RETURN_NOT_OK(tracer.WriteJsonLines(path));
  std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.size(),
               path.c_str());
  return Status::OK();
}

// ------------------------------------------------------------ self-tests

int g_selftest_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_selftest_failures;
  }
}

/// Checks the benchmark's own rules; returns false on any failure.
bool SelfTest() {
  g_selftest_failures = 0;
  // Percentile support: p95 needs 10 samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  Expect(!SupportedPercentile(v, 95).ok(), "p95 of 199 samples refused");
  v.push_back(200);
  auto p95 = SupportedPercentile(v, 95);
  Expect(p95.ok() && *p95 == 190, "p95 of 200 samples is the 190th");
  auto p50 = SupportedPercentile(v, 50);
  Expect(p50.ok() && *p50 == 100, "p50 of 200 samples is the 100th");

  // Mix boundaries: 3:1 keeps p50 and p95 clear of the edge at 75%;
  // 1:1 puts p50 on its edge; 9:1 puts p95 5 points from the edge at 90%.
  auto mix = [](int fast, int slow) {
    return std::vector<std::vector<double>>{std::vector<double>(fast, 1.0),
                                            std::vector<double>(slow, 5.0)};
  };
  Expect(CheckMixBoundaries(mix(300, 100), {50, 95}).ok(), "3:1 mix accepted");
  Expect(CheckMixBoundaries(mix(100, 300), {50, 95}).ok(), "1:3 mix accepted");
  Expect(!CheckMixBoundaries(mix(200, 200), {50, 95}).ok(), "1:1 mix refused");
  Expect(!CheckMixBoundaries(mix(360, 40), {50, 95}).ok(), "9:1 mix refused");

  // Metric names.
  Expect(ValidMetricName("query_p50_ms"), "plain name accepted");
  Expect(ValidMetricName("gj.ns_per_seek.agm_triangle"), "dotted name");
  Expect(ValidMetricName("a-b.9"), "dash and digit accepted");
  Expect(!ValidMetricName(""), "empty name refused");
  Expect(!ValidMetricName("a b"), "space refused");
  Expect(!ValidMetricName("a/b"), "slash refused");
  Expect(!ValidMetricName("_a"), "leading underscore refused");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters refused");

  // The oracle agrees with the baseline engine's own evaluation of the
  // whole query, the wire and in-process digests agree, and the gate
  // fires on a corrupted oracle. No XJoin here: an engine defect shows
  // as a failed read in the workloads, not as a failed self-test.
  {
    xjoin::MultiModelDatabase db;
    const XmarkInputs in = MakeXmarkInputs(99, 1, {60, 30, 40, 40, 5});
    Expect(RegisterXmark(&db, in, {"doc"}).ok(), "tiny XMark registers");
    const ShapeSpec shape = ClosedAuctionShape("doc");
    auto oracle = OracleDigest(db, shape);
    xjoin::QueryOptions baseline;
    baseline.engine = xjoin::Engine::kBaseline;
    auto rel = db.OpenSession().Query(shape.Text(), baseline);
    Expect(oracle.ok() && rel.ok(), "tiny XMark oracle and baseline run");
    if (oracle.ok() && rel.ok()) {
      rel->SortAndDedup();
      CodeDigester digester(&db.dictionary());
      const Digest got = digester.Of(*rel);
      Expect(got.rows > 0, "tiny XMark query has rows");
      Expect(CheckDigest("q", got, *oracle).ok(), "oracle matches baseline");
      Expect(DigestResultSet(ToResultSet(*rel, db.dictionary())) == got,
             "wire digest equals in-process digest");
      Digest bad = *oracle;
      bad.sum ^= 1;
      Expect(!CheckDigest("q", got, bad).ok(), "gate fires on a bad digest");
      bad = *oracle;
      bad.rows += 1;
      Expect(!CheckDigest("q", got, bad).ok(), "gate fires on a bad count");
    }
  }
  return g_selftest_failures == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_xjoin --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
                 "       perfbench_xjoin --selftest\n");
    return 2;
  }
  if (args.selftest) {
    const bool ok = SelfTest();
    std::fprintf(stderr, "selftest: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  if (!SelfTest()) return 3;
  bool known = false;
  for (const std::string& n : WorkloadNames()) known |= n == args.workload;
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  RunReport report;
  const double calib_start = CalibrateMs();
  const Status status =
      args.trace ? RunTraced(args, &report) : RunMeasured(args, &report);
  const double calib_end = CalibrateMs();
  std::fprintf(stderr, "host.calib_ms start=%.3f end=%.3f\n", calib_start,
               calib_end);
  if (!status.ok()) {
    std::fprintf(stderr, "run refused: %s\n", status.ToString().c_str());
    return 1;
  }
  if (args.trace) report.Set("host.calib_ms", (calib_start + calib_end) / 2, "ms");
  for (const auto& [name, metric] : report.metrics) {
    if (!ValidMetricName(name)) {
      std::fprintf(stderr, "bad metric name %s\n", name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  if (!report.correct) {
    std::fprintf(stderr, "correctness gate: %s\n", report.first_error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
