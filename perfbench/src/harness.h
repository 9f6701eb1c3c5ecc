// Measurement plumbing shared by the three workloads: percentile rules,
// the query-mix boundary rule, metric naming, order-independent result
// digests, the in-memory span tracer, and the JSON result line.
#ifndef XJOIN_PERFBENCH_HARNESS_H_
#define XJOIN_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "net/frame.h"
#include "relational/relation.h"

namespace perfbench {

using xjoin::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile `q` (0 < q < 100) of `samples`, refused with
/// kOutOfRange when fewer than `min_beyond` samples lie above it: a tail
/// read off a handful of samples is noise, so the run fails instead of
/// printing it.
xjoin::Result<double> SupportedPercentile(std::vector<double> samples,
                                          double q, int min_beyond = 10);

/// The query-mix boundary rule. `modes` are the per-shape latency
/// samples of one workload's mix. Sorting the shapes by median latency
/// puts each shape's samples in one band of the pooled distribution; a
/// reported percentile that falls within `margin` points of cumulative
/// share of a band edge would flip between two shapes' modes from run to
/// run. Refuses with kInvalidArgument when any of `percentiles` is that
/// close to an edge.
Status CheckMixBoundaries(const std::vector<std::vector<double>>& modes,
                          const std::vector<double>& percentiles,
                          double margin = 10.0);

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

double Median(std::vector<double> values);

// --------------------------------------------------------------- digest

/// Order-independent result fingerprint: row count plus the wrapping sum
/// of a per-row hash. A row hash combines cell-string hashes in column
/// *name* order, so two engines that emit the same rows with permuted
/// columns or rows agree.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  std::string ToString() const;
};

uint64_t HashString(const std::string& s);

/// Digest of a wire result set (cells are already strings).
Digest DigestResultSet(const xjoin::net::QueryResultSet& rs);

/// Digest of an in-process result whose codes come from `dict`. Keeps a
/// code -> string-hash table so each code is decoded once per
/// dictionary; extend-on-miss, so a growing dictionary is fine.
class CodeDigester {
 public:
  explicit CodeDigester(const xjoin::Dictionary* dict) : dict_(dict) {}
  Digest Of(const xjoin::Relation& rel);

 private:
  uint64_t CodeHash(int64_t code);
  const xjoin::Dictionary* dict_;
  std::vector<uint64_t> hash_;
  std::vector<uint8_t> known_;
};

/// The correctness gate's single comparison: a mismatch is an error
/// naming the query.
Status CheckDigest(const std::string& what, const Digest& got,
                   const Digest& want);

// ---------------------------------------------------------------- trace

/// Spans recorded around calls into the program's layers, from the
/// benchmark's own code. Kept in memory; written out once at exit.
/// A null Tracer* (untraced runs) makes every SpanScope a no-op.
class Tracer {
 public:
  struct Span {
    const char* layer;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;   ///< 0 = root
    int64_t request;  ///< shared by all spans of one request
  };

  int64_t Begin() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void End(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  /// Self time per layer in ms: a span's duration minus the part of it
  /// its child spans cover.
  std::map<std::string, double> SelfMsByLayer() const;
  /// One JSON object per line.
  Status WriteJsonLines(const std::string& path) const;
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* layer, const char* name,
            int64_t request);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Span span_{};
  int64_t saved_parent_ = 0;
};

// ---------------------------------------------------------------- output

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run prints as its last stdout line.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Folds a failed gate into the report (correct = false) and remembers
  /// the first message for stderr.
  void Fail(const Status& status);
  std::string first_error;
  std::string ToJson() const;
};

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// A fixed pure-CPU loop; its time tells host drift from a regression.
double CalibrateMs();

}  // namespace perfbench

#endif  // XJOIN_PERFBENCH_HARNESS_H_
