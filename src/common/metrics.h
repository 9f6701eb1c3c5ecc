// Execution metrics: named counters recorded by the join engines so the
// benchmark harness can report intermediate-result sizes, seek counts,
// and per-stage timings the same way the paper's Figure 3 does.
#ifndef XJOIN_COMMON_METRICS_H_
#define XJOIN_COMMON_METRICS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace xjoin {

/// A bag of named int64 counters. Engines take a Metrics* (may be null,
/// in which case recording is a no-op) and bump counters as they run.
class Metrics {
 public:
  /// Counters by name; the transparent comparator looks names up
  /// without building a std::string key.
  using CounterMap = std::map<std::string, int64_t, std::less<>>;

  /// Adds `delta` to counter `name`, creating it at 0 if absent. Only the
  /// first Add of a name allocates its key.
  void Add(std::string_view name, int64_t delta) { Slot(name) += delta; }

  /// Sets counter `name` to max(current, value); used for high-watermarks.
  void RecordMax(std::string_view name, int64_t value) {
    int64_t& slot = Slot(name);
    if (value > slot) slot = value;
  }

  /// Current value; 0 for unknown counters.
  int64_t Get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// All counters in name order (stable output for tests and benches).
  const CounterMap& counters() const { return counters_; }

  /// Adds every counter of `other` into this bag. This is an addition
  /// merge: exact for Add-style counters, which is all the per-shard /
  /// per-worker scratch Metrics of the parallel engines ever record —
  /// high-watermark (RecordMax) counters must not be merged this way.
  void MergeFrom(const Metrics& other) {
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
  }

  void Clear() { counters_.clear(); }

 private:
  int64_t& Slot(std::string_view name) {
    auto it = counters_.lower_bound(name);
    if (it == counters_.end() || it->first != name) {
      it = counters_.emplace_hint(it, std::string(name), 0);
    }
    return it->second;
  }

  CounterMap counters_;
};

/// Helper: bump a possibly-null Metrics. Takes a view, so a call with no
/// bag attached builds no key (names past the small-string limit, such
/// as "validate.candidates", would otherwise allocate on every call).
inline void MetricsAdd(Metrics* m, std::string_view name, int64_t delta) {
  if (m != nullptr) m->Add(name, delta);
}

/// Wall-clock stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the epoch to now.
  void Restart() { start_ = Clock::now(); }

  /// Microseconds elapsed since construction or the last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Seconds elapsed, as a double.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_METRICS_H_
