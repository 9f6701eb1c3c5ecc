#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

xjoin::Result<double> SupportedPercentile(std::vector<double> samples,
                                          double q, int min_beyond) {
  const size_t n = samples.size();
  if (n == 0) return Status::OutOfRange("no samples");
  // Nearest rank: the smallest value with at least q% of samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::max<size_t>(rank, 1);
  const size_t beyond = n - rank;
  if (beyond < static_cast<size_t>(min_beyond)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "p%g of %zu samples has only %zu beyond it (need %d)", q, n,
                  beyond, min_beyond);
    return Status::OutOfRange(buf);
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2;
}

Status CheckMixBoundaries(const std::vector<std::vector<double>>& modes,
                          const std::vector<double>& percentiles,
                          double margin) {
  size_t total = 0;
  std::vector<std::pair<double, size_t>> order;  // (median, count)
  for (const auto& m : modes) {
    if (m.empty()) continue;
    total += m.size();
    order.push_back({Median(m), m.size()});
  }
  if (total == 0) return Status::InvalidArgument("empty mix");
  std::sort(order.begin(), order.end());
  double cumulative = 0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    cumulative += 100.0 * static_cast<double>(order[i].second) / total;
    for (double p : percentiles) {
      if (std::fabs(p - cumulative) < margin) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "p%g lies %.1f points from the mode boundary at "
                      "%.1f%% (need %g)",
                      p, std::fabs(p - cumulative), cumulative, margin);
        return Status::InvalidArgument(buf);
      }
    }
  }
  return Status::OK();
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- digest

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Permutation that sorts column names, so row hashes do not depend on
/// an engine's column order.
std::vector<size_t> NameOrder(const std::vector<std::string>& names) {
  std::vector<size_t> idx(names.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  return idx;
}

uint64_t RowHash(const uint64_t* cells, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ cells[i]) + i;
  return h;
}

}  // namespace

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a, then a finaliser
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix(h);
}

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu rows/%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(sum));
  return buf;
}

Digest DigestResultSet(const xjoin::net::QueryResultSet& rs) {
  const std::vector<size_t> order = NameOrder(rs.columns);
  Digest d;
  std::vector<uint64_t> cells(order.size());
  for (const auto& row : rs.rows) {
    for (size_t i = 0; i < order.size(); ++i) {
      cells[i] = HashString(row[order[i]]);
    }
    d.sum += RowHash(cells.data(), cells.size());
    ++d.rows;
  }
  return d;
}

uint64_t CodeDigester::CodeHash(int64_t code) {
  if (code < 0) return HashString("#" + std::to_string(code));
  const size_t c = static_cast<size_t>(code);
  if (c >= hash_.size()) {
    hash_.resize(c + 1024, 0);
    known_.resize(c + 1024, 0);
  }
  if (!known_[c]) {
    hash_[c] = dict_->Contains(code) ? HashString(dict_->Decode(code))
                                     : HashString("#" + std::to_string(code));
    known_[c] = 1;
  }
  return hash_[c];
}

Digest CodeDigester::Of(const xjoin::Relation& rel) {
  const std::vector<size_t> order = NameOrder(rel.schema().attributes());
  Digest d;
  std::vector<uint64_t> cells(order.size());
  std::vector<const int64_t*> cols(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    cols[i] = rel.column(order[i]).data();
  }
  const size_t rows = rel.num_rows();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < cols.size(); ++i) cells[i] = CodeHash(cols[i][r]);
    d.sum += RowHash(cells.data(), cells.size());
  }
  d.rows = rows;
  return d;
}

Status CheckDigest(const std::string& what, const Digest& got,
                   const Digest& want) {
  if (got == want) return Status::OK();
  return Status::Internal("result mismatch on " + what + ": got " +
                          got.ToString() + ", oracle " + want.ToString());
}

// ---------------------------------------------------------------- trace

namespace {
thread_local int64_t t_current_span = 0;
}  // namespace

SpanScope::SpanScope(Tracer* tracer, const char* layer, const char* name,
                     int64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.layer = layer;
  span_.name = name;
  span_.request = request;
  span_.id = tracer_->Begin();
  span_.parent = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  tracer_->End(span_);
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run on the parent's thread, one after the
  // other, so their durations never overlap and simply subtract.
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out[s.layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------- output

void RunReport::Fail(const Status& status) {
  if (correct) first_error = status.ToString();
  correct = false;
}

std::string RunReport::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CalibrateMs() {
  const int64_t start = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) x = Mix(x + static_cast<uint64_t>(i));
  volatile uint64_t sink = x;
  (void)sink;
  return MsSince(start);
}

}  // namespace perfbench
