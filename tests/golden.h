// Golden engine fixtures: per named workload, the result digest, row
// count, and every deterministic "gj." / "validate." / "xjoin." counter
// of one run, recorded once from the row-at-a-time scalar engine (one
// virtual Key/Next/Seek round per binding, one AppendRow per result
// row) before that engine was retired; the rejecting-path cases
// ("plan/reject*") and the XJoin cases' "/materialized" twins came
// later from the single loop and are held to the brute-force reference
// by xjoin_test. The single expansion loop must
// reproduce every record exactly under both of its cursor policies, at
// every thread count and SIMD dispatch level the suites sweep.
//
// Fixture file: tests/golden/engine_counters.txt, one record per line:
//   <case> digest=<hex> rows=<n> <counter>=<value> ...
// Lines starting with '#' are comments.
#ifndef XJOIN_TESTS_GOLDEN_H_
#define XJOIN_TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "core/database.h"
#include "relational/relation.h"

namespace xjoin::testing {

/// One recorded run: "digest", "rows", and the deterministic counters.
using GoldenRecord = std::map<std::string, std::string>;

/// FNV-1a (64-bit) over the schema's attribute names and every value in
/// row order — equal digests mean byte-identical result relations.
inline std::string ResultDigest(const Relation& rel) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const std::string& attr : rel.schema().attributes()) {
    for (unsigned char c : attr) mix(c);
    mix(0);
  }
  const size_t arity = rel.schema().attributes().size();
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    for (size_t c = 0; c < arity; ++c) {
      uint64_t v = static_cast<uint64_t>(rel.at(r, c));
      for (int b = 0; b < 8; ++b) mix((v >> (8 * b)) & 0xff);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The record a run produces: digest, row count, and the counters whose
/// values are deterministic (timing counters are excluded by prefix).
inline GoldenRecord ObserveRun(const Relation& rel, const Metrics& metrics) {
  GoldenRecord record;
  record["digest"] = ResultDigest(rel);
  record["rows"] = std::to_string(rel.num_rows());
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("gj.", 0) == 0 || name.rfind("validate.", 0) == 0 ||
        name.rfind("xjoin.", 0) == 0) {
      record[name] = std::to_string(value);
    }
  }
  return record;
}

/// Every record of the fixture file, parsed once per process.
inline const std::map<std::string, GoldenRecord>& GoldenFixtures() {
  static const auto* fixtures = [] {
    auto* out = new std::map<std::string, GoldenRecord>();
    std::ifstream in(std::string(XJOIN_TESTS_DIR) +
                     "/golden/engine_counters.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, field;
      fields >> name;
      GoldenRecord& record = (*out)[name];
      while (fields >> field) {
        size_t eq = field.find('=');
        if (eq == std::string::npos) continue;
        record[field.substr(0, eq)] = field.substr(eq + 1);
      }
    }
    return out;
  }();
  return *fixtures;
}

/// Holds one run to the golden record `name`.
inline void ExpectGolden(const std::string& name, const Relation& rel,
                         const Metrics& metrics) {
  const auto& fixtures = GoldenFixtures();
  auto it = fixtures.find(name);
  ASSERT_NE(it, fixtures.end()) << "no golden record named " << name;
  EXPECT_EQ(ObserveRun(rel, metrics), it->second) << "golden record " << name;
}

/// The rejecting-path fixture. Its `item` nodes carry shared text
/// values (g0..g2), so the value join of the twig item[B]/D's two paths
/// admits (item, B, D) combinations no single item embeds: final
/// validation rejects rows, and structural pruning cuts prefixes. The
/// records "plan/reject*" hold kRejectingQuery over it.
inline constexpr char kRejectingQuery[] = "Q(*) := T, mixed : item[B]/D";

inline Status RegisterRejectingFixture(MultiModelDatabase* db) {
  std::string xml = "<items>";
  for (int i = 0; i < 10; ++i) {
    xml += "<item>g" + std::to_string(i % 3) + "<B>b" +
           std::to_string(i % 4) + "</B><D>d" + std::to_string(i % 5) +
           "</D></item>";
  }
  xml += "</items>";
  XJ_RETURN_NOT_OK(
      db->RegisterRelationCsv("T", "B,E\nb0,e0\nb1,e1\nb2,e0\nb3,e1\n"));
  return db->RegisterDocumentXml("mixed", xml);
}

}  // namespace xjoin::testing

#endif  // XJOIN_TESTS_GOLDEN_H_
