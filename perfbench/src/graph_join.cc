// graph_join: read-only cyclic relational joins in process. One caller
// replays prepared statements through Session::Execute with serial
// engine execution. Why: CSR tries, the intersection kernels and the
// raw-CSR executor do nearly all the work — no XML, no wire, no plan
// misses — so this is the workload that exercises kernel changes and
// the one where multi-model changes should show no effect.
#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "relational/csv.h"
#include "relational/trie.h"
#include "workload/adversarial.h"
#include "workloads.h"

namespace perfbench {
namespace {

using xjoin::MultiModelDatabase;

// A Zipf-skewed directed graph of ~80k distinct edges over 60k nodes;
// the three edge tries together are several MiB, past a 2 MiB L2.
constexpr int64_t kNodes = 60000;
constexpr int64_t kEdgeDraws = 80000;
constexpr double kZipfTheta = 0.5;
// AGM-tight triangle: 3 relations of n tuples whose join has n^1.5 rows
// (216k). It is the slower shape of the 3:1 mix, so p95 falls inside its
// mode rather than in the triangle's tail.
constexpr int64_t kAgmN = 3600;
constexpr int kTriangle = 0;
constexpr int kAgm = 1;

struct GraphInputs {
  std::string e1_csv, e2_csv, e3_csv;
  std::string a1_csv, a2_csv, a3_csv;
};

std::string EdgeCsv(const char* header,
                    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::string csv = header;
  for (const auto& [u, v] : edges) {
    csv += "n" + std::to_string(u) + ",n" + std::to_string(v) + "\n";
  }
  return csv;
}

GraphInputs MakeGraphInputs(uint64_t seed) {
  GraphInputs in;
  xjoin::Rng rng(seed * 104729 + 17);
  xjoin::ZipfGenerator zipf(kNodes, kZipfTheta);
  // Relabel so the hubs are spread over the id range instead of being
  // the smallest ids.
  std::vector<int64_t> label(kNodes);
  for (int64_t i = 0; i < kNodes; ++i) label[i] = i;
  rng.Shuffle(&label);
  std::vector<std::pair<int64_t, int64_t>> edges;
  edges.reserve(kEdgeDraws);
  for (int64_t i = 0; i < kEdgeDraws; ++i) {
    const int64_t u = label[zipf.Next(&rng)];
    const int64_t v = label[rng.NextBounded(kNodes)];
    if (u != v) edges.push_back({u, v});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  in.e1_csv = EdgeCsv("a,b\n", edges);
  in.e2_csv = EdgeCsv("b,c\n", edges);
  in.e3_csv = EdgeCsv("a,c\n", edges);

  auto agm = xjoin::MakeAgmTightInstance({{"x", "y"}, {"y", "z"}, {"x", "z"}},
                                         kAgmN);
  XJ_CHECK(agm.ok()) << agm.status().ToString();
  std::string* out[3] = {&in.a1_csv, &in.a2_csv, &in.a3_csv};
  for (int r = 0; r < 3; ++r) {
    const xjoin::Relation& rel = *agm->relations[r];
    *out[r] = rel.schema().attribute(0) + "," + rel.schema().attribute(1) + "\n";
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      *out[r] += agm->dict->Decode(rel.at(i, 0)) + "," +
                 agm->dict->Decode(rel.at(i, 1)) + "\n";
    }
  }
  return in;
}

Status RegisterGraph(MultiModelDatabase* db, const GraphInputs& in) {
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("E1", in.e1_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("E2", in.e2_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("E3", in.e3_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("A1", in.a1_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("A2", in.a2_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("A3", in.a3_csv));
  return Status::OK();
}

class GraphJoin : public Workload {
 public:
  explicit GraphJoin(uint64_t seed) : inputs_(MakeGraphInputs(seed)) {
    shapes_ = {ShapeSpec{"triangle", {"E1", "E2", "E3"}, "", "", {"a", "b", "c"}},
               ShapeSpec{"agm_triangle", {"A1", "A2", "A3"}, "", "",
                         {"x", "y", "z"}}};
    MultiModelDatabase oracle_db;
    init_ = RegisterGraph(&oracle_db, inputs_);
    for (const ShapeSpec& s : shapes_) {
      if (!init_.ok()) break;
      auto digest = OracleDigest(oracle_db, s);
      init_ = digest.status();
      if (digest.ok()) oracle_.push_back(*digest);
    }
  }

  const char* name() const override { return "graph_join"; }
  const std::vector<ShapeSpec>& shapes() const override { return shapes_; }

  Status Setup(double* seconds) override {
    XJ_RETURN_NOT_OK(init_);
    prepared_.clear();
    session_.reset();
    db_.reset();
    const int64_t start = NowNs();
    db_ = std::make_unique<MultiModelDatabase>();
    XJ_RETURN_NOT_OK(RegisterGraph(db_.get(), inputs_));
    session_ = std::make_unique<xjoin::Session>(db_->OpenSession());
    std::vector<xjoin::Relation> first;
    for (const ShapeSpec& s : shapes_) {
      XJ_ASSIGN_OR_RETURN(xjoin::PreparedQuery p, session_->Prepare(s.Text()));
      XJ_ASSIGN_OR_RETURN(xjoin::Relation rel, session_->Execute(p));
      prepared_.push_back(std::move(p));
      first.push_back(std::move(rel));
    }
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    digester_ = std::make_unique<CodeDigester>(&db_->dictionary());
    for (size_t i = 0; i < shapes_.size(); ++i) {
      XJ_RETURN_NOT_OK(CheckDigest(shapes_[i].Text(), digester_->Of(first[i]),
                                   oracle_[i]));
    }
    return Status::OK();
  }

  Status Loop(double seconds, Tracer* tracer, LoopResult* out) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    double busy_ms = 0;
    for (int64_t i = 0; NowNs() < deadline; ++i) {
      const int shape = (i % 4 == 3) ? kAgm : kTriangle;
      const bool traced = tracer != nullptr && (i / 4) % 2 == 0;
      Tracer* tr = traced ? tracer : nullptr;
      ++out->attempted;
      const int64_t t0 = NowNs();
      SpanScope read(tr, "bench", "read", i);
      xjoin::Result<xjoin::Relation> rel = [&] {
        SpanScope call(tr, "core", "Session::Execute", i);
        return session_->Execute(prepared_[shape]);
      }();
      const double ms = MsSince(t0);
      busy_ms += ms;
      Status verdict = rel.status();
      if (verdict.ok()) {
        SpanScope verify(tr, "bench", "verify", i);
        verdict = CheckDigest(shapes_[shape].Text(), digester_->Of(*rel),
                              oracle_[shape]);
      }
      if (!verdict.ok()) {
        ++out->failed;
        if (out->first_error.ok()) out->first_error = verdict;
        continue;
      }
      ++out->verified_reads;
      out->reads.push_back(Sample{ms, shape, traced});
    }
    out->busy_seconds += busy_ms / 1e3;
    return Status::OK();
  }

  Status Probe(Tracer* tracer, RunReport* report) override {
    for (size_t i = 0; i < shapes_.size(); ++i) {
      const ShapeSpec& s = shapes_[i];
      XJ_RETURN_NOT_OK(ProbePrepareExecute(db_.get(), s, 7, tracer, report));
      XJ_RETURN_NOT_OK(ProbeBound(*db_, s, tracer, report));
      // The same prepared plan with the intersection kernels pinned to
      // the scalar table, then on the host's widest table.
      for (const bool scalar : {true, false}) {
        if (scalar) {
          xjoin::SetSimdDispatchOverride(xjoin::SimdLevel::kScalar);
        } else {
          xjoin::ClearSimdDispatchOverride();
        }
        const xjoin::Result<double> ms = MedianMs(7, [&] {
          SpanScope span(tracer, "relational", "Execute(kernel)", 0);
          return session_->Execute(prepared_[i]).status();
        });
        xjoin::ClearSimdDispatchOverride();
        XJ_RETURN_NOT_OK(ms.status());
        report->Set(std::string("relational.execute_ms.") +
                        (scalar ? "scalar." : "native.") + s.name,
                    *ms, "ms");
      }
    }
    // Set-up's relational share: CSV parsing and trie builds.
    XJ_ASSIGN_OR_RETURN(const double csv, MedianMs(3, [&] {
      xjoin::Dictionary dict;
      SpanScope span(tracer, "relational", "ReadCsv", 0);
      return xjoin::ReadCsv(inputs_.e1_csv, {}, &dict).status();
    }));
    report->Set("relational.csv_ms", csv, "ms");
    for (const char* name : {"E1", "E2", "E3", "A1", "A2", "A3"}) {
      XJ_ASSIGN_OR_RETURN(const xjoin::Relation* rel, db_->relation(name));
      XJ_ASSIGN_OR_RETURN(const double ms, MedianMs(3, [&] {
        SpanScope span(tracer, "relational", "RelationTrie::Build", 0);
        return xjoin::RelationTrie::Build(*rel, rel->schema().attributes())
            .status();
      }));
      report->Set(std::string("relational.trie_build_ms.") + name, ms, "ms");
    }
    return Status::OK();
  }

  Status Counts(ExactCounts* out) override {
    XJ_RETURN_NOT_OK(init_);
    MultiModelDatabase db;
    XJ_RETURN_NOT_OK(RegisterGraph(&db, inputs_));
    for (const ShapeSpec& s : shapes_) XJ_RETURN_NOT_OK(CountShape(db, s, out));
    return Status::OK();
  }

 private:
  GraphInputs inputs_;
  std::vector<ShapeSpec> shapes_;
  std::vector<Digest> oracle_;
  Status init_;
  std::unique_ptr<MultiModelDatabase> db_;
  std::unique_ptr<xjoin::Session> session_;
  std::vector<xjoin::PreparedQuery> prepared_;
  std::unique_ptr<CodeDigester> digester_;
};

}  // namespace

std::unique_ptr<Workload> MakeGraphJoin(uint64_t seed) {
  return std::make_unique<GraphJoin>(seed);
}

}  // namespace perfbench
