// xmark_serve: read-only multi-model serving over loopback. An
// in-process XJoinServer (2 workers, serial query execution) serves one
// client connection driven as a closed loop. (Two client threads made
// the run-to-run spread of every metric 2-3x wider on a shared 4-vCPU
// host: the extra runnable threads turn neighbour load into queueing.)
// Why: this is the paper's subject on the path users hit — the wire
// codec, session and plan-cache hits, lazy path tries and twig
// validation do most of the work, while the SIMD intersection kernels do
// little.
#include <sched.h>

#include "net/client.h"
#include "net/server.h"
#include "workloads.h"
#include "xml/node_index.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xjoin::MultiModelDatabase;
namespace net = xjoin::net;

// Four documents of ~37k nodes each: their node indexes and the tables'
// tries are well past a 2 MiB L2 and well inside the 256 MiB trie cache.
constexpr int kDocs = 4;
constexpr XmarkScale kScale = {2000, 1000, 1200, 1000, 20};
constexpr int kClosed = 0;
constexpr int kOpen = 1;

class XmarkServe : public Workload {
 public:
  explicit XmarkServe(uint64_t seed)
      : inputs_(MakeXmarkInputs(seed, kDocs, kScale)) {
    CPU_ZERO(&saved_affinity_);
    have_saved_affinity_ =
        sched_getaffinity(0, sizeof(saved_affinity_), &saved_affinity_) == 0;
    for (int d = 0; d < kDocs; ++d) {
      doc_names_.push_back("auction" + std::to_string(d));
      specs_[kClosed].push_back(ClosedAuctionShape(doc_names_.back()));
      specs_[kOpen].push_back(OpenAuctionShape(doc_names_.back()));
    }
    shapes_ = {specs_[kClosed][0], specs_[kOpen][0]};
    // The oracle runs once per shape and document on a database of its
    // own (its own dictionary too: digests compare decoded strings).
    MultiModelDatabase oracle_db;
    init_ = RegisterXmark(&oracle_db, inputs_, doc_names_);
    for (int k = 0; k < 2 && init_.ok(); ++k) {
      for (int d = 0; d < kDocs && init_.ok(); ++d) {
        auto digest = OracleDigest(oracle_db, specs_[k][d]);
        init_ = digest.status();
        if (digest.ok()) oracle_[k].push_back(*digest);
      }
    }
  }

  ~XmarkServe() override { StopServer(); }

  const char* name() const override { return "xmark_serve"; }
  const std::vector<ShapeSpec>& shapes() const override { return shapes_; }

  Status Setup(double* seconds) override {
    XJ_RETURN_NOT_OK(init_);
    StopServer();
    db_.reset();
    PinToCurrentCpu();
    const int64_t start = NowNs();
    db_ = std::make_unique<MultiModelDatabase>();
    XJ_RETURN_NOT_OK(RegisterXmark(db_.get(), inputs_, doc_names_));
    net::ServerOptions options;
    options.num_workers = 2;
    options.query_num_threads = 1;
    server_ = std::make_unique<net::XJoinServer>(db_.get(), options);
    XJ_RETURN_NOT_OK(server_->Start());
    net::XJoinClient client(ClientOptions(0));
    std::vector<net::QueryResultSet> first;
    for (int k = 0; k < 2; ++k) {
      for (int d = 0; d < kDocs; ++d) {
        net::QueryRequest request;
        request.text = specs_[k][d].Text();
        XJ_ASSIGN_OR_RETURN(net::QueryResultSet rs, client.Query(request));
        first.push_back(std::move(rs));
      }
    }
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    for (int k = 0; k < 2; ++k) {
      for (int d = 0; d < kDocs; ++d) {
        XJ_RETURN_NOT_OK(CheckDigest(specs_[k][d].Text(),
                                     DigestResultSet(first[k * kDocs + d]),
                                     oracle_[k][d]));
      }
    }
    return Status::OK();
  }

  Status Loop(double seconds, Tracer* tracer, LoopResult* out) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    double busy_ms = 0;
    net::XJoinClient client(ClientOptions(1));
    for (int64_t i = 0; NowNs() < deadline; ++i) {
      const int kind = (i % 4 == 3) ? kOpen : kClosed;
      const int doc = static_cast<int>((i + i / 4) % kDocs);
      // Tracing alternates over whole 16-read periods, each of which
      // visits every (shape, document) pair, so both halves see the same
      // work.
      const bool traced = tracer != nullptr && (i / 16) % 2 == 0;
      Tracer* tr = traced ? tracer : nullptr;
      net::QueryRequest request;
      request.text = specs_[kind][doc].Text();
      ++out->attempted;
      const int64_t t0 = NowNs();
      SpanScope read(tr, "bench", "read", i);
      xjoin::Result<net::QueryResultSet> rs = [&] {
        SpanScope call(tr, "net", "XJoinClient::Query", i);
        return client.Query(request);
      }();
      const double ms = MsSince(t0);
      busy_ms += ms;
      Status verdict = rs.status();
      if (verdict.ok()) {
        SpanScope verify(tr, "bench", "verify", i);
        verdict = CheckDigest(request.text, DigestResultSet(*rs),
                              oracle_[kind][doc]);
      }
      if (!verdict.ok()) {
        ++out->failed;
        if (out->first_error.ok()) out->first_error = verdict;
        continue;
      }
      ++out->verified_reads;
      out->reads.push_back(Sample{ms, kind, traced});
    }
    retries_ += client.stats().retries;
    out->busy_seconds += busy_ms / 1e3;
    return Status::OK();
  }

  Status Probe(Tracer* tracer, RunReport* report) override {
    // With the loop over and the server idle, split one request per
    // shape into in-process query, result encode, decode, and the rest
    // (framing, socket, scheduling) — the wire share.
    constexpr int kReps = 31;
    net::XJoinClient client(ClientOptions(2));
    for (int k = 0; k < 2; ++k) {
      const ShapeSpec& spec = specs_[k][0];
      net::QueryRequest request;
      request.text = spec.Text();
      XJ_ASSIGN_OR_RETURN(const double rt, MedianMs(kReps, [&] {
        SpanScope span(tracer, "net", "XJoinClient::Query", 0);
        return client.Query(request).status();
      }));
      const xjoin::Session session = db_->OpenSession();
      xjoin::Result<xjoin::Relation> rel = Status::OK();
      XJ_ASSIGN_OR_RETURN(const double query, MedianMs(kReps, [&] {
        SpanScope span(tracer, "core", "Session::Query", 0);
        rel = session.Query(request.text);
        return rel.status();
      }));
      const net::QueryResultSet rs = ToResultSet(*rel, db_->dictionary());
      xjoin::Result<std::string> payload = Status::OK();
      XJ_ASSIGN_OR_RETURN(const double enc, MedianMs(kReps, [&] {
        SpanScope span(tracer, "net", "EncodeQueryResultSet", 0);
        payload = net::EncodeQueryResultSet(rs);
        return payload.status();
      }));
      XJ_ASSIGN_OR_RETURN(const double dec, MedianMs(kReps, [&] {
        SpanScope span(tracer, "net", "DecodeQueryResultSet", 0);
        return net::DecodeQueryResultSet(*payload).status();
      }));
      report->Set("net.encode_ms." + spec.name, enc, "ms");
      report->Set("net.decode_ms." + spec.name, dec, "ms");
      report->Set("net.wire_ms." + spec.name, rt - query - enc - dec, "ms");
      XJ_RETURN_NOT_OK(ProbePrepareExecute(db_.get(), spec, 11, tracer, report));
      XJ_RETURN_NOT_OK(ProbeBound(*db_, spec, tracer, report));
    }
    retries_ += client.stats().retries;
    const net::ServerStats stats = server_->stats();
    report->Set("net.retries", static_cast<double>(retries_), "count");
    report->Set("net.shed",
                static_cast<double>(stats.shed_inflight +
                                    stats.rejected_conn_limit +
                                    stats.shed_draining),
                "count");
    XJ_ASSIGN_OR_RETURN(const double open, MedianMs(201, [&] {
      SpanScope span(tracer, "core", "OpenSession", 0);
      (void)db_->OpenSession();
      return Status::OK();
    }));
    report->Set("core.session_open_us", open * 1e3, "us");
    // The xml layer's share of set-up: parse and index one document.
    xjoin::Result<xjoin::XmlDocument> doc = Status::OK();
    XJ_ASSIGN_OR_RETURN(const double parse, MedianMs(5, [&] {
      SpanScope span(tracer, "xml", "ParseXml", 0);
      doc = xjoin::ParseXml(inputs_.docs[0]);
      return doc.status();
    }));
    XJ_ASSIGN_OR_RETURN(const double index, MedianMs(5, [&] {
      xjoin::Dictionary dict;
      SpanScope span(tracer, "xml", "NodeIndex::Build", 0);
      (void)xjoin::NodeIndex::Build(&*doc, &dict);
      return Status::OK();
    }));
    report->Set("xml.parse_ms", parse, "ms");
    report->Set("xml.index_ms", index, "ms");
    report->Set("xml.nodes", static_cast<double>(doc->num_nodes()), "count");
    return Status::OK();
  }

  Status Counts(ExactCounts* out) override {
    XJ_RETURN_NOT_OK(init_);
    MultiModelDatabase db;
    XJ_RETURN_NOT_OK(RegisterXmark(&db, inputs_, doc_names_));
    for (int k = 0; k < 2; ++k) {
      const ShapeSpec& spec = specs_[k][0];
      XJ_RETURN_NOT_OK(CountShape(db, spec, out));
      XJ_ASSIGN_OR_RETURN(xjoin::Relation rel,
                          db.OpenSession().Query(spec.Text()));
      XJ_ASSIGN_OR_RETURN(
          std::string payload,
          net::EncodeQueryResultSet(ToResultSet(rel, db.dictionary())));
      (*out)["net.response_kb." + spec.name] =
          static_cast<double>(payload.size()) / 1024.0;
    }
    return Status::OK();
  }

 private:
  net::ClientOptions ClientOptions(int id) const {
    net::ClientOptions options;
    options.port = server_->port();
    options.jitter_seed = static_cast<uint64_t>(id) + 1;
    return options;
  }

  /// One connection and serial execution keep one thread runnable at a
  /// time, so the client, the event loop and the worker share one CPU.
  /// Unpinned, each request's three cross-CPU wake-ups made the wire
  /// share of latency swing with the host's load. Threads the server
  /// starts later inherit the mask; StopServer gives the calling thread
  /// its original mask back, so workloads run after this one are not
  /// pinned.
  static void PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

  void StopServer() {
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    if (have_saved_affinity_) {
      (void)sched_setaffinity(0, sizeof(saved_affinity_), &saved_affinity_);
    }
  }

  XmarkInputs inputs_;
  std::vector<std::string> doc_names_;
  std::vector<ShapeSpec> specs_[2];   // [kind][doc]
  std::vector<Digest> oracle_[2];     // [kind][doc]
  std::vector<ShapeSpec> shapes_;
  Status init_;
  std::unique_ptr<MultiModelDatabase> db_;
  std::unique_ptr<net::XJoinServer> server_;
  int64_t retries_ = 0;
  cpu_set_t saved_affinity_;
  bool have_saved_affinity_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeXmarkServe(uint64_t seed) {
  return std::make_unique<XmarkServe>(seed);
}

}  // namespace perfbench
