// update_mix: writes beside reads, one caller, in process, on the same
// XMark data and shapes as xmark_serve. Each cycle applies one ItemCat
// delta (k item re-categorisations: k deletes + k inserts), then runs
// closed_auction on a fresh session; every kRefreshEvery-th cycle also
// replaces one document with a pre-generated new version and runs
// open_auction on it. Why: trie side-file patching with periodic
// compaction, plan rebind, snapshot swap, XML parse + node-index rebuild
// and cold path tries all sit on this path, so work moved from queries
// into registration or updates shows here.
//
// The documents differ in size: closed-auction counts graded in equal
// steps of about 10% from 0.7x to 1.4x of the base scale. With equal
// documents every read cost the same, so the reads split into the
// host's fast and slow memory modes (about 1.45x apart) and the run's
// p50 jumped between the two from run to run. Steps smaller than a
// read's own spread make the reads one continuous band instead, whose
// p50 moves smoothly with the share of slow host time.
#include <cmath>

#include "common/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using xjoin::MultiModelDatabase;

constexpr int kDocs = 8;
constexpr int kVersions = 2;  // texts per document slot, swapped on refresh
constexpr XmarkScale kScale = {2000, 1000, 1200, 1000, 20};

/// Closed-auction count of slot d's documents as a share of kScale's:
/// 0.7 * 2^(d / (kDocs - 1)).
std::vector<double> ClosedScale() {
  std::vector<double> out;
  for (int d = 0; d < kDocs; ++d) {
    out.push_back(0.7 * std::exp2(static_cast<double>(d) / (kDocs - 1)));
  }
  return out;
}
constexpr int64_t kRecats = 16;     // re-categorisations per delta
constexpr int64_t kRefreshEvery = 10;
constexpr int kClosed = 0;
constexpr int kOpen = 1;

class UpdateMix : public Workload {
 public:
  explicit UpdateMix(uint64_t seed)
      : seed_(seed),
        inputs_(MakeXmarkInputs(seed, kDocs * kVersions, kScale,
                                ClosedScale())) {
    for (int d = 0; d < kDocs; ++d) {
      doc_names_.push_back("auction" + std::to_string(d));
      specs_[kClosed].push_back(ClosedAuctionShape(doc_names_.back()));
      specs_[kOpen].push_back(OpenAuctionShape(doc_names_.back()));
    }
    shapes_ = {specs_[kClosed][0], specs_[kOpen][0]};
  }

  const char* name() const override { return "update_mix"; }
  const std::vector<ShapeSpec>& shapes() const override { return shapes_; }

  Status Setup(double* seconds) override {
    db_.reset();
    const int64_t start = NowNs();
    db_ = std::make_unique<MultiModelDatabase>();
    XJ_RETURN_NOT_OK(RegisterXmark(db_.get(), inputs_, doc_names_));
    const xjoin::Session session = db_->OpenSession();
    std::vector<xjoin::Relation> first;
    for (int k = 0; k < 2; ++k) {
      for (int d = 0; d < kDocs; ++d) {
        XJ_ASSIGN_OR_RETURN(xjoin::Relation rel,
                            session.Query(specs_[k][d].Text()));
        first.push_back(std::move(rel));
      }
    }
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    digester_ = std::make_unique<CodeDigester>(&db_->dictionary());
    for (int k = 0; k < 2; ++k) {
      for (int d = 0; d < kDocs; ++d) {
        XJ_RETURN_NOT_OK(Verify(session, specs_[k][d], first[k * kDocs + d]));
      }
    }
    // The delta schedule: items in a seeded order, k per delta, each
    // moved to a different category. Codes are interned up front so the
    // loop builds deltas without touching the dictionary.
    xjoin::Rng rng(seed_ * 31337 + 5);
    order_.resize(static_cast<size_t>(inputs_.num_items));
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int64_t>(i);
    rng.Shuffle(&order_);
    category_ = inputs_.item_category;
    item_code_.clear();
    cat_code_.clear();
    xjoin::Dictionary* dict = db_->mutable_dictionary();
    for (int64_t i = 0; i < inputs_.num_items; ++i) {
      item_code_.push_back(dict->Intern("item" + std::to_string(i)));
    }
    for (int64_t c = 0; c < inputs_.num_categories; ++c) {
      cat_code_.push_back(dict->Intern("cat" + std::to_string(c)));
    }
    rng_ = xjoin::Rng(seed_ * 7 + 3);
    cycle_ = 0;
    // Document slot d holds text d; text d + kDocs is its other version.
    held_.clear();
    for (int d = 0; d < kDocs; ++d) held_.push_back(d);
    refreshes_ = 0;
    return Status::OK();
  }

  Status Loop(double seconds, Tracer* tracer, LoopResult* out) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    double busy_ms = 0;
    while (NowNs() < deadline) {
      // Tracing alternates over whole rotations of the documents, so both
      // halves read every document.
      const bool traced = tracer != nullptr && (cycle_ / kDocs) % 2 == 0;
      CycleTimes t;
      const Status status = Cycle(traced ? tracer : nullptr, &t);
      out->attempted += t.attempted;
      if (!status.ok()) {
        ++out->failed;
        if (out->first_error.ok()) out->first_error = status;
        continue;
      }
      out->verified_reads += t.attempted - 1;  // all but the delta
      busy_ms += t.delta_ms + t.read_ms + t.refresh_ms;
      out->deltas.push_back(Sample{t.delta_ms, 0, traced});
      if (t.compacted) out->compact_ms.push_back(t.delta_ms);
      out->reads.push_back(Sample{t.read_ms, kClosed, traced});
      if (t.refreshed) {
        out->refresh.push_back(Sample{t.refresh_ms, kOpen, traced});
      }
    }
    out->busy_seconds += busy_ms / 1e3;
    return Status::OK();
  }

  Status Probe(Tracer* tracer, RunReport* report) override {
    // The write half of a refresh on its own: replace a document and
    // rebuild its index, without the first query on the new version.
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const int slot = NextRefreshSlot();
      const int64_t start = NowNs();
      SpanScope span(tracer, "core", "UpdateDocumentXml", 0);
      XJ_RETURN_NOT_OK(Replace(slot));
      ms.push_back(MsSince(start));
    }
    report->Set("core.update_document_ms", Median(ms), "ms");
    return Status::OK();
  }

  Status Counts(ExactCounts* out) override {
    // A fixed number of cycles on a fresh set-up: the cache-stat deltas
    // over it are exact with one caller.
    constexpr int kCycles = 60;
    double ignored = 0;
    XJ_RETURN_NOT_OK(Setup(&ignored));
    const xjoin::CacheStats before = db_->cache_stats();
    for (int i = 0; i < kCycles; ++i) {
      CycleTimes t;
      XJ_RETURN_NOT_OK(Cycle(nullptr, &t));
    }
    const xjoin::CacheStats after = db_->cache_stats();
    auto ratio = [](int64_t hits, int64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) / (hits + misses);
    };
    (*out)["core.plan_hit_ratio"] =
        ratio(after.plan_hits - before.plan_hits,
              after.plan_misses - before.plan_misses);
    (*out)["core.plan_rebinds"] =
        static_cast<double>(after.plan_rebinds - before.plan_rebinds);
    (*out)["core.trie_hit_ratio"] =
        ratio(after.trie_hits - before.trie_hits,
              after.trie_misses - before.trie_misses);
    (*out)["core.trie_patches"] =
        static_cast<double>(after.trie_patches - before.trie_patches);
    (*out)["core.trie_compactions"] =
        static_cast<double>(after.trie_compactions - before.trie_compactions);
    return Status::OK();
  }

 private:
  struct CycleTimes {
    double delta_ms = 0;
    double read_ms = 0;
    double refresh_ms = 0;
    bool compacted = false;
    bool refreshed = false;
    int64_t attempted = 0;
  };

  /// The engine's answer on `session` against the oracle on the same
  /// snapshot (untimed).
  Status Verify(const xjoin::Session& session, const ShapeSpec& shape,
                const xjoin::Relation& got) {
    XJ_ASSIGN_OR_RETURN(Digest want,
                        SessionOracleDigest(session, shape, digester_.get()));
    return CheckDigest(shape.Text(), digester_->Of(got), want);
  }

  int NextRefreshSlot() { return static_cast<int>(refreshes_++ % kDocs); }

  /// Swaps slot `slot`'s document for its other version (same size).
  Status Replace(int slot) {
    const int next = (held_[slot] + kDocs) % (kDocs * kVersions);
    held_[slot] = next;
    return db_->UpdateDocumentXml(doc_names_[slot],
                                  inputs_.docs[static_cast<size_t>(next)]);
  }

  Status Cycle(Tracer* tracer, CycleTimes* t) {
    const int64_t c = cycle_++;
    SpanScope root(tracer, "bench", "cycle", c);
    xjoin::RelationDelta delta;
    const int64_t n = static_cast<int64_t>(order_.size());
    for (int64_t i = 0; i < kRecats; ++i) {
      const int64_t item = order_[static_cast<size_t>((c * kRecats + i) % n)];
      int64_t& cat = category_[static_cast<size_t>(item)];
      const int64_t next =
          (cat + 1 +
           static_cast<int64_t>(rng_.NextBounded(
               static_cast<uint64_t>(inputs_.num_categories - 1)))) %
          inputs_.num_categories;
      delta.deletes.push_back({item_code_[item], cat_code_[cat]});
      delta.inserts.push_back({item_code_[item], cat_code_[next]});
      cat = next;
    }
    const int64_t compactions = db_->cache_stats().trie_compactions;
    ++t->attempted;
    int64_t t0 = NowNs();
    {
      SpanScope span(tracer, "core", "ApplyRelationDelta", c);
      XJ_RETURN_NOT_OK(db_->ApplyRelationDelta("ItemCat", delta));
    }
    t->delta_ms = MsSince(t0);
    t->compacted = db_->cache_stats().trie_compactions != compactions;

    ++t->attempted;
    XJ_RETURN_NOT_OK(
        TimedRead(tracer, c, specs_[kClosed][c % kDocs], &t->read_ms));
    if (c % kRefreshEvery != kRefreshEvery - 1) return Status::OK();

    ++t->attempted;
    const int slot = NextRefreshSlot();
    t0 = NowNs();
    {
      SpanScope span(tracer, "core", "UpdateDocumentXml", c);
      XJ_RETURN_NOT_OK(Replace(slot));
    }
    double read_ms = 0;
    XJ_RETURN_NOT_OK(TimedRead(tracer, c, specs_[kOpen][slot], &read_ms));
    t->refresh_ms = MsSince(t0);
    t->refreshed = true;
    return Status::OK();
  }

  /// A fresh session and one query, timed; then verified untimed.
  Status TimedRead(Tracer* tracer, int64_t c, const ShapeSpec& shape,
                   double* ms) {
    const int64_t t0 = NowNs();
    xjoin::Result<xjoin::Relation> rel = Status::OK();
    xjoin::Session session = [&] {
      SpanScope span(tracer, "core", "OpenSession", c);
      return db_->OpenSession();
    }();
    {
      SpanScope span(tracer, "core", "Session::Query", c);
      rel = session.Query(shape.Text());
    }
    *ms = MsSince(t0);
    XJ_RETURN_NOT_OK(rel.status());
    SpanScope span(tracer, "bench", "verify", c);
    return Verify(session, shape, *rel);
  }

  uint64_t seed_;
  XmarkInputs inputs_;
  std::vector<std::string> doc_names_;
  std::vector<ShapeSpec> specs_[2];  // [kind][doc]
  std::vector<ShapeSpec> shapes_;
  std::unique_ptr<MultiModelDatabase> db_;
  std::unique_ptr<CodeDigester> digester_;
  std::vector<int64_t> order_;
  std::vector<int64_t> category_;
  std::vector<int64_t> item_code_;
  std::vector<int64_t> cat_code_;
  xjoin::Rng rng_;
  int64_t cycle_ = 0;
  std::vector<int> held_;  // text index per document slot
  int64_t refreshes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeUpdateMix(uint64_t seed) {
  return std::make_unique<UpdateMix>(seed);
}

}  // namespace perfbench
