// Expansion-loop equivalence against golden fixtures. The generic-join
// engine runs one expansion loop over two level-cursor policies — raw
// CSR frames when every input exposes RawTrieSpans, virtual
// TrieIterators otherwise — with every deepest level drained
// block-at-a-time into a columnar ResultBatch. Each workload here must
// reproduce, byte for byte and counter for counter, the record the
// retired row-at-a-time scalar engine left in
// tests/golden/engine_counters.txt (see tests/golden.h): under the raw
// policy, under the virtual policy (inputs wrapped in
// VirtualOnlyIterator, with and without raw level spans), at every
// compiled SIMD dispatch level, serial and sharded. The wide fixtures
// have per-prefix deepest runs and outputs beyond one batch, so partial
// PushRun splits and multi-block drains stay covered. Also covers the
// ResultBatch / Relation::AppendColumnBlock substrate directly.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/simd.h"
#include "core/generic_join.h"
#include "core/xjoin.h"
#include "relational/intersect_kernels.h"
#include "relational/result_batch.h"
#include "relational/trie.h"
#include "tests/golden.h"
#include "tests/test_util.h"
#include "workload/adversarial.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin {
namespace {

using testing::ExpectGolden;
using testing::VirtualOnlyIterator;

const std::vector<int> kThreadCounts = {1, 4};

// How the inputs are presented to the engine: as-is (plain CSR tries
// take the raw policy), or wrapped so the virtual policy runs — with
// raw level spans still visible to its deepest-level kernel, or with
// every raw hook hidden so it leapfrogs through the virtual protocol.
enum Presentation { kAsIs, kVirtualSpans, kVirtual };
constexpr Presentation kPresentations[] = {kAsIs, kVirtualSpans, kVirtual};

const char* PresentationName(Presentation p) {
  switch (p) {
    case kAsIs:
      return "as-is";
    case kVirtualSpans:
      return "virtual+spans";
    case kVirtual:
      return "virtual";
  }
  return "?";
}

// Pins the SIMD dispatch override for a scope, restoring on exit.
class DispatchOverrideGuard {
 public:
  explicit DispatchOverrideGuard(SimdLevel level) {
    SetSimdDispatchOverride(level);
  }
  ~DispatchOverrideGuard() { ClearSimdDispatchOverride(); }
};

// Every dispatch level compiled into this binary and runnable here.
std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (IntersectKernelFor(level) == nullptr) continue;
    if (level > DetectedSimdLevel()) continue;
    levels.push_back(level);
  }
  return levels;
}

Relation MakeRelation(std::vector<Tuple> rows,
                      const std::vector<std::string>& attrs) {
  auto schema = Schema::Make(attrs);
  return *Relation::FromTuples(*schema, std::move(rows));
}

// Tries plus root iterators over a set of relations.
struct TrieSet {
  std::vector<std::unique_ptr<RelationTrie>> tries;
  std::vector<std::unique_ptr<TrieIterator>> iters;
  std::vector<JoinInput> inputs;

  void Add(const std::string& name, const Relation& rel,
           const std::vector<std::string>& order) {
    auto trie = RelationTrie::Build(rel, order);
    ASSERT_TRUE(trie.ok()) << trie.status().ToString();
    tries.push_back(std::make_unique<RelationTrie>(*std::move(trie)));
    iters.push_back(tries.back()->NewIterator());
    inputs.push_back(JoinInput{name, order, nullptr});
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i].iterator = iters[i].get();
    }
  }
};

// Runs GenericJoin over `inputs` at threads {1, 4}, every presentation,
// and every dispatch level, holding each run to golden record
// "<name>/t<threads>".
void ExpectJoinGolden(const std::string& name,
                      const std::vector<JoinInput>& inputs,
                      const GenericJoinOptions& base) {
  for (int threads : kThreadCounts) {
    const std::string record = name + "/t" + std::to_string(threads);
    for (SimdLevel level : RunnableLevels()) {
      DispatchOverrideGuard guard(level);
      for (Presentation p : kPresentations) {
        std::vector<std::unique_ptr<TrieIterator>> wrappers;
        std::vector<JoinInput> run = inputs;
        if (p != kAsIs) {
          for (JoinInput& in : run) {
            wrappers.push_back(std::make_unique<VirtualOnlyIterator>(
                in.iterator, p == kVirtualSpans));
            in.iterator = wrappers.back().get();
          }
        }
        GenericJoinOptions opts = base;
        opts.num_threads = threads;
        Metrics m;
        opts.metrics = &m;
        auto out = GenericJoin(run, opts);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        SCOPED_TRACE(std::string("level=") + SimdLevelName(level) +
                     " inputs=" + PresentationName(p));
        ExpectGolden(record, *out, m);
      }
    }
  }
}

// Runs ExecuteXJoin at threads {1, 4} and every dispatch level, holding
// each run to golden record "<name>/t<threads>".
void ExpectXJoinGolden(const std::string& name, const MultiModelQuery& query,
                       const XJoinOptions& base) {
  for (int threads : kThreadCounts) {
    const std::string record = name + "/t" + std::to_string(threads);
    for (SimdLevel level : RunnableLevels()) {
      DispatchOverrideGuard guard(level);
      XJoinOptions opts = base;
      opts.num_threads = threads;
      Metrics m;
      opts.metrics = &m;
      auto out = ExecuteXJoin(query, opts);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      SCOPED_TRACE(std::string("level=") + SimdLevelName(level));
      ExpectGolden(record, *out, m);
    }
  }
}

GenericJoinOptions OrderOptions(std::vector<std::string> order) {
  GenericJoinOptions opts;
  opts.attribute_order = std::move(order);
  return opts;
}

// --- substrate: ResultBatch and AppendColumnBlock ------------------------

TEST(ResultBatchTest, FlushPreservesRowOrderAndClears) {
  auto schema = Schema::Make({"A", "B"});
  Relation out(*schema);
  ResultBatch batch(2, 3);
  EXPECT_TRUE(batch.empty());
  batch.PushRow({1, 10});
  batch.PushRow({2, 20});
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch.full());
  batch.PushRow({3, 30});
  EXPECT_TRUE(batch.full());
  batch.Flush(&out);
  EXPECT_TRUE(batch.empty());
  batch.PushRow({4, 40});
  batch.Flush(&out);
  batch.Flush(&out);  // empty flush is a no-op
  EXPECT_EQ(out.ToTuples(),
            (std::vector<Tuple>{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
}

TEST(ResultBatchTest, PushRunBroadcastsPrefixColumns) {
  auto schema = Schema::Make({"A", "B", "C"});
  Relation out(*schema);
  ResultBatch batch(3, 8);
  std::vector<int64_t> prefix = {7, 8, 999};  // last entry unused
  std::vector<int64_t> keys = {1, 2, 5};
  batch.PushRun(prefix, keys.data(), keys.size());
  batch.Flush(&out);
  EXPECT_EQ(out.ToTuples(),
            (std::vector<Tuple>{{7, 8, 1}, {7, 8, 2}, {7, 8, 5}}));
}

TEST(RelationTest, AppendColumnBlockMatchesAppendRow) {
  auto schema = Schema::Make({"A", "B"});
  Relation by_row(*schema);
  Relation by_block(*schema);
  by_block.Reserve(4);
  std::vector<int64_t> a = {1, 2, 3, 4};
  std::vector<int64_t> b = {9, 8, 7, 6};
  for (size_t i = 0; i < a.size(); ++i) by_row.AppendRow({a[i], b[i]});
  const int64_t* cols[] = {a.data(), b.data()};
  by_block.AppendColumnBlock(cols, 2);
  by_block.AppendColumnBlock(&cols[0], 0);  // empty block is a no-op
  const int64_t* rest[] = {a.data() + 2, b.data() + 2};
  by_block.AppendColumnBlock(rest, 2);
  EXPECT_EQ(by_row.ToTuples(), by_block.ToTuples());
}

TEST(GoldenFixtureTest, FileIsPresentAndParsed) {
  ASSERT_FALSE(testing::GoldenFixtures().empty());
  for (const auto& [name, record] : testing::GoldenFixtures()) {
    EXPECT_EQ(record.count("digest"), 1u) << name;
    EXPECT_EQ(record.count("gj.output"), 1u) << name;
  }
}

// --- engine level: GenericJoin over relation tries -----------------------

// Triangle join R(A,B) x S(B,C) x T(A,C): the deepest level intersects
// two inputs, so the raw policy drains it through the SIMD kernel.
TrieSet Triangle(int n) {
  std::vector<Tuple> r_rows, s_rows, t_rows;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if ((i * 7 + j * 3) % 5 == 0) r_rows.push_back({i, j});
      if ((i * 5 + j * 2) % 4 == 0) s_rows.push_back({i, j});
      if ((i * 3 + j * 11) % 6 == 0) t_rows.push_back({i, j});
    }
  }
  TrieSet set;
  set.Add("R", MakeRelation(r_rows, {"A", "B"}), {"A", "B"});
  set.Add("S", MakeRelation(s_rows, {"B", "C"}), {"B", "C"});
  set.Add("T", MakeRelation(t_rows, {"A", "C"}), {"A", "C"});
  return set;
}

TEST(GoldenGenericJoinTest, Triangle) {
  TrieSet fx = Triangle(20);
  ExpectJoinGolden("gj/triangle20", fx.inputs, OrderOptions({"A", "B", "C"}));
}

TEST(GoldenGenericJoinTest, ShardedTriangle) {
  TrieSet fx = Triangle(20);
  for (int shards : {3, 16}) {
    GenericJoinOptions opts = OrderOptions({"A", "B", "C"});
    opts.num_shards = shards;
    ExpectJoinGolden("gj/triangle20/s" + std::to_string(shards), fx.inputs,
                     opts);
  }
}

// Composite (level-0 x level-1) sharding cuts and re-enters the deepest
// level mid-range; every drain must respect both bounds.
TEST(GoldenGenericJoinTest, CompositeSharding) {
  std::vector<Tuple> r_rows, s_rows, t_rows;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 40; ++b) {
      if ((a * 7 + b) % 3 != 0) r_rows.push_back({a, b});
    }
  }
  for (int b = 0; b < 40; ++b) {
    for (int c = 0; c < 6; ++c) {
      if ((b + c) % 2 == 0) s_rows.push_back({b, c});
    }
  }
  for (int a = 0; a < 2; ++a) {
    for (int c = 0; c < 6; ++c) t_rows.push_back({a, c});
  }
  TrieSet fx;
  fx.Add("R", MakeRelation(r_rows, {"A", "B"}), {"A", "B"});
  fx.Add("S", MakeRelation(s_rows, {"B", "C"}), {"B", "C"});
  fx.Add("T", MakeRelation(t_rows, {"A", "C"}), {"A", "C"});
  GenericJoinOptions opts = OrderOptions({"A", "B", "C"});
  opts.num_shards = 8;
  opts.shard_depth = 2;
  ExpectJoinGolden("gj/composite/s8d2", fx.inputs, opts);
}

// Two-relation join R(A,B) x S(B,C): attribute C is covered by S alone,
// so the deepest level takes the single-participant drain (NextBlock
// on the virtual policy, array copies on the raw one).
TEST(GoldenGenericJoinTest, TwoHopDrain) {
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 30; ++j) {
      if ((i + j) % 3 == 0) r_rows.push_back({i, j});
      if ((i * 2 + j) % 4 != 0) s_rows.push_back({i, j});
    }
  }
  TrieSet fx;
  fx.Add("R", MakeRelation(r_rows, {"A", "B"}), {"A", "B"});
  fx.Add("S", MakeRelation(s_rows, {"B", "C"}), {"B", "C"});
  ExpectJoinGolden("gj/twohop30", fx.inputs, OrderOptions({"A", "B", "C"}));
}

// Wide two-hop: every B has 1500..3000 C values (and B = 2 also carries
// the INT64_MAX key an exclusive NextBlock bound cannot reach), so one
// prefix's run spans several blocks and runs split across batch
// boundaries.
TEST(GoldenGenericJoinTest, WideTwoHopDrain) {
  std::vector<Tuple> r_rows, s_rows;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 6; ++b) {
      if ((a + b) % 2 == 0) r_rows.push_back({a, b});
    }
  }
  for (int b = 0; b < 6; ++b) {
    for (int c = 0; c < 1500 + 300 * b; ++c) s_rows.push_back({b, c});
  }
  s_rows.push_back({2, std::numeric_limits<int64_t>::max()});
  TrieSet fx;
  fx.Add("R", MakeRelation(r_rows, {"A", "B"}), {"A", "B"});
  fx.Add("S", MakeRelation(s_rows, {"B", "C"}), {"B", "C"});
  ExpectJoinGolden("gj/twohop_wide", fx.inputs, OrderOptions({"A", "B", "C"}));
}

// Wide triangle: every (a, b) prefix intersects ~4500 even C values
// with ~3000 multiples of 3, a 1501-key deepest run per prefix — the
// kernel drain fills and resumes across blocks.
TrieSet WideTriangle() {
  std::vector<Tuple> r_rows, s_rows, t_rows;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) r_rows.push_back({a, b});
  }
  for (int b = 0; b < 4; ++b) {
    for (int c = 0; c <= 9000; c += 2) s_rows.push_back({b, c});
  }
  for (int a = 0; a < 4; ++a) {
    for (int c = 0; c <= 9000; c += 3) t_rows.push_back({a, c});
  }
  TrieSet set;
  set.Add("R", MakeRelation(r_rows, {"A", "B"}), {"A", "B"});
  set.Add("S", MakeRelation(s_rows, {"B", "C"}), {"B", "C"});
  set.Add("T", MakeRelation(t_rows, {"A", "C"}), {"A", "C"});
  return set;
}

TEST(GoldenGenericJoinTest, WideTriangle) {
  TrieSet fx = WideTriangle();
  ExpectJoinGolden("gj/triangle_wide", fx.inputs,
                   OrderOptions({"A", "B", "C"}));
}

// The same with a prefix filter: prunes one level-1 key outright and
// drops deepest bindings one by one, so wide runs take the per-key
// bind + filter path.
bool WideFilter(size_t depth, const std::vector<int64_t>& prefix, Metrics*) {
  if (depth == 1) return prefix[1] != 2;
  if (depth == 2) return prefix[2] % 7 != 3;
  return true;
}

TEST(GoldenGenericJoinTest, WideTriangleFiltered) {
  TrieSet fx = WideTriangle();
  GenericJoinOptions opts = OrderOptions({"A", "B", "C"});
  opts.prefix_filter = WideFilter;
  ExpectJoinGolden("gj/triangle_wide_filtered", fx.inputs, opts);
}

// One-attribute plans: the deepest level is level 0, so shard ranges
// cut the drain itself. Both relations end in INT64_MAX.
TEST(GoldenGenericJoinTest, UnaryDrainAndIntersection) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<Tuple> u_rows, v_rows;
  for (int64_t k = 0; k < 9000; k += 2) u_rows.push_back({k});
  for (int64_t k = 0; k < 9000; k += 3) v_rows.push_back({k});
  u_rows.push_back({kMax});
  v_rows.push_back({kMax});
  TrieSet single;
  single.Add("U", MakeRelation(u_rows, {"A"}), {"A"});
  ExpectJoinGolden("gj/unary_single", single.inputs, OrderOptions({"A"}));
  TrieSet pair;
  pair.Add("U", MakeRelation(u_rows, {"A"}), {"A"});
  pair.Add("V", MakeRelation(v_rows, {"A"}), {"A"});
  ExpectJoinGolden("gj/unary_pair", pair.inputs, OrderOptions({"A"}));
}

TEST(GoldenGenericJoinTest, AgmTightTriangle) {
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  TrieSet fx;
  fx.Add("R1", *inst->relations[0], {"A", "B"});
  fx.Add("R2", *inst->relations[1], {"B", "C"});
  fx.Add("R3", *inst->relations[2], {"A", "C"});
  ExpectJoinGolden("gj/agm64", fx.inputs, OrderOptions({"A", "B", "C"}));
}

// --- XJoin level: paper, adversarial, and XMark workloads ----------------

// The paper's lazy path tries (materialize_paths = false) run on the
// virtual policy; the default materialized path tries turn every input
// into a CSR trie, so the raw policy runs end to end. The two record
// the same digest and rows, but not always the same binding and seek
// counts: a lazy trie keeps prefixes with no full-depth chain below
// them (docs/ARCHITECTURE.md, "The TrieIterator contract"), a
// materialized one drops them.
XJoinOptions LazyPaths() {
  XJoinOptions lazy;
  lazy.materialize_paths = false;
  return lazy;
}

TEST(GoldenXJoinTest, PaperExampleWorkloads) {
  for (PaperSchema schema :
       {PaperSchema::kExample33, PaperSchema::kExample34}) {
    for (PaperDataMode mode :
         {PaperDataMode::kAdversarial, PaperDataMode::kRandom}) {
      PaperInstance inst = MakePaperInstance(5, schema, mode);
      std::string name = "xjoin/paper";
      name += schema == PaperSchema::kExample33 ? "33" : "34";
      name += mode == PaperDataMode::kAdversarial ? "/adversarial" : "/random";
      ExpectXJoinGolden(name, inst.Query(), LazyPaths());
      ExpectXJoinGolden(name + "/materialized", inst.Query(), XJoinOptions{});
    }
  }
}

TEST(GoldenXJoinTest, PaperExampleWithPruning) {
  PaperInstance inst = MakePaperInstance(5, PaperSchema::kExample34,
                                         PaperDataMode::kRandom);
  // structural_pruning exercises the per-binding filter inside every
  // drain.
  XJoinOptions pruning = LazyPaths();
  pruning.structural_pruning = true;
  ExpectXJoinGolden("xjoin/paper34/random/pruning", inst.Query(), pruning);
}

TEST(GoldenXJoinTest, AdversarialAgmTightWorkload) {
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
  }
  ExpectXJoinGolden("xjoin/agm64", q, XJoinOptions{});
}

TEST(GoldenXJoinTest, XMarkWorkloads) {
  XMarkOptions opts;
  opts.num_items = 40;
  opts.num_persons = 25;
  opts.num_open_auctions = 30;
  opts.num_closed_auctions = 25;
  XMarkInstance inst = MakeXMark(opts);
  ExpectXJoinGolden("xjoin/xmark/closed", inst.ClosedAuctionQuery(),
                    LazyPaths());
  ExpectXJoinGolden("xjoin/xmark/open", inst.OpenAuctionQuery(), LazyPaths());
  ExpectXJoinGolden("xjoin/xmark/closed/materialized",
                    inst.ClosedAuctionQuery(), XJoinOptions{});
  ExpectXJoinGolden("xjoin/xmark/open/materialized", inst.OpenAuctionQuery(),
                    XJoinOptions{});
}

}  // namespace
}  // namespace xjoin
