#include "core/generic_join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "relational/intersect_kernels.h"
#include "relational/result_batch.h"
#include "relational/schema.h"

namespace xjoin {

bool LeapfrogAlign(const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  if (iters.empty()) return false;
  if (iters.size() == 1) return !iters[0]->AtEnd();
  for (TrieIterator* it : iters) {
    if (it->AtEnd()) return false;
  }
  for (;;) {
    int64_t max_key = iters[0]->Key();
    for (TrieIterator* it : iters) max_key = std::max(max_key, it->Key());
    bool all_equal = true;
    for (TrieIterator* it : iters) {
      if (it->Key() < max_key) {
        it->Seek(max_key);
        if (seeks != nullptr) ++*seeks;
        if (it->AtEnd()) return false;
        if (it->Key() > max_key) {
          all_equal = false;  // overshoot: new max, restart
          break;
        }
      }
    }
    if (all_equal) return true;
  }
}

bool LeapfrogAdvance(const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  if (iters.empty()) return false;
  iters[0]->Next();
  if (seeks != nullptr) ++*seeks;
  if (iters[0]->AtEnd()) return false;
  return LeapfrogAlign(iters, seeks);
}

namespace {

// Per-depth plan entry: which inputs participate in the attribute bound
// at that depth.
struct LevelPlan {
  std::string attribute;
  std::vector<size_t> participants;  // indices into inputs
};

// Restriction of the leading attributes to a lexicographic half-open
// prefix range; a shard's slice of the expansion space. `depth` is the
// number of constrained levels: 1 shards on level-0 keys alone, 2 on
// (level-0, level-1) composite prefixes — the fallback when the level-0
// key domain is smaller than the requested shard count. Unbounded by
// default (serial run).
struct PrefixRange {
  int depth = 1;
  bool has_lo = false;
  int64_t lo[2] = {0, 0};  // inclusive lexicographic lower bound
  bool has_hi = false;
  int64_t hi[2] = {0, 0};  // exclusive lexicographic upper bound
};

// The iterative (explicit-stack) expansion loop of Algorithm 1 over one
// key range. The loop is written once (Expand) as a template over a
// level-cursor policy:
//   * RawCursors, when every input exposes its whole trie as raw CSR
//     arrays (RawTrieSpans): explicit frame stacks navigated through the
//     child_begin arrays, leapfrog seeks through the runtime-dispatched
//     SIMD kernel (relational/intersect_kernels.h), no virtual calls;
//   * VirtualCursors otherwise: the TrieIterator protocol, so lazy path
//     tries and delta-merging tries join through the same loop.
// The loop owns everything both policies share: budget and cancel
// ticking, the shard lo/hi cuts at depths 0 and 1, bind / filter /
// descend / backtrack, and the deepest-level drains, which stage every
// binding in a columnar ResultBatch flushed in blocks. A policy supplies
// only its cursor primitives (open with lead swap, align/advance, key,
// close, and bulk key runs), each counting exactly the seeks the
// virtual leapfrog would, so results and every counter are independent
// of the policy and of the SIMD dispatch level.
//
// All mutable state lives in the Engine and its policy, so one Engine
// per shard over Clone()d iterators is data-race-free by construction.
// The engine only accumulates raw counters; the driver merges and
// publishes them, which keeps serial and sharded metric output
// consistent.
class Engine {
 public:
  Engine(const std::vector<JoinInput>& inputs,
         const std::vector<LevelPlan>& plan, const PrefixFilter& filter,
         Metrics* filter_metrics, Relation* out, BudgetTracker* budget)
      : inputs_(inputs),
        plan_(plan),
        filter_(filter),
        filter_metrics_(filter_metrics),
        out_(out),
        budget_(budget != nullptr && budget->limited() ? budget : nullptr),
        row_bytes_(static_cast<int64_t>(plan.size()) * 8),
        prefix_(plan.size(), 0),
        level_totals_(plan.size(), 0),
        batch_(plan.size(), kBlock),
        kernel_(&ActiveIntersectKernel()),
        kernel_buf_(kBlock) {}

  void Run(const PrefixRange& range) {
    RawCursors raw(this);
    if (raw.Attach()) {
      Expand(raw, range);
    } else {
      VirtualCursors virt(this);
      Expand(virt, range);
    }
    batch_.Flush(out_);
  }

  const std::vector<int64_t>& level_totals() const { return level_totals_; }
  int64_t seeks() const { return seeks_; }
  int64_t total_intermediate() const { return total_intermediate_; }

 private:
  static constexpr size_t kBlock = kDefaultResultBatchCapacity;

  template <typename Cursors>
  void Expand(Cursors& cursors, const PrefixRange& range) {
    const size_t num_levels = plan_.size();
    size_t depth = 0;
    bool entering = true;
    for (;;) {
      // Admission budget: sample the deadline periodically, poll the
      // shared violation flag — which also observes any attached
      // cancellation tokens — every binding so all shards abort fast.
      // Partial output is discarded by the driver, so an early break
      // needs no cursor cleanup.
      if (budget_ != nullptr) {
        if ((++budget_ticks_ & 4095) == 0) {
          budget_->CheckDeadline();
          // Observer-only fault site: lets tests trigger (e.g.) a
          // cancel deterministically mid-expansion. Never fails.
          (void)XJOIN_FAULT("gj.tick");
        }
        if (budget_->violated()) break;
      }
      bool have;
      if (entering) {
        // Open every participant, lead with the one holding the fewest
        // remaining keys (advancing steps the lead, so the smallest
        // level drives the intersection), and skip straight to the
        // shard's lexicographic lower bound.
        cursors.Open(depth);
        if (range.has_lo) {
          if (depth == 0) {
            cursors.SkipTo(depth, range.lo[0]);
          } else if (depth == 1 && range.depth == 2 &&
                     prefix_[0] == range.lo[0]) {
            cursors.SkipTo(depth, range.lo[1]);
          }
        }
        if (depth == 0) {
          // Pre-size the output columns from the lead's remaining keys —
          // a free O(1) scale signal — capped so selective joins don't
          // over-allocate (growth past the reserve stays geometric).
          constexpr int64_t kMaxReserveRows = int64_t{1} << 16;
          out_->Reserve(static_cast<size_t>(std::clamp<int64_t>(
              cursors.LeadEstimate(depth), 0, kMaxReserveRows)));
        }
        if (depth + 1 == num_levels) {
          // The deepest level drains whole for this prefix, then
          // backtracks.
          DrainDeepest(cursors, depth, range);
          cursors.Close(depth);
          if (depth == 0) break;
          --depth;
          entering = false;
          continue;
        }
        have = cursors.Align(depth);
      } else {
        have = cursors.Advance(depth);
      }
      if (have && range.has_hi) {
        // Past this shard's slice? hi is an exclusive lexicographic
        // bound on the constrained prefix: with depth-2 ranges a level-0
        // key equal to hi[0] must still descend (keys below hi[1] are
        // ours), and the cut happens at level 1.
        if (depth == 0) {
          int64_t key = cursors.Key(depth);
          if (range.depth == 1 ? key >= range.hi[0] : key > range.hi[0]) {
            have = false;
          }
        } else if (depth == 1 && range.depth == 2 &&
                   prefix_[0] == range.hi[0] &&
                   cursors.Key(depth) >= range.hi[1]) {
          have = false;
        }
      }
      if (have) {
        prefix_[depth] = cursors.Key(depth);
        ++level_totals_[depth];
        ++total_intermediate_;
        if (!filter_ || filter_(depth, prefix_, filter_metrics_)) {
          ++depth;  // descend (the deepest level never reaches here)
          entering = true;
        } else {
          entering = false;  // pruned: advance at this level
        }
        continue;
      }
      // Level exhausted: close it and backtrack.
      cursors.Close(depth);
      if (depth == 0) break;
      --depth;
      entering = false;
    }
  }

  // Drains the entire deepest level for the current prefix. Called with
  // freshly opened, lead-swapped, lo-bounded cursors; afterwards the
  // caller closes the level. Dispatch: bulk key runs when a single
  // input covers the level, the SIMD kernel when the policy exposes
  // every participant as a raw key range, a per-key leapfrog otherwise —
  // identical bindings, seeks, and output in all three.
  template <typename Cursors>
  void DrainDeepest(Cursors& cursors, size_t depth, const PrefixRange& range) {
    // Shard upper bounds can constrain levels 0 and 1 only; fold the
    // applicable one into a single exclusive key bound. A deepest level
    // at depth 0 means a one-attribute plan, and composite (depth-2)
    // ranges only arise on plans with >= 2 levels — so the bound at
    // depth 0 is always a plain exclusive level-0 cut.
    bool has_hi = false;
    int64_t hi = 0;
    if (range.has_hi) {
      if (depth == 0) {
        XJ_DCHECK(range.depth == 1);
        has_hi = true;
        hi = range.hi[0];
      } else if (depth == 1 && range.depth == 2 &&
                 prefix_[0] == range.hi[0]) {
        has_hi = true;
        hi = range.hi[1];
      }
    }
    if (cursors.Width(depth) == 1) {
      DrainSingle(cursors, depth, has_hi, hi);
      return;
    }
    IntersectStrategy strategy;
    if (cursors.KernelCursors(depth, &kernel_cursors_, &strategy)) {
      DrainWithKernel(strategy, depth, has_hi, hi);
    } else {
      DrainPerKey(cursors, depth, has_hi, hi);
    }
  }

  // Single participant: the intersection is the level itself, so the
  // drain degenerates to bulk key runs (array copies, NextBlock), and
  // filter-free runs land in the batch column-at-a-time. Each drained
  // key corresponds to exactly one scalar Next, hence seeks_ += n.
  template <typename Cursors>
  void DrainSingle(Cursors& cursors, size_t depth, bool has_hi, int64_t hi) {
    const int64_t bound = has_hi ? hi : std::numeric_limits<int64_t>::max();
    for (;;) {
      const int64_t* keys = nullptr;
      size_t n = cursors.NextRun(depth, bound, &keys);
      seeks_ += static_cast<int64_t>(n);
      if (n > 0) EmitDeepestRun(depth, keys, n);
      if (BudgetAborted()) return;
      if (n < kBlock) break;
    }
    // An exclusive bound cannot express "no bound" for a key equal to
    // INT64_MAX; bind any such straggler key by key.
    if (!has_hi) DrainPerKey(cursors, depth, false, 0);
  }

  // The per-key leapfrog drain: bind every aligned key below the bound.
  template <typename Cursors>
  void DrainPerKey(Cursors& cursors, size_t depth, bool has_hi, int64_t hi) {
    for (bool have = cursors.Align(depth); have;
         have = cursors.Advance(depth)) {
      if (BudgetAborted()) return;
      int64_t key = cursors.Key(depth);
      if (has_hi && key >= hi) return;
      if (BindDeepest(depth, key)) EmitRow();
    }
  }

  // Blockwise kernel drain of a multi-way deepest-level intersection
  // over kernel_cursors_: each call fills kernel_buf_ with up to a batch
  // of aligned keys (the SIMD leapfrog runs entirely inside the kernel
  // TU), which are then emitted in bulk.
  void DrainWithKernel(IntersectStrategy strategy, size_t depth, bool has_hi,
                       int64_t hi) {
    bool first = true;
    bool done = false;
    while (!done) {
      size_t produced = kernel_->drain(
          kernel_cursors_.data(), kernel_cursors_.size(), strategy, first,
          has_hi, hi, kernel_buf_.data(), kernel_buf_.size(), &seeks_, &done);
      first = false;
      if (produced > 0) EmitDeepestRun(depth, kernel_buf_.data(), produced);
      if (BudgetAborted()) return;
    }
  }

  // Emits `n` deepest-level bindings from a contiguous ascending key
  // run: bulk columnar staging when no prefix filter is installed,
  // per-key bind + filter otherwise.
  void EmitDeepestRun(size_t depth, const int64_t* keys, size_t n) {
    if (!filter_) {
      level_totals_[depth] += static_cast<int64_t>(n);
      total_intermediate_ += static_cast<int64_t>(n);
      while (n > 0) {
        size_t take = std::min(n, batch_.capacity() - batch_.size());
        batch_.PushRun(prefix_, keys, take);
        ChargeOutput(static_cast<int64_t>(take));
        if (batch_.full()) batch_.Flush(out_);
        keys += take;
        n -= take;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (BindDeepest(depth, keys[i])) EmitRow();
      }
    }
  }

  // Counts one binding at the deepest level and applies the prefix
  // filter; returns whether the binding survives.
  bool BindDeepest(size_t depth, int64_t key) {
    prefix_[depth] = key;
    ++level_totals_[depth];
    ++total_intermediate_;
    return !filter_ || filter_(depth, prefix_, filter_metrics_);
  }

  // Stages one result row (prefix_[0..arity-1]) and flushes on a full
  // batch.
  void EmitRow() {
    batch_.PushRow(prefix_);
    ChargeOutput(1);
    if (batch_.full()) batch_.Flush(out_);
  }

  // Charges n freshly materialized output rows (n x 8*arity bytes)
  // against the admission budget; no-op when the query has none.
  void ChargeOutput(int64_t n) {
    if (budget_ != nullptr) budget_->ChargeRows(n, n * row_bytes_);
  }

  // True when a budgeted query has tripped a ceiling and every loop
  // should unwind; the driver discards partial output.
  bool BudgetAborted() const {
    return budget_ != nullptr && budget_->violated();
  }

  // The virtual level-cursor policy: the TrieIterator protocol, one
  // participant list per level with the lead at position 0.
  class VirtualCursors {
   public:
    explicit VirtualCursors(Engine* engine)
        : engine_(engine), block_(kBlock), levels_(engine->plan_.size()) {
      for (size_t d = 0; d < levels_.size(); ++d) {
        for (size_t i : engine->plan_[d].participants) {
          levels_[d].push_back(engine->inputs_[i].iterator);
        }
      }
    }

    // Lead selection by EstimateKeys (O(1) on the CSR trie).
    void Open(size_t depth) {
      std::vector<TrieIterator*>& iters = levels_[depth];
      for (TrieIterator* it : iters) it->Open();
      size_t lead = 0;
      int64_t best = iters[0]->EstimateKeys();
      for (size_t i = 1; i < iters.size(); ++i) {
        int64_t estimate = iters[i]->EstimateKeys();
        if (estimate < best) {
          best = estimate;
          lead = i;
        }
      }
      if (lead != 0) std::swap(iters[0], iters[lead]);
    }

    // Seeks the lead forward to `key` if it sits below it (one seek).
    void SkipTo(size_t depth, int64_t key) {
      TrieIterator* lead = levels_[depth][0];
      if (!lead->AtEnd() && lead->Key() < key) {
        lead->Seek(key);
        ++engine_->seeks_;
      }
    }

    int64_t LeadEstimate(size_t depth) const {
      return levels_[depth][0]->EstimateKeys();
    }
    size_t Width(size_t depth) const { return levels_[depth].size(); }
    bool Align(size_t depth) {
      return LeapfrogAlign(levels_[depth], &engine_->seeks_);
    }
    bool Advance(size_t depth) {
      return LeapfrogAdvance(levels_[depth], &engine_->seeks_);
    }
    int64_t Key(size_t depth) const { return levels_[depth][0]->Key(); }
    void Close(size_t depth) {
      for (TrieIterator* it : levels_[depth]) it->Up();
    }

    // Single-participant run: a NextBlock drain (straight out of the CSR
    // level array, or the scalar default for lazy tries).
    size_t NextRun(size_t depth, int64_t bound, const int64_t** keys) {
      size_t n = levels_[depth][0]->NextBlock(bound, &block_);
      *keys = block_.keys.data();
      return n;
    }

    // Every participant's current level as a raw key range, when all of
    // them expose a RawLevelSpan; the seek strategy comes from the
    // cardinality skew of this prefix's remaining ranges.
    bool KernelCursors(size_t depth, std::vector<KeyCursor>* cursors,
                       IntersectStrategy* strategy) const {
      cursors->clear();
      int64_t fewest = std::numeric_limits<int64_t>::max();
      int64_t most = 0;
      RawKeySpan span;
      for (TrieIterator* it : levels_[depth]) {
        if (!it->RawLevelSpan(&span)) return false;
        cursors->push_back(KeyCursor{span.keys, span.pos, span.hi});
        int64_t remaining = static_cast<int64_t>(span.hi - span.pos);
        fewest = std::min(fewest, remaining);
        most = std::max(most, remaining);
      }
      *strategy = ChooseIntersectStrategy(cursors->size(), fewest, most);
      return true;
    }

   private:
    Engine* engine_;
    KeyBlock block_;  // NextBlock scratch, one batch of capacity
    std::vector<std::vector<TrieIterator*>> levels_;
  };

  // The raw level-cursor policy: per input an explicit stack of frames
  // over its CSR level arrays, children reached through child_begin.
  // Seeks run through the dispatched kernel; nothing is virtual.
  class RawCursors {
   public:
    explicit RawCursors(Engine* engine)
        : engine_(engine), kernel_(engine->kernel_) {}

    // Binds the policy when every input's cursor exposes RawTrieSpans
    // (a plain delta-free CSR trie); false (a lazy path trie or a
    // pending delta side-file anywhere) sends the run down the virtual
    // policy. EXPLAIN's `cursors:` line asks the same question of each
    // input (VirtualCursorReasons in core/plan.cc).
    bool Attach() {
      const std::vector<JoinInput>& inputs = engine_->inputs_;
      inputs_.resize(inputs.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (!inputs[i].iterator->RawTrieSpans(&inputs_[i].view)) return false;
        inputs_[i].frames.reserve(inputs_[i].view.levels.size());
      }
      const std::vector<LevelPlan>& plan = engine_->plan_;
      levels_.resize(plan.size());
      strategy_.assign(plan.size(), IntersectStrategy::kGallop);
      std::vector<size_t> next_local(inputs.size(), 0);
      for (size_t d = 0; d < plan.size(); ++d) {
        for (size_t i : plan[d].participants) {
          levels_[d].push_back(Ref{i, next_local[i]++});
        }
      }
      return true;
    }

    // Pushes a frame per participant (child range from the parent's
    // position, whole level at local 0), leads with the smallest
    // remaining range, and picks this open's seek strategy from the
    // cardinality skew.
    void Open(size_t depth) {
      std::vector<Ref>& parts = levels_[depth];
      for (const Ref& ref : parts) {
        Input& in = inputs_[ref.input];
        size_t lo, hi;
        if (ref.local == 0) {
          lo = 0;
          hi = in.view.levels[0].num_keys;
        } else {
          const Frame& parent = in.frames.back();
          const size_t* child_begin = in.view.levels[ref.local - 1].child_begin;
          lo = child_begin[parent.pos];
          hi = child_begin[parent.pos + 1];
        }
        in.frames.push_back(Frame{hi, lo});
      }
      size_t lead = 0;
      int64_t fewest = std::numeric_limits<int64_t>::max();
      int64_t most = 0;
      for (size_t i = 0; i < parts.size(); ++i) {
        int64_t remaining = Remaining(parts[i]);
        if (remaining < fewest) {
          fewest = remaining;
          lead = i;
        }
        most = std::max(most, remaining);
      }
      if (lead != 0) std::swap(parts[0], parts[lead]);
      strategy_[depth] = ChooseIntersectStrategy(parts.size(), fewest, most);
    }

    void SkipTo(size_t depth, int64_t key) {
      const Ref& lead = levels_[depth][0];
      Frame& f = FrameOf(lead);
      const int64_t* keys = LevelOf(lead).keys;
      if (f.pos < f.hi && keys[f.pos] < key) {
        f.pos = kernel_->seek(keys, f.pos, f.hi, key, strategy_[depth]);
        ++engine_->seeks_;
      }
    }

    int64_t LeadEstimate(size_t depth) { return Remaining(levels_[depth][0]); }
    size_t Width(size_t depth) const { return levels_[depth].size(); }

    // LeapfrogAlign over the frames, each jump's interior search
    // running through the kernel. Identical seek accounting.
    bool Align(size_t depth) {
      std::vector<Ref>& parts = levels_[depth];
      for (const Ref& ref : parts) {
        const Frame& f = FrameOf(ref);
        if (f.pos >= f.hi) return false;
      }
      if (parts.size() == 1) return true;
      const IntersectStrategy strategy = strategy_[depth];
      for (;;) {
        int64_t max_key = KeyOf(parts[0]);
        for (size_t i = 1; i < parts.size(); ++i) {
          max_key = std::max(max_key, KeyOf(parts[i]));
        }
        bool all_equal = true;
        for (const Ref& ref : parts) {
          Frame& f = FrameOf(ref);
          const int64_t* keys = LevelOf(ref).keys;
          if (keys[f.pos] < max_key) {
            f.pos = kernel_->seek(keys, f.pos, f.hi, max_key, strategy);
            ++engine_->seeks_;
            if (f.pos >= f.hi) return false;
            if (keys[f.pos] > max_key) {
              all_equal = false;  // overshoot: new max, restart
              break;
            }
          }
        }
        if (all_equal) return true;
      }
    }

    bool Advance(size_t depth) {
      Frame& lead = FrameOf(levels_[depth][0]);
      ++lead.pos;
      ++engine_->seeks_;
      if (lead.pos >= lead.hi) return false;
      return Align(depth);
    }

    int64_t Key(size_t depth) { return KeyOf(levels_[depth][0]); }

    void Close(size_t depth) {
      for (const Ref& ref : levels_[depth]) {
        inputs_[ref.input].frames.pop_back();
      }
    }

    // Single-participant run: up to one batch of keys below `bound`,
    // borrowed straight from the CSR level array.
    size_t NextRun(size_t depth, int64_t bound, const int64_t** keys) {
      const Ref& ref = levels_[depth][0];
      Frame& f = FrameOf(ref);
      const int64_t* level_keys = LevelOf(ref).keys;
      size_t end = std::min(f.pos + kBlock, f.hi);
      if (end > f.pos && level_keys[end - 1] >= bound) {
        end = kernel_->lower_bound(level_keys, f.pos, end, bound);
      }
      *keys = level_keys + f.pos;
      size_t n = end - f.pos;
      f.pos = end;
      return n;
    }

    bool KernelCursors(size_t depth, std::vector<KeyCursor>* cursors,
                       IntersectStrategy* strategy) {
      cursors->clear();
      for (const Ref& ref : levels_[depth]) {
        const Frame& f = FrameOf(ref);
        cursors->push_back(KeyCursor{LevelOf(ref).keys, f.pos, f.hi});
      }
      *strategy = strategy_[depth];
      return true;
    }

   private:
    // One open trie level of one input: the remaining half-open range
    // [pos, hi) within that level's key array.
    struct Frame {
      size_t hi;
      size_t pos;
    };
    struct Input {
      RawTrieView view;
      std::vector<Frame> frames;  // one per open level, top = deepest
    };
    // A level participant: which input, and the input-local trie level
    // that the engine level maps to.
    struct Ref {
      size_t input;
      size_t local;
    };

    Frame& FrameOf(const Ref& ref) { return inputs_[ref.input].frames.back(); }
    const RawTrieView::Level& LevelOf(const Ref& ref) const {
      return inputs_[ref.input].view.levels[ref.local];
    }
    int64_t KeyOf(const Ref& ref) {
      return LevelOf(ref).keys[FrameOf(ref).pos];
    }
    int64_t Remaining(const Ref& ref) {
      const Frame& f = FrameOf(ref);
      return static_cast<int64_t>(f.hi - f.pos);
    }

    Engine* engine_;
    const IntersectKernel* kernel_;
    std::vector<Input> inputs_;
    std::vector<std::vector<Ref>> levels_;     // participants per level
    std::vector<IntersectStrategy> strategy_;  // chosen at each open
  };

  const std::vector<JoinInput>& inputs_;
  const std::vector<LevelPlan>& plan_;
  PrefixFilter filter_;  // this engine's own copy (see PrefixFilter)
  Metrics* filter_metrics_;
  Relation* out_;
  BudgetTracker* budget_;   // null when the query has no finite budget
  int64_t row_bytes_;       // bytes charged per materialized output row
  int64_t budget_ticks_ = 0;
  Tuple prefix_;
  std::vector<int64_t> level_totals_;
  ResultBatch batch_;
  const IntersectKernel* kernel_;    // resolved once per engine
  std::vector<int64_t> kernel_buf_;  // kernel drain destination, one batch
  std::vector<KeyCursor> kernel_cursors_;
  int64_t seeks_ = 0;
  int64_t total_intermediate_ = 0;
};

// Publishes the merged engine counters in the same shape the serial
// engine always has.
void PublishMetrics(Metrics* metrics, const std::vector<int64_t>& level_totals,
                    int64_t seeks, int64_t total_intermediate,
                    int64_t output_rows) {
  if (metrics == nullptr) return;
  int64_t max_level = 0;
  for (size_t d = 0; d < level_totals.size(); ++d) {
    metrics->Add("gj.level" + std::to_string(d) + ".bindings",
                 level_totals[d]);
    max_level = std::max(max_level, level_totals[d]);
  }
  metrics->RecordMax("gj.max_intermediate", max_level);
  metrics->Add("gj.total_intermediate", total_intermediate);
  metrics->Add("gj.seeks", seeks);
  metrics->Add("gj.output", output_rows);
}

// Enumerates the distinct keys of the level-0 intersection (the shard
// partitioning domain) with a leapfrog over the level-0 participants
// only; leaves every iterator back at the virtual root.
std::vector<int64_t> Level0IntersectionKeys(
    const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  std::vector<int64_t> keys;
  for (TrieIterator* it : iters) it->Open();
  if (LeapfrogAlign(iters, seeks)) {
    do {
      keys.push_back(iters[0]->Key());
    } while (LeapfrogAdvance(iters, seeks));
  }
  for (TrieIterator* it : iters) it->Up();
  return keys;
}

// Enumerates the (level-0, level-1) composite prefixes of the join —
// the deeper shard partitioning domain used when level 0 alone has
// fewer distinct keys than the requested shard count. Runs the engine
// over a two-level truncation of the plan; leaves every iterator back
// at the virtual root. Results are distinct and lexicographically
// ascending.
std::vector<std::array<int64_t, 2>> Level01PrefixPairs(
    const std::vector<JoinInput>& inputs, const std::vector<LevelPlan>& plan,
    int64_t* seeks) {
  std::vector<LevelPlan> plan2(plan.begin(), plan.begin() + 2);
  auto schema = Schema::Make({plan[0].attribute, plan[1].attribute});
  Relation pairs_rel(*schema);
  PrefixFilter no_filter;
  Engine engine(inputs, plan2, no_filter, nullptr, &pairs_rel, nullptr);
  engine.Run(PrefixRange{});
  *seeks += engine.seeks();
  std::vector<std::array<int64_t, 2>> pairs;
  pairs.reserve(pairs_rel.num_rows());
  for (size_t r = 0; r < pairs_rel.num_rows(); ++r) {
    pairs.push_back({pairs_rel.at(r, 0), pairs_rel.at(r, 1)});
  }
  return pairs;
}

}  // namespace

Result<Relation> GenericJoin(const std::vector<JoinInput>& inputs,
                             const GenericJoinOptions& options) {
  const auto& order = options.attribute_order;
  if (order.empty()) return Status::InvalidArgument("empty attribute order");

  // A cancellation token rides the budget tracker as an extra "cancel
  // source": the per-binding violation poll then observes it for free.
  // A token without a caller budget gets a private unlimited tracker.
  BudgetTracker local_budget;
  BudgetTracker* budget = options.budget;
  if (options.cancel != nullptr) {
    if (budget == nullptr) budget = &local_budget;
    budget->AddCancelSource(options.cancel);
  }

  // Admission: refuse to start a query whose deadline already passed,
  // whose budget a prior stage already exhausted (a multi-step caller —
  // e.g. XJoin's expansion + validation — shares one tracker), or that
  // was cancelled before it began.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }

  // Build the per-level plan and validate input orders.
  std::vector<LevelPlan> plan(order.size());
  for (size_t d = 0; d < order.size(); ++d) plan[d].attribute = order[d];

  for (size_t i = 0; i < inputs.size(); ++i) {
    const JoinInput& in = inputs[i];
    if (in.iterator == nullptr) {
      return Status::InvalidArgument("input " + in.name + " has no iterator");
    }
    if (static_cast<size_t>(in.iterator->arity()) != in.attributes.size()) {
      return Status::InvalidArgument("input " + in.name + " arity mismatch");
    }
    // The input's attribute sequence must be a subsequence-in-order of
    // the global order, and the engine opens one trie level per global
    // level it participates in — so the input's k-th attribute must be
    // the k-th of its attributes encountered globally.
    size_t next = 0;
    for (const auto& attr : order) {
      if (next < in.attributes.size() && in.attributes[next] == attr) {
        ++next;
      }
    }
    if (next != in.attributes.size()) {
      return Status::InvalidArgument(
          "input " + in.name +
          " attribute order is inconsistent with the global order");
    }
    size_t seen = 0;
    for (size_t d = 0; d < order.size(); ++d) {
      if (seen < in.attributes.size() && in.attributes[seen] == order[d]) {
        plan[d].participants.push_back(i);
        ++seen;
      }
    }
  }

  for (size_t d = 0; d < plan.size(); ++d) {
    if (plan[d].participants.empty()) {
      return Status::InvalidArgument("attribute " + plan[d].attribute +
                                     " is covered by no input");
    }
  }

  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(order));
  Relation out(schema);

  const int num_threads = std::max(1, options.num_threads);
  const int requested_shards =
      options.num_shards > 0 ? options.num_shards : num_threads;

  // Sharded driver: partition the first attribute's matching keys into
  // contiguous ascending ranges, one per shard. When level 0 alone has
  // fewer distinct keys than the requested shard count (and the order
  // has a second attribute), fall back to sharding on the
  // level-0 x level-1 composite prefix instead of silently degenerating
  // to ~1 shard.
  int64_t plan_seeks = 0;
  std::vector<int64_t> keys;
  std::vector<std::array<int64_t, 2>> pairs;
  bool composite = false;
  size_t num_shards = 1;
  if (requested_shards > 1) {
    std::vector<TrieIterator*> level0;
    level0.reserve(plan[0].participants.size());
    for (size_t i : plan[0].participants) level0.push_back(inputs[i].iterator);
    keys = Level0IntersectionKeys(level0, &plan_seeks);

    // Composite planning runs a serial two-level leapfrog, so by default
    // (shard_depth == 0) only pay for it when level-0 sharding would fall
    // well short of the request (under half the shards) — a near-miss
    // level-0 split is cheaper than enumerating the pair domain up front.
    // A prepared plan that already knows the domain sizes overrides the
    // decision through shard_depth.
    if (options.shard_depth == 2) {
      composite = plan.size() >= 2 && !keys.empty();
    } else if (options.shard_depth != 1) {
      composite = keys.size() * 2 <= static_cast<size_t>(requested_shards) &&
                  plan.size() >= 2 && !keys.empty();
    }
    if (composite) {
      pairs = Level01PrefixPairs(inputs, plan, &plan_seeks);
      composite = pairs.size() > 1;
    }
    const size_t domain = composite ? pairs.size() : keys.size();
    num_shards = std::min<size_t>(static_cast<size_t>(requested_shards),
                                  std::max<size_t>(domain, 1));
  }

  if (num_shards <= 1) {
    // Serial: one shard requested, or a prefix domain too small to shard
    // (0 or 1 distinct prefixes) — no clone + merge overhead.
    Engine engine(inputs, plan, options.prefix_filter, options.metrics, &out,
                  budget);
    engine.Run(PrefixRange{});
    if (budget != nullptr && budget->violated()) {
      return budget->status();
    }
    PublishMetrics(options.metrics, engine.level_totals(), engine.seeks(),
                   engine.total_intermediate(),
                   static_cast<int64_t>(out.num_rows()));
    if (requested_shards > 1 && options.metrics != nullptr) {
      options.metrics->Add("gj.shards", 1);
      options.metrics->Add("gj.shard_depth", 1);
      options.metrics->Add("gj.plan_seeks", plan_seeks);
    }
    return out;
  }

  struct Shard {
    std::vector<std::unique_ptr<TrieIterator>> owned;
    std::vector<JoinInput> inputs;
    PrefixRange range;
    Relation out;
    std::vector<int64_t> level_totals;
    int64_t seeks = 0;
    int64_t total_intermediate = 0;
    // Shard-local bag handed to the prefix filter; merged into
    // options.metrics at the barrier so filter counters stay exact.
    Metrics metrics;

    explicit Shard(Schema s) : out(std::move(s)) {}
  };

  std::vector<Shard> shards;
  shards.reserve(num_shards);
  const size_t domain = composite ? pairs.size() : keys.size();
  const size_t per_shard = domain / num_shards;
  const size_t remainder = domain % num_shards;
  size_t cursor = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard(schema);
    size_t take = per_shard + (s < remainder ? 1 : 0);
    shard.range.depth = composite ? 2 : 1;
    shard.range.has_lo = true;
    if (composite) {
      shard.range.lo[0] = pairs[cursor][0];
      shard.range.lo[1] = pairs[cursor][1];
    } else {
      shard.range.lo[0] = keys[cursor];
    }
    cursor += take;
    if (cursor < domain) {
      shard.range.has_hi = true;
      if (composite) {
        shard.range.hi[0] = pairs[cursor][0];
        shard.range.hi[1] = pairs[cursor][1];
      } else {
        shard.range.hi[0] = keys[cursor];
      }
    }
    shard.owned.reserve(inputs.size());
    shard.inputs.reserve(inputs.size());
    for (const JoinInput& in : inputs) {
      shard.owned.push_back(in.iterator->Clone());
      shard.inputs.push_back(
          JoinInput{in.name, in.attributes, shard.owned.back().get()});
    }
    shards.push_back(std::move(shard));
  }

  // Fault site: the executor hand-off. An armed hit fails the query
  // before any shard work is dispatched.
  if (XJOIN_FAULT("gj.shard_dispatch")) {
    return Status::Internal(
        "fault injection: shard dispatch to the executor failed "
        "(site gj.shard_dispatch)");
  }

  // Shards run as one morsel-driven job on the shared executor pool
  // (grain 1: each morsel is one shard), so N in-flight queries share
  // cores instead of each spawning num_threads threads. A shared budget
  // tracker aborts every shard once any of them trips a ceiling or sees
  // a cancellation.
  Executor* executor =
      options.executor != nullptr ? options.executor : Executor::Default();
#ifdef XJOIN_FAULTS_ENABLED
  // Fault site: the per-shard morsel hand-off. A hit makes the worker
  // drop that shard's work on the floor (the morsel "ran" but produced
  // nothing), which the barrier below converts into a typed failure —
  // exercising the executor path where a shard silently vanishes.
  std::atomic<bool> morsel_dropped{false};
#endif
  executor->ParallelFor(num_threads, shards.size(), /*grain=*/1,
                        [&](size_t s) {
#ifdef XJOIN_FAULTS_ENABLED
    if (XJOIN_FAULT("gj.morsel")) {
      morsel_dropped.store(true, std::memory_order_relaxed);
      return;
    }
#endif
    Shard& shard = shards[s];
    Metrics* filter_metrics =
        options.metrics != nullptr ? &shard.metrics : nullptr;
    Engine engine(shard.inputs, plan, options.prefix_filter, filter_metrics,
                  &shard.out, budget);
    engine.Run(shard.range);
    shard.level_totals = engine.level_totals();
    shard.seeks = engine.seeks();
    shard.total_intermediate = engine.total_intermediate();
  });
  if (budget != nullptr && budget->violated()) {
    return budget->status();
  }
#ifdef XJOIN_FAULTS_ENABLED
  if (morsel_dropped.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "fault injection: morsel hand-off dropped shard work "
        "(site gj.morsel)");
  }
#endif

  // Fault site: the result merge. A hit fails the query after all shard
  // work completed but before any rows reach the caller.
  if (XJOIN_FAULT("gj.result_merge")) {
    return Status::Internal(
        "fault injection: shard result merge failed (site gj.result_merge)");
  }

  // Deterministic merge: shards cover ascending key ranges, so appending
  // in shard order reproduces the serial row order exactly.
  std::vector<int64_t> level_totals(plan.size(), 0);
  int64_t seeks = 0;
  int64_t total_intermediate = 0;
  for (Shard& shard : shards) {
    out.AppendRows(shard.out);
    for (size_t d = 0; d < shard.level_totals.size(); ++d) {
      level_totals[d] += shard.level_totals[d];
    }
    seeks += shard.seeks;
    total_intermediate += shard.total_intermediate;
    if (options.metrics != nullptr) options.metrics->MergeFrom(shard.metrics);
  }
  PublishMetrics(options.metrics, level_totals, seeks, total_intermediate,
                 static_cast<int64_t>(out.num_rows()));
  if (options.metrics != nullptr) {
    options.metrics->Add("gj.shards", static_cast<int64_t>(num_shards));
    options.metrics->Add("gj.shard_depth", composite ? 2 : 1);
    options.metrics->Add("gj.plan_seeks", plan_seeks);
  }
  return out;
}

}  // namespace xjoin
