#include "relational/trie.h"

#include <algorithm>
#include <map>

#include "common/executor.h"
#include "common/logging.h"

namespace xjoin {

namespace {

size_t LowerBoundRange(const std::vector<int64_t>& col, size_t lo, size_t hi,
                       int64_t key) {
  return static_cast<size_t>(
      std::lower_bound(col.begin() + static_cast<ptrdiff_t>(lo),
                       col.begin() + static_cast<ptrdiff_t>(hi), key) -
      col.begin());
}

size_t UpperBoundRange(const std::vector<int64_t>& col, size_t lo, size_t hi,
                       int64_t key) {
  return static_cast<size_t>(
      std::upper_bound(col.begin() + static_cast<ptrdiff_t>(lo),
                       col.begin() + static_cast<ptrdiff_t>(hi), key) -
      col.begin());
}

}  // namespace

// A minimal non-owning view so file-local helpers can walk the private
// Core without befriending every free function.
struct RelationTrieCoreView {
  const std::vector<std::vector<int64_t>>* keys;
  const std::vector<std::vector<size_t>>* child_begin;
};

namespace {

// Assembles the CSR level arrays from lexicographically sorted columnar
// rows (duplicates allowed — they fold away): diff[i] is the first level
// where sorted row i differs from row i-1, then level d gets one node
// per row whose first difference is at or above d. Shared by Build
// (after the radix sort) and by delta compaction (whose merge output is
// already sorted, so compaction never re-sorts).
void AssembleCsrLevels(const std::vector<std::vector<int64_t>>& sorted,
                       size_t n, size_t k, int num_threads,
                       std::vector<std::vector<int64_t>>* keys,
                       std::vector<std::vector<size_t>>* child_begin) {
  std::vector<uint32_t> diff(n);
  Executor* pool = Executor::Default();
  pool->ParallelFor(num_threads, n, /*grain=*/4096, [&](size_t i) {
    if (i == 0) {
      diff[0] = 0;
      return;
    }
    uint32_t level = 0;
    while (level < k && sorted[level][i] == sorted[level][i - 1]) ++level;
    diff[i] = level;
  });

  pool->ParallelFor(num_threads, k, /*grain=*/1, [&](size_t d) {
    std::vector<int64_t>& level_keys = (*keys)[d];
    const std::vector<int64_t>& col = sorted[d];
    if (d + 1 < k) {
      std::vector<size_t>& cb = (*child_begin)[d];
      cb.clear();
      size_t children = 0;
      for (size_t i = 0; i < n; ++i) {
        if (diff[i] <= d) {
          cb.push_back(children);
          level_keys.push_back(col[i]);
        }
        if (diff[i] <= d + 1) ++children;
      }
      cb.push_back(children);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (diff[i] <= d) level_keys.push_back(col[i]);
      }
    }
  });
}

}  // namespace

Result<RelationTrie> RelationTrie::Build(const Relation& relation,
                                         const std::vector<std::string>& order,
                                         const TrieBuildOptions& options) {
  if (order.size() != relation.schema().size()) {
    return Status::InvalidArgument("trie order arity mismatch");
  }
  std::vector<size_t> perm;
  perm.reserve(order.size());
  for (const auto& name : order) {
    int idx = relation.schema().IndexOf(name);
    if (idx < 0) {
      return Status::InvalidArgument("trie order names unknown attribute: " +
                                     name);
    }
    perm.push_back(static_cast<size_t>(idx));
  }
  // Reject permutations with repeats.
  {
    std::vector<size_t> copy = perm;
    std::sort(copy.begin(), copy.end());
    for (size_t i = 0; i + 1 < copy.size(); ++i) {
      if (copy[i] == copy[i + 1]) {
        return Status::InvalidArgument("trie order repeats an attribute");
      }
    }
  }

  Timer timer;
  const size_t n = relation.num_rows();
  const size_t k = order.size();
  const int num_threads = std::max(1, options.num_threads);

  RelationTrie trie;
  trie.order_ = order;
  auto core = std::make_shared<Core>();
  core->keys.resize(k);
  core->child_begin.resize(k > 0 ? k - 1 : 0);
  for (auto& cb : core->child_begin) cb.push_back(0);
  trie.core_ = core;
  if (n == 0 || k == 0) return trie;

  // 1. Reference the columns in trie order — the relation is columnar,
  // so no copies are needed until the sorted materialization below.
  std::vector<const std::vector<int64_t>*> cols(k);
  for (size_t c = 0; c < k; ++c) cols[c] = &relation.column(perm[c]);

  // 2. Sort the row permutation lexicographically (LSD radix: one
  // counting pass per byte that actually varies in each column —
  // dictionary codes are small, so typically 1-2 passes).
  const std::vector<size_t> rows = SortedRowOrder(cols, n);
  MetricsAdd(options.metrics, "trie.radix_sorts", 1);

  // 3. Materialize the sorted columns (parallel per column).
  std::vector<std::vector<int64_t>> sorted(k);
  Executor* pool = Executor::Default();
  pool->ParallelFor(num_threads, k, /*grain=*/1, [&](size_t c) {
    const std::vector<int64_t>& col = *cols[c];
    sorted[c].resize(n);
    for (size_t i = 0; i < n; ++i) sorted[c][i] = col[rows[i]];
  });

  // 4+5. Dedup + per-level CSR assembly over the sorted columns.
  AssembleCsrLevels(sorted, n, k, num_threads, &core->keys,
                    &core->child_begin);

  MetricsAdd(options.metrics, "trie.builds", 1);
  MetricsAdd(options.metrics, "trie.build_micros", timer.ElapsedMicros());
  return trie;
}

namespace {

// Depth-first enumeration of a Core's (base) tuples in lexicographic
// order; O(total trie nodes), recursion depth = arity.
template <typename Fn>
void WalkBaseSubtree(const RelationTrieCoreView& view, size_t d, size_t lo,
                     size_t hi, Tuple* tuple, const Fn& fn) {
  const size_t k = view.keys->size();
  for (size_t i = lo; i < hi; ++i) {
    (*tuple)[d] = (*view.keys)[d][i];
    if (d + 1 == k) {
      fn(*tuple);
    } else {
      WalkBaseSubtree(view, d + 1, (*view.child_begin)[d][i],
                      (*view.child_begin)[d][i + 1], tuple, fn);
    }
  }
}

template <typename Fn>
void WalkBase(const RelationTrieCoreView& view, Fn&& fn) {
  const size_t k = view.keys->size();
  if (k == 0 || (*view.keys)[0].empty()) return;
  Tuple tuple(k);
  WalkBaseSubtree(view, 0, 0, (*view.keys)[0].size(), &tuple, fn);
}

}  // namespace

bool RelationTrie::BaseContains(const Tuple& tuple) const {
  const size_t k = core_->keys.size();
  size_t lo = 0;
  size_t hi = core_->keys[0].size();
  for (size_t d = 0; d < k; ++d) {
    const std::vector<int64_t>& col = core_->keys[d];
    size_t at = LowerBoundRange(col, lo, hi, tuple[d]);
    if (at >= hi || col[at] != tuple[d]) return false;
    if (d + 1 < k) {
      lo = core_->child_begin[d][at];
      hi = core_->child_begin[d][at + 1];
    }
  }
  return true;
}

Result<RelationTrie> RelationTrie::ApplyDelta(
    const std::vector<Tuple>& inserts, const std::vector<Tuple>& deletes,
    const TrieDeltaOptions& options) const {
  const size_t k = core_ == nullptr ? 0 : core_->keys.size();
  if (k == 0) {
    if (inserts.empty() && deletes.empty()) return *this;
    return Status::InvalidArgument("delta on a zero-arity trie");
  }
  for (const Tuple& t : inserts) {
    if (t.size() != k) return Status::InvalidArgument("delta tuple arity");
  }
  for (const Tuple& t : deletes) {
    if (t.size() != k) return Status::InvalidArgument("delta tuple arity");
  }

  // Pending state per tuple: +1 pending insert, -1 tombstone. Seeded
  // from the existing side-file, then the batch is classified on top —
  // deletes before inserts, so a tuple in both lists ends up present.
  std::map<Tuple, int> pending;
  if (delta_ != nullptr) {
    Tuple t(k);
    for (size_t r = 0; r < delta_->insert_rows; ++r) {
      for (size_t d = 0; d < k; ++d) t[d] = delta_->inserts[d][r];
      pending[t] = +1;
    }
    for (size_t r = 0; r < delta_->tombstone_rows; ++r) {
      for (size_t d = 0; d < k; ++d) t[d] = delta_->tombstones[d][r];
      pending[t] = -1;
    }
  }
  for (const Tuple& t : deletes) {
    auto it = pending.find(t);
    if (it != pending.end()) {
      // Deleting a pending insert cancels it; deleting an existing
      // tombstone is a no-op.
      if (it->second > 0) pending.erase(it);
    } else if (BaseContains(t)) {
      pending[t] = -1;
    }
  }
  for (const Tuple& t : inserts) {
    auto it = pending.find(t);
    if (it != pending.end()) {
      // Inserting over a tombstone resurrects the base tuple;
      // re-inserting a pending insert is a no-op.
      if (it->second < 0) pending.erase(it);
    } else if (!BaseContains(t)) {
      pending[t] = +1;
    }
  }

  MetricsAdd(options.metrics, "trie.delta_applies", 1);

  RelationTrie out;
  out.order_ = order_;
  out.core_ = core_;
  if (pending.empty()) return out;

  size_t insert_rows = 0;
  size_t tombstone_rows = 0;
  for (const auto& [tuple, sign] : pending) {
    (void)tuple;
    if (sign > 0) {
      ++insert_rows;
    } else {
      ++tombstone_rows;
    }
  }

  const size_t base = base_rows();
  const size_t threshold =
      std::max(options.compact_min_rows,
               static_cast<size_t>(options.compact_ratio *
                                   static_cast<double>(base)));
  if (!options.force_compact && insert_rows + tombstone_rows <= threshold) {
    // Stay in delta form: split the pending map (already sorted) into
    // the two columnar side-files.
    auto delta = std::make_shared<Delta>();
    delta->inserts.resize(k);
    delta->tombstones.resize(k);
    for (size_t d = 0; d < k; ++d) {
      delta->inserts[d].reserve(insert_rows);
      delta->tombstones[d].reserve(tombstone_rows);
    }
    for (const auto& [tuple, sign] : pending) {
      std::vector<std::vector<int64_t>>& side =
          sign > 0 ? delta->inserts : delta->tombstones;
      for (size_t d = 0; d < k; ++d) side[d].push_back(tuple[d]);
    }
    delta->insert_rows = insert_rows;
    delta->tombstone_rows = tombstone_rows;
    out.delta_ = delta;
    return out;
  }

  // Compaction: linear merge of the sorted base enumeration with the
  // pending map into fresh sorted columns, then the shared CSR assembly
  // pass — no radix re-sort, O(base + delta).
  Timer timer;
  std::vector<std::vector<int64_t>> merged(k);
  const size_t merged_rows = base - tombstone_rows + insert_rows;
  for (auto& col : merged) col.reserve(merged_rows);
  auto emit = [&](const Tuple& t) {
    for (size_t d = 0; d < k; ++d) merged[d].push_back(t[d]);
  };
  auto pit = pending.begin();
  RelationTrieCoreView view{&core_->keys, &core_->child_begin};
  WalkBase(view, [&](const Tuple& t) {
    while (pit != pending.end() && pit->first < t) {
      if (pit->second > 0) emit(pit->first);
      ++pit;
    }
    if (pit != pending.end() && pit->first == t) {
      // Tombstone drops the base tuple; a pending insert can never
      // collide with a base tuple (classification keeps them disjoint).
      if (pit->second > 0) emit(t);
      ++pit;
      return;
    }
    emit(t);
  });
  while (pit != pending.end()) {
    if (pit->second > 0) emit(pit->first);
    ++pit;
  }

  auto core = std::make_shared<Core>();
  core->keys.resize(k);
  core->child_begin.resize(k > 0 ? k - 1 : 0);
  for (auto& cb : core->child_begin) cb.push_back(0);
  if (!merged.empty() && !merged[0].empty()) {
    AssembleCsrLevels(merged, merged[0].size(), k, /*num_threads=*/1,
                      &core->keys, &core->child_begin);
  }
  out.core_ = core;
  MetricsAdd(options.metrics, "trie.compactions", 1);
  MetricsAdd(options.metrics, "trie.compact_micros", timer.ElapsedMicros());
  return out;
}

void RelationTrie::EnumerateTuples(std::vector<Tuple>* out) const {
  out->clear();
  const int k = arity();
  if (k == 0) return;
  std::unique_ptr<TrieIterator> it = NewIterator();
  Tuple tuple(static_cast<size_t>(k));
  it->Open();
  for (;;) {
    if (!it->AtEnd()) {
      tuple[static_cast<size_t>(it->depth())] = it->Key();
      if (it->depth() == k - 1) {
        out->push_back(tuple);
        it->Next();
      } else {
        it->Open();
      }
    } else {
      if (it->depth() == 0) break;
      it->Up();
      it->Next();
    }
  }
}

size_t RelationTrie::ByteSizeEstimate() const {
  size_t bytes = 0;
  if (core_ != nullptr) {
    for (const auto& level : core_->keys) {
      bytes += level.capacity() * sizeof(int64_t);
    }
    for (const auto& level : core_->child_begin) {
      bytes += level.capacity() * sizeof(size_t);
    }
  }
  if (delta_ != nullptr) {
    for (const auto& col : delta_->inserts) {
      bytes += col.capacity() * sizeof(int64_t);
    }
    for (const auto& col : delta_->tombstones) {
      bytes += col.capacity() * sizeof(int64_t);
    }
  }
  return bytes;
}

std::unique_ptr<TrieIterator> RelationTrie::NewIterator() const {
  if (delta_ != nullptr) {
    return std::make_unique<RelationDeltaTrieIterator>(this);
  }
  return std::make_unique<RelationTrieIterator>(this);
}

RelationTrieIterator::RelationTrieIterator(const RelationTrie* trie)
    : trie_(trie) {
  XJ_DCHECK(trie->delta_ == nullptr);
  frames_.reserve(static_cast<size_t>(trie->arity()));
}

void RelationTrieIterator::Open() {
  XJ_DCHECK(depth_ + 1 < trie_->arity());
  size_t lo, hi;
  if (depth_ < 0) {
    lo = 0;
    hi = trie_->core_->keys[0].size();
  } else {
    const Frame& f = frames_[static_cast<size_t>(depth_)];
    XJ_DCHECK(f.pos < f.hi);
    const std::vector<size_t>& cb =
        trie_->core_->child_begin[static_cast<size_t>(depth_)];
    lo = cb[f.pos];
    hi = cb[f.pos + 1];
  }
  ++depth_;
  frames_.push_back(Frame{lo, hi, lo});
}

void RelationTrieIterator::Up() {
  XJ_DCHECK(depth_ >= 0);
  frames_.pop_back();
  --depth_;
}

bool RelationTrieIterator::AtEnd() const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return f.pos >= f.hi;
}

int64_t RelationTrieIterator::Key() const {
  XJ_DCHECK(!AtEnd());
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return trie_->core_->keys[static_cast<size_t>(depth_)][f.pos];
}

void RelationTrieIterator::Next() {
  XJ_DCHECK(!AtEnd());
  ++frames_[static_cast<size_t>(depth_)].pos;
}

void RelationTrieIterator::Seek(int64_t key) {
  XJ_DCHECK(!AtEnd());
  Frame& f = frames_[static_cast<size_t>(depth_)];
  const std::vector<int64_t>& col =
      trie_->core_->keys[static_cast<size_t>(depth_)];
  // Keys within the parent's child range are already distinct; gallop to
  // bracket the target (leapfrog seeks are usually near the cursor),
  // then binary search only inside the bracket.
  size_t base = f.pos;
  size_t step = 1;
  while (base + step < f.hi && col[base + step] < key) {
    base += step;
    step <<= 1;
  }
  size_t search_hi = std::min(base + step, f.hi);
  f.pos = LowerBoundRange(col, base, search_hi, key);
}

size_t RelationTrieIterator::NextBlock(int64_t hi_exclusive, KeyBlock* out) {
  XJ_DCHECK(depth_ >= 0);
  out->keys.clear();
  Frame& f = frames_[static_cast<size_t>(depth_)];
  const std::vector<int64_t>& col =
      trie_->core_->keys[static_cast<size_t>(depth_)];
  size_t end = std::min(f.pos + out->capacity, f.hi);
  // Keys are sorted: if the last candidate clears hi_exclusive the whole
  // run does; otherwise binary-search the cut inside the candidate run.
  if (end > f.pos && col[end - 1] >= hi_exclusive) {
    end = LowerBoundRange(col, f.pos, end, hi_exclusive);
  }
  out->keys.assign(col.begin() + static_cast<ptrdiff_t>(f.pos),
                   col.begin() + static_cast<ptrdiff_t>(end));
  f.pos = end;
  return out->keys.size();
}

bool RelationTrieIterator::RawLevelSpan(RawKeySpan* out) const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  out->keys = trie_->core_->keys[static_cast<size_t>(depth_)].data();
  out->pos = f.pos;
  out->hi = f.hi;
  return true;
}

bool RelationTrieIterator::RawTrieSpans(RawTrieView* out) const {
  const RelationTrie::Core* core = trie_->core_.get();
  const size_t arity = core == nullptr ? 0 : core->keys.size();
  out->levels.clear();
  out->levels.reserve(arity);
  for (size_t d = 0; d < arity; ++d) {
    RawTrieView::Level level;
    level.keys = core->keys[d].data();
    level.num_keys = core->keys[d].size();
    // The deepest level has no children to index into.
    level.child_begin =
        d + 1 < arity ? core->child_begin[d].data() : nullptr;
    out->levels.push_back(level);
  }
  return true;
}

int64_t RelationTrieIterator::EstimateKeys() const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return static_cast<int64_t>(f.hi - f.pos);
}

std::unique_ptr<TrieIterator> RelationTrieIterator::Clone() const {
  return std::make_unique<RelationTrieIterator>(trie_);
}

RelationDeltaTrieIterator::RelationDeltaTrieIterator(const RelationTrie* trie)
    : trie_(trie), core_(trie->core_.get()), delta_(trie->delta_.get()) {
  XJ_DCHECK(delta_ != nullptr);
  frames_.reserve(static_cast<size_t>(trie->arity()));
}

size_t RelationDeltaTrieIterator::SubtreeLeafCount(size_t d,
                                                   size_t node) const {
  const size_t k = core_->keys.size();
  size_t lo = node;
  size_t hi = node + 1;
  for (size_t dd = d; dd + 1 < k; ++dd) {
    lo = core_->child_begin[dd][lo];
    hi = core_->child_begin[dd][hi];
  }
  return hi - lo;
}

void RelationDeltaTrieIterator::Reposition(Frame* f, size_t d) const {
  // Skip base keys whose entire subtree is tombstoned. A key is dead
  // only when the tombstones for this prefix+key account for every base
  // leaf under it; the common tombstone-free range short-circuits.
  if (f->thi > f->tlo) {
    const std::vector<int64_t>& tcol = delta_->tombstones[d];
    while (f->bpos < f->bhi) {
      int64_t bk = core_->keys[d][f->bpos];
      size_t t0 = LowerBoundRange(tcol, f->tlo, f->thi, bk);
      size_t t1 = UpperBoundRange(tcol, t0, f->thi, bk);
      if (t1 == t0) break;
      if (t1 - t0 < SubtreeLeafCount(d, f->bpos)) break;
      ++f->bpos;
    }
  }
  const bool has_base = f->bpos < f->bhi;
  const bool has_insert = f->ipos < f->ihi;
  if (!has_base && !has_insert) {
    f->exhausted = true;
    f->from_base = f->from_insert = false;
    return;
  }
  f->exhausted = false;
  const int64_t bk = has_base ? core_->keys[d][f->bpos] : 0;
  const int64_t ik = has_insert ? delta_->inserts[d][f->ipos] : 0;
  f->from_base = has_base && (!has_insert || bk <= ik);
  f->from_insert = has_insert && (!has_base || ik <= bk);
  f->key = f->from_base ? bk : ik;
}

void RelationDeltaTrieIterator::Open() {
  XJ_DCHECK(depth_ + 1 < arity());
  Frame nf;
  if (depth_ < 0) {
    nf.blo = 0;
    nf.bhi = core_->keys[0].size();
    nf.ilo = 0;
    nf.ihi = delta_->inserts.empty() ? 0 : delta_->inserts[0].size();
    nf.tlo = 0;
    nf.thi = delta_->tombstones.empty() ? 0 : delta_->tombstones[0].size();
  } else {
    const Frame& f = frames_[static_cast<size_t>(depth_)];
    XJ_DCHECK(!f.exhausted);
    const size_t d = static_cast<size_t>(depth_);
    if (f.from_base) {
      const std::vector<size_t>& cb = core_->child_begin[d];
      nf.blo = cb[f.bpos];
      nf.bhi = cb[f.bpos + 1];
    }
    if (f.from_insert) {
      nf.ilo = f.ipos;
      nf.ihi = UpperBoundRange(delta_->inserts[d], f.ipos, f.ihi, f.key);
    }
    // Tombstones live only under base subtrees (tombstones ⊆ base).
    if (f.from_base && f.thi > f.tlo) {
      nf.tlo = LowerBoundRange(delta_->tombstones[d], f.tlo, f.thi, f.key);
      nf.thi = UpperBoundRange(delta_->tombstones[d], nf.tlo, f.thi, f.key);
    }
  }
  nf.bpos = nf.blo;
  nf.ipos = nf.ilo;
  ++depth_;
  frames_.push_back(nf);
  Reposition(&frames_.back(), static_cast<size_t>(depth_));
}

void RelationDeltaTrieIterator::Up() {
  XJ_DCHECK(depth_ >= 0);
  frames_.pop_back();
  --depth_;
}

bool RelationDeltaTrieIterator::AtEnd() const {
  XJ_DCHECK(depth_ >= 0);
  return frames_[static_cast<size_t>(depth_)].exhausted;
}

int64_t RelationDeltaTrieIterator::Key() const {
  XJ_DCHECK(!AtEnd());
  return frames_[static_cast<size_t>(depth_)].key;
}

void RelationDeltaTrieIterator::Next() {
  XJ_DCHECK(!AtEnd());
  Frame& f = frames_[static_cast<size_t>(depth_)];
  const size_t d = static_cast<size_t>(depth_);
  // Base keys are distinct within the parent range; insert rows can
  // repeat the level key (one row per tuple), so skip the whole run.
  if (f.from_base) ++f.bpos;
  if (f.from_insert) {
    f.ipos = UpperBoundRange(delta_->inserts[d], f.ipos, f.ihi, f.key);
  }
  Reposition(&f, d);
}

void RelationDeltaTrieIterator::Seek(int64_t key) {
  XJ_DCHECK(!AtEnd());
  Frame& f = frames_[static_cast<size_t>(depth_)];
  const size_t d = static_cast<size_t>(depth_);
  f.bpos = LowerBoundRange(core_->keys[d], f.bpos, f.bhi, key);
  f.ipos = LowerBoundRange(delta_->inserts[d], f.ipos, f.ihi, key);
  Reposition(&f, d);
}

int64_t RelationDeltaTrieIterator::EstimateKeys() const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  // Upper bound (conformance contract): remaining base keys plus
  // remaining insert rows; tombstones only shrink the true count, and
  // both cursors are monotone, so the estimate never grows.
  return static_cast<int64_t>((f.bhi - f.bpos) + (f.ihi - f.ipos));
}

size_t RelationDeltaTrieIterator::NextBlock(int64_t hi_exclusive,
                                            KeyBlock* out) {
  XJ_DCHECK(depth_ >= 0);
  Frame& f = frames_[static_cast<size_t>(depth_)];
  if (f.ipos >= f.ihi && f.tlo == f.thi) {
    // Pure-base tail: same contiguous copy as the plain CSR cursor.
    out->keys.clear();
    const std::vector<int64_t>& col =
        core_->keys[static_cast<size_t>(depth_)];
    size_t end = std::min(f.bpos + out->capacity, f.bhi);
    if (end > f.bpos && col[end - 1] >= hi_exclusive) {
      end = LowerBoundRange(col, f.bpos, end, hi_exclusive);
    }
    out->keys.assign(col.begin() + static_cast<ptrdiff_t>(f.bpos),
                     col.begin() + static_cast<ptrdiff_t>(end));
    f.bpos = end;
    Reposition(&f, static_cast<size_t>(depth_));
    return out->keys.size();
  }
  // Delta rows in range: fall back to the scalar merge drain.
  return TrieIterator::NextBlock(hi_exclusive, out);
}

bool RelationDeltaTrieIterator::RawLevelSpan(RawKeySpan* out) const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  // The raw-CSR kernels may only see this level when no delta rows can
  // surface in the remaining range; otherwise report unavailable and
  // the engine stays on the virtual (merging) protocol.
  if (f.ipos < f.ihi || f.tlo != f.thi) return false;
  out->keys = core_->keys[static_cast<size_t>(depth_)].data();
  out->pos = f.bpos;
  out->hi = f.bhi;
  return true;
}

std::unique_ptr<TrieIterator> RelationDeltaTrieIterator::Clone() const {
  return std::make_unique<RelationDeltaTrieIterator>(trie_);
}

}  // namespace xjoin
