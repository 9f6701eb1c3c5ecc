// Materialized tries over columnar relations, stored as CSR level
// arrays: level d keeps a dense array of distinct keys (given the bound
// prefix) plus child offsets into level d+1 — classic compressed-
// sparse-row nesting. Cursors are O(1) per Open/Next/Up/EstimateKeys;
// Seek gallops inside the current parent's (small) child range.
//
// Incremental maintenance: the CSR arrays are an immutable shared base
// (`Core`, behind a shared_ptr), and a trie may additionally carry a
// small sorted delta side-file (`Delta`: pending insert rows plus
// tombstones over base rows). ApplyDelta produces a NEW trie value that
// shares the base arrays — callers holding the old trie (session
// snapshot pins, in-flight plans) are never mutated under them — and
// folds the delta into a fresh Core (amortized compaction) once it
// exceeds a size ratio, so single-tuple updates never pay a full radix
// rebuild.
#ifndef XJOIN_RELATIONAL_TRIE_H_
#define XJOIN_RELATIONAL_TRIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"

namespace xjoin {

/// Knobs for RelationTrie::Build.
struct TrieBuildOptions {
  /// Worker threads for the per-level CSR construction (the sort stays
  /// serial — it is the LSD radix fast path). <= 1 builds fully inline.
  int num_threads = 1;
  /// Nullable counters: "trie.builds", "trie.build_micros",
  /// "trie.radix_sorts".
  Metrics* metrics = nullptr;
};

/// Knobs for RelationTrie::ApplyDelta.
struct TrieDeltaOptions {
  /// Fold the pending delta into fresh level arrays once
  /// inserts + tombstones exceed max(compact_min_rows,
  /// compact_ratio * base leaf count). Compaction is a linear merge of
  /// the (already sorted) base enumeration with the delta — no radix
  /// re-sort — so the amortized cost per updated tuple stays O(k).
  double compact_ratio = 0.25;
  size_t compact_min_rows = 64;
  /// Compact unconditionally (tests; also used by benchmarks to pin the
  /// compaction boundary).
  bool force_compact = false;
  /// Nullable counters: "trie.delta_applies", "trie.compactions",
  /// "trie.compact_micros".
  Metrics* metrics = nullptr;
};

/// A relation deduplicated and sorted lexicographically under an
/// attribute permutation, flattened into one CSR level per attribute:
///
///   keys[d]        — all level-d trie nodes' keys, parent-major
///   child_begin[d] — node i at level d owns keys[d+1] entries
///                    [child_begin[d][i], child_begin[d][i+1])
///
/// Build sorts dictionary codes with an LSD radix sort (SortedRowOrder,
/// relational/relation.h) and assembles the per-level arrays in one
/// pass over the sorted columns — duplicate rows fold away during that
/// pass, no re-reads of the unsorted relation.
///
/// The logical contents of a trie are (base \ tombstones) ∪ inserts;
/// the delta is empty for freshly built or just-compacted tries, and
/// iterators merge it on the fly otherwise (see
/// RelationDeltaTrieIterator).
class RelationTrie {
 public:
  /// Builds the CSR trie for `relation` under the attribute order given
  /// as a list of attribute names (must be exactly the relation's
  /// attributes, possibly permuted).
  static Result<RelationTrie> Build(const Relation& relation,
                                    const std::vector<std::string>& order,
                                    const TrieBuildOptions& options = {});

  /// Returns a new trie whose logical contents apply `deletes` then
  /// `inserts` (tuples in trie attribute order) on top of this trie.
  /// Deleting an absent tuple and inserting a present one are no-ops,
  /// so replaying the same batch is idempotent. The result shares this
  /// trie's base level arrays (copy-on-swap: `*this` is untouched)
  /// unless the merged pending delta crossed the compaction threshold,
  /// in which case it carries a freshly assembled Core and no delta.
  Result<RelationTrie> ApplyDelta(const std::vector<Tuple>& inserts,
                                  const std::vector<Tuple>& deletes,
                                  const TrieDeltaOptions& options = {}) const;

  /// Attribute names in trie (sorted) order.
  const std::vector<std::string>& attribute_order() const { return order_; }

  /// Number of distinct tuples: base leaves minus tombstones plus
  /// pending inserts.
  size_t num_rows() const {
    return base_rows() + delta_insert_rows() - delta_tombstone_rows();
  }
  int arity() const {
    return core_ == nullptr ? 0 : static_cast<int>(core_->keys.size());
  }

  /// True when a pending (not yet compacted) delta side-file is
  /// attached; NewIterator returns the merging cursor in that case.
  bool has_delta() const { return delta_ != nullptr; }
  size_t delta_insert_rows() const {
    return delta_ == nullptr ? 0 : delta_->insert_rows;
  }
  size_t delta_tombstone_rows() const {
    return delta_ == nullptr ? 0 : delta_->tombstone_rows;
  }

  /// True when `other` shares this trie's base level arrays — i.e. it
  /// was derived from the same Core by ApplyDelta without compaction.
  bool SharesBaseWith(const RelationTrie& other) const {
    return core_ != nullptr && core_ == other.core_;
  }

  /// Upper bound on the distinct keys at level `d` (base keys plus
  /// pending insert rows); the planner's shard/lead estimates use this
  /// instead of level_keys so delta tries plan sensibly.
  size_t LevelKeyEstimate(size_t d) const {
    size_t estimate = core_ == nullptr ? 0 : core_->keys[d].size();
    if (delta_ != nullptr) estimate += delta_->insert_rows;
    return estimate;
  }

  /// Appends the logical contents (delta merged) in lexicographic trie
  /// order. O(num_rows * arity); tests and compaction debugging.
  void EnumerateTuples(std::vector<Tuple>* out) const;

  /// Creates a cursor positioned at the virtual root.
  std::unique_ptr<TrieIterator> NewIterator() const;

  /// Heap bytes held by the CSR arrays plus any delta side-file. Used
  /// by the database's byte-budget trie cache for eviction accounting.
  size_t ByteSizeEstimate() const;

  /// Direct read access to the BASE CSR arrays (tests, debugging);
  /// pending delta rows are not reflected here.
  const std::vector<int64_t>& level_keys(size_t d) const {
    return core_->keys[d];
  }
  const std::vector<size_t>& child_begin(size_t d) const {
    return core_->child_begin[d];
  }

 private:
  RelationTrie() = default;

  friend class RelationTrieIterator;
  friend class RelationDeltaTrieIterator;

  /// The immutable CSR level arrays. Shared (never mutated) across
  /// every trie value derived by ApplyDelta without compaction, and
  /// across iterator clones on other threads.
  struct Core {
    std::vector<std::vector<int64_t>> keys;         // one per level
    std::vector<std::vector<size_t>> child_begin;   // one per level except last
  };

  /// The sorted delta side-file: columnar tuple rows in trie order,
  /// lexicographically sorted and distinct within each side. Invariants:
  /// inserts ∩ base = ∅, tombstones ⊆ base, inserts ∩ tombstones = ∅
  /// (ApplyDelta's classification enforces all three).
  struct Delta {
    std::vector<std::vector<int64_t>> inserts;     // k columns
    std::vector<std::vector<int64_t>> tombstones;  // k columns
    size_t insert_rows = 0;
    size_t tombstone_rows = 0;
  };

  size_t base_rows() const {
    return core_ == nullptr || core_->keys.empty() ? 0
                                                   : core_->keys.back().size();
  }
  bool BaseContains(const Tuple& tuple) const;

  std::vector<std::string> order_;
  std::shared_ptr<const Core> core_;
  std::shared_ptr<const Delta> delta_;  // null == no pending delta
};

/// Cursor over a RelationTrie with no pending delta. The state at depth
/// d is the half-open range [lo, hi) of keys[d] owned by the bound
/// prefix (the parent node's child range) plus the cursor position
/// within it, so Open, Next, Up, Key, AtEnd, and EstimateKeys are all
/// O(1); Seek is a gallop + binary search over the per-parent range
/// only.
class RelationTrieIterator final : public TrieIterator {
 public:
  explicit RelationTrieIterator(const RelationTrie* trie);

  int arity() const override { return trie_->arity(); }
  int depth() const override { return depth_; }
  void Open() override;
  void Up() override;
  bool AtEnd() const override;
  int64_t Key() const override;
  void Next() override;
  void Seek(int64_t key) override;
  int64_t EstimateKeys() const override;
  /// O(1)-per-key bulk drain: one bounds computation + a contiguous copy
  /// straight out of the CSR level array.
  size_t NextBlock(int64_t hi_exclusive, KeyBlock* out) override;
  /// CSR levels are sorted arrays, so the raw span is always available.
  bool RawLevelSpan(RawKeySpan* out) const override;
  /// Delta-free CSR storage is exactly the raw layout: always true.
  bool RawTrieSpans(RawTrieView* out) const override;
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  struct Frame {
    size_t lo, hi;  // the parent's child range within keys[depth]
    size_t pos;     // cursor, lo <= pos <= hi
  };

  const RelationTrie* trie_;
  int depth_ = -1;
  std::vector<Frame> frames_;
};

/// Cursor over a RelationTrie with a pending delta side-file: a
/// three-way sorted merge of the base CSR range, the pending insert
/// rows, and the tombstone rows for the bound prefix. Base keys whose
/// entire subtree is tombstoned are skipped; keys present in both the
/// base and an insert subtree (shared prefix) surface once. Upper-bound
/// EstimateKeys, scalar NextBlock except on pure-base tails, and
/// RawLevelSpan only when the current range has no delta rows (the
/// batched kernels fall back to scalar leapfrog otherwise) keep the
/// TrieIterator contract intact — see tests/trie_conformance_test.cc.
class RelationDeltaTrieIterator final : public TrieIterator {
 public:
  explicit RelationDeltaTrieIterator(const RelationTrie* trie);

  int arity() const override { return trie_->arity(); }
  int depth() const override { return depth_; }
  void Open() override;
  void Up() override;
  bool AtEnd() const override;
  int64_t Key() const override;
  void Next() override;
  void Seek(int64_t key) override;
  int64_t EstimateKeys() const override;
  size_t NextBlock(int64_t hi_exclusive, KeyBlock* out) override;
  bool RawLevelSpan(RawKeySpan* out) const override;
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  struct Frame {
    size_t blo = 0, bhi = 0, bpos = 0;  // base child range in keys[depth]
    size_t ilo = 0, ihi = 0, ipos = 0;  // pending-insert rows for the prefix
    size_t tlo = 0, thi = 0;            // tombstone rows for the prefix
    int64_t key = 0;                    // merged key when !exhausted
    bool from_base = false;             // key present in the base range
    bool from_insert = false;           // key present in the insert range
    bool exhausted = true;
  };

  /// Skips fully tombstoned base keys, then recomputes the merged head
  /// (key / from_base / from_insert / exhausted) at depth `d`.
  void Reposition(Frame* f, size_t d) const;
  /// Base leaves under the child node `node` of level `d` (cascaded
  /// child ranges, O(arity)); a base key dies only when its tombstone
  /// count equals this.
  size_t SubtreeLeafCount(size_t d, size_t node) const;

  const RelationTrie* trie_;
  const RelationTrie::Core* core_;
  const RelationTrie::Delta* delta_;
  int depth_ = -1;
  std::vector<Frame> frames_;
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_TRIE_H_
