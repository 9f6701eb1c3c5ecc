// In-memory columnar relations over dictionary codes.
#ifndef XJOIN_RELATIONAL_RELATION_H_
#define XJOIN_RELATIONAL_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"

namespace xjoin {

/// A tuple is one int64 code per schema attribute, in schema order.
using Tuple = std::vector<int64_t>;

/// The stable lexicographic order of `num_rows` rows given column-wise
/// (`columns[0]` most significant): element i is the index of the i-th
/// smallest row. An LSD radix over the bytes that vary in each column,
/// so small dictionary codes cost one or two counting passes per
/// column. The relational layer's one sort routine, shared by
/// Relation::SortAndDedup and RelationTrie::Build.
std::vector<size_t> SortedRowOrder(
    const std::vector<const std::vector<int64_t>*>& columns, size_t num_rows);

/// Column-oriented storage for a bag of tuples. Rows are addressed by
/// index; columns are contiguous vectors (cache-friendly scans, cheap
/// column projection for trie building).
class Relation {
 public:
  /// Creates an empty relation with the given schema.
  explicit Relation(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  /// Pre-reserves capacity for `rows` total rows in every column, so a
  /// producer with a size estimate (the join engine uses its level-0
  /// key-count estimate) avoids incremental growth entirely.
  void Reserve(size_t rows);

  /// Appends a row given in schema order. Precondition: row.size() == arity.
  void AppendRow(const Tuple& row);

  /// Appends `num_rows` rows given columnar (SoA): columns[c] points at
  /// `num_rows` values of attribute c, in schema order. One geometric
  /// reserve + contiguous copy per column — the batched engine's flush
  /// path, with no per-row temporaries. Precondition: columns has
  /// num_columns() entries.
  void AppendColumnBlock(const int64_t* const* columns, size_t num_rows);

  /// Appends every row of `other`, in order, by bulk column splice —
  /// O(columns) vector inserts, no per-row temporaries. Precondition:
  /// identical schema (same attribute names in the same order).
  void AppendRows(const Relation& other);

  /// Cell accessor.
  int64_t at(size_t row, size_t col) const { return columns_[col][row]; }

  /// Materializes row `row` as a Tuple.
  Tuple GetRow(size_t row) const;

  /// Whole column (by position).
  const std::vector<int64_t>& column(size_t col) const { return columns_[col]; }

  /// Keeps exactly the rows r with keep[r] != 0, in order, compacting
  /// every column in place. Precondition: keep.size() == num_rows().
  void KeepRows(const std::vector<uint8_t>& keep);

  /// Sorts rows lexicographically (schema order) and removes duplicate
  /// rows. Used to turn bags into sets before trie construction and
  /// result comparison. One linear pass first checks whether the rows
  /// already ascend (GenericJoin output always does, in plan order):
  /// then the cost is that pass plus an in-place drop of adjacent
  /// duplicates; only otherwise does it sort, with SortedRowOrder.
  void SortAndDedup();

  /// Returns all rows as tuples, in storage order.
  std::vector<Tuple> ToTuples() const;

  /// Builds a relation from schema + tuples (validates arity).
  static Result<Relation> FromTuples(Schema schema, std::vector<Tuple> tuples);

  /// True if `row` (schema order) occurs in this relation. O(n) scan;
  /// intended for tests.
  bool ContainsRow(const Tuple& row) const;

 private:
  Schema schema_;
  std::vector<std::vector<int64_t>> columns_;
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_RELATION_H_
