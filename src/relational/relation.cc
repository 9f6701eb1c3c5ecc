#include "relational/relation.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace xjoin {

namespace {

// Order-preserving map from int64 to uint64 (flips the sign bit so
// unsigned digit comparison matches signed order).
inline uint64_t OrderedBits(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

// One stable LSD counting pass over the 8-bit digit of `col` at `shift`,
// permuting `src` into `dst`.
void RadixPass(const std::vector<int64_t>& col, int shift,
               const std::vector<size_t>& src, std::vector<size_t>* dst) {
  size_t count[256] = {0};
  for (size_t r : src) ++count[(OrderedBits(col[r]) >> shift) & 0xFF];
  size_t offsets[256];
  size_t running = 0;
  for (int digit = 0; digit < 256; ++digit) {
    offsets[digit] = running;
    running += count[digit];
  }
  for (size_t r : src) {
    (*dst)[offsets[(OrderedBits(col[r]) >> shift) & 0xFF]++] = r;
  }
}

}  // namespace

std::vector<size_t> SortedRowOrder(
    const std::vector<const std::vector<int64_t>*>& columns, size_t num_rows) {
  std::vector<size_t> rows(num_rows);
  std::iota(rows.begin(), rows.end(), size_t{0});
  if (num_rows < 2) return rows;
  std::vector<size_t> scratch(num_rows);
  // Least-significant column first; within a column, a byte that is the
  // same in every row costs nothing beyond the variation scan.
  for (size_t c = columns.size(); c-- > 0;) {
    const std::vector<int64_t>& col = *columns[c];
    const uint64_t first = OrderedBits(col[0]);
    uint64_t varying = 0;
    for (size_t i = 0; i < num_rows; ++i) {
      varying |= OrderedBits(col[i]) ^ first;
    }
    for (int byte = 0; byte < 8; ++byte) {
      if (((varying >> (8 * byte)) & 0xFF) == 0) continue;
      RadixPass(col, 8 * byte, rows, &scratch);
      rows.swap(scratch);
    }
  }
  return rows;
}

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.size());
}

void Relation::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

void Relation::AppendRow(const Tuple& row) {
  XJ_DCHECK(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(row[c]);
}

void Relation::AppendColumnBlock(const int64_t* const* columns,
                                 size_t num_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<int64_t>& col = columns_[c];
    // Grow geometrically: vector::insert is only required to fit, so an
    // unlucky sequence of block flushes could otherwise reallocate on
    // every flush.
    size_t need = col.size() + num_rows;
    if (need > col.capacity()) {
      col.reserve(std::max(need, col.capacity() * 2));
    }
    col.insert(col.end(), columns[c], columns[c] + num_rows);
  }
}

void Relation::AppendRows(const Relation& other) {
  XJ_DCHECK(schema_ == other.schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                       other.columns_[c].end());
  }
}

Tuple Relation::GetRow(size_t row) const {
  Tuple t(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) t[c] = columns_[c][row];
  return t;
}

void Relation::KeepRows(const std::vector<uint8_t>& keep) {
  XJ_DCHECK(keep.size() == num_rows());
  for (auto& col : columns_) {
    size_t out = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      col[out] = col[r];
      out += keep[r] != 0 ? 1 : 0;
    }
    col.resize(out);
  }
}

void Relation::SortAndDedup() {
  const size_t n = num_rows();
  const size_t k = num_columns();
  if (n < 2) return;
  // Compares rows a and b lexicographically: <0, 0 or >0.
  auto compare = [this, k](size_t a, size_t b) {
    for (size_t c = 0; c < k; ++c) {
      const int64_t x = columns_[c][a];
      const int64_t y = columns_[c][b];
      if (x != y) return x < y ? -1 : 1;
    }
    return 0;
  };

  bool sorted = true;
  bool distinct = true;
  for (size_t i = 1; i < n && sorted; ++i) {
    const int cmp = compare(i - 1, i);
    sorted = cmp <= 0;
    distinct = distinct && cmp != 0;
  }
  if (sorted && distinct) return;
  if (!sorted) {
    std::vector<const std::vector<int64_t>*> cols(k);
    for (size_t c = 0; c < k; ++c) cols[c] = &columns_[c];
    const std::vector<size_t> order = SortedRowOrder(cols, n);
    std::vector<int64_t> permuted(n);
    for (auto& col : columns_) {
      for (size_t i = 0; i < n; ++i) permuted[i] = col[order[i]];
      col.swap(permuted);
    }
  }
  // Drop adjacent duplicates in place; row out-1 is the last kept row.
  size_t out = 1;
  for (size_t i = 1; i < n; ++i) {
    if (compare(out - 1, i) == 0) continue;
    if (out != i) {
      for (auto& col : columns_) col[out] = col[i];
    }
    ++out;
  }
  for (auto& col : columns_) col.resize(out);
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) out.push_back(GetRow(r));
  return out;
}

Result<Relation> Relation::FromTuples(Schema schema,
                                      std::vector<Tuple> tuples) {
  Relation rel(std::move(schema));
  for (const auto& t : tuples) {
    if (t.size() != rel.num_columns()) {
      return Status::InvalidArgument("tuple arity mismatch");
    }
    rel.AppendRow(t);
  }
  return rel;
}

bool Relation::ContainsRow(const Tuple& row) const {
  if (row.size() != num_columns()) return false;
  for (size_t r = 0; r < num_rows(); ++r) {
    bool same = true;
    for (size_t c = 0; c < num_columns(); ++c) {
      if (columns_[c][r] != row[c]) {
        same = false;
        break;
      }
    }
    if (same) return true;
  }
  return false;
}

}  // namespace xjoin
