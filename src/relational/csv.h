// CSV ingestion: parse comma-separated text into a Relation,
// dictionary-encoding every cell. Supports quoted fields with embedded
// commas and doubled quotes (RFC 4180 subset, no embedded newlines).
#ifndef XJOIN_RELATIONAL_CSV_H_
#define XJOIN_RELATIONAL_CSV_H_

#include <string>
#include <string_view>

#include "common/dictionary.h"
#include "common/status.h"
#include "relational/relation.h"

namespace xjoin {

/// Options for ReadCsv.
struct CsvOptions {
  /// If true the first line provides attribute names; otherwise names are
  /// col0, col1, ...
  bool has_header = true;
};

/// Parses `text` into a relation, interning every cell's bytes verbatim
/// into `dict` (no trimming or numeric canonicalization: "007" and "7"
/// get distinct codes).
Result<Relation> ReadCsv(std::string_view text, const CsvOptions& options,
                         Dictionary* dict);

/// Reads a file and delegates to ReadCsv.
Result<Relation> ReadCsvFile(const std::string& path, const CsvOptions& options,
                             Dictionary* dict);

/// Renders `relation` as CSV, decoding codes through `dict`.
std::string WriteCsv(const Relation& relation, const Dictionary& dict);

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_CSV_H_
