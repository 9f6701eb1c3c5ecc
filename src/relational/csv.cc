#include "relational/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace xjoin {

namespace {

constexpr char kDelimiter = ',';

// Splits one CSV record honoring quotes. Returns ParseError on dangling
// quote.
Result<std::vector<std::string>> SplitCsvLine(std::string_view line,
                                              size_t line_no) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == kDelimiter) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) {
    return Status::ParseError("line " + std::to_string(line_no) +
                              ": unterminated quote");
  }
  fields.push_back(std::move(cur));
  return fields;
}

}  // namespace

Result<Relation> ReadCsv(std::string_view text, const CsvOptions& options,
                         Dictionary* dict) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) lines.push_back(line);
      start = i + 1;
    }
  }
  if (lines.empty()) return Status::ParseError("empty CSV input");

  size_t first_data = 0;
  std::vector<std::string> names;
  XJ_ASSIGN_OR_RETURN(std::vector<std::string> first_fields,
                      SplitCsvLine(lines[0], 1));
  size_t arity = first_fields.size();
  if (options.has_header) {
    for (auto& f : first_fields) names.emplace_back(TrimWhitespace(f));
    first_data = 1;
  } else {
    for (size_t c = 0; c < arity; ++c)
      names.push_back("col" + std::to_string(c));
  }
  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(names)));
  Relation rel(std::move(schema));

  Tuple row(arity);
  for (size_t ln = first_data; ln < lines.size(); ++ln) {
    XJ_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                        SplitCsvLine(lines[ln], ln + 1));
    if (fields.size() != arity) {
      return Status::ParseError(
          "line " + std::to_string(ln + 1) + ": expected " +
          std::to_string(arity) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (size_t c = 0; c < arity; ++c) row[c] = dict->Intern(fields[c]);
    rel.AppendRow(row);
  }
  return rel;
}

Result<Relation> ReadCsvFile(const std::string& path, const CsvOptions& options,
                             Dictionary* dict) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  auto rel = ReadCsv(text, options, dict);
  if (!rel.ok()) return rel.status().WithContext(path);
  return rel;
}

std::string WriteCsv(const Relation& relation, const Dictionary& dict) {
  std::ostringstream out;
  const auto& schema = relation.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    if (c) out << kDelimiter;
    out << schema.attribute(c);
  }
  out << "\n";
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      if (c) out << kDelimiter;
      const std::string& s = dict.Decode(relation.at(r, c));
      bool needs_quote = s.find(kDelimiter) != std::string::npos ||
                         s.find('"') != std::string::npos;
      if (needs_quote) {
        out << '"';
        for (char ch : s) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << s;
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace xjoin
