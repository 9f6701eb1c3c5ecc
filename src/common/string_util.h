// Small string helpers shared by the parsers and CSV reader.
#ifndef XJOIN_COMMON_STRING_UTIL_H_
#define XJOIN_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xjoin {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Parses a base-10 unsigned integer; rejects signs, trailing garbage,
/// and overflow.
Result<uint64_t> ParseUint64(std::string_view s);

/// Reads environment variable `name` as an unsigned integer. Unset
/// returns `fallback` silently; a malformed value (e.g. "banana",
/// "-3", "12x") logs one warning and returns `fallback`, so a typo'd
/// XJOIN_FAULT_SEED degrades to a deterministic default instead of
/// silently becoming 0.
uint64_t EnvUint64OrDefault(const char* name, uint64_t fallback);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Renders a double compactly ("3.5", not "3.500000").
std::string FormatDouble(double v);

/// Canonical spelling of a multi-model query text, used as a cache key
/// component: whitespace runs collapse to one space, the ends are
/// trimmed, and spaces adjacent to the query grammar's punctuation
/// (",():=[]/") are dropped — so "Q(*) := R , S" and "Q(*):=R,S" map to
/// the same key. Spaces inside identifiers are preserved (collapsed to
/// one), so distinct registered names cannot collide.
std::string CanonicalizeQueryText(std::string_view text);

}  // namespace xjoin

#endif  // XJOIN_COMMON_STRING_UTIL_H_
