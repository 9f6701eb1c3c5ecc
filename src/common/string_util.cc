#include "common/string_util.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace xjoin {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e &&
         (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

Result<uint64_t> ParseUint64(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty integer literal");
  // strtoull happily accepts "-1" (wrapping it); reject signs up front.
  if (s.front() == '-' || s.front() == '+') {
    return Status::ParseError("invalid unsigned integer literal: " +
                              std::string(s));
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer overflow: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid unsigned integer literal: " + buf);
  }
  return static_cast<uint64_t>(v);
}

uint64_t EnvUint64OrDefault(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  Result<uint64_t> parsed = ParseUint64(value);
  if (!parsed.ok()) {
    XJ_LOG(Warning) << "ignoring malformed " << name << "='" << value
                    << "' (" << parsed.status().message() << "); using "
                    << fallback;
    return fallback;
  }
  return *parsed;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string CanonicalizeQueryText(std::string_view text) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  auto is_punct = [](char c) {
    return c == ',' || c == '(' || c == ')' || c == ':' || c == '=' ||
           c == '[' || c == ']' || c == '/';
  };
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (!is_space(text[i])) {
      out += text[i++];
      continue;
    }
    while (i < text.size() && is_space(text[i])) ++i;
    // A whitespace run survives (as one space) only between two
    // identifier characters; next to punctuation or at the ends the
    // parser ignores it.
    if (!out.empty() && !is_punct(out.back()) && i < text.size() &&
        !is_punct(text[i])) {
      out += ' ';
    }
  }
  return out;
}

}  // namespace xjoin
