// Minimal leveled logger plus CHECK/DCHECK macros in the style of
// Arrow's util/logging.h. Logging goes to stderr; CHECK failures abort.
#ifndef XJOIN_COMMON_LOGGING_H_
#define XJOIN_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace xjoin {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4
};

/// Minimum severity that is actually emitted.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarning;

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace xjoin

#define XJ_LOG(level)                                                     \
  ::xjoin::internal::LogMessage(::xjoin::LogLevel::k##level, __FILE__, __LINE__)

#define XJ_CHECK(cond)                                                       \
  if (!(cond))                                                               \
  ::xjoin::internal::LogMessage(::xjoin::LogLevel::kFatal, __FILE__, __LINE__) \
      << "Check failed: " #cond " "

#define XJ_CHECK_OK(expr)                                                    \
  do {                                                                       \
    ::xjoin::Status _xj_ck = (expr);                                         \
    XJ_CHECK(_xj_ck.ok()) << _xj_ck.ToString();                              \
  } while (false)

#ifdef NDEBUG
#define XJ_DCHECK(cond) XJ_CHECK(true || (cond))
#else
#define XJ_DCHECK(cond) XJ_CHECK(cond)
#endif

#endif  // XJOIN_COMMON_LOGGING_H_
