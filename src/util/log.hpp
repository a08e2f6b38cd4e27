#pragma once

#include <sstream>
#include <string>

namespace nexit::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log threshold (kWarn); messages below it are discarded so
/// normal output stays clean.
LogLevel log_level();

/// Emits one line to stderr: "[LEVEL] message".
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace nexit::util

#define NEXIT_LOG(level)                                      \
  if (static_cast<int>(level) < static_cast<int>(::nexit::util::log_level())) { \
  } else                                                      \
    ::nexit::util::detail::LogStream(level)

#define NEXIT_DEBUG NEXIT_LOG(::nexit::util::LogLevel::kDebug)
#define NEXIT_INFO NEXIT_LOG(::nexit::util::LogLevel::kInfo)
#define NEXIT_WARN NEXIT_LOG(::nexit::util::LogLevel::kWarn)
#define NEXIT_ERROR NEXIT_LOG(::nexit::util::LogLevel::kError)
