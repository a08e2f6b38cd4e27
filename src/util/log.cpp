#include "util/log.hpp"

#include <iostream>
#include <mutex>

namespace nexit::util {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarn;
// Experiment workers log concurrently; serialize so lines never interleave.
std::mutex g_log_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return kLevel; }

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(kLevel)) return;
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::cerr << "[" << level_name(level) << "] " << message << "\n";
}

}  // namespace nexit::util
