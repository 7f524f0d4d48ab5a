// Minimal leveled logging for the FlowTime libraries.
//
// Libraries must never write to stdout unconditionally (benches own stdout
// for their result tables), so all diagnostics go through this logger, which
// writes to stderr and is filtered by a process-wide level.
#pragma once

#include <sstream>
#include <string>

namespace flowtime::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the process-wide minimum level that is actually emitted.
/// Thread-safe; defaults to kWarn so tests and benches stay quiet.
void set_log_level(LogLevel level);

namespace detail {

// Stream-collecting helper behind the FT_LOG macro. Emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

bool level_enabled(LogLevel level);

}  // namespace detail

}  // namespace flowtime::util

// Usage: FT_LOG(kInfo) << "solved in " << pivots << " pivots";
#define FT_LOG(level)                                                       \
  if (!::flowtime::util::detail::level_enabled(                             \
          ::flowtime::util::LogLevel::level)) {                             \
  } else                                                                    \
    ::flowtime::util::detail::LogMessage(::flowtime::util::LogLevel::level, \
                                         __FILE__, __LINE__)
