#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace flowtime::util {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace detail {

bool level_enabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_level.load(std::memory_order_relaxed);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << level_name(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace detail

}  // namespace flowtime::util
