#include "utils/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace missl {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

std::mutex& EmitMutex() {
  // Leaked so logging from late-exiting threads (pool workers during static
  // teardown) never touches a destroyed mutex.
  static std::mutex* mu = new std::mutex();
  return *mu;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace internal {

void LogEmit(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) <
      static_cast<int>(g_level.load(std::memory_order_relaxed)))
    return;
  const char* tag = "?";
  switch (level) {
    case LogLevel::kDebug: tag = "D"; break;
    case LogLevel::kInfo: tag = "I"; break;
    case LogLevel::kWarn: tag = "W"; break;
    case LogLevel::kError: tag = "E"; break;
    case LogLevel::kOff: return;
  }
  std::lock_guard<std::mutex> l(EmitMutex());
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

}  // namespace internal
}  // namespace missl
