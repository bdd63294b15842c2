// Tiny leveled logger used by the trainer and benches; writes to stderr.
// Safe to call from any thread: each statement is formatted in its own
// stream and emitted under a global mutex, so concurrent messages never
// interleave mid-line. Hot loops should still prefer metrics/tracing
// (src/obs/) over logging — a log statement costs a lock and an fprintf.
#ifndef MISSL_UTILS_LOGGING_H_
#define MISSL_UTILS_LOGGING_H_

#include <sstream>
#include <string>

namespace missl {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that will be emitted.
void SetLogLevel(LogLevel level);

namespace internal {
void LogEmit(LogLevel level, const std::string& msg);

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogEmit(level_, ss_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    ss_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream ss_;
};
}  // namespace internal

}  // namespace missl

#define MISSL_LOG_DEBUG ::missl::internal::LogStream(::missl::LogLevel::kDebug)
#define MISSL_LOG_INFO ::missl::internal::LogStream(::missl::LogLevel::kInfo)
#define MISSL_LOG_WARN ::missl::internal::LogStream(::missl::LogLevel::kWarn)
#define MISSL_LOG_ERROR ::missl::internal::LogStream(::missl::LogLevel::kError)

#endif  // MISSL_UTILS_LOGGING_H_
