#pragma once
// Minimal leveled logger, safe under concurrency. The benches print
// paper-style tables to stdout; the logger carries diagnostics on stderr by
// default and can be silenced globally (tests run with level = kError).
//
// Thread-safety contract (the synthesis daemon makes concurrent logging the
// common case):
//  * the threshold is an atomic — readers never race writers;
//  * each message is composed into one string and emitted with a single
//    guarded write, so concurrent pool workers / service sessions can
//    never interleave partial lines;
//  * the sink is injectable (set_sink) for daemons that log to a file and
//    for tests that assert on per-line atomicity.

#include <atomic>
#include <ostream>
#include <sstream>
#include <string>

namespace emorphic {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static LogLevel threshold() {
    return threshold_ref().load(std::memory_order_relaxed);
  }
  static void set_threshold(LogLevel level) {
    threshold_ref().store(level, std::memory_order_relaxed);
  }

  /// Redirect all log output to `sink` (nullptr restores stderr). The sink
  /// must outlive every subsequent log call; writes to it are serialized by
  /// the logger's internal mutex, but nothing stops other code from writing
  /// to the same stream unguarded — give the logger its own stream.
  static void set_sink(std::ostream* sink);

  /// Emit one line: "[LEVEL] message\n", written atomically.
  static void log(LogLevel level, const std::string& message);

 private:
  static std::atomic<LogLevel>& threshold_ref();
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::log(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace emorphic
