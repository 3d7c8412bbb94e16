// Wall-clock timers for runtime metrics (makespan, compute+ time,
// messaging time, barrier time).
#ifndef GRAPHITE_UTIL_TIMER_H_
#define GRAPHITE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace graphite {

/// Monotonic nanosecond clock reading.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII region timer adding its lifetime to a counter in nanoseconds.
class ScopedTimer {
 public:
  explicit ScopedTimer(int64_t* sink) : sink_(sink), start_(NowNanos()) {}
  ~ScopedTimer() { *sink_ += NowNanos() - start_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t* sink_;
  int64_t start_;
};

}  // namespace graphite

#endif  // GRAPHITE_UTIL_TIMER_H_
