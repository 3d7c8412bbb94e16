// In-memory span recorder for the traced benchmark run, written out at
// exit as Chrome trace-event JSON (chrome://tracing, Perfetto), plus the
// order statistics the metrics use.
//
// A span is one layer's share of one request or in-process call: name
// "<layer>.<operation>", start, duration, and the span that caused it.
// A span's self time is its duration minus the part its children cover;
// bench/e2e/summarize.py computes that per layer from the written file.
#ifndef GRAPHITE_BENCH_E2E_TRACE_H_
#define GRAPHITE_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/status.h"
#include "util/timer.h"

namespace graphite {
namespace e2e {

struct Span {
  const char* name;   ///< Static "<layer>.<operation>" string.
  int64_t start_ns;   ///< NowNanos clock.
  int64_t dur_ns;
  int64_t request;    ///< Wire request id; -1 for in-process calls.
  int parent;         ///< Index of the causing span; -1 for a root.
  int tid;            ///< Chrome track: connection + 1, or 0 in-process.
};

class Tracer {
 public:
  /// Records a span; returns its index (a parent handle).
  int Add(const char* name, int64_t start_ns, int64_t dur_ns,
          int64_t request, int parent, int tid) {
    spans_.push_back({name, start_ns, dur_ns, request, parent, tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Runs `f`, recording it as an in-process span; returns the elapsed
  /// nanoseconds.
  template <typename F>
  int64_t Time(const char* name, F&& f) {
    const int64_t t0 = NowNanos();
    f();
    const int64_t dur = NowNanos() - t0;
    Add(name, t0, dur, -1, -1, 0);
    return dur;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"traceEvents": [...], "displayTimeUnit": "ms",
  /// "otherData": <other_data>} to `path`. `other_data` is a serialized
  /// JSON object (the run's identity and per-layer metrics).
  Status WriteChrome(const std::string& path,
                     const std::string& other_data) const;

 private:
  std::vector<Span> spans_;
};

/// Nearest-rank quantile of `v` (reordered in place); q in [0, 1]. NaN
/// when `v` is empty. Failed requests enter as +infinity.
double Quantile(std::vector<double>& v, double q);

}  // namespace e2e
}  // namespace graphite

#endif  // GRAPHITE_BENCH_E2E_TRACE_H_
