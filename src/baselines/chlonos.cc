#include "baselines/chlonos.h"

namespace graphite {

BaselineOutcome<int64_t> RunChlonosScc(const TemporalGraph& g,
                                       const TemporalGraph& reversed,
                                       const ChlonosOptions& options) {
  const size_t n = g.num_vertices();
  const TimePoint T = g.horizon();
  BaselineOutcome<int64_t> out;
  out.result.resize(n);

  // Per-snapshot assignment state shared with the phase kernels.
  std::vector<std::vector<int64_t>> assigned_by_t(
      static_cast<size_t>(T), std::vector<int64_t>(n, -1));

  for (TimePoint b0 = 0; b0 < T; b0 += options.batch_size) {
    const TimePoint b1 = std::min<TimePoint>(b0 + options.batch_size, T);
    const Interval window(b0, b1);

    auto remaining = [&]() {
      size_t count = 0;
      for (TimePoint t = b0; t < b1; ++t) {
        for (VertexIdx v = 0; v < n; ++v) {
          if (g.vertex_interval(v).Contains(t) &&
              assigned_by_t[static_cast<size_t>(t)][v] < 0) {
            ++count;
          }
        }
      }
      return count;
    };

    while (remaining() > 0) {
      auto fwd = RunChlonos<VcmSccForward>(
          g, options,
          [&](const SnapshotAdapter& a) {
            return VcmSccForward(
                a, assigned_by_t[static_cast<size_t>(a.view().time())]);
          },
          window);
      out.metrics.Merge(fwd.metrics);
      // Materialize colors per snapshot for the backward kernels.
      std::vector<std::vector<int64_t>> colors_by_t(
          static_cast<size_t>(T), std::vector<int64_t>(n, -1));
      for (VertexIdx v = 0; v < n; ++v) {
        for (TimePoint t = b0; t < b1; ++t) {
          colors_by_t[static_cast<size_t>(t)][v] =
              fwd.result[v].Get(t).value_or(-1);
        }
      }
      auto bwd = RunChlonos<VcmSccBackward>(
          reversed, options,
          [&](const SnapshotAdapter& a) {
            const size_t t = static_cast<size_t>(a.view().time());
            return VcmSccBackward(a, colors_by_t[t], assigned_by_t[t]);
          },
          window);
      out.metrics.Merge(bwd.metrics);

      size_t newly = 0;
      for (VertexIdx v = 0; v < n; ++v) {
        for (TimePoint t = b0; t < b1; ++t) {
          if (!g.vertex_interval(v).Contains(t)) continue;
          auto& slot = assigned_by_t[static_cast<size_t>(t)][v];
          if (slot >= 0) continue;
          const int64_t label = bwd.result[v].Get(t).value_or(-1);
          if (label >= 0) {
            slot = label;
            ++newly;
          }
        }
      }
      GRAPHITE_CHECK(newly > 0);
    }
  }

  for (VertexIdx v = 0; v < n; ++v) {
    for (TimePoint t = 0; t < T; ++t) {
      if (g.vertex_interval(v).Contains(t)) {
        out.result[v].Set(Interval(t, t + 1),
                          assigned_by_t[static_cast<size_t>(t)][v]);
      }
    }
    out.result[v].Coalesce();
  }
  return out;
}

}  // namespace graphite
