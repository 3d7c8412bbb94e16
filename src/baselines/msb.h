// MSB — the Multi-Snapshot Baseline (paper §VII-A3): loads and executes on
// each snapshot independently with plain vertex-centric logic. The
// reference point every other platform is compared against for TI
// algorithms; maximum redundancy across time, zero sharing.
#ifndef GRAPHITE_BASELINES_MSB_H_
#define GRAPHITE_BASELINES_MSB_H_

#include "algorithms/common.h"
#include "algorithms/vcm_ti_kernels.h"

namespace graphite {

/// Result of a per-snapshot baseline run: per-(vertex, time) outcome plus
/// metrics summed over all snapshots.
template <typename V>
struct BaselineOutcome {
  TemporalResult<V> result;
  RunMetrics metrics;
};

namespace msb_internal {

/// Shared MSB loop: for each snapshot, builds the program via
/// `make_program(adapter)`, runs it and stores per-vertex values.
template <typename V, typename MakeProgram>
BaselineOutcome<V> RunPerSnapshot(const TemporalGraph& g,
                                  const VcmOptions& options,
                                  MakeProgram&& make_program) {
  BaselineOutcome<V> out;
  out.result.resize(g.num_vertices());
  for (TimePoint t = 0; t < g.horizon(); ++t) {
    SnapshotAdapter adapter{SnapshotView(&g, t)};
    auto program = make_program(adapter);
    std::vector<V> values;
    out.metrics.Merge(RunVcm(adapter, program, options, &values));
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      if (adapter.UnitExists(v)) {
        out.result[v].Set(Interval(t, t + 1), values[v]);
      }
    }
  }
  for (auto& map : out.result) map.Coalesce();
  return out;
}

}  // namespace msb_internal

/// BFS per snapshot from `source`.
inline BaselineOutcome<int64_t> RunMsbBfs(const TemporalGraph& g,
                                          VertexId source,
                                          const VcmOptions& options) {
  return msb_internal::RunPerSnapshot<int64_t>(
      g, options,
      [&](const SnapshotAdapter& a) { return VcmBfs(a, source); });
}

/// WCC per snapshot; `undirected` must be MakeUndirected of the graph.
inline BaselineOutcome<int64_t> RunMsbWcc(const TemporalGraph& undirected,
                                          const VcmOptions& options) {
  return msb_internal::RunPerSnapshot<int64_t>(
      undirected, options,
      [&](const SnapshotAdapter& a) { return VcmWcc(a); });
}

/// PageRank per snapshot (always-active, fixed iterations).
inline BaselineOutcome<double> RunMsbPageRank(const TemporalGraph& g,
                                              const VcmOptions& options) {
  return msb_internal::RunPerSnapshot<double>(
      g, VcmPageRankOptions(options),
      [&](const SnapshotAdapter& a) { return VcmPageRank(a); });
}

/// SCC per snapshot via forward-backward coloring; `reversed` must be
/// ReverseGraph of `g`.
inline BaselineOutcome<int64_t> RunMsbScc(const TemporalGraph& g,
                                          const TemporalGraph& reversed,
                                          const VcmOptions& options) {
  BaselineOutcome<int64_t> out;
  out.result.resize(g.num_vertices());
  for (TimePoint t = 0; t < g.horizon(); ++t) {
    const std::vector<int64_t> labels =
        RunVcmSccSnapshot(g, reversed, t, options, &out.metrics);
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      if (labels[v] != kInfCost) {
        out.result[v].Set(Interval(t, t + 1), labels[v]);
      }
    }
  }
  for (auto& map : out.result) map.Coalesce();
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_BASELINES_MSB_H_
