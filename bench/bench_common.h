// Shared infrastructure for the reproduction benchmarks: dataset loading
// at a configurable scale, the (graph x algorithm x platform) sweep used
// by Table 2 / Fig. 4 / Fig. 5, and small reporting helpers.
//
// Every bench binary accepts an optional scale factor:
//     ./table2_speedup [scale]
// or the environment variable GRAPHITE_BENCH_SCALE. Scale 1.0 is the
// default laptop-sized configuration (about 1000x smaller than the
// paper's cluster datasets); larger values grow vertex/edge counts
// linearly.
#ifndef GRAPHITE_BENCH_BENCH_COMMON_H_
#define GRAPHITE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/runners.h"
#include "gen/generators.h"
#include "util/stats.h"

namespace graphite {
namespace bench {

/// Resolves the benchmark scale from argv[1] or GRAPHITE_BENCH_SCALE.
inline double ResolveScale(int argc, char** argv, double def = 1.0) {
  if (argc > 1) return std::atof(argv[1]);
  if (const char* env = std::getenv("GRAPHITE_BENCH_SCALE")) {
    return std::atof(env);
  }
  return def;
}

/// A generated dataset plus its prepared Workload.
struct BenchDataset {
  std::string name;
  std::string models;
  Workload workload;
};

/// Generates the six catalog datasets at `scale`.
inline std::vector<BenchDataset> LoadCatalog(double scale) {
  std::vector<BenchDataset> out;
  for (const DatasetSpec& spec : DatasetCatalog(scale)) {
    std::fprintf(stderr, "[gen] %s ...\n", spec.name.c_str());
    out.push_back(
        {spec.name, spec.models, Workload(Generate(spec.options))});
  }
  return out;
}

/// The highest-out-degree vertex: traversal benchmarks source from a hub
/// so they exercise real propagation instead of a 2-superstep fizzle.
inline VertexId HubVertex(const TemporalGraph& g) {
  VertexIdx best = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (g.OutEdges(v).size() > g.OutEdges(best).size()) best = v;
  }
  return g.vertex_id(best);
}

/// Cluster-modeled makespan (ms): compute critical path + 1 GbE network
/// model + barrier cost, identical model for every platform. See
/// RunMetrics::ClusterModel and DESIGN.md §4.
inline double ModeledMs(const RunMetrics& m, int num_workers = 8) {
  RunMetrics::ClusterModel model;
  model.num_workers = num_workers;
  return static_cast<double>(m.SimulatedMakespanNs(model)) / 1e6;
}

/// One measured run of the sweep.
struct SweepPoint {
  std::string graph;
  Algorithm algorithm;
  Platform platform;
  RunMetrics metrics;
};

/// Runs every supported (algorithm, platform) pair on each dataset.
/// `algorithms` defaults to all twelve.
inline std::vector<SweepPoint> RunSweep(
    std::vector<BenchDataset>& datasets, const RunConfig& config,
    const std::vector<Algorithm>& algorithms, bool include_icm = true) {
  std::vector<SweepPoint> points;
  for (BenchDataset& ds : datasets) {
    RunConfig ds_config = config;
    // Source traversals from a hub; target the farthest-id vertex.
    ds_config.source = HubVertex(ds.workload.graph());
    for (Algorithm a : algorithms) {
      for (Platform p : kAllPlatforms) {
        if (!Supports(p, a)) continue;
        if (!include_icm && p == Platform::kIcm) continue;
        std::fprintf(stderr, "[run] %-12s %-4s %-4s ...", ds.name.c_str(),
                     AlgorithmName(a), PlatformName(p));
        SweepPoint pt;
        pt.graph = ds.name;
        pt.algorithm = a;
        pt.platform = p;
        pt.metrics = RunForMetrics(ds.workload, p, a, ds_config);
        std::fprintf(stderr, " %.0f ms\n",
                     static_cast<double>(pt.metrics.makespan_ns) / 1e6);
        points.push_back(std::move(pt));
      }
    }
    ds.workload.DropDerived();
  }
  return points;
}

/// Finds a sweep point; aborts if absent.
inline const SweepPoint& Find(const std::vector<SweepPoint>& points,
                              const std::string& graph, Algorithm a,
                              Platform p) {
  for (const SweepPoint& pt : points) {
    if (pt.graph == graph && pt.algorithm == a && pt.platform == p) return pt;
  }
  GRAPHITE_CHECK(false);
  return points.front();
}

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace bench
}  // namespace graphite

#endif  // GRAPHITE_BENCH_BENCH_COMMON_H_
