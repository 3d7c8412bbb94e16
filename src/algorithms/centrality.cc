#include "algorithms/centrality.h"

#include <algorithm>

#include "algorithms/icm_path.h"
#include "util/rng.h"

namespace graphite {

namespace {

// Earliest arrival per vertex from one ICM EAT run (kInfCost unreached).
std::vector<int64_t> EatFrom(const TemporalGraph& g, VertexIdx source,
                             const IcmOptions& options, RunMetrics* metrics) {
  IcmEat program(g, g.vertex_id(source));
  auto result = IcmEngine<IcmEat>::Run(g, program, options);
  metrics->Merge(result.metrics);
  return FoldPerVertex(result.states, kInfCost,
                       [](int64_t& eat, const auto& entry) {
                         eat = std::min(eat, entry.value);
                       });
}

}  // namespace

ClosenessResult TemporalCloseness(const TemporalGraph& g,
                                  const ClosenessOptions& options) {
  ClosenessResult out;
  out.closeness.assign(g.num_vertices(), -1.0);
  const size_t n = g.num_vertices();
  if (n == 0) return out;

  if (options.num_samples <= 0 ||
      static_cast<size_t>(options.num_samples) >= n) {
    out.sources.resize(n);
    for (VertexIdx v = 0; v < n; ++v) out.sources[v] = v;
  } else {
    // Deterministic sample without replacement (partial Fisher-Yates).
    Rng rng(options.seed);
    std::vector<VertexIdx> pool(n);
    for (VertexIdx v = 0; v < n; ++v) pool[v] = v;
    for (int i = 0; i < options.num_samples; ++i) {
      const size_t j =
          i + static_cast<size_t>(rng.Uniform(n - static_cast<size_t>(i)));
      std::swap(pool[static_cast<size_t>(i)], pool[j]);
      out.sources.push_back(pool[static_cast<size_t>(i)]);
    }
    std::sort(out.sources.begin(), out.sources.end());
  }

  for (VertexIdx source : out.sources) {
    const auto eat = EatFrom(g, source, options.icm, &out.metrics);
    const TimePoint start =
        std::max<TimePoint>(0, g.vertex_interval(source).start);
    double c = 0;
    for (VertexIdx u = 0; u < n; ++u) {
      if (u == source || eat[u] == kInfCost) continue;
      // Harmonic contribution of the propagation delay (+1 so same-instant
      // reaches contribute 1 rather than dividing by zero).
      c += 1.0 / static_cast<double>(eat[u] - start + 1);
    }
    out.closeness[source] = c;
  }
  return out;
}

std::vector<int64_t> PropagationRamp(const TemporalGraph& g, VertexId source,
                                     const IcmOptions& options) {
  RunMetrics scratch;
  auto idx = g.IndexOf(source);
  GRAPHITE_CHECK(idx.has_value());
  const auto eat = EatFrom(g, *idx, options, &scratch);
  std::vector<int64_t> ramp(static_cast<size_t>(g.horizon()), 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (eat[v] == kInfCost) continue;
    for (TimePoint t = std::max<TimePoint>(0, eat[v]); t < g.horizon(); ++t) {
      ++ramp[static_cast<size_t>(t)];
    }
  }
  return ramp;
}

std::vector<int64_t> TemporalDegreeCentrality(const TemporalGraph& g) {
  std::vector<int64_t> degree(g.num_vertices(), 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const StoredEdge& e : g.OutEdges(v)) {
      degree[v] += g.ClipToHorizon(e.interval).Length();
    }
  }
  return degree;
}

}  // namespace graphite
