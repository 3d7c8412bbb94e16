// Shared test fixtures: the paper's Fig. 1 transit network, random
// temporal-graph generation for property tests, and the one graph
// comparator.
#ifndef GRAPHITE_TESTS_TESTUTIL_H_
#define GRAPHITE_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/common.h"
#include "graph/builder.h"
#include "graph/temporal_graph.h"
#include "io/text_format.h"
#include "util/rng.h"

namespace graphite {
namespace testutil {

// Vertex ids of the Fig. 1 transit network.
inline constexpr VertexId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4, kF = 5;

/// The paper's Fig. 1(a) transit network, reconstructed from the worked
/// SSSP example (§I intro, Alg. 1 walk-through, and the §IV-B warp
/// example). All vertices live [0, inf); travel time is 1 on every edge.
///   A->B  cost 4 on [3,5), cost 3 on [5,6)  (A's scatter runs twice)
///   A->C  cost 3 on [1,2)                   (A1 -> C2, cost 3)
///   A->D  cost 2 on [2,4)                   (D reachable, cost 2)
///   C->E  cost 4 on [5,6)                   (C5 -> E6, total 7)
///   B->E  cost 2 on [8,9)                   (B8 -> E9, total 5)
///   D->F  cost 1 on [1,2)                   (F unreachable from A: D is
///                                            reached only from t>=3)
/// Expected SSSP-from-A fixpoint (paper): B costs 4 then 3 over two
/// intervals; C cost 3; D cost 2; E costs 7 then 5; F unreached.
inline TemporalGraph MakeTransitGraph() {
  TemporalGraphBuilder b;
  const Interval forever(0, kTimeMax);
  for (VertexId v : {kA, kB, kC, kD, kE, kF}) b.AddVertex(v, forever);

  auto edge = [&b](EdgeId eid, VertexId s, VertexId d, TimePoint t0,
                   TimePoint t1, PropValue cost) {
    b.AddEdge(eid, s, d, Interval(t0, t1));
    b.SetEdgeProperty(eid, kTravelTimeLabel, Interval(t0, t1), 1);
    b.SetEdgeProperty(eid, kTravelCostLabel, Interval(t0, t1), cost);
  };
  // A->B is ONE edge with lifespan [3,6) and a cost property that changes
  // value at t=5, exactly as in the paper's superstep-1 narration.
  b.AddEdge(10, kA, kB, Interval(3, 6));
  b.SetEdgeProperty(10, kTravelTimeLabel, Interval(3, 6), 1);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(3, 5), 4);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(5, 6), 3);

  edge(11, kA, kC, 1, 2, 3);
  edge(12, kA, kD, 2, 4, 2);
  edge(13, kC, kE, 5, 6, 4);
  edge(14, kB, kE, 8, 9, 2);
  edge(15, kD, kF, 1, 2, 1);

  BuilderOptions options;
  options.horizon = 10;
  auto g = b.Build(options);
  GRAPHITE_CHECK(g.ok());
  return std::move(g).value();
}

/// Options for random temporal multi-graphs used in cross-platform
/// equivalence tests.
struct RandomGraphOptions {
  int num_vertices = 24;
  int num_edges = 60;
  TimePoint horizon = 12;
  /// Probability an entity lifespan is unit-length (GPlus-like mix).
  double unit_lifespan_prob = 0.3;
  /// Probability a vertex lives for the whole horizon.
  double full_lifespan_prob = 0.5;
  /// Maximum travel-time property value (>=1).
  TimePoint max_travel_time = 3;
  /// Maximum travel-cost property value (>=1).
  PropValue max_cost = 9;
  /// Number of property segments per edge (cost varies over time).
  int prop_segments = 2;
  bool with_properties = true;
};

/// Deterministic random temporal graph satisfying Constraints 1-3.
inline TemporalGraph MakeRandomGraph(uint64_t seed,
                                     const RandomGraphOptions& opt = {}) {
  Rng rng(seed);
  TemporalGraphBuilder b;
  std::vector<Interval> spans(opt.num_vertices);
  for (int v = 0; v < opt.num_vertices; ++v) {
    Interval span;
    if (rng.Bernoulli(opt.full_lifespan_prob)) {
      span = Interval(0, opt.horizon);
    } else {
      const TimePoint s = rng.UniformRange(0, opt.horizon - 1);
      const TimePoint e = rng.Bernoulli(opt.unit_lifespan_prob)
                              ? s + 1
                              : rng.UniformRange(s + 1, opt.horizon + 1);
      span = Interval(s, e);
    }
    spans[v] = span;
    b.AddVertex(v, span);
  }
  int added = 0;
  int attempts = 0;
  while (added < opt.num_edges && attempts < opt.num_edges * 20) {
    ++attempts;
    const int u = static_cast<int>(rng.Uniform(opt.num_vertices));
    const int v = static_cast<int>(rng.Uniform(opt.num_vertices));
    if (u == v) continue;
    const Interval overlap = spans[u].Intersect(spans[v]);
    if (overlap.IsEmpty()) continue;
    TimePoint s, e;
    if (rng.Bernoulli(opt.unit_lifespan_prob)) {
      s = rng.UniformRange(overlap.start, overlap.end);
      e = s + 1;
    } else {
      s = rng.UniformRange(overlap.start, overlap.end);
      e = rng.UniformRange(s + 1, overlap.end + 1);
    }
    const EdgeId eid = 1000 + added;
    b.AddEdge(eid, u, v, Interval(s, e));
    if (opt.with_properties) {
      // Piecewise travel-time / travel-cost over the edge lifespan.
      const int segments =
          1 + static_cast<int>(rng.Uniform(
                  static_cast<uint64_t>(opt.prop_segments)));
      TimePoint t = s;
      for (int k = 0; k < segments && t < e; ++k) {
        const TimePoint end = (k == segments - 1)
                                  ? e
                                  : rng.UniformRange(t + 1, e + 1);
        b.SetEdgeProperty(eid, kTravelTimeLabel, Interval(t, end),
                          1 + rng.UniformRange(0, opt.max_travel_time));
        b.SetEdgeProperty(eid, kTravelCostLabel, Interval(t, end),
                          1 + rng.UniformRange(0, opt.max_cost));
        t = end;
      }
    }
    ++added;
  }
  BuilderOptions options;
  options.horizon = opt.horizon;
  auto g = b.Build(options);
  GRAPHITE_CHECK(g.ok());
  return std::move(g).value();
}

/// The label table in LabelId order.
inline std::vector<std::string> LabelTable(const TemporalGraph& g) {
  std::vector<std::string> out;
  for (LabelId l = 0; l < g.num_labels(); ++l) out.push_back(g.LabelName(l));
  return out;
}

/// Passes when `got` and `want` are the same graph: the same horizon, the
/// same label table in LabelId order and the same WriteTextGraph bytes.
/// The text keeps vertex index and edge position order and names each
/// property's label, so with equal label tables it also pins label ids.
/// A failure names the first differing text line.
inline ::testing::AssertionResult SameGraph(const TemporalGraph& got,
                                            const TemporalGraph& want) {
  if (got.horizon() != want.horizon()) {
    return ::testing::AssertionFailure()
           << "horizon " << got.horizon() << ", want " << want.horizon();
  }
  if (LabelTable(got) != LabelTable(want)) {
    return ::testing::AssertionFailure() << "label tables differ";
  }
  const std::string a = WriteTextGraph(got);
  const std::string b = WriteTextGraph(want);
  if (a == b) return ::testing::AssertionSuccess();
  const size_t at = static_cast<size_t>(
      std::mismatch(a.begin(), a.begin() + std::min(a.size(), b.size()),
                    b.begin())
          .first -
      a.begin());
  const size_t start = at == 0 ? 0 : a.rfind('\n', at - 1) + 1;
  auto line = [start](const std::string& s) {
    return s.substr(start, s.find('\n', start) - start);
  };
  return ::testing::AssertionFailure()
         << "text differs at line "
         << 1 + std::count(a.begin(), a.begin() + start, '\n') << ": \""
         << line(a) << "\", want \"" << line(b) << "\"";
}

}  // namespace testutil
}  // namespace graphite

#endif  // GRAPHITE_TESTS_TESTUTIL_H_
