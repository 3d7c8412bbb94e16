// End-to-end tests of the ICM engine on the paper's Fig. 1 transit
// network: reproduces the Fig. 2 superstep walk-through, the final SSSP
// fixpoint, and the intro's headline counts (7 interval-vertex visits and
// 6 edge traversals). Also checks that worker count, threading, combiner
// and suppression do not change results.
#include "icm/icm_engine.h"

#include <gtest/gtest.h>

#include "algorithms/icm_path.h"
#include "testutil.h"

namespace graphite {
namespace {

using testutil::kA;
using testutil::kB;
using testutil::kC;
using testutil::kD;
using testutil::kE;
using testutil::kF;

IcmResult<IcmSssp> RunSssp(const TemporalGraph& g, const IcmOptions& options) {
  IcmSssp program(g, kA);
  return IcmEngine<IcmSssp>::Run(g, program, options);
}

TEST(IcmSsspTransitTest, FinalStatesMatchPaper) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  auto result = RunSssp(g, IcmOptions{});
  auto& states = result.states;
  auto idx = [&](VertexId v) { return *g.IndexOf(v); };

  // A: source, cost 0 for its whole lifespan.
  ASSERT_EQ(states[idx(kA)].size(), 1u);
  EXPECT_EQ(states[idx(kA)].entries()[0].value, 0);

  // B: unreachable before 4; cost 4 during [4,6); cost 3 from 6 on.
  const auto& b = states[idx(kB)];
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.entries()[0].interval, Interval(0, 4));
  EXPECT_EQ(b.entries()[0].value, kInfCost);
  EXPECT_EQ(b.entries()[1].interval, Interval(4, 6));
  EXPECT_EQ(b.entries()[1].value, 4);
  EXPECT_EQ(b.entries()[2].interval, Interval(6, kTimeMax));
  EXPECT_EQ(b.entries()[2].value, 3);

  // C: one contiguous reachable interval, cost 3 (paper).
  const auto& c = states[idx(kC)];
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.entries()[1].interval, Interval(2, kTimeMax));
  EXPECT_EQ(c.entries()[1].value, 3);

  // D: one contiguous reachable interval, cost 2 (paper).
  const auto& d = states[idx(kD)];
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.entries()[1].interval, Interval(3, kTimeMax));
  EXPECT_EQ(d.entries()[1].value, 2);

  // E: two reachable intervals with different lowest costs (paper §IV-B:
  // warp returns <[6,9), inf, {7}> and <[9,inf), inf, {5,7}>).
  const auto& e = states[idx(kE)];
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e.entries()[0].interval, Interval(0, 6));
  EXPECT_EQ(e.entries()[0].value, kInfCost);
  EXPECT_EQ(e.entries()[1].interval, Interval(6, 9));
  EXPECT_EQ(e.entries()[1].value, 7);
  EXPECT_EQ(e.entries()[2].interval, Interval(9, kTimeMax));
  EXPECT_EQ(e.entries()[2].value, 5);

  // F: never reached.
  ASSERT_EQ(states[idx(kF)].size(), 1u);
  EXPECT_EQ(states[idx(kF)].entries()[0].value, kInfCost);
}

TEST(IcmSsspTransitTest, HeadlineCountsMatchIntro) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  auto result = RunSssp(g, IcmOptions{});
  // "...with just 7 interval vertex visits and 6 edge traversals" (§I).
  EXPECT_EQ(result.active_compute_calls, 7);
  EXPECT_EQ(result.metrics.scatter_calls, 6);
  EXPECT_EQ(result.metrics.messages, 6);
  // Superstep 0 calls Compute on the source A alone (IcmSssp declares it
  // as its seed vertex), then on the active slices of supersteps 1 (B
  // twice, C, D) and 2 (E twice): every call is one of the 7 visits.
  EXPECT_EQ(result.metrics.compute_calls, 7);
  EXPECT_EQ(result.metrics.supersteps, 3);
}

TEST(IcmSsspTransitTest, InvariantToWorkersThreadsAndOptimizations) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const auto baseline = RunSssp(g, IcmOptions{});
  for (int workers : {1, 2, 3, 8}) {
    for (bool threads : {false, true}) {
      for (bool combiner : {false, true}) {
        for (bool suppression : {false, true}) {
          IcmOptions options;
          options.num_workers = workers;
          options.use_threads = threads;
          options.enable_combiner = combiner;
          options.enable_suppression = suppression;
          auto result = RunSssp(g, options);
          for (size_t v = 0; v < g.num_vertices(); ++v) {
            auto got = result.states[v];
            auto want = baseline.states[v];
            got.Coalesce();
            want.Coalesce();
            EXPECT_EQ(got, want)
                << "v=" << v << " workers=" << workers
                << " threads=" << threads << " combiner=" << combiner
                << " suppression=" << suppression;
          }
          // Model-intrinsic counts must not depend on engine knobs
          // (workers/threads); combiner/suppression change call shape
          // but not message counts here (no unit messages in this graph).
          EXPECT_EQ(result.metrics.messages, baseline.metrics.messages);
          EXPECT_EQ(result.metrics.compute_calls,
                    baseline.metrics.compute_calls);
        }
      }
    }
  }
}

TEST(IcmSsspTransitTest, MakespanAndByteMetricsPopulated) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  auto result = RunSssp(g, IcmOptions{});
  EXPECT_GT(result.metrics.makespan_ns, 0);
  EXPECT_GT(result.metrics.message_bytes, 0);
  EXPECT_EQ(result.metrics.per_superstep.size(),
            static_cast<size_t>(result.metrics.supersteps));
  EXPECT_GT(result.metrics.SimulatedMakespanNs(), 0);
}

// EAT on the transit graph: B first reachable at 4, C at 2, D at 3, E at 6.
TEST(IcmEatTransitTest, EarliestArrivals) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmEat program(g, kA);
  auto result = IcmEngine<IcmEat>::Run(g, program);
  auto eat = [&](VertexId v) -> int64_t {
    int64_t best = kInfCost;
    for (const auto& entry : result.states[*g.IndexOf(v)].entries()) {
      best = std::min(best, entry.value);
    }
    return best;
  };
  EXPECT_EQ(eat(kA), 0);
  EXPECT_EQ(eat(kB), 4);
  EXPECT_EQ(eat(kC), 2);
  EXPECT_EQ(eat(kD), 3);
  EXPECT_EQ(eat(kE), 6);
  EXPECT_EQ(eat(kF), kInfCost);
}

// Reachability mirrors EAT's reachable set.
TEST(IcmReachTransitTest, ReachabilityIntervals) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmReach program(g, kA);
  auto result = IcmEngine<IcmReach>::Run(g, program);
  auto reached_from = [&](VertexId v) -> TimePoint {
    for (const auto& entry : result.states[*g.IndexOf(v)].entries()) {
      if (entry.value == 1) return entry.interval.start;
    }
    return -1;
  };
  EXPECT_EQ(reached_from(kA), 0);
  EXPECT_EQ(reached_from(kB), 4);
  EXPECT_EQ(reached_from(kC), 2);
  EXPECT_EQ(reached_from(kD), 3);
  EXPECT_EQ(reached_from(kE), 6);
  EXPECT_EQ(reached_from(kF), -1);
}

// TMST parents on the transit graph: B,C,D hang off A; E's earliest
// arrival (6) comes through C.
TEST(IcmTmstTransitTest, ParentPointersRebuildTree) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmTmst program(g, kA);
  auto result = IcmEngine<IcmTmst>::Run(g, program);
  auto best = [&](VertexId v) {
    std::pair<int64_t, int64_t> best_state = {kInfCost, -1};
    for (const auto& entry : result.states[*g.IndexOf(v)].entries()) {
      if (entry.value < best_state) best_state = entry.value;
    }
    return best_state;
  };
  EXPECT_EQ(best(kB), (std::pair<int64_t, int64_t>{4, kA}));
  EXPECT_EQ(best(kC), (std::pair<int64_t, int64_t>{2, kA}));
  EXPECT_EQ(best(kD), (std::pair<int64_t, int64_t>{3, kA}));
  EXPECT_EQ(best(kE), (std::pair<int64_t, int64_t>{6, kC}));
  EXPECT_EQ(best(kF).second, -1);
}

// LD to target E with deadline 10: B can leave as late as 8 (edge B->E at
// [8,9)), C as late as 5, A as late as 5 (A->B at 5 costs 3 arriving 6,
// then B->E at 8; or A->C at 1).
TEST(IcmLatestDepartureTransitTest, LatestDepartures) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const TemporalGraph reversed = ReverseGraph(g);
  IcmLatestDeparture program(reversed, kE, /*deadline=*/10);
  auto result = IcmEngine<IcmLatestDeparture>::Run(reversed, program);
  auto latest = [&](VertexId v) -> int64_t {
    int64_t best = kNegInf;
    for (const auto& entry : result.states[*reversed.IndexOf(v)].entries()) {
      best = std::max(best, entry.value);
    }
    return best;
  };
  EXPECT_EQ(latest(kE), 10);
  EXPECT_EQ(latest(kB), 8);
  EXPECT_EQ(latest(kC), 5);
  EXPECT_EQ(latest(kA), 5);
  EXPECT_EQ(latest(kF), kNegInf);
}

// FAST from A: E is reachable with duration 4 (depart A at 5: A5->B6,
// wait, B8->E9) versus duration 5 via C (A1->C2, C5->E6).
TEST(IcmFastTransitTest, FastestDurations) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmFast program(g, kA);
  auto result = IcmEngine<IcmFast>::Run(g, program);
  auto fastest = [&](VertexId v) -> int64_t {
    int64_t best = kInfCost;
    for (const auto& entry : result.states[*g.IndexOf(v)].entries()) {
      if (entry.value == kNegInf) continue;
      best = std::min(best, entry.interval.start - entry.value);
    }
    return best;
  };
  EXPECT_EQ(fastest(kB), 1);  // Depart A at 3/4/5, arrive B next step.
  EXPECT_EQ(fastest(kC), 1);
  EXPECT_EQ(fastest(kD), 1);
  EXPECT_EQ(fastest(kE), 4);
  EXPECT_EQ(fastest(kF), kInfCost);
}

}  // namespace
}  // namespace graphite
