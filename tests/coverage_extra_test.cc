// Additional cross-cutting coverage: runner config plumbing, baseline
// option windows, oracle self-consistency, text-format corner cases, and
// ICM context accessors.
#include <gtest/gtest.h>

#include "algorithms/oracle.h"
#include "algorithms/runners.h"
#include "baselines/tgb.h"
#include "io/text_format.h"
#include "testutil.h"

namespace graphite {
namespace {

TEST(RunConfigTest, TranslatesToEngineOptions) {
  RunConfig config;
  config.num_workers = 6;
  config.use_threads = true;
  config.icm_combiner = false;
  config.icm_suppression = false;
  config.icm_suppression_threshold = 0.5;
  config.chlonos_batch_size = 3;

  const IcmOptions icm = config.ToIcm();
  EXPECT_EQ(icm.num_workers, 6);
  EXPECT_TRUE(icm.use_threads);
  EXPECT_FALSE(icm.enable_combiner);
  EXPECT_FALSE(icm.enable_suppression);
  EXPECT_DOUBLE_EQ(icm.suppression_threshold, 0.5);

  const VcmOptions vcm = config.ToVcm();
  EXPECT_EQ(vcm.num_workers, 6);
  const ChlonosOptions chl = config.ToChlonos();
  EXPECT_EQ(chl.batch_size, 3);
  const GoffishOptions gof = config.ToGoffish();
  EXPECT_EQ(gof.num_workers, 6);
}

TEST(OracleSelfConsistencyTest, ReachEqualsFiniteSsspCost) {
  const TemporalGraph g = testutil::MakeRandomGraph(611);
  const auto costs = OracleSsspCosts(g, 0);
  const auto reach = OracleReach(g, 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (size_t t = 0; t < costs[v].size(); ++t) {
      EXPECT_EQ(reach[v][t] == 1, costs[v][t] != kInfCost);
    }
  }
}

TEST(OracleSelfConsistencyTest, EatIsFirstReachableInstant) {
  const TemporalGraph g = testutil::MakeRandomGraph(612);
  const auto reach = OracleReach(g, 0);
  const auto eat = OracleEat(g, 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (eat[v] == kInfCost) {
      for (uint8_t r : reach[v]) EXPECT_EQ(r, 0);
    } else {
      EXPECT_EQ(reach[v][static_cast<size_t>(eat[v])], 1);
      if (eat[v] > 0) {
        EXPECT_EQ(reach[v][static_cast<size_t>(eat[v] - 1)], 0);
      }
    }
  }
}

TEST(OracleSelfConsistencyTest, FastestNeverBeatsEatDelta) {
  // Duration from the best EAT run is an upper bound on FAST.
  const TemporalGraph g = testutil::MakeRandomGraph(613);
  const auto eat = OracleEat(g, 0);
  const auto fast = OracleFastest(g, 0);
  const TimePoint start = std::max<TimePoint>(0, g.vertex_interval(0).start);
  for (VertexIdx v = 1; v < g.num_vertices(); ++v) {
    if (eat[v] == kInfCost) {
      EXPECT_EQ(fast[v], kInfCost);
    } else {
      EXPECT_LE(fast[v], eat[v] - start);
      EXPECT_GE(fast[v], 0);
    }
  }
}

TEST(TextFormatTest, HorizonDerivedWhenHeaderAbsent) {
  auto g = ReadTextGraph("V 1 0 6\nV 2 0 9\nE 5 1 2 2 4\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->horizon(), 9);  // Max finite end.
}

TEST(TextFormatTest, InfiniteLifespansRoundTrip) {
  auto g = ReadTextGraph("H 12\nV 1 0 inf\nV 2 -inf inf\nE 5 1 2 3 7\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->vertex_interval(*g->IndexOf(1)), Interval(0, kTimeMax));
  EXPECT_EQ(g->vertex_interval(*g->IndexOf(2)),
            Interval(kTimeMin, kTimeMax));
  auto round = ReadTextGraph(WriteTextGraph(*g));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(WriteTextGraph(*round), WriteTextGraph(*g));
}

TEST(ReversedTransformedTest, EdgesAreExactInverses) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const TransformedGraph tg = BuildTransformedGraph(g);
  ReversedTransformedAdapter reversed(&tg, &g);
  // Every forward edge appears exactly once reversed.
  size_t forward_edges = 0, reversed_edges = 0;
  for (ReplicaIdx r = 0; r < tg.num_replicas(); ++r) {
    forward_edges += tg.OutEdges(r).size();
    reversed.ForEachOutEdge(r, [&](uint32_t dst,
                                   const TransformedGraph::TransitEdge& e) {
      ++reversed_edges;
      // The reverse of (dst -> r) must exist forward.
      bool found = false;
      for (const auto& fwd : tg.OutEdges(dst)) {
        if (fwd.dst == r && fwd.cost == e.cost &&
            fwd.is_chain == e.is_chain) {
          found = true;
        }
      }
      EXPECT_TRUE(found);
    });
  }
  EXPECT_EQ(forward_edges, reversed_edges);
}

TEST(ChlonosWindowTest, WindowRestrictsProcessedSnapshots) {
  const TemporalGraph g = testutil::MakeRandomGraph(615);
  auto out = RunChlonos<VcmWcc>(
      MakeUndirected(g), ChlonosOptions{},
      [&](const SnapshotAdapter& a) { return VcmWcc(a); }, Interval(3, 7));
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(out.result[v].Get(2), std::nullopt);
    EXPECT_EQ(out.result[v].Get(7), std::nullopt);
  }
}

TEST(IcmContextTest, AccessorsExposeGraphFacts) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  struct Probe {
    using State = int64_t;
    using Message = int64_t;
    const TemporalGraph* graph;
    bool checked = false;
    State Init(VertexIdx) const { return 0; }
    void Compute(IcmVertexContext<Probe>& ctx, std::span<const Message>) {
      if (ctx.vertex_id() != testutil::kA) return;
      EXPECT_EQ(ctx.superstep(), 0);
      EXPECT_EQ(&ctx.graph(), graph);
      EXPECT_EQ(ctx.vertex_interval(), Interval(0, kTimeMax));
      EXPECT_EQ(ctx.interval(), Interval(0, kTimeMax));
      EXPECT_EQ(ctx.state(), 0);
      checked = true;
    }
    void Scatter(IcmScatterContext<Probe>&, const State&) {}
  } probe{&g};
  IcmEngine<Probe>::Run(g, probe);
  EXPECT_TRUE(probe.checked);
}

TEST(ScatterContextTest, PropertySlicesAreConstant) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const auto cost_label = *g.LabelIdOf("travel-cost");
  struct Probe {
    using State = int64_t;
    using Message = int64_t;
    LabelId cost;
    int slices = 0;
    State Init(VertexIdx) const { return 0; }
    void Compute(IcmVertexContext<Probe>& ctx, std::span<const Message>) {
      if (ctx.vertex_id() == testutil::kA) ctx.SetState(ctx.interval(), 1);
    }
    void Scatter(IcmScatterContext<Probe>& ctx, const State&) {
      if (ctx.edge().eid != 10) return;  // A->B, cost changes at t=5.
      auto value = ctx.EdgeProp(cost);
      ASSERT_TRUE(value.has_value());
      // Slice [3,5) must see 4; [5,6) must see 3 — never a mix.
      if (ctx.interval().start < 5) {
        EXPECT_EQ(*value, 4);
        EXPECT_LE(ctx.interval().end, 5);
      } else {
        EXPECT_EQ(*value, 3);
      }
      ++slices;
    }
  } probe{cost_label};
  IcmEngine<Probe>::Run(g, probe);
  EXPECT_EQ(probe.slices, 2);  // One per property run of A->B.
}

}  // namespace
}  // namespace graphite
