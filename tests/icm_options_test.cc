// Semantics-preservation tests for the §VI engine optimizations across
// randomized graphs and every ICM algorithm family: combiner on/off,
// suppression on/off with threshold sweeps, the property-use trait, and
// worker/thread counts must never change results ("The correctness is not
// affected").
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/icm_clustering.h"
#include "algorithms/icm_path.h"
#include "algorithms/icm_ti.h"
#include "testutil.h"

namespace graphite {
namespace {

struct OptionCase {
  uint64_t seed;
  bool combiner;
  bool suppression;
  double threshold;
  int workers;
};

class IcmOptionsTest : public ::testing::TestWithParam<OptionCase> {
 protected:
  IcmOptions Options() const {
    IcmOptions o;
    o.enable_combiner = GetParam().combiner;
    o.enable_suppression = GetParam().suppression;
    o.suppression_threshold = GetParam().threshold;
    o.num_workers = GetParam().workers;
    return o;
  }
  // Unit-heavy graphs make suppression actually fire.
  TemporalGraph MakeGraph() const {
    testutil::RandomGraphOptions opt;
    opt.unit_lifespan_prob = 0.8;
    opt.full_lifespan_prob = 0.5;
    return testutil::MakeRandomGraph(GetParam().seed, opt);
  }
};

TEST_P(IcmOptionsTest, SsspInvariant) {
  const TemporalGraph g = MakeGraph();
  IcmSssp baseline_prog(g, 0), prog(g, 0);
  auto want = IcmEngine<IcmSssp>::Run(g, baseline_prog, IcmOptions{});
  auto got = IcmEngine<IcmSssp>::Run(g, prog, Options());
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    auto a = want.states[v];
    auto b = got.states[v];
    a.Coalesce();
    b.Coalesce();
    ASSERT_EQ(a, b) << "v=" << v;
  }
  // Optimizations never change what is sent, only how it is computed —
  // except suppression, which may alter call counts, never messages.
  EXPECT_EQ(want.metrics.messages, got.metrics.messages);
}

TEST_P(IcmOptionsTest, PageRankInvariant) {
  const TemporalGraph g = MakeGraph();
  IcmPageRank baseline_prog(g), prog(g);
  auto want =
      IcmEngine<IcmPageRank>::Run(g, baseline_prog, PageRankOptions());
  auto got = IcmEngine<IcmPageRank>::Run(g, prog, PageRankOptions(Options()));
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (TimePoint t = 0; t < g.horizon(); ++t) {
      const double a = want.states[v].Get(t).value_or(-1);
      const double b = got.states[v].Get(t).value_or(-1);
      ASSERT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(a)))
          << "v=" << v << " t=" << t;
    }
  }
}

TEST_P(IcmOptionsTest, TriangleCountInvariant) {
  const TemporalGraph g = MakeGraph();
  IcmTriangleCount baseline_prog, prog;
  auto want =
      IcmEngine<IcmTriangleCount>::Run(g, baseline_prog, TriangleOptions());
  auto got =
      IcmEngine<IcmTriangleCount>::Run(g, prog, TriangleOptions(Options()));
  EXPECT_EQ(TriangleCounts(want.states), TriangleCounts(got.states));
}

TEST_P(IcmOptionsTest, LatestDepartureInvariant) {
  const TemporalGraph g = MakeGraph();
  const TemporalGraph reversed = ReverseGraph(g);
  IcmLatestDeparture baseline_prog(reversed, 3, g.horizon());
  IcmLatestDeparture prog(reversed, 3, g.horizon());
  auto want =
      IcmEngine<IcmLatestDeparture>::Run(reversed, baseline_prog, IcmOptions{});
  auto got = IcmEngine<IcmLatestDeparture>::Run(reversed, prog, Options());
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    int64_t wa = kNegInf, ga = kNegInf;
    for (const auto& e : want.states[v].entries()) wa = std::max(wa, e.value);
    for (const auto& e : got.states[v].entries()) ga = std::max(ga, e.value);
    ASSERT_EQ(wa, ga) << "v=" << v;
  }
}

std::vector<OptionCase> MakeCases() {
  std::vector<OptionCase> cases;
  uint64_t seed = 9000;
  for (bool combiner : {false, true}) {
    for (double threshold : {0.0, 0.7, 2.0}) {  // 2.0 ~ suppression off.
      for (int workers : {1, 4}) {
        cases.push_back({seed++, combiner, threshold <= 1.0, threshold,
                         workers});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IcmOptionsTest,
                         ::testing::ValuesIn(MakeCases()));

// Suppression must actually engage on unit-message workloads (the
// counter is observable), and threshold 0 suppresses more than 0.9.
TEST(SuppressionEngagementTest, FiresOnUnitLifespanGraphs) {
  testutil::RandomGraphOptions opt;
  opt.unit_lifespan_prob = 1.0;
  opt.full_lifespan_prob = 0.0;
  opt.num_vertices = 40;
  opt.num_edges = 160;
  const TemporalGraph g = testutil::MakeRandomGraph(31337, opt);

  IcmOptions on;
  on.suppression_threshold = 0.0;
  IcmWcc prog_on;
  const TemporalGraph u = MakeUndirected(g);
  auto with = IcmEngine<IcmWcc>::Run(u, prog_on, on);
  EXPECT_GT(with.suppressed_vertices, 0);

  IcmOptions off;
  off.enable_suppression = false;
  IcmWcc prog_off;
  auto without = IcmEngine<IcmWcc>::Run(u, prog_off, off);
  EXPECT_EQ(without.suppressed_vertices, 0);
}

}  // namespace
}  // namespace graphite
