// Cross-platform equivalence (paper §VII-B1: "all platforms produce
// identical results for all the algorithms and graphs"): for every
// algorithm, every supported platform must agree with the ICM result —
// which the oracle tests already pin to ground truth — per vertex and
// time-point, on randomized temporal graphs.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/runners.h"
#include "testutil.h"

namespace graphite {
namespace {

class PlatformEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    testutil::RandomGraphOptions opt;
    opt.full_lifespan_prob = 0.6;
    workload_.emplace(testutil::MakeRandomGraph(GetParam(), opt));
    config_.source = 0;
    config_.num_workers = 3;
    config_.chlonos_batch_size = 5;
  }

  const TemporalGraph& graph() const { return workload_->graph(); }

  template <typename V>
  void ExpectSameTemporal(const TemporalResult<V>& a,
                          const TemporalResult<V>& b, V absent,
                          const char* what) {
    for (VertexIdx v = 0; v < graph().num_vertices(); ++v) {
      for (TimePoint t = 0; t < graph().horizon(); ++t) {
        ASSERT_EQ(ResultAt(a, v, t, absent), ResultAt(b, v, t, absent))
            << what << " v=" << v << " t=" << t << " seed=" << GetParam();
      }
    }
  }

  std::optional<Workload> workload_;
  RunConfig config_;
};

TEST_P(PlatformEquivalenceTest, BfsAcrossPlatforms) {
  const auto icm = RunBfsOn(*workload_, Platform::kIcm, config_);
  const auto msb = RunBfsOn(*workload_, Platform::kMsb, config_);
  const auto chl = RunBfsOn(*workload_, Platform::kChl, config_);
  ExpectSameTemporal<int64_t>(icm, msb, kInfCost, "BFS icm/msb");
  ExpectSameTemporal<int64_t>(icm, chl, kInfCost, "BFS icm/chl");
}

TEST_P(PlatformEquivalenceTest, WccAcrossPlatforms) {
  const auto icm = RunWccOn(*workload_, Platform::kIcm, config_);
  const auto msb = RunWccOn(*workload_, Platform::kMsb, config_);
  const auto chl = RunWccOn(*workload_, Platform::kChl, config_);
  ExpectSameTemporal<int64_t>(icm, msb, kInfCost, "WCC icm/msb");
  ExpectSameTemporal<int64_t>(icm, chl, kInfCost, "WCC icm/chl");
}

TEST_P(PlatformEquivalenceTest, SccAcrossPlatforms) {
  const auto icm = RunSccOn(*workload_, Platform::kIcm, config_);
  const auto msb = RunSccOn(*workload_, Platform::kMsb, config_);
  const auto chl = RunSccOn(*workload_, Platform::kChl, config_);
  ExpectSameTemporal<int64_t>(icm, msb, kInfCost, "SCC icm/msb");
  ExpectSameTemporal<int64_t>(icm, chl, kInfCost, "SCC icm/chl");
}

TEST_P(PlatformEquivalenceTest, PageRankAcrossPlatforms) {
  const auto icm = RunPrOn(*workload_, Platform::kIcm, config_);
  const auto msb = RunPrOn(*workload_, Platform::kMsb, config_);
  const auto chl = RunPrOn(*workload_, Platform::kChl, config_);
  for (VertexIdx v = 0; v < graph().num_vertices(); ++v) {
    for (TimePoint t = 0; t < graph().horizon(); ++t) {
      const double a = ResultAt(icm, v, t, -1.0);
      const double b = ResultAt(msb, v, t, -1.0);
      const double c = ResultAt(chl, v, t, -1.0);
      ASSERT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(a))) << v << " " << t;
      ASSERT_NEAR(a, c, 1e-9 * std::max(1.0, std::fabs(a))) << v << " " << t;
    }
  }
}

TEST_P(PlatformEquivalenceTest, SsspAcrossPlatforms) {
  const auto icm = RunSsspOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunSsspOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunSsspOn(*workload_, Platform::kGof, config_);
  // Every platform returns the canonical form (reached entries only,
  // coalesced), so the maps compare exactly, entry for entry.
  for (VertexIdx v = 0; v < graph().num_vertices(); ++v) {
    ASSERT_EQ(icm[v], tgb[v])
        << "SSSP icm/tgb v=" << v << " seed=" << GetParam();
    ASSERT_EQ(icm[v], gof[v])
        << "SSSP icm/gof v=" << v << " seed=" << GetParam();
  }
}

TEST_P(PlatformEquivalenceTest, EatAcrossPlatforms) {
  const auto icm = RunEatOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunEatOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunEatOn(*workload_, Platform::kGof, config_);
  EXPECT_EQ(icm, tgb);
  EXPECT_EQ(icm, gof);
}

TEST_P(PlatformEquivalenceTest, FastAcrossPlatforms) {
  const auto icm = RunFastOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunFastOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunFastOn(*workload_, Platform::kGof, config_);
  EXPECT_EQ(icm, tgb);
  EXPECT_EQ(icm, gof);
}

TEST_P(PlatformEquivalenceTest, LdAcrossPlatforms) {
  const auto icm = RunLdOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunLdOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunLdOn(*workload_, Platform::kGof, config_);
  EXPECT_EQ(icm, tgb);
  EXPECT_EQ(icm, gof);
}

TEST_P(PlatformEquivalenceTest, TmstAcrossPlatforms) {
  const auto icm = RunTmstOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunTmstOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunTmstOn(*workload_, Platform::kGof, config_);
  EXPECT_EQ(icm, tgb);
  EXPECT_EQ(icm, gof);
}

TEST_P(PlatformEquivalenceTest, ReachAcrossPlatforms) {
  const auto icm = RunRhOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunRhOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunRhOn(*workload_, Platform::kGof, config_);
  ExpectSameTemporal<uint8_t>(icm, tgb, 0, "RH icm/tgb");
  ExpectSameTemporal<uint8_t>(icm, gof, 0, "RH icm/gof");
}

TEST_P(PlatformEquivalenceTest, TriangleCountAcrossPlatforms) {
  const auto icm = RunTcOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunTcOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunTcOn(*workload_, Platform::kGof, config_);
  ExpectSameTemporal<int64_t>(icm, tgb, 0, "TC icm/tgb");
  ExpectSameTemporal<int64_t>(icm, gof, 0, "TC icm/gof");
}

TEST_P(PlatformEquivalenceTest, LccAcrossPlatforms) {
  const auto icm = RunLccOn(*workload_, Platform::kIcm, config_);
  const auto tgb = RunLccOn(*workload_, Platform::kTgb, config_);
  const auto gof = RunLccOn(*workload_, Platform::kGof, config_);
  for (VertexIdx v = 0; v < graph().num_vertices(); ++v) {
    for (TimePoint t = 0; t < graph().horizon(); ++t) {
      ASSERT_NEAR(ResultAt(icm, v, t, 0.0), ResultAt(tgb, v, t, 0.0), 1e-12);
      ASSERT_NEAR(ResultAt(icm, v, t, 0.0), ResultAt(gof, v, t, 0.0), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlatformEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// §VII-B1 count identities on a unit-lifespan graph (the GPlus shape):
// with no temporal overlap to share, MSB and Chlonos make the same number
// of compute calls, and Chlonos cannot share messages either.
TEST(UnitLifespanCountsTest, PlatformCountIdentities) {
  testutil::RandomGraphOptions opt;
  opt.unit_lifespan_prob = 1.0;
  opt.full_lifespan_prob = 0.0;
  opt.num_vertices = 30;
  opt.num_edges = 90;
  Workload w(testutil::MakeRandomGraph(4242, opt));
  RunConfig config;

  RunMetrics msb, chl;
  RunBfsOn(w, Platform::kMsb, config, &msb);
  RunBfsOn(w, Platform::kChl, config, &chl);
  EXPECT_EQ(msb.compute_calls, chl.compute_calls);
  EXPECT_EQ(msb.messages, chl.messages);
}

}  // namespace
}  // namespace graphite
