// Tests for the VCM (Pregel) engine substrate: activation semantics,
// message delivery across workers, halting, always-active mode, initial
// messages, and metrics plumbing.
#include "vcm/vcm_engine.h"

#include <gtest/gtest.h>

#include "engine/metrics.h"
#include "testutil.h"
#include "vcm/adapters.h"

namespace graphite {
namespace {

// A line graph adapter: units 0..n-1, edge i -> i+1, unit i partitioned
// by its own index.
class LineAdapter {
 public:
  explicit LineAdapter(uint32_t n) : n_(n) {}
  size_t NumUnits() const { return n_; }
  bool UnitExists(uint32_t) const { return true; }
  int64_t PartitionId(uint32_t u) const { return u; }
  uint32_t next(uint32_t u) const { return u + 1; }
  bool has_next(uint32_t u) const { return u + 1 < n_; }

 private:
  uint32_t n_;
};

// Forwards a counter down the line, one hop per superstep.
struct LineProgram {
  using Value = int64_t;
  using Message = int64_t;
  const LineAdapter* adapter;

  Value Init(uint32_t) const { return -1; }

  void Compute(VcmContext<Message>& ctx, uint32_t u, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (u != 0) return;
      val = 0;
    } else {
      if (msgs.empty()) return;
      val = msgs[0];
    }
    if (adapter->has_next(u)) ctx.Send(adapter->next(u), val + 1);
  }
};

TEST(VcmEngineTest, PropagatesAlongLineAndHalts) {
  LineAdapter adapter(10);
  LineProgram program{&adapter};
  std::vector<int64_t> values;
  const RunMetrics m = RunVcm(adapter, program, VcmOptions{}, &values);
  for (uint32_t u = 0; u < 10; ++u) {
    EXPECT_EQ(values[u], static_cast<int64_t>(u));
  }
  // Superstep 0 runs all units; then one hop per superstep; the final
  // superstep delivers nothing and the engine halts.
  EXPECT_EQ(m.supersteps, 10);
  EXPECT_EQ(m.messages, 9);
  // Superstep 0 computes all 10 units; each later superstep exactly 1.
  EXPECT_EQ(m.compute_calls, 10 + 9);
  EXPECT_GT(m.message_bytes, 0);
}

TEST(VcmEngineTest, ResultsIndependentOfWorkersAndThreads) {
  LineAdapter adapter(23);
  for (int workers : {1, 2, 7}) {
    for (bool threads : {false, true}) {
      LineProgram program{&adapter};
      VcmOptions options;
      options.num_workers = workers;
      options.use_threads = threads;
      std::vector<int64_t> values;
      const RunMetrics m = RunVcm(adapter, program, options, &values);
      for (uint32_t u = 0; u < 23; ++u) {
        ASSERT_EQ(values[u], static_cast<int64_t>(u));
      }
      EXPECT_EQ(m.messages, 22);
    }
  }
}

// Counts compute invocations in always-active mode.
struct CountingProgram {
  using Value = int64_t;
  using Message = int64_t;
  Value Init(uint32_t) const { return 0; }
  void Compute(VcmContext<Message>& ctx, uint32_t, Value& val,
               std::span<const Message>) {
    (void)ctx;
    ++val;
  }
};

TEST(VcmEngineTest, AlwaysActiveRunsFixedSupersteps) {
  LineAdapter adapter(5);
  CountingProgram program;
  VcmOptions options;
  options.always_active = true;
  options.max_supersteps = 7;
  std::vector<int64_t> values;
  const RunMetrics m = RunVcm(adapter, program, options, &values);
  EXPECT_EQ(m.supersteps, 7);
  for (uint32_t u = 0; u < 5; ++u) EXPECT_EQ(values[u], 7);
}

TEST(VcmEngineTest, SnapshotAdapterSkipsInactiveUnits) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  SnapshotAdapter adapter{SnapshotView(&g, 4)};
  CountingProgram program;
  VcmOptions options;
  options.always_active = true;
  options.max_supersteps = 1;
  std::vector<int64_t> values;
  const RunMetrics m = RunVcm(adapter, program, options, &values);
  EXPECT_EQ(m.compute_calls, 6);  // All transit vertices are perpetual.
}

TEST(MetricsTest, AccumulateAndMerge) {
  RunMetrics a;
  SuperstepMetrics ss;
  ss.worker_compute_ns = {100, 300};
  ss.worker_in_bytes = {0, 50};
  ss.compute_calls = 4;
  ss.messages = 2;
  ss.message_bytes = 20;
  ss.messaging_ns = 10;
  a.Accumulate(ss);
  EXPECT_EQ(a.supersteps, 1);
  EXPECT_EQ(a.compute_ns, 400);
  EXPECT_EQ(a.compute_calls, 4);

  RunMetrics b = a;
  b.Merge(a);
  EXPECT_EQ(b.supersteps, 2);
  EXPECT_EQ(b.compute_calls, 8);
  EXPECT_EQ(b.per_superstep.size(), 2u);
}

TEST(MetricsTest, SimulatedMakespanUsesSlowestWorker) {
  RunMetrics m;
  SuperstepMetrics ss;
  ss.worker_compute_ns = {100, 900};
  ss.worker_in_bytes = {0, 0};
  m.Accumulate(ss);
  // barrier cost 0, no bytes: exactly the slowest worker.
  RunMetrics::ClusterModel model;
  model.network_bytes_per_sec = 125e6;
  model.barrier_ns = 0;
  model.per_message_ns = 0;
  EXPECT_EQ(m.SimulatedMakespanNs(model), 900);
  // Network model adds bytes/bandwidth on the busiest worker.
  RunMetrics n;
  ss.worker_in_bytes = {125, 0};  // 125 bytes at 125 B/s = 1s.
  n.Accumulate(ss);
  model.network_bytes_per_sec = 125.0;
  EXPECT_EQ(n.SimulatedMakespanNs(model), 900 + 1'000'000'000);
}

TEST(MetricsTest, ToStringMentionsCounters) {
  RunMetrics m;
  m.compute_calls = 1234;
  m.messages = 99;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("1,234"), std::string::npos);
  EXPECT_NE(s.find("messages=99"), std::string::npos);
}

}  // namespace
}  // namespace graphite
