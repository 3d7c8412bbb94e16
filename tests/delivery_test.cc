// Unit suite for the shared delivery plane (engine/delivery.h): WorkerMap
// placement semantics (hash default vs explicit maps, sparse external
// ids), Deliver/Seal grouping order, empty-superstep seals, barrier
// cleanup, checkpoint drain/restore through the plane's accessors, and
// Route's in-place decode (row order, byte accounting, row clearing, the
// quiet-superstep halt signal).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/delivery.h"
#include "graph/partitioner.h"
#include "util/serde.h"

namespace graphite {
namespace {

// --- WorkerMap / Placement ---

TEST(WorkerMapTest, HashPolicyMatchesHashPartitioner) {
  const int kWorkers = 5;
  const size_t kUnits = 200;
  auto key_of = [](uint32_t u) { return static_cast<VertexId>(u * 13 + 1); };
  const WorkerMap map(kUnits, kWorkers, Placement::Hash(), key_of);
  HashPartitioner reference(kWorkers);
  size_t listed = 0;
  for (uint32_t u = 0; u < kUnits; ++u) {
    EXPECT_EQ(map.WorkerOf(u), reference.WorkerOf(key_of(u))) << "u=" << u;
  }
  for (int w = 0; w < kWorkers; ++w) listed += map.units_of(w).size();
  EXPECT_EQ(listed, kUnits);
}

// Regression (ISSUE 5 satellite): non-contiguous / sparse external vertex
// ids. Placement hashes the external id, never the dense index, so ids
// far apart (and far beyond the unit count) must land exactly where
// HashPartitioner puts them, with every unit owned exactly once.
TEST(WorkerMapTest, SparseNonContiguousIdsMatchHashPartitioner) {
  const std::vector<VertexId> ids = {
      1, 42, 999, 1'000'000'007, 3'000'000'000LL, 7, 123'456'789'012'345LL};
  const int kWorkers = 3;
  auto key_of = [&ids](uint32_t u) { return ids[u]; };
  const WorkerMap map(ids.size(), kWorkers, Placement::Hash(), key_of);
  HashPartitioner reference(kWorkers);
  std::vector<int> seen(ids.size(), 0);
  for (int w = 0; w < kWorkers; ++w) {
    for (const uint32_t u : map.units_of(w)) {
      EXPECT_EQ(w, reference.WorkerOf(ids[u])) << "u=" << u;
      ++seen[u];
    }
  }
  for (size_t u = 0; u < ids.size(); ++u) EXPECT_EQ(seen[u], 1) << u;
}

TEST(WorkerMapTest, ExplicitPlacementIndexesByUnit) {
  const std::vector<int> assignment = {2, 0, 1, 1, 2, 0};
  const WorkerMap map(assignment.size(), 3, Placement::Explicit(&assignment),
                      [](uint32_t u) { return static_cast<VertexId>(u); });
  for (uint32_t u = 0; u < assignment.size(); ++u) {
    EXPECT_EQ(map.WorkerOf(u), assignment[u]);
  }
  // Owner lists are in unit order — the compute iteration order.
  EXPECT_EQ(map.units_of(0), (std::vector<uint32_t>{1, 5}));
  EXPECT_EQ(map.units_of(1), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(map.units_of(2), (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(map.worker_sizes(), (std::vector<size_t>{2, 2, 2}));
}

TEST(WorkerMapTest, NonExistentUnitsStayUnlisted) {
  const WorkerMap map(
      6, 2, Placement::Hash(), [](uint32_t u) { return VertexId{u}; },
      [](uint32_t u) { return u % 2 == 0; });  // odd units don't exist
  size_t listed = 0;
  for (int w = 0; w < 2; ++w) {
    for (const uint32_t u : map.units_of(w)) EXPECT_EQ(u % 2, 0u);
    listed += map.units_of(w).size();
  }
  EXPECT_EQ(listed, 3u);
}

// --- DeliveryPlane ---

// A plane over an explicit 2-worker placement, bound to a sequential
// runtime; the fixture is the steady-state lifecycle every engine runs.
class DeliveryPlaneTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 2;
  // Units 0,2,4 on worker 0; units 1,3,5 on worker 1.
  DeliveryPlaneTest()
      : assignment_{0, 1, 0, 1, 0, 1},
        plane_(WorkerMap(assignment_.size(), kWorkers,
                         Placement::Explicit(&assignment_),
                         [](uint32_t u) { return static_cast<VertexId>(u); })),
        rt_(kWorkers, /*use_threads=*/false, RuntimeOptions{},
            plane_.map().worker_sizes()) {
    plane_.Bind(&rt_);
  }

  std::vector<int> assignment_;
  DeliveryPlane<int64_t> plane_;
  SuperstepRuntime rt_;
};

TEST_F(DeliveryPlaneTest, DeliverSealGroupsInFirstArrivalOrder) {
  // Interleave units; groups must come back per unit, values in
  // delivery order.
  plane_.Deliver(0, 2, 10);
  plane_.Deliver(0, 0, 20);
  plane_.Deliver(0, 2, 11);
  plane_.Deliver(1, 5, 30);
  plane_.Deliver(0, 2, 12);
  plane_.SealAll();

  ASSERT_EQ(plane_.InboxCountFor(0, 2), 3u);
  const auto u2 = plane_.MessagesFor(0, 2);
  EXPECT_EQ((std::vector<int64_t>(u2.begin(), u2.end())),
            (std::vector<int64_t>{10, 11, 12}));
  const auto u0 = plane_.MessagesFor(0, 0);
  EXPECT_EQ((std::vector<int64_t>(u0.begin(), u0.end())),
            (std::vector<int64_t>{20}));
  const auto u5 = plane_.MessagesFor(1, 5);
  EXPECT_EQ((std::vector<int64_t>(u5.begin(), u5.end())),
            (std::vector<int64_t>{30}));
  EXPECT_TRUE(plane_.HasMail(0));
  EXPECT_TRUE(plane_.HasMail(2));
  EXPECT_TRUE(plane_.HasMail(5));
  EXPECT_FALSE(plane_.HasMail(1));
  EXPECT_FALSE(plane_.HasMail(4));
}

TEST_F(DeliveryPlaneTest, EmptySuperstepSealIsSafe) {
  // No deliveries at all: sealing and reading must behave, repeatedly.
  for (int cycle = 0; cycle < 3; ++cycle) {
    plane_.SealAll();
    for (uint32_t u = 0; u < 6; ++u) {
      EXPECT_FALSE(plane_.HasMail(u));
      EXPECT_TRUE(plane_.MessagesFor(assignment_[u], u).empty());
    }
    plane_.Barrier();
  }
}

TEST_F(DeliveryPlaneTest, BarrierClearsMailAndInboxes) {
  plane_.Deliver(0, 0, 1);
  plane_.Deliver(1, 3, 2);
  plane_.SealAll();
  plane_.Barrier();
  for (uint32_t u = 0; u < 6; ++u) EXPECT_FALSE(plane_.HasMail(u));
  EXPECT_EQ(plane_.InboxCountFor(0, 0), 0u);
  EXPECT_EQ(plane_.InboxCountFor(1, 3), 0u);
  // The plane is immediately reusable for the next superstep.
  plane_.Deliver(0, 4, 7);
  plane_.SealAll();
  ASSERT_EQ(plane_.InboxCountFor(0, 4), 1u);
  EXPECT_EQ(plane_.MessagesFor(0, 4)[0], 7);
}

// --- Frontier protocol (frontier-driven supersteps) ---
// Seal publishes each worker's mailed units as a sorted frontier unless
// the mailed set exceeds FrontierLimit (density * owned units), in which
// case the worker is marked dense and compute falls back to its
// activation scan. These tests pin the switch boundary, the sort/slice
// contract, and the empty-superstep behavior the engines rely on.

using DeliveryPlaneFrontierTest = DeliveryPlaneTest;

TEST_F(DeliveryPlaneFrontierTest, FrontierIsSortedMailedUnits) {
  // Deliver out of unit order; the frontier must come back sorted — the
  // same visit order as the dense scan. (High density: this test is about
  // ordering, not the switch.)
  plane_.set_frontier_density(1e9);
  plane_.Deliver(0, 4, 1);
  plane_.Deliver(0, 0, 2);
  plane_.Deliver(1, 5, 3);
  plane_.Deliver(1, 1, 4);
  plane_.SealAll();
  EXPECT_FALSE(plane_.FrontierIsDense(0));
  EXPECT_FALSE(plane_.FrontierIsDense(1));
  const auto f0 = plane_.Frontier(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[0], 0u);
  EXPECT_EQ(f0[1], 4u);
  const auto f1 = plane_.Frontier(1);
  ASSERT_EQ(f1.size(), 2u);
  EXPECT_EQ(f1[0], 1u);
  EXPECT_EQ(f1[1], 5u);
}

TEST_F(DeliveryPlaneFrontierTest, DensitySwitchBoundaryIsExact) {
  // Worker 0 owns 3 units; density 0.5 puts the limit at floor(1.5) = 1
  // mailed unit. Exactly at the limit: frontier. One past: dense.
  plane_.set_frontier_density(0.5);
  ASSERT_EQ(plane_.FrontierLimit(0), 1u);

  plane_.Deliver(0, 2, 10);
  plane_.SealAll();
  EXPECT_FALSE(plane_.FrontierIsDense(0));
  ASSERT_EQ(plane_.Frontier(0).size(), 1u);
  EXPECT_EQ(plane_.Frontier(0)[0], 2u);
  plane_.Barrier();

  plane_.Deliver(0, 2, 10);
  plane_.Deliver(0, 4, 11);
  plane_.SealAll();
  EXPECT_TRUE(plane_.FrontierIsDense(0));
  EXPECT_TRUE(plane_.Frontier(0).empty());  // never materialized
  // Worker 1 had no mail: not dense, empty frontier.
  EXPECT_FALSE(plane_.FrontierIsDense(1));
  EXPECT_TRUE(plane_.Frontier(1).empty());
}

TEST_F(DeliveryPlaneFrontierTest, DensityZeroDisablesFrontier) {
  plane_.set_frontier_density(0.0);
  EXPECT_EQ(plane_.FrontierLimit(0), 0u);
  plane_.Deliver(0, 0, 1);
  plane_.SealAll();
  // A single mailed unit already exceeds the zero limit: dense fallback.
  EXPECT_TRUE(plane_.FrontierIsDense(0));
  EXPECT_TRUE(plane_.Frontier(0).empty());
}

TEST_F(DeliveryPlaneFrontierTest, HighDensityNeverGoesDense) {
  plane_.set_frontier_density(1e9);
  for (uint32_t u = 0; u < 6; ++u) {
    plane_.Deliver(assignment_[u], u, static_cast<int64_t>(u));
  }
  plane_.SealAll();
  EXPECT_FALSE(plane_.FrontierIsDense(0));
  EXPECT_FALSE(plane_.FrontierIsDense(1));
  EXPECT_EQ(plane_.Frontier(0).size(), 3u);
  EXPECT_EQ(plane_.Frontier(1).size(), 3u);
}

TEST_F(DeliveryPlaneFrontierTest, FrontierSliceRestrictsByUnitRange) {
  plane_.set_frontier_density(1e9);
  plane_.Deliver(0, 0, 1);
  plane_.Deliver(0, 2, 2);
  plane_.Deliver(0, 4, 3);
  plane_.SealAll();
  // [0, 6) — everything; [1, 4) — only unit 2; [5, 6) — nothing.
  const auto all = plane_.FrontierSlice(0, 0, 6);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 0u);
  EXPECT_EQ(all[2], 4u);
  const auto mid = plane_.FrontierSlice(0, 1, 4);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0], 2u);
  EXPECT_TRUE(plane_.FrontierSlice(0, 5, 6).empty());
  // Half-open upper bound: unit_end itself is excluded.
  EXPECT_EQ(plane_.FrontierSlice(0, 0, 4).size(), 2u);
}

// Regression: a superstep where no worker receives mail must seal to an
// empty, non-dense frontier — and stay well-behaved across barriers
// (the engines probe Frontier/FrontierIsDense every superstep).
TEST_F(DeliveryPlaneFrontierTest, EmptySuperstepSealsEmptyFrontier) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    plane_.SealAll();
    for (int w = 0; w < kWorkers; ++w) {
      EXPECT_FALSE(plane_.FrontierIsDense(w)) << "cycle " << cycle;
      EXPECT_TRUE(plane_.Frontier(w).empty()) << "cycle " << cycle;
      EXPECT_TRUE(plane_.FrontierSlice(w, 0, 6).empty()) << "cycle " << cycle;
    }
    int64_t units = 0, dense = 0;
    plane_.CountFrontier(&units, &dense);
    EXPECT_EQ(units, 0);
    EXPECT_EQ(dense, 0);
    plane_.Barrier();
  }
}

TEST_F(DeliveryPlaneFrontierTest, BarrierResetsDenseFlag) {
  plane_.set_frontier_density(0.0);
  plane_.Deliver(0, 0, 1);
  plane_.SealAll();
  EXPECT_TRUE(plane_.FrontierIsDense(0));
  plane_.Barrier();
  // Next superstep with a permissive density must rebuild the frontier.
  plane_.set_frontier_density(1e9);
  plane_.Deliver(0, 0, 1);
  plane_.SealAll();
  EXPECT_FALSE(plane_.FrontierIsDense(0));
  EXPECT_EQ(plane_.Frontier(0).size(), 1u);
}

TEST_F(DeliveryPlaneFrontierTest, CountFrontierSumsMailedAndDense) {
  // Worker 0 dense (2 mailed > limit 1 at density 0.5), worker 1 sparse.
  plane_.set_frontier_density(0.5);
  plane_.Deliver(0, 0, 1);
  plane_.Deliver(0, 2, 2);
  plane_.Deliver(1, 3, 3);
  plane_.SealAll();
  int64_t units = 0, dense = 0;
  plane_.CountFrontier(&units, &dense);
  EXPECT_EQ(units, 3);  // mailed-unit total is density-independent
  EXPECT_EQ(dense, 1);
}

// Checkpoint drain/restore through the plane: encode what the engines'
// EncodeSection reads (mail flag + undelivered messages per owned unit),
// then rebuild a fresh plane the way recovery does (Deliver per message,
// Seal per worker) and verify it is indistinguishable.
TEST_F(DeliveryPlaneTest, CheckpointDrainRestoreRoundTrips) {
  plane_.Deliver(0, 2, 100);
  plane_.Deliver(0, 2, 101);
  plane_.Deliver(1, 1, 200);
  plane_.SealAll();

  // Drain (engine checkpoint encode shape).
  Writer section;
  for (int w = 0; w < kWorkers; ++w) {
    for (const uint32_t u : plane_.map().units_of(w)) {
      section.WriteU64(u);
      section.WriteU64(plane_.MailFlag(u));
      const auto msgs = plane_.MessagesFor(w, u);
      GRAPHITE_CHECK(msgs.size() == plane_.InboxCountFor(w, u));
      section.WriteU64(msgs.size());
      for (const int64_t m : msgs) section.WriteI64(m);
    }
  }

  // Restore into a fresh plane (engine recovery shape).
  DeliveryPlane<int64_t> restored(
      WorkerMap(assignment_.size(), kWorkers, Placement::Explicit(&assignment_),
                [](uint32_t u) { return static_cast<VertexId>(u); }));
  SuperstepRuntime rt2(kWorkers, false, RuntimeOptions{},
                       restored.map().worker_sizes());
  restored.Bind(&rt2);
  Reader r(section.buffer());
  for (int w = 0; w < kWorkers; ++w) {
    for (size_t i = 0; i < plane_.map().units_of(w).size(); ++i) {
      const uint32_t u = static_cast<uint32_t>(r.ReadU64());
      const uint64_t mail_flag = r.ReadU64();
      const uint64_t num_msgs = r.ReadU64();
      // The invariant every engine's DecodeSection checks.
      ASSERT_EQ(mail_flag != 0, num_msgs > 0);
      for (uint64_t k = 0; k < num_msgs; ++k) {
        restored.Deliver(w, u, r.ReadI64());
      }
    }
    restored.Seal(w);
  }
  EXPECT_TRUE(r.AtEnd());

  for (int w = 0; w < kWorkers; ++w) {
    for (const uint32_t u : plane_.map().units_of(w)) {
      EXPECT_EQ(plane_.MailFlag(u), restored.MailFlag(u)) << "u=" << u;
      const auto a = plane_.MessagesFor(w, u);
      const auto b = restored.MessagesFor(w, u);
      ASSERT_EQ(a.size(), b.size()) << "u=" << u;
      for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]) << "u=" << u;
    }
  }
}

// --- Route ---

// Route decodes each destination's rows in row (chunk) order, straight
// from the sender's buffer, counts every row's bytes once (cross-worker
// rows also as the destination's in-bytes) and clears the rows it read.
TEST_F(DeliveryPlaneTest, RouteDecodesRowsInOrderAndClearsThem) {
  // Two source rows (one per worker), messages as (unit, value) pairs.
  std::vector<std::vector<Writer>> wire(2);
  for (auto& row : wire) row.resize(2);
  wire[0][1].WriteU64(1);
  wire[0][1].WriteI64(100);
  wire[0][0].WriteU64(2);
  wire[0][0].WriteI64(200);
  wire[1][1].WriteU64(1);
  wire[1][1].WriteI64(101);
  const std::vector<int> row_src = {0, 1};
  const int64_t cross = static_cast<int64_t>(wire[0][1].size());
  const int64_t total = static_cast<int64_t>(
      wire[0][0].size() + wire[0][1].size() + wire[1][1].size());

  SuperstepMetrics ss;
  ss.worker_in_bytes.assign(2, 0);
  const bool any = plane_.Route(
      std::span<std::vector<Writer>>(wire), row_src, &ss,
      [this](Reader& reader, int dst) {
        const uint32_t unit = static_cast<uint32_t>(reader.ReadU64());
        plane_.Deliver(dst, unit, reader.ReadI64());
      });
  EXPECT_TRUE(any);
  ASSERT_EQ(plane_.InboxCountFor(1, 1), 2u);
  // Row order == worker order: worker 0's message precedes worker 1's.
  EXPECT_EQ(plane_.MessagesFor(1, 1)[0], 100);
  EXPECT_EQ(plane_.MessagesFor(1, 1)[1], 101);
  ASSERT_EQ(plane_.InboxCountFor(0, 2), 1u);
  EXPECT_EQ(plane_.MessagesFor(0, 2)[0], 200);
  EXPECT_EQ(ss.message_bytes, total);
  // Cross-worker bytes: only wire[0][1] and nothing into worker 0.
  EXPECT_EQ(ss.worker_in_bytes[0], 0);
  EXPECT_EQ(ss.worker_in_bytes[1], cross);
  // Rows were consumed (cleared) for the next superstep's refill.
  for (auto& rows : wire) {
    for (Writer& row : rows) EXPECT_EQ(row.size(), 0u);
  }
}

// An empty Route (quiet superstep) must decode nothing and report no
// messages — the engines' halt signal.
TEST_F(DeliveryPlaneTest, RouteEmptyIsQuiet) {
  std::vector<std::vector<Writer>> wire(2);
  for (auto& row : wire) row.resize(2);
  const std::vector<int> row_src = {0, 1};
  SuperstepMetrics ss;
  ss.worker_in_bytes.assign(2, 0);
  const bool any =
      plane_.Route(std::span<std::vector<Writer>>(wire), row_src, &ss,
                   [](Reader&, int) { FAIL() << "decode on empty"; });
  EXPECT_FALSE(any);
  EXPECT_EQ(ss.message_bytes, 0);
}

}  // namespace
}  // namespace graphite
