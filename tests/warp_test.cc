// Tests for the time-join and time-warp operators (§IV-B), including
// randomized property tests of the four formal warp guarantees — valid
// inclusion, no invalid inclusion, no duplication, maximality — against a
// brute-force per-time-point evaluator.
#include "icm/warp.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"
#include "warp_reference.h"

namespace graphite {
namespace {

using Entry = IntervalMap<int>::Entry;
using Item = TemporalItem<int>;

std::vector<Entry> MakeOuter(std::initializer_list<Entry> entries) {
  return entries;
}

TEST(TimeJoinTest, PairwiseIntersections) {
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 10}, {{5, 9}, 20}});
  std::vector<Item> inner = {{{2, 7}, 100}, {{8, 12}, 200}};
  auto join = TimeJoin<int, int>(outer, inner);
  ASSERT_EQ(join.size(), 3u);
  EXPECT_EQ(join[0].interval, Interval(2, 5));  // s1 x m1
  EXPECT_EQ(join[1].interval, Interval(5, 7));  // s2 x m1
  EXPECT_EQ(join[2].interval, Interval(8, 9));  // s2 x m2
}

// The paper's Fig. 3 worked example: 3 partitioned states, 5 messages.
//   s1=[0,5), s2=[5,9), s3=[9,12)
//   m1=[0,4), m2=[2,7), m3=[5,10), m4=[7,9), m5=[9,10)
// Expected boundaries 0,2,4,5,7,9,10 and groups per slice.
TEST(TimeWarpTest, PaperFigure3Example) {
  std::vector<Entry> outer =
      MakeOuter({{{0, 5}, 1}, {{5, 9}, 2}, {{9, 12}, 3}});
  std::vector<Item> inner = {
      {{0, 4}, 100}, {{2, 7}, 200}, {{5, 10}, 300}, {{7, 9}, 400},
      {{9, 10}, 500}};
  auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 6u);

  EXPECT_EQ(warp[0].interval, Interval(0, 2));
  EXPECT_EQ(warp[0].inner_indices, (std::vector<uint32_t>{0}));  // {m1}
  EXPECT_EQ(warp[1].interval, Interval(2, 4));
  EXPECT_EQ(warp[1].inner_indices, (std::vector<uint32_t>{0, 1}));  // {m1,m2}
  EXPECT_EQ(warp[2].interval, Interval(4, 5));
  EXPECT_EQ(warp[2].inner_indices, (std::vector<uint32_t>{1}));  // {m2}
  EXPECT_EQ(warp[3].interval, Interval(5, 7));
  EXPECT_EQ(warp[3].inner_indices, (std::vector<uint32_t>{1, 2}));  // {m2,m3}
  EXPECT_EQ(warp[4].interval, Interval(7, 9));
  EXPECT_EQ(warp[4].inner_indices, (std::vector<uint32_t>{2, 3}));  // {m3,m4}
  EXPECT_EQ(warp[5].interval, Interval(9, 10));
  EXPECT_EQ(warp[5].inner_indices, (std::vector<uint32_t>{2, 4}));  // {m3,m5}
  EXPECT_EQ(warp[5].outer_index, 2u);
}

TEST(TimeWarpTest, EmptyInputs) {
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 1}});
  std::vector<Item> inner;
  EXPECT_TRUE((TimeWarp<int, int>(outer, inner).empty()));
  outer.clear();
  inner.push_back({{0, 5}, 1});
  EXPECT_TRUE((TimeWarp<int, int>(outer, inner).empty()));
}

TEST(TimeWarpTest, DisjointMessageProducesNothing) {
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 1}});
  std::vector<Item> inner = {{{7, 9}, 100}};
  EXPECT_TRUE((TimeWarp<int, int>(outer, inner).empty()));
}

TEST(TimeWarpTest, MessageSpanningTwoStatesSplits) {
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 1}, {{5, 9}, 2}});
  std::vector<Item> inner = {{{2, 7}, 100}};
  auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 2u);
  EXPECT_EQ(warp[0].interval, Interval(2, 5));
  EXPECT_EQ(warp[0].outer_index, 0u);
  EXPECT_EQ(warp[1].interval, Interval(5, 7));
  EXPECT_EQ(warp[1].outer_index, 1u);
}

TEST(TimeWarpTest, MaximalityMergesAcrossEqualStates) {
  // Two adjacent state entries with the SAME value and one message across
  // both: the warp must emit a single merged tuple (formal property 4).
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 7}, {{5, 9}, 7}});
  std::vector<Item> inner = {{{2, 7}, 100}};
  auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 1u);
  EXPECT_EQ(warp[0].interval, Interval(2, 7));
}

TEST(TimeWarpTest, NoMergeAcrossDifferentStates) {
  std::vector<Entry> outer = MakeOuter({{{0, 5}, 7}, {{5, 9}, 8}});
  std::vector<Item> inner = {{{2, 7}, 100}};
  EXPECT_EQ((TimeWarp<int, int>(outer, inner).size()), 2u);
}

TEST(TimeWarpTest, EqualValuedMessagesMergeAdjacentSlices) {
  // Two messages with equal payloads whose intervals meet: slices [0,3)
  // and [3,6) carry value-equal groups and must coalesce.
  std::vector<Entry> outer = MakeOuter({{{0, 10}, 1}});
  std::vector<Item> inner = {{{0, 3}, 100}, {{3, 6}, 100}};
  auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 1u);
  EXPECT_EQ(warp[0].interval, Interval(0, 6));
}

TEST(TimeWarpTest, DistinctPayloadsDoNotMerge) {
  std::vector<Entry> outer = MakeOuter({{{0, 10}, 1}});
  std::vector<Item> inner = {{{0, 3}, 100}, {{3, 6}, 101}};
  EXPECT_EQ((TimeWarp<int, int>(outer, inner).size()), 2u);
}

TEST(TimeWarpTest, OpenEndedIntervals) {
  std::vector<Entry> outer = MakeOuter({{{0, kTimeMax}, 1}});
  std::vector<Item> inner = {{{9, kTimeMax}, 100}, {{6, kTimeMax}, 200}};
  auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 2u);
  EXPECT_EQ(warp[0].interval, Interval(6, 9));
  EXPECT_EQ(warp[0].inner_indices, (std::vector<uint32_t>{1}));
  EXPECT_EQ(warp[1].interval, Interval(9, kTimeMax));
  EXPECT_EQ(warp[1].inner_indices, (std::vector<uint32_t>{0, 1}));
}

// ---------------------------------------------------------------------
// Randomized property tests against a per-time-point brute force model.
// ---------------------------------------------------------------------

struct WarpPropertyCase {
  uint64_t seed;
  int num_states;
  int num_messages;
};

class WarpPropertyTest : public ::testing::TestWithParam<WarpPropertyCase> {};

TEST_P(WarpPropertyTest, FourFormalGuaranteesHold) {
  const WarpPropertyCase param = GetParam();
  Rng rng(param.seed);
  constexpr TimePoint kHorizon = 30;

  // Random temporally-partitioned outer set covering [0, kHorizon).
  std::vector<Entry> outer;
  TimePoint t = 0;
  for (int i = 0; i < param.num_states && t < kHorizon; ++i) {
    TimePoint end = (i == param.num_states - 1)
                        ? kHorizon
                        : rng.UniformRange(t + 1, kHorizon + 1);
    outer.push_back({{t, end}, static_cast<int>(rng.Uniform(3))});
    t = end;
  }
  // Random inner set; payload range kept small to exercise value-equality
  // merging in the maximality check.
  std::vector<Item> inner;
  for (int i = 0; i < param.num_messages; ++i) {
    const TimePoint s = rng.UniformRange(0, kHorizon - 1);
    const TimePoint e = rng.UniformRange(s + 1, kHorizon + 1);
    inner.push_back({{s, e}, static_cast<int>(rng.Uniform(4))});
  }

  const auto warp = TimeWarp<int, int>(outer, inner);

  // Shared helper: which output tuple covers time-point t (if any).
  auto tuple_at = [&](TimePoint tp) -> const WarpTuple* {
    const WarpTuple* found = nullptr;
    for (const auto& w : warp) {
      if (w.interval.Contains(tp)) {
        EXPECT_EQ(found, nullptr)
            << "duplication at t=" << tp;  // Property 3 (outer is disjoint)
        found = &w;
      }
    }
    return found;
  };

  for (TimePoint tp = 0; tp < kHorizon; ++tp) {
    // Brute force: the state and message-group alive at tp.
    const Entry* state = nullptr;
    for (const auto& s : outer) {
      if (s.interval.Contains(tp)) state = &s;
    }
    std::multiset<int> expected_msgs;
    for (const auto& m : inner) {
      if (m.interval.Contains(tp)) expected_msgs.insert(m.value);
    }
    const WarpTuple* w = tuple_at(tp);
    if (expected_msgs.empty() || state == nullptr) {
      // Property 2: nothing may be emitted where either side is absent.
      EXPECT_EQ(w, nullptr) << "invalid inclusion at t=" << tp;
      continue;
    }
    // Property 1: the pair must be present with the full group.
    ASSERT_NE(w, nullptr) << "missing inclusion at t=" << tp;
    EXPECT_EQ(outer[w->outer_index].value, state->value);
    std::multiset<int> got;
    for (uint32_t idx : w->inner_indices) got.insert(inner[idx].value);
    EXPECT_EQ(got, expected_msgs) << "group mismatch at t=" << tp;
  }

  // Property 4 (maximality): no adjacent/overlapping tuples with equal
  // state value and equal message-value group.
  for (size_t i = 0; i + 1 < warp.size(); ++i) {
    const auto& a = warp[i];
    const auto& b = warp[i + 1];
    if (!(a.interval.Meets(b.interval) || a.interval.Intersects(b.interval))) {
      continue;
    }
    if (outer[a.outer_index].value != outer[b.outer_index].value) continue;
    std::multiset<int> ga, gb;
    for (uint32_t idx : a.inner_indices) ga.insert(inner[idx].value);
    for (uint32_t idx : b.inner_indices) gb.insert(inner[idx].value);
    EXPECT_NE(ga, gb) << "non-maximal tuples at " << a.interval.ToString()
                      << " and " << b.interval.ToString();
  }

  // Output must be temporally ordered and disjoint.
  for (size_t i = 0; i + 1 < warp.size(); ++i) {
    EXPECT_LE(warp[i].interval.end, warp[i + 1].interval.start);
  }
}

std::vector<WarpPropertyCase> MakeWarpCases() {
  std::vector<WarpPropertyCase> cases;
  uint64_t seed = 1000;
  for (int states : {1, 2, 5, 9}) {
    for (int msgs : {1, 2, 6, 15, 40}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back({seed++, states, msgs});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, WarpPropertyTest,
                         ::testing::ValuesIn(MakeWarpCases()));

// Warp must agree with the time-join it is defined over: every time-join
// triple's time-points appear in warp with the same (state, message) pair.
TEST(TimeWarpTest, ConsistentWithTimeJoin) {
  Rng rng(777);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<Entry> outer;
    TimePoint t = rng.UniformRange(0, 3);
    for (int i = 0; i < 4 && t < 20; ++i) {
      TimePoint end = rng.UniformRange(t + 1, 21);
      outer.push_back({{t, end}, static_cast<int>(rng.Uniform(10))});
      t = end;
    }
    std::vector<Item> inner;
    for (int i = 0; i < 8; ++i) {
      const TimePoint s = rng.UniformRange(0, 19);
      inner.push_back({{s, rng.UniformRange(s + 1, 21)},
                       static_cast<int>(rng.Uniform(10))});
    }
    const auto join = TimeJoin<int, int>(outer, inner);
    const auto warp = TimeWarp<int, int>(outer, inner);
    for (const auto& jt : join) {
      for (TimePoint tp = jt.interval.start; tp < jt.interval.end; ++tp) {
        // Valid inclusion is value-based: after the maximality merge a
        // group may carry an equal-valued message's index instead.
        bool found = false;
        for (const auto& w : warp) {
          if (!w.interval.Contains(tp)) continue;
          for (uint32_t idx : w.inner_indices) {
            if (inner[idx].value == inner[jt.inner_index].value) found = true;
          }
        }
        EXPECT_TRUE(found) << "join triple missing from warp at t=" << tp;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Arrival-order guarantee: every WarpTuple::inner_indices lists message
// indices in arrival (inbox) order — i.e. strictly ascending — including
// tuples produced by the Property-4 maximality merge across slice
// boundaries, which must keep the earlier slice's group.
// ---------------------------------------------------------------------

// Targeted cross-slice merge: [0,3) is live {m0, m1} and [3,6) is live
// {m0, m2}; with m1 and m2 equal-valued the groups are multiset-equal, so
// maximality merges the slices. The merged tuple must keep the FIRST
// slice's group {0, 1} in arrival order — not {0, 2}, and not a
// re-sorted or match-ordered permutation.
TEST(TimeWarpTest, MaximalityMergeKeepsArrivalOrderAcrossSlices) {
  std::vector<Entry> outer = MakeOuter({{{0, 10}, 1}});
  std::vector<Item> inner = {{{0, 6}, 5}, {{0, 3}, 7}, {{3, 6}, 7}};
  const auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 1u);
  EXPECT_EQ(warp[0].interval, Interval(0, 6));
  EXPECT_EQ(warp[0].inner_indices, (std::vector<uint32_t>{0, 1}));
}

// Same shape, but the merge chain extends over three slices; arrival
// order must survive repeated in-place extension of one tuple.
TEST(TimeWarpTest, RepeatedMergeKeepsArrivalOrder) {
  std::vector<Entry> outer = MakeOuter({{{0, 12}, 1}});
  std::vector<Item> inner = {
      {{0, 9}, 5}, {{0, 3}, 7}, {{3, 6}, 7}, {{6, 9}, 7}};
  const auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 1u);
  EXPECT_EQ(warp[0].interval, Interval(0, 9));
  EXPECT_EQ(warp[0].inner_indices, (std::vector<uint32_t>{0, 1}));
}

// A message arriving later (higher index) but starting earlier must still
// be listed after earlier arrivals in every group it shares with them.
TEST(TimeWarpTest, GroupOrderIsArrivalNotStartTime) {
  std::vector<Entry> outer = MakeOuter({{{0, 10}, 1}});
  // m0 arrives first but starts later than m1.
  std::vector<Item> inner = {{{4, 8}, 100}, {{1, 8}, 200}};
  const auto warp = TimeWarp<int, int>(outer, inner);
  ASSERT_EQ(warp.size(), 2u);
  EXPECT_EQ(warp[0].interval, Interval(1, 4));
  EXPECT_EQ(warp[0].inner_indices, (std::vector<uint32_t>{1}));
  EXPECT_EQ(warp[1].interval, Interval(4, 8));
  EXPECT_EQ(warp[1].inner_indices, (std::vector<uint32_t>{0, 1}));
}

// Randomized sweep: ascending inner_indices in every tuple, any input.
TEST(TimeWarpTest, AllGroupsAscendingUnderRandomInputs) {
  Rng rng(4242);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<Entry> outer;
    TimePoint t = 0;
    const int num_states = 1 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < num_states && t < 24; ++i) {
      TimePoint end =
          i == num_states - 1 ? 24 : rng.UniformRange(t + 1, 25);
      outer.push_back({{t, end}, static_cast<int>(rng.Uniform(3))});
      t = end;
    }
    std::vector<Item> inner;
    const int num_msgs = 1 + static_cast<int>(rng.Uniform(24));
    for (int i = 0; i < num_msgs; ++i) {
      const TimePoint s = rng.UniformRange(0, 23);
      // Few distinct payloads so equal-value merges are frequent.
      inner.push_back(
          {{s, rng.UniformRange(s + 1, 25)}, static_cast<int>(rng.Uniform(3))});
    }
    for (const WarpTuple& w : TimeWarp<int, int>(outer, inner)) {
      for (size_t i = 0; i + 1 < w.inner_indices.size(); ++i) {
        ASSERT_LT(w.inner_indices[i], w.inner_indices[i + 1])
            << "group not in arrival order in " << w.interval.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace graphite
