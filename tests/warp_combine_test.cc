// Tests for the inline-combining time-warp (§VI warp combiner): its
// tuples must equal TimeWarp's tuples post-folded, for random inputs.
#include <gtest/gtest.h>

#include "icm/warp.h"
#include "util/rng.h"
#include "warp_reference.h"

namespace graphite {
namespace {

using Entry = IntervalMap<int64_t>::Entry;
using Item = TemporalItem<int64_t>;

int64_t Min64(const int64_t& a, const int64_t& b) { return std::min(a, b); }

TEST(TimeWarpCombineTest, FoldsGroupsLikePostFold) {
  Rng rng(4242);
  for (int rep = 0; rep < 60; ++rep) {
    // Random partitioned outer set.
    std::vector<Entry> outer;
    TimePoint t = 0;
    const int num_states = 1 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < num_states && t < 30; ++i) {
      const TimePoint end =
          i == num_states - 1 ? 30 : rng.UniformRange(t + 1, 31);
      outer.push_back({{t, end}, static_cast<int64_t>(rng.Uniform(3))});
      t = end;
    }
    std::vector<Item> inner;
    const int m = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < m; ++i) {
      const TimePoint s = rng.UniformRange(0, 29);
      inner.push_back(
          {{s, rng.UniformRange(s + 1, 31)},
           static_cast<int64_t>(rng.Uniform(100))});
    }

    const auto combined =
        TimeWarpCombine<int64_t, int64_t>(outer, inner, Min64);
    const auto plain = TimeWarp<int64_t, int64_t>(outer, inner);

    // Fold the plain tuples, then re-apply the (state, folded-value)
    // maximality merge the combining warp performs.
    struct Folded {
      Interval interval;
      int64_t state;
      int64_t value;
      uint32_t size;
    };
    std::vector<Folded> folded;
    for (const WarpTuple& w : plain) {
      int64_t acc = inner[w.inner_indices[0]].value;
      for (size_t i = 1; i < w.inner_indices.size(); ++i) {
        acc = Min64(acc, inner[w.inner_indices[i]].value);
      }
      Folded f{w.interval, outer[w.outer_index].value, acc,
               static_cast<uint32_t>(w.inner_indices.size())};
      if (!folded.empty() && folded.back().interval.Meets(f.interval) &&
          folded.back().state == f.state && folded.back().value == f.value) {
        folded.back().interval.end = f.interval.end;
        folded.back().size += f.size;
      } else {
        folded.push_back(f);
      }
    }

    ASSERT_EQ(combined.size(), folded.size()) << "rep=" << rep;
    for (size_t i = 0; i < combined.size(); ++i) {
      EXPECT_EQ(combined[i].interval, folded[i].interval) << "rep=" << rep;
      EXPECT_EQ(combined[i].combined, folded[i].value) << "rep=" << rep;
      EXPECT_EQ(outer[combined[i].outer_index].value, folded[i].state);
      // group_size bookkeeping may differ across the two merge orders
      // (plain warp dedups value-equal messages before folding); it only
      // needs to be a positive witness of a non-empty group.
      EXPECT_GT(combined[i].group_size, 0u);
    }
  }
}

TEST(TimeWarpCombineTest, EmptyInputs) {
  std::vector<Entry> outer = {{{0, 5}, 1}};
  std::vector<Item> inner;
  EXPECT_TRUE((TimeWarpCombine<int64_t, int64_t>(outer, inner, Min64).empty()));
}

TEST(TimeWarpCombineTest, SumCombinerOrderIndependent) {
  std::vector<Entry> outer = {{{0, 10}, 0}};
  std::vector<Item> inner = {{{0, 10}, 1}, {{3, 7}, 10}, {{5, 10}, 100}};
  auto sum = [](const int64_t& a, const int64_t& b) { return a + b; };
  const auto tuples = TimeWarpCombine<int64_t, int64_t>(outer, inner, sum);
  ASSERT_EQ(tuples.size(), 4u);
  EXPECT_EQ(tuples[0].interval, Interval(0, 3));
  EXPECT_EQ(tuples[0].combined, 1);
  EXPECT_EQ(tuples[1].interval, Interval(3, 5));
  EXPECT_EQ(tuples[1].combined, 11);
  EXPECT_EQ(tuples[2].interval, Interval(5, 7));
  EXPECT_EQ(tuples[2].combined, 111);
  EXPECT_EQ(tuples[3].interval, Interval(7, 10));
  EXPECT_EQ(tuples[3].combined, 101);
}

}  // namespace
}  // namespace graphite
