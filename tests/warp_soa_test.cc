// Property-based tests of the time-warp operator against a naive
// per-time-point O(n^2) reference model, run over BOTH public forms of the
// operator: the legacy allocating API (TimeWarp -> vector<WarpTuple>) and
// the arena-backed flat SoA path (TimeWarpInto -> WarpOutput). The two
// must agree exactly with the reference — same slice boundaries, same
// state values, same message-value groups — on random interval sets.
//
// Besides small random sets, both properties run on large shapes (up to
// 400-message inboxes, kTimeMin/kTimeMax message ends, time-sorted
// arrivals) so the kernel's sort and merge see realistic inbox sizes.
//
// The SoA cases deliberately reuse one arena across all repetitions with
// barrier-style Release/Reset between them, so the suite doubles as the
// ASan/TSan workout for arena recycling (tests/CMakeLists.txt runs it
// under the sanitizer presets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "icm/warp.h"
#include "temporal/time.h"
#include "util/arena.h"
#include "util/rng.h"

namespace graphite {
namespace {

using Entry = IntervalMap<int>::Entry;
using Item = TemporalItem<int>;

// Canonical tuple form shared by the reference and both APIs: the group
// is the multiset of message *values* (maximality merges by value).
struct CanonTuple {
  Interval interval;
  int state_value;
  std::map<int, int> group;  // value -> multiplicity

  bool operator==(const CanonTuple& o) const {
    return interval == o.interval && state_value == o.state_value &&
           group == o.group;
  }
};

// Naive reference: evaluate (state, live-message multiset) at every time
// point — O(horizon * n) — then merge maximal runs of equal pairs. This
// is the paper's definition read literally: Properties 1-3 fix the
// per-time-point content, Property 4 makes the runs maximal.
std::vector<CanonTuple> NaiveWarp(const std::vector<Entry>& outer,
                                  const std::vector<Item>& inner,
                                  TimePoint horizon) {
  std::vector<CanonTuple> out;
  for (TimePoint t = 0; t < horizon; ++t) {
    const Entry* state = nullptr;
    for (const Entry& s : outer) {
      if (s.interval.Contains(t)) state = &s;
    }
    std::map<int, int> group;
    for (const Item& m : inner) {
      if (m.interval.Contains(t)) ++group[m.value];
    }
    if (state == nullptr || group.empty()) continue;
    if (!out.empty() && out.back().interval.end == t &&
        out.back().state_value == state->value &&
        out.back().group == group) {
      out.back().interval.end = t + 1;
    } else {
      out.push_back({Interval(t, t + 1), state->value, std::move(group)});
    }
  }
  return out;
}

std::vector<CanonTuple> CanonFromLegacy(const std::vector<Entry>& outer,
                                        const std::vector<Item>& inner,
                                        const std::vector<WarpTuple>& warp) {
  std::vector<CanonTuple> out;
  for (const WarpTuple& t : warp) {
    CanonTuple c{t.interval, outer[t.outer_index].value, {}};
    for (const uint32_t idx : t.inner_indices) ++c.group[inner[idx].value];
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<CanonTuple> CanonFromSoa(const std::vector<Entry>& outer,
                                     const std::vector<Item>& inner,
                                     const WarpOutput& warp) {
  std::vector<CanonTuple> out;
  for (size_t i = 0; i < warp.size(); ++i) {
    const FlatWarpTuple& t = warp[i];
    CanonTuple c{t.interval, outer[t.outer_index].value, {}};
    for (const uint32_t idx : warp.group(t)) ++c.group[inner[idx].value];
    out.push_back(std::move(c));
  }
  return out;
}

void ExpectSame(const std::vector<CanonTuple>& expected,
                const std::vector<CanonTuple>& got, const char* api,
                uint64_t seed) {
  ASSERT_EQ(expected.size(), got.size()) << api << " seed=" << seed;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], got[i])
        << api << " seed=" << seed << " tuple " << i << " at "
        << got[i].interval.ToString();
  }
}

// Large shapes: every third seed draws up to 400 messages (the rest up to
// 40), about one message end in twelve is kTimeMin/kTimeMax, and even
// seeds arrive sorted by start time, as a time-ordered inbox would.
void MakeLargeWorkload(uint64_t seed, TimePoint horizon,
                       std::vector<Entry>* outer, std::vector<Item>* inner) {
  Rng rng(seed);
  TimePoint t = rng.UniformRange(0, 4);
  const int num_states = 1 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < num_states && t < horizon; ++i) {
    const TimePoint end = (i == num_states - 1 || t + 1 >= horizon)
                              ? horizon
                              : rng.UniformRange(t + 1, horizon);
    outer->push_back({{t, end}, static_cast<int>(rng.Uniform(3))});
    t = end;
  }
  const int num_msgs =
      static_cast<int>(rng.Uniform(seed % 3 == 0 ? 400 : 40));
  for (int i = 0; i < num_msgs; ++i) {
    TimePoint s = rng.UniformRange(0, horizon - 1);
    TimePoint e = rng.UniformRange(s + 1, horizon + 2);
    if (rng.Uniform(12) == 0) s = kTimeMin;
    if (rng.Uniform(12) == 0) e = kTimeMax;
    inner->push_back({{s, e}, static_cast<int>(rng.Uniform(3))});
  }
  if (seed % 2 == 0) {
    std::sort(inner->begin(), inner->end(),
              [](const Item& a, const Item& b) {
                return a.interval.start < b.interval.start;
              });
  }
}

TEST(WarpSoaPropertyTest, BothApisMatchNaiveReference) {
  constexpr TimePoint kHorizon = 28;
  // One arena for the whole suite, recycled between cases exactly like an
  // engine superstep barrier.
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  WarpOutput soa;
  soa.Attach(&arena);

  // Seeds past 400 draw the large shapes.
  for (uint64_t seed = 1; seed <= 650; ++seed) {
    std::vector<Entry> outer;
    std::vector<Item> inner;
    if (seed > 400) {
      MakeLargeWorkload(seed, kHorizon, &outer, &inner);
    } else {
      Rng rng(seed);
      TimePoint t = rng.UniformRange(0, 4);  // leading gap sometimes
      const int num_states = 1 + static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < num_states && t < kHorizon; ++i) {
        const TimePoint end = (i == num_states - 1 || t + 1 >= kHorizon)
                                  ? kHorizon
                                  : rng.UniformRange(t + 1, kHorizon);
        // Few distinct values so equal-value maximality merges happen
        // often.
        outer.push_back({{t, end}, static_cast<int>(rng.Uniform(3))});
        t = end;
      }
      const int num_msgs = static_cast<int>(rng.Uniform(30));
      for (int i = 0; i < num_msgs; ++i) {
        const TimePoint s = rng.UniformRange(0, kHorizon - 1);
        inner.push_back({{s, rng.UniformRange(s + 1, kHorizon + 1)},
                         static_cast<int>(rng.Uniform(3))});
      }
    }

    const std::vector<CanonTuple> expected =
        NaiveWarp(outer, inner, kHorizon);

    const auto legacy = TimeWarp<int, int>(outer, inner);
    ExpectSame(expected, CanonFromLegacy(outer, inner, legacy), "legacy",
               seed);

    TimeWarpInto<int, int>(outer, inner, &scratch, &soa);
    ExpectSame(expected, CanonFromSoa(outer, inner, soa), "soa", seed);

    // Legacy shim and SoA output must also agree index-for-index (the
    // shim is a copy of the SoA result by construction).
    ASSERT_EQ(legacy.size(), soa.size());
    for (size_t i = 0; i < soa.size(); ++i) {
      EXPECT_EQ(legacy[i].interval, soa[i].interval);
      EXPECT_EQ(legacy[i].outer_index, soa[i].outer_index);
      const auto group = soa.group(i);
      ASSERT_EQ(legacy[i].inner_indices.size(), group.size());
      for (size_t k = 0; k < group.size(); ++k) {
        EXPECT_EQ(legacy[i].inner_indices[k], group[k]);
      }
    }

    // Superstep-barrier recycling every few cases; the other cases reuse
    // the buffers hot (clear-on-entry inside TimeWarpInto).
    if (seed % 3 == 0) {
      scratch.Release();
      soa.Release();
      arena.Reset();
    }
  }
}

// The combining warp (§VI inline combiner) against a naive reference
// built directly from the definition: per outer entry, clip every message
// to the entry, cut slices at the clipped endpoints, fold the live group
// of each slice, then coalesce adjacent slices with equal state value and
// equal folded payload (group_size accumulates the live count of every
// coalesced slice — it meters compute work, it is not a deduplicated
// group cardinality, so it can exceed the plain warp's group size).
TEST(WarpSoaPropertyTest, CombineIntoMatchesNaiveSliceModel) {
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  SuperstepVec<CombinedWarpTuple<int>> combined;
  combined.Attach(&arena);
  auto add = [](int a, int b) { return a + b; };

  // Seeds past 650 draw the large shapes.
  for (uint64_t seed = 500; seed <= 800; ++seed) {
    constexpr TimePoint kHorizon = 24;
    std::vector<Entry> outer;
    std::vector<Item> inner;
    if (seed > 650) {
      MakeLargeWorkload(seed, kHorizon, &outer, &inner);
    } else {
      Rng rng(seed);
      TimePoint t = 0;
      const int num_states = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < num_states && t < kHorizon; ++i) {
        const TimePoint end = (i == num_states - 1 || t + 1 >= kHorizon)
                                  ? kHorizon
                                  : rng.UniformRange(t + 1, kHorizon);
        outer.push_back({{t, end}, static_cast<int>(rng.Uniform(2))});
        t = end;
      }
      const int num_msgs = static_cast<int>(rng.Uniform(20));
      for (int i = 0; i < num_msgs; ++i) {
        const TimePoint s = rng.UniformRange(0, kHorizon - 1);
        inner.push_back({{s, rng.UniformRange(s + 1, kHorizon + 1)},
                         static_cast<int>(rng.Uniform(5))});
      }
    }

    TimeWarpCombineInto<int, int>(outer, inner, add, &scratch, &combined);

    struct NaiveTuple {
      Interval interval;
      int state_value;
      int combined;
      uint32_t group_size;
    };
    std::vector<NaiveTuple> expected;
    for (const Entry& e : outer) {
      std::vector<TimePoint> cuts;
      for (const Item& m : inner) {
        const TimePoint lo = std::max(m.interval.start, e.interval.start);
        const TimePoint hi = std::min(m.interval.end, e.interval.end);
        if (lo < hi) {
          cuts.push_back(lo);
          cuts.push_back(hi);
        }
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      for (size_t c = 0; c + 1 < cuts.size(); ++c) {
        const Interval slice(cuts[c], cuts[c + 1]);
        int folded = 0;
        uint32_t live = 0;
        // Fold in ascending-index order, matching the sweep's live list.
        for (const Item& m : inner) {
          const TimePoint lo = std::max(m.interval.start, e.interval.start);
          const TimePoint hi = std::min(m.interval.end, e.interval.end);
          if (lo <= slice.start && slice.start < hi) {
            folded = live == 0 ? m.value : add(folded, m.value);
            ++live;
          }
        }
        if (live == 0) continue;
        if (!expected.empty() && expected.back().interval.Meets(slice) &&
            expected.back().state_value == e.value &&
            expected.back().combined == folded) {
          expected.back().interval.end = slice.end;
          expected.back().group_size += live;
        } else {
          expected.push_back({slice, e.value, folded, live});
        }
      }
    }

    ASSERT_EQ(expected.size(), combined.size()) << "seed=" << seed;
    for (size_t i = 0; i < combined.size(); ++i) {
      EXPECT_EQ(expected[i].interval, combined[i].interval) << "seed=" << seed;
      EXPECT_EQ(expected[i].state_value,
                outer[combined[i].outer_index].value)
          << "seed=" << seed;
      EXPECT_EQ(expected[i].combined, combined[i].combined)
          << "seed=" << seed;
      EXPECT_EQ(expected[i].group_size, combined[i].group_size)
          << "seed=" << seed;
    }

    if (seed % 4 == 0) {
      scratch.Release();
      combined.Release();
      arena.Reset();
    }
  }
}

}  // namespace
}  // namespace graphite
