// Differential test for IntervalMap's in-place storage: random Set /
// Erase / Coalesce sequences must leave exactly the entries the old
// copy-based implementation (kept below as RefIntervalMap, the reference
// only) leaves. Runs over int64_t and over a value type that owns heap
// memory, like TcState's vectors, so the inline entry's construction,
// moves and destruction are checked under the sanitizers too. A second
// suite copies and moves maps of 0, 1 and many entries into maps of 0, 1
// and many entries, which crosses every inline <-> heap transition.
//
// Tier-1 runs a few trials. GRAPHITE_DIFFERENTIAL_TRIALS sets the count
// (tools/ci.sh runs a large one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "temporal/interval_map.h"
#include "util/rng.h"

namespace graphite {
namespace {

int Trials() {
  const char* env = std::getenv("GRAPHITE_DIFFERENTIAL_TRIALS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 4;
}

// The IntervalMap mutators as they were before the entries moved in
// place: every non-matching Set and every Erase rebuilds a fresh vector.
template <typename V>
class RefIntervalMap {
 public:
  using Entry = IntervalEntry<V>;

  void Set(const Interval& interval, const V& value) {
    if (interval.IsEmpty()) return;
    {
      auto it = std::upper_bound(
          entries_.begin(), entries_.end(), interval.start,
          [](TimePoint tp, const Entry& e) { return tp < e.interval.start; });
      if (it != entries_.begin()) {
        Entry& e = *(it - 1);
        if (e.interval == interval) {
          e.value = value;
          return;
        }
      }
    }
    std::vector<Entry> out;
    out.reserve(entries_.size() + 2);
    bool inserted = false;
    auto insert_new = [&] {
      if (!inserted) {
        out.push_back({interval, value});
        inserted = true;
      }
    };
    for (const Entry& e : entries_) {
      if (e.interval.end <= interval.start) {
        out.push_back(e);
      } else if (e.interval.start >= interval.end) {
        insert_new();
        out.push_back(e);
      } else {
        if (e.interval.start < interval.start) {
          out.push_back({{e.interval.start, interval.start}, e.value});
        }
        insert_new();
        if (e.interval.end > interval.end) {
          out.push_back({{interval.end, e.interval.end}, e.value});
        }
      }
    }
    insert_new();
    entries_ = std::move(out);
  }

  void Erase(const Interval& interval) {
    if (interval.IsEmpty()) return;
    std::vector<Entry> out;
    out.reserve(entries_.size() + 1);
    for (const Entry& e : entries_) {
      if (!e.interval.Intersects(interval)) {
        out.push_back(e);
        continue;
      }
      if (e.interval.start < interval.start) {
        out.push_back({{e.interval.start, interval.start}, e.value});
      }
      if (e.interval.end > interval.end) {
        out.push_back({{interval.end, e.interval.end}, e.value});
      }
    }
    entries_ = std::move(out);
  }

  void Coalesce() {
    if (entries_.size() < 2) return;
    size_t write = 0;
    for (size_t read = 1; read < entries_.size(); ++read) {
      Entry& prev = entries_[write];
      Entry& cur = entries_[read];
      if (prev.interval.end == cur.interval.start && prev.value == cur.value) {
        prev.interval.end = cur.interval.end;
      } else {
        ++write;
        if (write != read) entries_[write] = std::move(cur);
      }
    }
    entries_.resize(write + 1);
  }

  void clear() { entries_.clear(); }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// A value that owns heap memory, shaped like TcState.
struct Owned {
  std::vector<int64_t> items;
  std::string tag;

  bool operator==(const Owned& other) const {
    return items == other.items && tag == other.tag;
  }
};

template <typename V>
V MakeValue(Rng& rng);

template <>
int64_t MakeValue<int64_t>(Rng& rng) {
  return static_cast<int64_t>(rng.Uniform(4));
}

template <>
Owned MakeValue<Owned>(Rng& rng) {
  // Few distinct values, so Coalesce has equal neighbours to merge.
  const uint64_t k = rng.Uniform(4);
  Owned v;
  v.items.assign(k + 1, static_cast<int64_t>(k));
  v.tag = std::string(8 + k, static_cast<char>('a' + k));
  return v;
}

template <typename V>
::testing::AssertionResult SameEntries(const IntervalMap<V>& got,
                                       const RefIntervalMap<V>& want) {
  const auto g = got.entries();
  const auto& w = want.entries();
  if (g.size() != w.size()) {
    return ::testing::AssertionFailure()
           << "size " << g.size() << " vs reference " << w.size();
  }
  for (size_t i = 0; i < g.size(); ++i) {
    if (!(g[i] == w[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": [" << g[i].interval.start << ", "
             << g[i].interval.end << ") vs reference ["
             << w[i].interval.start << ", " << w[i].interval.end << ")";
    }
  }
  if (!got.IsWellFormed()) {
    return ::testing::AssertionFailure() << "not well-formed";
  }
  return ::testing::AssertionSuccess();
}

// A random interval over a small domain (so operations collide often),
// sometimes open-ended or empty.
Interval RandomInterval(Rng& rng) {
  constexpr TimePoint kDomain = 48;
  const TimePoint s = rng.UniformRange(0, kDomain);
  if (rng.Bernoulli(0.05)) return Interval(s, s);  // Empty: a no-op.
  if (rng.Bernoulli(0.1)) return Interval(s, kTimeMax);
  return Interval(s, rng.UniformRange(s + 1, kDomain + 2));
}

template <typename V>
void RunRandomOps(uint64_t seed, int ops) {
  Rng rng(seed);
  IntervalMap<V> m;
  RefIntervalMap<V> ref;
  if (rng.Bernoulli(0.5)) {
    // Start like a vertex state: one entry over a lifespan.
    const V v = MakeValue<V>(rng);
    m = IntervalMap<V>(Interval(0, 40), v);
    ref.Set(Interval(0, 40), v);
  }
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.Uniform(20);
    if (kind < 12) {
      const Interval iv = RandomInterval(rng);
      const V v = MakeValue<V>(rng);
      m.Set(iv, v);
      ref.Set(iv, v);
    } else if (kind < 15) {
      const Interval iv = RandomInterval(rng);
      m.Erase(iv);
      ref.Erase(iv);
    } else if (kind < 18) {
      m.Coalesce();
      ref.Coalesce();
    } else if (kind < 19) {
      // Round-trip through a copy and a move: the result must still be
      // the same map, inline or not.
      IntervalMap<V> copy(m);
      IntervalMap<V> moved(std::move(copy));
      ASSERT_TRUE(copy.empty());
      m = moved;
    } else {
      m.clear();
      ref.clear();
    }
    ASSERT_TRUE(SameEntries(m, ref)) << "seed " << seed << " op " << op;
  }
}

TEST(IntervalMapDifferentialTest, Int64MatchesCopyBasedReference) {
  const int trials = Trials();
  for (int t = 0; t < trials; ++t) {
    RunRandomOps<int64_t>(1000 + static_cast<uint64_t>(t), 400);
  }
}

TEST(IntervalMapDifferentialTest, HeapOwningValueMatchesCopyBasedReference) {
  const int trials = Trials();
  for (int t = 0; t < trials; ++t) {
    RunRandomOps<Owned>(2000 + static_cast<uint64_t>(t), 400);
  }
}

// A map of `n` entries: 0 (empty), 1 (inline) or many (on the heap).
IntervalMap<Owned> MapOf(int n, char tag) {
  IntervalMap<Owned> m;
  for (int i = 0; i < n; ++i) {
    m.Set(Interval(3 * i, 3 * i + 2),
          Owned{{i, i + 1}, std::string(20, static_cast<char>(tag + i))});
  }
  return m;
}

TEST(IntervalMapCopyMoveTest, EveryInlineHeapTransitionKeepsEntries) {
  for (const int from : {0, 1, 5}) {
    const IntervalMap<Owned> source = MapOf(from, 'a');
    ASSERT_EQ(source.size(), static_cast<size_t>(from));

    IntervalMap<Owned> copied(source);
    EXPECT_EQ(copied, source) << from;

    IntervalMap<Owned> moved(IntervalMap<Owned>(MapOf(from, 'a')));
    EXPECT_EQ(moved, source) << from;

    for (const int into : {0, 1, 5}) {
      IntervalMap<Owned> assigned = MapOf(into, 'k');
      assigned = source;
      EXPECT_EQ(assigned, source) << from << " into " << into;

      IntervalMap<Owned> move_assigned = MapOf(into, 'k');
      IntervalMap<Owned> donor = MapOf(from, 'a');
      move_assigned = std::move(donor);
      EXPECT_EQ(move_assigned, source) << from << " into " << into;
      EXPECT_TRUE(donor.empty());
      // The moved-from map is reusable.
      donor.Set(Interval(0, 4), Owned{{7}, "reused"});
      donor.Set(Interval(4, 9), Owned{{8}, "reused again"});
      EXPECT_EQ(donor.size(), 2u);

      // Self-assignment is a no-op.
      IntervalMap<Owned>& alias = assigned;
      assigned = alias;
      EXPECT_EQ(assigned, source);
    }
  }
}

TEST(IntervalMapCopyMoveTest, VectorGrowthMovesMapsIntact) {
  // std::vector relocates its maps by move when it grows: inline and heap
  // maps must both survive.
  std::vector<IntervalMap<Owned>> maps;
  for (int i = 0; i < 40; ++i) maps.push_back(MapOf(i % 3 == 0 ? 4 : 1, 'a'));
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(maps[i], MapOf(i % 3 == 0 ? 4 : 1, 'a')) << i;
  }
}

TEST(IntervalMapCopyMoveTest, FromEntriesAdoptsInlineAndHeap) {
  for (const int n : {0, 1, 5}) {
    const IntervalMap<Owned> want = MapOf(n, 'q');
    std::vector<IntervalEntry<Owned>> entries(want.entries().begin(),
                                              want.entries().end());
    EXPECT_EQ(IntervalMap<Owned>::FromEntries(std::move(entries)), want) << n;
  }
}

}  // namespace
}  // namespace graphite
