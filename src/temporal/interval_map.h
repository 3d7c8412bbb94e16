// IntervalMap<V>: an ordered piecewise-constant map from disjoint
// half-open intervals to values. This is the storage behind dynamically
// partitioned vertex states (paper §IV-A1), where the entries tile the
// vertex lifespan with no gaps and Set() performs the automatic
// repartition-on-update. Temporal properties (Def. 1, A_V / A_E, where
// gaps are allowed) are kept as flat runs in the graph and read through
// the same lookups, via IntervalRuns<V>.
#ifndef GRAPHITE_TEMPORAL_INTERVAL_MAP_H_
#define GRAPHITE_TEMPORAL_INTERVAL_MAP_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "temporal/interval.h"
#include "util/status.h"

namespace graphite {

/// One run of an interval map: `value` over `interval`.
template <typename V>
struct IntervalEntry {
  Interval interval;
  V value;

  bool operator==(const IntervalEntry& other) const {
    return interval == other.interval && value == other.value;
  }
};

/// Read-only view over a span of entries sorted by start and disjoint —
/// an IntervalMap's, or one label's runs in a graph's flat property
/// arrays. The const lookups of both live here. The view does not own the
/// entries; it is valid while their storage is.
template <typename V>
class IntervalRuns {
 public:
  using Entry = IntervalEntry<V>;

  IntervalRuns() = default;
  IntervalRuns(const Entry* data, size_t size) : entries_(data, size) {}

  /// Value at time-point t, if any entry covers it.
  std::optional<V> Get(TimePoint t) const {
    const Entry* e = Find(t);
    if (e == nullptr) return std::nullopt;
    return e->value;
  }

  /// Entry covering time-point t, or nullptr.
  const Entry* Find(TimePoint t) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), t,
        [](TimePoint tp, const Entry& e) { return tp < e.interval.start; });
    if (it == entries_.begin()) return nullptr;
    --it;
    return it->interval.Contains(t) ? &*it : nullptr;
  }

  /// Invokes fn(clipped_interval, value) for every entry intersecting
  /// `query`, clipped to the query window, in temporal order.
  template <typename Fn>
  void ForEachIntersecting(const Interval& query, Fn&& fn) const {
    if (query.IsEmpty()) return;
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), query.start,
        [](TimePoint tp, const Entry& e) { return tp < e.interval.start; });
    if (it != entries_.begin()) --it;
    for (; it != entries_.end() && it->interval.start < query.end; ++it) {
      Interval clipped = it->interval.Intersect(query);
      if (clipped.IsValid()) fn(clipped, it->value);
    }
  }

  std::span<const Entry> entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

 private:
  std::span<const Entry> entries_;
};

template <typename V>
class IntervalMap {
 public:
  using Entry = IntervalEntry<V>;

  IntervalMap() = default;

  /// Constructs a map with a single entry covering `interval`.
  IntervalMap(const Interval& interval, V value) {
    if (interval.IsValid()) entries_.push_back({interval, std::move(value)});
  }

  /// Adopts `entries` verbatim (must be sorted by start and disjoint) —
  /// the deserialization path. Rebuilding via Set() would be quadratic and
  /// the entries of a persisted map are already canonical; restoring them
  /// unchanged is what makes checkpoint round-trips byte-exact.
  static IntervalMap FromEntries(std::vector<Entry> entries) {
    IntervalMap m;
    m.entries_ = std::move(entries);
    GRAPHITE_CHECK(m.IsWellFormed());
    return m;
  }

  /// Assigns `value` over `interval`, splitting any overlapped entries so
  /// that portions outside `interval` keep their previous values. This is
  /// the paper's dynamic state repartitioning: updating a sub-interval of a
  /// partitioned state splits it, leaving the remainder intact.
  void Set(const Interval& interval, const V& value) {
    if (interval.IsEmpty()) return;
    // Fast paths for the engine's hot case: the written interval lines up
    // with an existing entry (dynamic repartitioning converges quickly,
    // so most updates hit an already-split slice).
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
        // Overlap: keep the non-overlapped fringes of `e`.
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

  /// Removes all values over `interval`, splitting boundary entries.
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

  /// Value at time-point t, if any entry covers it.
  std::optional<V> Get(TimePoint t) const { return runs().Get(t); }

  /// Entry covering time-point t, or nullptr.
  const Entry* Find(TimePoint t) const { return runs().Find(t); }

  /// Invokes fn(clipped_interval, value) for every entry intersecting
  /// `query`, clipped to the query window, in temporal order.
  template <typename Fn>
  void ForEachIntersecting(const Interval& query, Fn&& fn) const {
    runs().ForEachIntersecting(query, std::forward<Fn>(fn));
  }

  /// The entries as a read-only view.
  IntervalRuns<V> runs() const {
    return IntervalRuns<V>(entries_.data(), entries_.size());
  }

  /// Merges adjacent entries whose intervals meet and whose values compare
  /// equal. Keeps the representation minimal (paper: states may be split
  /// without semantic change; coalescing is the inverse).
  void Coalesce() {
    if (entries_.size() < 2) return;
    // In-place compaction; allocation-free, and a pure scan when nothing
    // is mergeable (the common case on the engine's per-vertex hot path).
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

  /// True iff the entries tile `span` exactly: first starts at span.start,
  /// last ends at span.end, and consecutive entries meet with no gaps.
  /// This is the invariant of a partitioned vertex state S(tau).
  bool CoversExactly(const Interval& span) const {
    if (entries_.empty()) return span.IsEmpty();
    if (entries_.front().interval.start != span.start) return false;
    if (entries_.back().interval.end != span.end) return false;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i - 1].interval.end != entries_[i].interval.start) {
        return false;
      }
    }
    return true;
  }

  /// Verifies ordering + disjointness. Engine-internal sanity check.
  bool IsWellFormed() const {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].interval.IsValid()) return false;
      if (i > 0 && entries_[i - 1].interval.end > entries_[i].interval.start) {
        return false;
      }
    }
    return true;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// The hull [first.start, last.end); empty if the map is empty.
  Interval Span() const {
    if (entries_.empty()) return Interval::Empty();
    return Interval(entries_.front().interval.start,
                    entries_.back().interval.end);
  }

  bool operator==(const IntervalMap& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;  // Sorted by interval.start, disjoint.
};

}  // namespace graphite

#endif  // GRAPHITE_TEMPORAL_INTERVAL_MAP_H_
