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
#include <cstdint>
#include <memory>
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

/// The map keeps its first entry inline: a map of at most one entry (every
/// Init state, most result maps) never touches the heap. A second entry
/// moves the entries to one std::allocator block, grown to size + 2 when
/// full; Set and Erase rewrite the entries in place.
template <typename V>
class IntervalMap {
 public:
  using Entry = IntervalEntry<V>;

  IntervalMap() noexcept {}

  /// Constructs a map with a single entry covering `interval`.
  IntervalMap(const Interval& interval, V value) {
    if (interval.IsValid()) {
      std::construct_at(&inline_, Entry{interval, std::move(value)});
      size_ = 1;
    }
  }

  IntervalMap(const IntervalMap& other) { CopyFrom(other); }
  IntervalMap(IntervalMap&& other) noexcept { StealFrom(other); }
  IntervalMap& operator=(const IntervalMap& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }
  IntervalMap& operator=(IntervalMap&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~IntervalMap() { Release(); }

  /// Adopts `entries` verbatim (must be sorted by start and disjoint) —
  /// the deserialization path. Rebuilding via Set() would be quadratic and
  /// the entries of a persisted map are already canonical; restoring them
  /// unchanged is what makes checkpoint round-trips byte-exact.
  static IntervalMap FromEntries(std::vector<Entry> entries) {
    IntervalMap m;
    m.Reserve(static_cast<uint32_t>(entries.size()));
    std::uninitialized_move(entries.begin(), entries.end(), m.data());
    m.size_ = static_cast<uint32_t>(entries.size());
    GRAPHITE_CHECK(m.IsWellFormed());
    return m;
  }

  /// Assigns `value` over `interval`, splitting any overlapped entries so
  /// that portions outside `interval` keep their previous values. This is
  /// the paper's dynamic state repartitioning: updating a sub-interval of a
  /// partitioned state splits it, leaving the remainder intact.
  void Set(const Interval& interval, const V& value) {
    if (interval.IsEmpty()) return;
    if (size_ == 0 || data()[size_ - 1].interval.end <= interval.start) {
      InsertAt(size_, Entry{interval, value});  // Append: nothing overlaps.
      return;
    }
    const auto [lo, hi] = Overlapped(interval);
    if (hi == lo + 1 && data()[lo].interval == interval) {
      // The engine's hot case: an update of an already-split slice.
      data()[lo].value = value;
      return;
    }
    Entry e{interval, value};  // Copied first: `value` may be an entry's.
    Erase(interval);
    InsertAt(Overlapped(interval).first, std::move(e));
  }

  /// Removes all values over `interval`, splitting boundary entries.
  void Erase(const Interval& interval) {
    if (interval.IsEmpty()) return;
    auto [lo, hi] = Overlapped(interval);
    if (lo == hi) return;
    Entry* d = data();
    if (d[lo].interval.start < interval.start) {
      if (d[lo].interval.end > interval.end) {
        Entry right{{interval.end, d[lo].interval.end}, d[lo].value};
        d[lo].interval.end = interval.start;
        InsertAt(lo + 1, std::move(right));
        return;
      }
      d[lo].interval.end = interval.start;
      ++lo;
    }
    if (lo < hi && d[hi - 1].interval.end > interval.end) {
      d[hi - 1].interval.start = interval.end;
      --hi;
    }
    EraseRange(lo, hi);
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
  IntervalRuns<V> runs() const { return IntervalRuns<V>(data(), size_); }

  /// Merges adjacent entries whose intervals meet and whose values compare
  /// equal. Keeps the representation minimal (paper: states may be split
  /// without semantic change; coalescing is the inverse).
  void Coalesce() {
    if (size_ < 2) return;
    // In-place compaction; allocation-free, and a pure scan when nothing
    // is mergeable (the common case on the engine's per-vertex hot path).
    Entry* d = data();
    uint32_t write = 0;
    for (uint32_t read = 1; read < size_; ++read) {
      Entry& prev = d[write];
      Entry& cur = d[read];
      if (prev.interval.end == cur.interval.start && prev.value == cur.value) {
        prev.interval.end = cur.interval.end;
      } else {
        ++write;
        if (write != read) d[write] = std::move(cur);
      }
    }
    std::destroy(d + write + 1, d + size_);
    size_ = write + 1;
  }

  /// True iff the entries tile `span` exactly: first starts at span.start,
  /// last ends at span.end, and consecutive entries meet with no gaps.
  /// This is the invariant of a partitioned vertex state S(tau).
  bool CoversExactly(const Interval& span) const {
    if (size_ == 0) return span.IsEmpty();
    const Entry* d = data();
    if (d[0].interval.start != span.start) return false;
    if (d[size_ - 1].interval.end != span.end) return false;
    for (uint32_t i = 1; i < size_; ++i) {
      if (d[i - 1].interval.end != d[i].interval.start) return false;
    }
    return true;
  }

  /// Verifies ordering + disjointness. Engine-internal sanity check.
  bool IsWellFormed() const {
    const Entry* d = data();
    for (uint32_t i = 0; i < size_; ++i) {
      if (!d[i].interval.IsValid()) return false;
      if (i > 0 && d[i - 1].interval.end > d[i].interval.start) return false;
    }
    return true;
  }

  std::span<const Entry> entries() const { return {data(), size_}; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Drops every entry; a heap block is kept for reuse.
  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  /// The hull [first.start, last.end); empty if the map is empty.
  Interval Span() const {
    if (size_ == 0) return Interval::Empty();
    return Interval(data()[0].interval.start, data()[size_ - 1].interval.end);
  }

  bool operator==(const IntervalMap& other) const {
    return std::equal(data(), data() + size_, other.data(),
                      other.data() + other.size_);
  }

 private:
  bool on_heap() const { return capacity_ > 1; }
  Entry* data() { return on_heap() ? heap_ : &inline_; }
  const Entry* data() const { return on_heap() ? heap_ : &inline_; }

  // [lo, hi): the entries `interval` overlaps. Starts and ends are both
  // sorted, since the entries are disjoint.
  std::pair<uint32_t, uint32_t> Overlapped(const Interval& interval) const {
    const Entry* d = data();
    const Entry* lo = std::partition_point(d, d + size_, [&](const Entry& e) {
      return e.interval.end <= interval.start;
    });
    const Entry* hi = std::partition_point(lo, d + size_, [&](const Entry& e) {
      return e.interval.start < interval.end;
    });
    return {static_cast<uint32_t>(lo - d), static_cast<uint32_t>(hi - d)};
  }

  // Moves the entries to a heap block of exactly `capacity` (> size_).
  void Reallocate(uint32_t capacity) {
    Entry* fresh = std::allocator<Entry>().allocate(capacity);
    Entry* old = data();
    std::uninitialized_move_n(old, size_, fresh);
    std::destroy_n(old, size_);
    if (on_heap()) std::allocator<Entry>().deallocate(heap_, capacity_);
    heap_ = fresh;
    capacity_ = capacity;
  }
  void Reserve(uint32_t n) {
    if (n > capacity_) Reallocate(n);
  }

  // A full map grows to size + 2.
  void InsertAt(uint32_t pos, Entry e) {
    if (size_ == capacity_) Reallocate(size_ + 2);
    Entry* d = data();
    if (pos == size_) {
      std::construct_at(d + size_, std::move(e));
    } else {
      std::construct_at(d + size_, std::move(d[size_ - 1]));
      std::move_backward(d + pos, d + size_ - 1, d + size_);
      d[pos] = std::move(e);
    }
    ++size_;
  }
  void EraseRange(uint32_t lo, uint32_t hi) {
    if (lo == hi) return;
    Entry* d = data();
    std::move(d + hi, d + size_, d + lo);
    std::destroy(d + size_ - (hi - lo), d + size_);
    size_ -= hi - lo;
  }

  // Fills an empty map with copies of `other`'s entries.
  void CopyFrom(const IntervalMap& other) {
    Reserve(other.size_);
    std::uninitialized_copy_n(other.data(), other.size_, data());
    size_ = other.size_;
  }
  // Takes `other`'s entries into an empty inline map; `other` is left
  // empty and inline.
  void StealFrom(IntervalMap& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = 1;
      other.size_ = 0;
    } else if (other.size_ == 1) {
      std::construct_at(&inline_, std::move(other.inline_));
      size_ = 1;
      other.clear();
    }
  }
  // Destroys the entries and frees a heap block: the map is empty inline.
  void Release() {
    clear();
    if (on_heap()) std::allocator<Entry>().deallocate(heap_, capacity_);
    capacity_ = 1;
  }

  // Sorted by interval.start, disjoint: inline_ while capacity_ is 1,
  // else heap_[0, size_) of a capacity_-entry block.
  union {
    Entry inline_;
    Entry* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
};

}  // namespace graphite

#endif  // GRAPHITE_TEMPORAL_INTERVAL_MAP_H_
