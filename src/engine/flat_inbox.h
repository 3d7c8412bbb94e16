// Flat per-worker inbox buffers for the BSP messaging phase. The engines
// used to keep one std::vector of messages per vertex — one heap
// allocation (often several) per mailed vertex per superstep. Here every
// destination worker instead owns a single contiguous buffer in its
// per-worker arena; received messages are staged in wire-arrival order
// during delivery and grouped by destination unit in one stable counting
// pass (Seal), after which each unit's messages are handed to the compute
// phase as a zero-copy std::span view.
//
// Concurrency contract: exactly one delivery lane writes a given
// destination worker's FlatInbox (the engines' per-destination ParallelFor
// guarantees this), and the per-unit span table is partitioned by unit
// ownership, so lanes never touch each other's entries.
//
// Lifetime: the grouped buffer lives from Seal (messaging phase) through
// the next superstep's compute phase and any barrier checkpoint encode,
// and is dropped at the superstep barrier (ResetAtBarrier + the owner
// arena's Reset). See DESIGN.md §4f.
#ifndef GRAPHITE_ENGINE_FLAT_INBOX_H_
#define GRAPHITE_ENGINE_FLAT_INBOX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/status.h"

namespace graphite {

/// Cap on bytes software-prefetched per inbox span: enough to cover the
/// leading messages the warp kernel touches first without evicting the
/// current unit's working set on long spans.
inline constexpr size_t kInboxPrefetchBytes = 256;

/// Per-unit (offset, count) spans into the owning worker's grouped item
/// buffer, plus the scatter cursor used by Seal. One table per engine run;
/// each entry is touched only by its unit's owner lane.
struct InboxSpanTable {
  explicit InboxSpanTable(size_t num_units)
      : offset(num_units, 0), count(num_units, 0), cursor(num_units, 0) {}

  std::vector<uint32_t> offset;  // lint:allow(vector: span table, sized once per engine run)
  std::vector<uint32_t> count;  // lint:allow(vector: span table, sized once per engine run)
  std::vector<uint32_t> cursor;  // lint:allow(vector: span table, sized once per engine run)
};

/// One destination worker's flat inbox. Item storage is arena-backed when
/// the message type allows it (SuperstepVec), so a steady-state superstep
/// allocates nothing on this path.
template <typename Item>
class FlatInbox {
 public:
  void Init(Arena* arena, InboxSpanTable* table) {
    table_ = table;
    stage_units_.Attach(arena);
    stage_items_.Attach(arena);
    items_.Attach(arena);
    frontier_.Attach(arena);
  }

  /// Appends one received item in wire-arrival order. The caller tracks
  /// first arrivals itself (its mailed list doubles as the unit order for
  /// Seal); every unit delivered to here must appear in that list exactly
  /// once.
  void Deliver(uint32_t unit, Item item) {
    stage_units_.push_back(unit);
    stage_items_.push_back(std::move(item));
    ++table_->count[unit];
  }

  /// Groups the staged items by unit: units laid out in `mailed_units`
  /// (first-arrival) order, items within a unit in arrival order (the
  /// scatter pass is stable). Call once per superstep after the last
  /// Deliver; MessagesFor is valid from then until ResetAtBarrier.
  ///
  /// Also publishes the compute frontier: when the number of mailed units
  /// is at most `frontier_limit`, Seal sorts a copy of `mailed_units` into
  /// `Frontier()` so the compute phase can iterate mailed units directly
  /// (in unit order — the same visit order as a dense activation scan).
  /// Above the limit the frontier is marked dense and never materialized:
  /// an always-active workload pays O(1) here and keeps the dense scan.
  void Seal(std::span<const uint32_t> mailed_units,
            size_t frontier_limit = static_cast<size_t>(-1)) {
    uint32_t running = 0;
    for (const uint32_t u : mailed_units) {
      table_->offset[u] = running;
      table_->cursor[u] = running;
      running += table_->count[u];
    }
    GRAPHITE_CHECK(running == stage_items_.size());
    items_.ResizeUninitialized(running);
    for (size_t k = 0; k < stage_units_.size(); ++k) {
      items_[table_->cursor[stage_units_[k]]++] =
          std::move(stage_items_[k]);
    }
    stage_units_.clear();
    stage_items_.clear();

    frontier_dense_ = mailed_units.size() > frontier_limit;
    frontier_.clear();
    if (!frontier_dense_ && !mailed_units.empty()) {
      frontier_.Append(mailed_units.data(), mailed_units.size());
      std::sort(frontier_.data(), frontier_.data() + frontier_.size());
    }
  }

  /// The mailed units of the last Seal, sorted ascending. Empty when no
  /// unit was mailed, or when the frontier went dense (check
  /// FrontierIsDense to tell the two apart).
  std::span<const uint32_t> Frontier() const { return frontier_.span(); }

  /// True when the last Seal skipped the frontier build because the mailed
  /// set exceeded the caller's density limit — the caller must fall back
  /// to its dense activation scan.
  bool FrontierIsDense() const { return frontier_dense_; }

  /// The unit's received messages, in arrival order. Empty span (and no
  /// table read) for units without mail, so stale offsets are never
  /// dereferenced.
  std::span<const Item> MessagesFor(uint32_t unit) const {
    const uint32_t count = table_->count[unit];
    if (count == 0) return {};
    return items_.subspan(table_->offset[unit], count);
  }

  size_t CountFor(uint32_t unit) const { return table_->count[unit]; }

  /// Software-prefetches the unit's sealed message span — the span-table
  /// read plus the leading cache lines of the grouped items — so a
  /// frontier walk can overlap the NEXT unit's inbox fetch with the
  /// current unit's compute. Read-only and safe for units without mail.
  void Prefetch(uint32_t unit) const {
    const uint32_t count = table_->count[unit];
    if (count == 0) return;
    const char* base =
        reinterpret_cast<const char*>(items_.data() + table_->offset[unit]);
    const size_t bytes =
        std::min(static_cast<size_t>(count) * sizeof(Item),
                 kInboxPrefetchBytes);
    for (size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(base + off, /*rw=*/0, /*locality=*/3);
    }
  }

  /// Superstep barrier: zero the consumed spans and forget the buffers.
  /// The caller resets the backing arena right after — pointers into it
  /// are about to dangle.
  void ResetAtBarrier(std::span<const uint32_t> mailed_units) {
    for (const uint32_t u : mailed_units) table_->count[u] = 0;
    stage_units_.Release();
    stage_items_.Release();
    items_.Release();
    frontier_.Release();
    frontier_dense_ = false;
  }

  /// Total grouped items held for this worker (diagnostics / checkpoint).
  size_t total_items() const { return items_.size(); }

 private:
  InboxSpanTable* table_ = nullptr;
  ArenaVec<uint32_t> stage_units_;
  SuperstepVec<Item> stage_items_;
  SuperstepVec<Item> items_;
  ArenaVec<uint32_t> frontier_;
  bool frontier_dense_ = false;
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_FLAT_INBOX_H_
