// The delivery plane: everything between a Send() and the next
// superstep's Compute() — placement materialization, per-worker flat
// inboxes, mail tracking with per-destination mailed lists, the
// per-destination messaging loop, the superstep barrier, and the
// checkpoint drain/restore accessors. The superstep driver
// (engine/superstep_driver.h) owns one plane per run and calls it in its
// fixed lifecycle; engines own only their wire format (what one
// message's bytes mean), passed in as the driver operator's Decode.
//
// Placement (graph/partitioner.h): WorkerMap materializes whichever
// unit->worker policy the engine's options carry (hash default, explicit
// map, or a strategy from graph/partition_strategies.h).
//
// The hop: Route() decodes each wire row in place, straight out of the
// sender's buffer, on the destination's delivery lane, then clears the
// row for the next superstep's refill. Bytes never move; a multi-process
// backend would add its hop at this one call site.
//
// Determinism: Route visits rows in index order and a row's messages in
// write order, so per-inbox arrival order — and therefore Seal's grouped
// layout and every result byte — is independent of scheduling mode
// (runtime_determinism_test enforces the full matrix).
//
// Concurrency: each destination worker's inbox, mailed list and wire
// column are touched only by that destination's delivery lane inside
// Route's ParallelFor; Deliver outside Route (checkpoint restore, GoFFish
// snapshot seeds) follows the same owner-lane discipline.
#ifndef GRAPHITE_ENGINE_DELIVERY_H_
#define GRAPHITE_ENGINE_DELIVERY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/flat_inbox.h"
#include "engine/metrics.h"
#include "engine/parallel.h"
#include "graph/partitioner.h"
#include "util/serde.h"
#include "util/status.h"

namespace graphite {

/// The units of ascending `units` in [unit_begin, unit_end): two binary
/// searches.
inline std::span<const uint32_t> SortedSlice(std::span<const uint32_t> units,
                                             uint32_t unit_begin,
                                             uint32_t unit_end) {
  const uint32_t* lo =
      std::lower_bound(units.data(), units.data() + units.size(), unit_begin);
  const uint32_t* hi =
      std::lower_bound(lo, units.data() + units.size(), unit_end);
  return {lo, static_cast<size_t>(hi - lo)};
}

/// A Placement materialized over a concrete unit universe: the forward
/// map (worker_of) used on the send side and the inverse lists
/// (units_of) that drive compute distribution. Built once per run — the
/// single source of truth for who owns what.
class WorkerMap {
 public:
  /// `key_of(u)` is unit u's partition key (external id) for the hash
  /// policy; `exists(u)` == false parks the unit on worker 0 and keeps it
  /// out of every owner list (VCM's non-existent units).
  template <typename KeyFn, typename ExistsFn>
  WorkerMap(size_t num_units, int num_workers, const Placement& placement,
            KeyFn&& key_of, ExistsFn&& exists)
      : num_workers_(num_workers),
        worker_of_(num_units, 0),
        units_by_worker_(num_workers) {
    GRAPHITE_CHECK(num_workers >= 1);
    if (!placement.is_hash()) {
      GRAPHITE_CHECK(placement.map_size() == num_units);
    }
    for (uint32_t u = 0; u < num_units; ++u) {
      if (!exists(u)) continue;
      const int w = placement.WorkerOf(u, key_of(u), num_workers);
      GRAPHITE_CHECK(w >= 0 && w < num_workers);
      worker_of_[u] = w;
      units_by_worker_[w].push_back(u);
    }
#ifndef NDEBUG
    // Single-source-of-truth check: the default policy must agree with
    // HashPartitioner exactly — the plane replaced the engines' hand-built
    // worker_of vectors, and this is the proof nothing drifted.
    if (placement.is_hash()) {
      HashPartitioner reference(num_workers);
      for (uint32_t u = 0; u < num_units; ++u) {
        if (!exists(u)) continue;
        GRAPHITE_CHECK(worker_of_[u] == reference.WorkerOf(key_of(u)));
      }
    }
#endif
  }

  template <typename KeyFn>
  WorkerMap(size_t num_units, int num_workers, const Placement& placement,
            KeyFn&& key_of)
      : WorkerMap(num_units, num_workers, placement,
                  std::forward<KeyFn>(key_of), [](uint32_t) { return true; }) {}

  int num_workers() const { return num_workers_; }
  size_t num_units() const { return worker_of_.size(); }
  int WorkerOf(uint32_t unit) const { return worker_of_[unit]; }
  const std::vector<int>& worker_of() const { return worker_of_; }
  /// Units owned by worker w, in unit order.
  const std::vector<uint32_t>& units_of(int w) const {
    return units_by_worker_[w];
  }
  /// Owned-unit counts, in the shape SuperstepRuntime's ctor wants.
  std::vector<size_t> worker_sizes() const {  // lint:allow(vector: per-run setup shape handed to SuperstepRuntime)
    std::vector<size_t> sizes(num_workers_);  // lint:allow(vector: per-run setup shape handed to SuperstepRuntime)
    for (int w = 0; w < num_workers_; ++w) {
      sizes[w] = units_by_worker_[w].size();
    }
    return sizes;
  }

 private:
  int num_workers_;
  std::vector<int> worker_of_;  // lint:allow(vector: placement table, built once per run)
  std::vector<std::vector<uint32_t>> units_by_worker_;  // lint:allow(vector: placement table, built once per run)
};

/// The per-run delivery state for one engine: per-destination-worker
/// FlatInboxes over a shared span table, mail flags with per-destination
/// mailed lists (the barrier clears exactly these — no O(n) scan — and
/// each list doubles as Seal's unit layout order), and the Route loop.
///
/// `Item` is what compute consumes per message (e.g. TemporalItem for ICM,
/// the raw Message for VCM). Usually the inbox universe equals the map's
/// units; Chlonos passes a larger `num_units` (batch-expanded snapshot
/// units) while routing by its vertex-level map.
///
/// Lifecycle per run (SuperstepDriver runs it): construct →
/// SuperstepRuntime(map().worker_sizes()) → Bind(&rt) → per superstep {
/// compute reads MessagesFor / HasMail → Barrier() → Route(...) →
/// CountFrontier }, with Deliver + Seal used directly for GoFFish's
/// snapshot seeds and checkpoint restore.
template <typename Item>
class DeliveryPlane {
 public:
  explicit DeliveryPlane(WorkerMap map, size_t num_units = 0)
      : map_(std::move(map)) {
    const size_t n = num_units == 0 ? map_.num_units() : num_units;
    has_mail_.assign(n, 0);
    if (map_.num_units() > 0) layers_ = n / map_.num_units();
    mailed_.resize(map_.num_workers());
    spans_ = InboxSpanTable(n);
    inbox_.resize(map_.num_workers());
    col_bytes_.assign(map_.num_workers(), 0);
  }

  /// Attaches each destination worker's inbox to its runtime arena. The
  /// runtime must be built for map().worker_sizes() and outlive the plane's
  /// use.
  void Bind(SuperstepRuntime* rt) {
    rt_ = rt;
    for (int w = 0; w < map_.num_workers(); ++w) {
      inbox_[w].Init(&rt->worker_arena(w), &spans_);
    }
  }

  const WorkerMap& map() const { return map_; }
  int num_workers() const { return map_.num_workers(); }
  size_t num_units() const { return has_mail_.size(); }
  /// How many copies of the map's unit space the inbox universe spans:
  /// unit layer * map().num_units() + u lives where u does. 1 except for
  /// Chlonos, whose layers are the snapshots of one batch.
  size_t layers() const { return layers_; }

  bool HasMail(uint32_t unit) const { return has_mail_[unit] != 0; }
  /// The raw flag byte — what checkpoint sections persist.
  uint8_t MailFlag(uint32_t unit) const { return has_mail_[unit]; }
  /// Unit's sealed messages, in arrival order (valid Seal → Barrier).
  std::span<const Item> MessagesFor(int worker, uint32_t unit) const {
    return inbox_[worker].MessagesFor(unit);
  }
  /// Undelivered-message count (checkpoint encode).
  size_t InboxCountFor(int worker, uint32_t unit) const {
    return inbox_[worker].CountFor(unit);
  }
  /// Software-prefetches the unit's sealed inbox span (table entry +
  /// leading item cache lines). The engines call this for frontier entry
  /// i+1 while computing entry i, hiding the next unit's message-fetch
  /// latency behind the current warp. No effect on results.
  void Prefetch(int worker, uint32_t unit) const {
    inbox_[worker].Prefetch(unit);
  }

  /// Stages one item into `dst`'s inbox and tracks first arrival. Must be
  /// called from dst's delivery lane (or single-threaded setup code).
  void Deliver(int dst, uint32_t unit, Item item) {
    inbox_[dst].Deliver(unit, std::move(item));
    if (!has_mail_[unit]) {
      has_mail_[unit] = 1;
      mailed_[dst].push_back(unit);
    }
  }

  /// Groups dst's staged items by unit (engine/flat_inbox.h) and publishes
  /// dst's compute frontier (sorted mailed units, unless the mailed set
  /// exceeds FrontierLimit — see Frontier/FrontierIsDense). Safe on an
  /// empty superstep — no deliveries seals to no spans and an empty
  /// frontier.
  void Seal(int dst) { inbox_[dst].Seal(mailed_[dst], FrontierLimit(dst)); }
  void SealAll() {
    for (int w = 0; w < map_.num_workers(); ++w) Seal(w);
  }

  /// Frontier density threshold as a fraction of the worker's owned-unit
  /// count: mailed sets larger than density * owned go dense. 0 disables
  /// the frontier path entirely; >= 1 (plus the per-worker rounding slack)
  /// never goes dense. Set before the first Seal of a superstep; the
  /// engines plumb RuntimeOptions::frontier_density through here.
  void set_frontier_density(double density) { frontier_density_ = density; }

  /// Max mailed-unit count for which worker `dst` still gets a sorted
  /// frontier. Scales with the inbox-universe expansion factor so an
  /// engine with several inbox units per owned unit (Chlonos's
  /// batch-expanded snapshots) gets the same per-unit threshold.
  size_t FrontierLimit(int dst) const {
    const double owned =
        static_cast<double>(map_.units_of(dst).size() * layers_);
    return static_cast<size_t>(frontier_density_ * owned);
  }

  /// Worker's sealed frontier: its mailed units, sorted ascending — the
  /// exact activation set a dense mail-flag scan would find, in the same
  /// visit order. Empty when nothing was mailed or the frontier is dense.
  std::span<const uint32_t> Frontier(int worker) const {
    return inbox_[worker].Frontier();
  }
  /// True when the worker's mailed set exceeded FrontierLimit at Seal, so
  /// compute must fall back to its dense activation scan.
  bool FrontierIsDense(int worker) const {
    return inbox_[worker].FrontierIsDense();
  }
  /// The worker's frontier restricted to units in [unit_begin, unit_end) —
  /// the chunk-compatible view compute iterates (frontiers are sorted, so
  /// this is two binary searches).
  std::span<const uint32_t> FrontierSlice(int worker, uint32_t unit_begin,
                                          uint32_t unit_end) const {
    return SortedSlice(inbox_[worker].Frontier(), unit_begin, unit_end);
  }
  /// Frontier metrics for the superstep that just sealed: total mailed
  /// units across workers (scheduling/density invariant) and how
  /// many workers went dense. Call before Barrier().
  void CountFrontier(int64_t* frontier_units, int64_t* dense_workers) const {
    for (int w = 0; w < map_.num_workers(); ++w) {
      *frontier_units += static_cast<int64_t>(mailed_[w].size());
      if (inbox_[w].FrontierIsDense()) ++(*dense_workers);
    }
  }

  /// Superstep barrier: clear the mail flags via the mailed lists, drop
  /// the consumed inboxes, and reset every worker arena. This is the ONLY
  /// point where those arenas reset (DESIGN.md §4f): compute has consumed
  /// the inboxes, and the next Route refills them.
  void Barrier() {
    for (int w = 0; w < map_.num_workers(); ++w) {
      for (const uint32_t u : mailed_[w]) has_mail_[u] = 0;
      inbox_[w].ResetAtBarrier(mailed_[w]);
      mailed_[w].clear();
      rt_->worker_arena(w).Reset();
    }
  }

  /// The messaging phase all four engines share: on each destination's
  /// delivery lane, decodes every filled wire row for that destination in
  /// place, clears it, then Seals the destination. `wire[r][dst]` is row
  /// r's buffer for destination dst and `row_src[r]` its source worker;
  /// rows must be grouped by source worker in worker order (chunk order),
  /// which is what makes arrival order equal sequential mode's byte for
  /// byte. `decode` reads ONE message from the Reader and Delivers it (the
  /// engine's wire format lives entirely in that lambda). Accumulates
  /// message_bytes / worker_in_bytes / thread_messaging_ns into *ss;
  /// returns whether any row carried bytes (the engines' halt signal).
  template <typename DecodeFn>
  bool Route(std::span<std::vector<Writer>> wire,
             std::span<const int> row_src, SuperstepMetrics* ss,
             DecodeFn&& decode) {
    const int num_workers = map_.num_workers();
    std::fill(col_bytes_.begin(), col_bytes_.end(), int64_t{0});
    rt_->ParallelFor(num_workers, &ss->thread_messaging_ns, [&](int dst, int) {
      for (size_t r = 0; r < wire.size(); ++r) {
        Writer& row = wire[r][dst];
        if (row.size() == 0) continue;
        col_bytes_[dst] += static_cast<int64_t>(row.size());
        if (row_src[r] != dst) {
          ss->worker_in_bytes[dst] += static_cast<int64_t>(row.size());
        }
        Reader reader(row.buffer());
        while (!reader.AtEnd()) decode(reader, dst);
        row.Clear();
      }
      Seal(dst);
    });
    bool any_message = false;
    for (int dst = 0; dst < num_workers; ++dst) {
      ss->message_bytes += col_bytes_[dst];
      if (col_bytes_[dst] > 0) any_message = true;
    }
    return any_message;
  }

 private:
  WorkerMap map_;
  SuperstepRuntime* rt_ = nullptr;
  double frontier_density_ = 0.5;
  size_t layers_ = 1;
  std::vector<uint8_t> has_mail_;  // lint:allow(vector: sized once per run, flags overwritten in place)
  std::vector<std::vector<uint32_t>> mailed_;  // lint:allow(vector: outer sized per run; rows reuse decayed capacity)
  InboxSpanTable spans_{0};
  std::vector<FlatInbox<Item>> inbox_;  // lint:allow(vector: one inbox per worker, sized once per run)
  // Per-destination byte accumulators, written only by each
  // destination's lane during Route, summed after the barrier.
  std::vector<int64_t> col_bytes_;  // lint:allow(vector: sized once per run, summed at barriers)
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_DELIVERY_H_
