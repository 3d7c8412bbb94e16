// The one superstep lifecycle shared by all four engines (ICM, VCM,
// GoFFish, Chlonos). This is the data structure / frontier / operator
// split of "Essentials of Parallel Graph Analytics": the driver owns the
// data structures (placement, the DeliveryPlane's inboxes, the
// SuperstepRuntime's chunk table and pool, the [chunk][dst] wire
// matrix) and the frontier (which units a superstep visits); each engine
// supplies only its operator.
//
// Per superstep, Run() does:
//
//   compute     ComputePhase over the chunk table. A chunk first checks
//               the kill flag and the FaultInjector, then visits its
//               activation set: every owned unit (superstep 0 or
//               always-active), the mail-flag sweep when the worker's
//               frontier went dense, or else its slice of the sorted
//               frontier — prefetching the next unit's inbox (on the
//               dense paths only when op.kPrefetchDense) — calling
//               op.Visit once per unit. When the operator names a seed
//               set (op.SeedUnits), superstep 0 visits only those units,
//               through the frontier path.
//   fold        per-chunk time and Tally counters into SuperstepMetrics,
//               keyed by logical worker; op.Fold adds engine extras.
//   barrier     DeliveryPlane::Barrier (the only arena reset), then
//               op.AtBarrier.
//   messaging   op.PreRoute turns outboxes into wire rows (GoFFish,
//               Chlonos), then DeliveryPlane::Route decodes every row
//               in place with op.Decode as the wire format;
//               CountFrontier records the next activation set.
//   halt        nothing routed (unless always-active), or max_supersteps.
//   checkpoint  at a non-final barrier the policy picks, a frame with one
//               section per worker, stamped with the graph head. A
//               section holds, per owned unit: its id, mail flag and
//               state (op.EncodeUnit), then its undelivered inbox for the
//               next superstep (op.EncodeItem per message).
//
// Recover() is the matching resume: it loads the newest valid frame (or a
// named one), ignores it when it was taken against another graph head,
// and otherwise restores each worker's section and the carried counters.
//
// Operator contract (`Op` is a template parameter, so every call inlines;
// there is no virtual call or std::function per unit):
//   void Visit(const ChunkCursor<Tally>& at, uint32_t unit);   required
//   void Decode(Reader& reader, int dst);  reads ONE message and Delivers
//   void Fold(const Tally&, SuperstepMetrics*);                optional
//   void AtBarrier();                                          optional
//   void PreRoute(SuperstepMetrics*);                          optional
//   static constexpr bool kCheckpointable;        optional (default false)
//   static constexpr bool kPrefetchDense;         optional (default false)
//   void EncodeUnit(Writer&, uint32_t unit) const;  when checkpointable:
//   void DecodeUnit(Reader&, uint32_t unit);        the unit's state and
//   void EncodeItem(Writer&, const Item&) const;    one undelivered
//   Item DecodeItem(Reader&) const;                 message
//   void Carry(CarryCounters*);  engine counters a frame carries; optional
//   std::optional<std::span<const uint32_t>> SeedUnits();  optional:
//       superstep 0's activation set (distinct owned units, any order), or
//       nullopt for every owned unit. An operator names one only when its
//       superstep-0 visit does nothing on every other unit; a cold start
//       of a source-rooted program then costs what it traverses, not
//       O(units). Ignored when always-active and on a resume (which starts
//       past superstep 0).
//
// Units: the plane's inbox universe is DeliveryPlane::layers() copies of
// the WorkerMap's unit space; the driver visits a chunk's units in every
// layer. Every engine but Chlonos has one layer; Chlonos has one per
// batched snapshot.
//
// Determinism: chunks split each worker's unit list contiguously, wire
// rows are routed in chunk order, and every counter is keyed by logical
// worker, so results, wire bytes, checkpoint frames and every model
// counter are identical in sequential and stealing mode, at any thread
// count (runtime_determinism_test enforces the matrix).
#ifndef GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_
#define GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "engine/delivery.h"
#include "engine/metrics.h"
#include "engine/parallel.h"
#include "graph/partitioner.h"
#include "graph/temporal_graph.h"
#include "util/serde.h"
#include "util/timer.h"

namespace graphite {

/// The knobs every engine's options struct shares (IcmOptions, VcmOptions,
/// GoffishOptions and ChlonosOptions derive from it).
struct EngineOptions {
  int num_workers = 4;
  bool use_threads = false;
  /// OS-thread scheduling, frontier density and checkpoint policy
  /// (engine/parallel.h). Results are identical in every setting.
  RuntimeOptions runtime;
};

/// Per-chunk counters the driver folds into SuperstepMetrics. Engines with
/// more counters pass a Tally type that has these two fields too.
struct ChunkTally {
  int64_t compute_calls = 0;
  int64_t messages = 0;
};

/// Where one op.Visit call runs: the superstep, the chunk's logical
/// worker, the chunk itself (its wire row and tally) and the OS lane (for
/// per-thread scratch).
template <typename Tally>
struct ChunkCursor {
  int superstep;
  int worker;
  int chunk;
  int thread;
  Tally* tally;
  std::vector<Writer>* wire;  ///< This chunk's per-destination rows.
};

template <typename Item, typename Tally = ChunkTally>
class SuperstepDriver {
 public:
  /// `num_units` > 0 widens the inbox universe past the map's units (see
  /// "Units" above); it must be a multiple of map.num_units().
  SuperstepDriver(const EngineOptions& options, WorkerMap map,
                  size_t num_units = 0)
      : plane_(std::move(map), num_units),
        rt_(options.num_workers, options.use_threads, options.runtime,
            plane_.map().worker_sizes()),
        checkpoint_policy_(options.runtime.checkpoint),
        wire_(rt_.num_chunks()),
        row_src_(rt_.num_chunks()),
        tally_(rt_.num_chunks()),
        chunk_ns_(rt_.num_chunks(), 0) {
    GRAPHITE_CHECK(plane_.num_workers() == options.num_workers);
    plane_.set_frontier_density(options.runtime.frontier_density);
    plane_.Bind(&rt_);
    for (int c = 0; c < rt_.num_chunks(); ++c) {
      wire_[c].resize(options.num_workers);
      row_src_[c] = rt_.chunk(c).worker;
    }
  }

  DeliveryPlane<Item>& plane() { return plane_; }
  const WorkerMap& map() const { return plane_.map(); }
  const SuperstepRuntime& runtime() const { return rt_; }
  /// Chunk c's wire row: one Writer per destination worker.
  std::vector<Writer>& wire(int c) { return wire_[c]; }

  /// Connects the run to the checkpoint subsystem (ckpt/) and, when
  /// `recovery.resume` is set, restores the newest valid frame (or
  /// `recovery.resume_from`). A frame taken against a different graph
  /// `head` (edges appended or compacted since) describes an edge set
  /// this run no longer has and is treated like no checkpoint at all: the
  /// run starts cold. On a resume, sections decode in parallel (they
  /// cover disjoint owned units; each lane Delivers into its own worker's
  /// inbox and Seals it), *metrics gets resumed_from and the carried
  /// counters, and the frame's counters are returned so the engine can
  /// restore its own. Run the loop from metrics->resumed_from after.
  template <typename Op>
  std::optional<CarryCounters> Recover(Op& op, const RecoveryContext& recovery,
                                       GraphHead head, RunMetrics* metrics) {
    recovery_ = recovery;
    head_ = head;
    if constexpr (!kCheckpoints<Op>) {
      // Programs without wire traits can run, but cannot checkpoint or
      // resume.
      GRAPHITE_CHECK(recovery.store == nullptr && !recovery.resume);
      return std::nullopt;
    } else {
      CheckpointStore* store = recovery.store;
      if (store == nullptr || !recovery.resume) return std::nullopt;
      Result<CheckpointBlob> blob = recovery.resume_from >= 0
                                        ? store->Load(recovery.resume_from)
                                        : store->LoadLatestValid();
      if (!blob.ok()) return std::nullopt;
      Result<CheckpointFrame> frame = DecodeFrame(blob.value().payload);
      GRAPHITE_CHECK(frame.ok());
      const CheckpointFrame& f = frame.value();
      if (!(GraphHead{f.base_epoch, f.delta_watermark} == head)) {
        return std::nullopt;
      }
      GRAPHITE_CHECK(f.num_units == plane_.num_units());
      GRAPHITE_CHECK(static_cast<int>(f.sections.size()) ==
                     plane_.num_workers());
      std::vector<int64_t> unused_ns;  // lint:allow(vector: recovery decode only, not superstep-rate)
      rt_.ParallelFor(plane_.num_workers(), &unused_ns, [&](int w, int) {
        DecodeSection(op, w, f.sections[w]);
        plane_.Seal(w);
      });
      metrics->resumed_from = f.superstep;
      metrics->supersteps = f.counters.supersteps;
      metrics->compute_calls = f.counters.compute_calls;
      metrics->scatter_calls = f.counters.scatter_calls;
      metrics->messages = f.counters.messages;
      metrics->message_bytes = f.counters.message_bytes;
      return f.counters;
    }
  }

  /// Runs supersteps from `first` until the halt rule fires or
  /// `max_supersteps` is reached, accumulating into *metrics. When the
  /// FaultInjector kills the run it stops at once with
  /// metrics->interrupted set: nothing from the killed superstep was
  /// accumulated, checkpointed or trusted, so the caller returns the
  /// corpse as a dead process would leave it. May be called again
  /// (GoFFish runs one inner loop per snapshot over the same driver).
  template <typename Op>
  void Run(Op& op, int first, int max_supersteps, bool always_active,
           RunMetrics* metrics) {
    const int num_workers = plane_.num_workers();
    const int num_chunks = rt_.num_chunks();
    FaultInjector* const fault = recovery_.fault;
    std::atomic<bool> killed{false};
    bool seeded = false;
    if constexpr (requires { op.SeedUnits(); }) {
      if (first == 0 && !always_active) seeded = SplitSeeds(op.SeedUnits());
    }
    for (int superstep = first; superstep < max_supersteps; ++superstep) {
      SuperstepMetrics ss;
      ss.worker_compute_ns.assign(num_workers, 0);
      ss.worker_in_bytes.assign(num_workers, 0);
      ss.worker_compute_calls.assign(num_workers, 0);
      std::fill(tally_.begin(), tally_.end(), Tally{});
      const bool from_seeds = superstep == 0 && seeded;
      const bool every = always_active || (superstep == 0 && !seeded);

      ss.steals = rt_.ComputePhase(
          &ss.thread_compute_ns,
          [&](int c, const WorkChunk& chunk, int thread) {
            if (killed.load(std::memory_order_relaxed)) return;
            if (fault != nullptr && fault->Fire(superstep, chunk.worker)) {
              killed.store(true, std::memory_order_relaxed);
              return;
            }
            const int64_t t0 = NowNanos();
            const ChunkCursor<Tally> at{superstep, chunk.worker, c,
                                        thread,    &tally_[c],   &wire_[c]};
            VisitChunk(op, at, chunk, every, from_seeds);
            chunk_ns_[c] = NowNanos() - t0;
          });
      if (killed.load(std::memory_order_relaxed)) {
        metrics->interrupted = true;
        return;
      }
      for (int c = 0; c < num_chunks; ++c) {
        const int w = rt_.chunk(c).worker;
        ss.worker_compute_ns[w] += chunk_ns_[c];
        ss.worker_compute_calls[w] += tally_[c].compute_calls;
        ss.compute_calls += tally_[c].compute_calls;
        ss.messages += tally_[c].messages;
        if constexpr (requires { op.Fold(tally_[c], &ss); }) {
          op.Fold(tally_[c], &ss);
        }
      }

      // Barrier: drop the consumed inboxes and reset the superstep arenas
      // (DESIGN.md §4f). Messaging below refills them for superstep+1, so
      // a checkpoint encoded after it may reference arena storage.
      const int64_t barrier_t = NowNanos();
      plane_.Barrier();
      if constexpr (requires { op.AtBarrier(); }) op.AtBarrier();
      ss.barrier_ns = NowNanos() - barrier_t;

      const int64_t msg_t = NowNanos();
      if constexpr (requires { op.PreRoute(&ss); }) op.PreRoute(&ss);
      const bool any_message = plane_.Route(
          std::span<std::vector<Writer>>(wire_), row_src_, &ss,
          [&op](Reader& reader, int dst) { op.Decode(reader, dst); });
      ss.messaging_ns = NowNanos() - msg_t;
      // The mailed lists now hold superstep+1's activation set (sealed by
      // Route); record its size before the next barrier clears it.
      plane_.CountFrontier(&ss.frontier_units, &ss.frontier_dense_workers);
      metrics->Accumulate(ss);

      const bool halting = !any_message && !always_active;
      if constexpr (kCheckpoints<Op>) {
        // The frame captures superstep+1's input. The final barrier is
        // never checkpointed: there is nothing left to resume.
        if (recovery_.store != nullptr && !halting &&
            superstep + 1 < max_supersteps &&
            checkpoint_policy_.ShouldCheckpoint(superstep)) {
          WriteCheckpoint(op, superstep + 1, metrics);
        }
      }
      if (halting) break;
    }
  }

 private:
  // Ops without a kCheckpointable constant never checkpoint.
  template <typename Op>
  static constexpr bool kCheckpoints =
      requires { requires Op::kCheckpointable; };
  // Ops whose dense visits mostly compute (ICM, VCM) prefetch the next
  // unit's inbox there too; GoFFish and Chlonos skip many units on it.
  template <typename Op>
  static constexpr bool kPrefetchesDense =
      requires { requires Op::kPrefetchDense; };

  // Splits the operator's seed set by owner into seeds_; false when it
  // names none (every unit is visited).
  bool SplitSeeds(std::optional<std::span<const uint32_t>> units) {
    if (!units) return false;
    const uint32_t stride = static_cast<uint32_t>(plane_.map().num_units());
    seeds_.assign(plane_.num_workers(), {});
    for (const uint32_t u : *units) {
      GRAPHITE_CHECK(u < plane_.num_units());
      seeds_[plane_.map().WorkerOf(u % stride)].push_back(u);
    }
    for (std::vector<uint32_t>& mine : seeds_) {
      std::sort(mine.begin(), mine.end());
    }
    return true;
  }

  // Visits one chunk's activation set, layer by layer (see "Units").
  // `from_seeds` takes superstep 0's set from seeds_ instead of the mail.
  template <typename Op>
  void VisitChunk(Op& op, const ChunkCursor<Tally>& at, const WorkChunk& chunk,
                  bool every, bool from_seeds) {
    const std::vector<uint32_t>& mine = plane_.map().units_of(chunk.worker);
    const uint32_t stride = static_cast<uint32_t>(plane_.map().num_units());
    const bool dense =
        every || (!from_seeds && plane_.FrontierIsDense(chunk.worker));
    for (uint32_t layer = 0; layer < plane_.layers(); ++layer) {
      const uint32_t base = layer * stride;
      if (dense) {
        // Every owned unit, or the mail-flag sweep when the frontier
        // exceeded the density threshold.
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          const uint32_t u = base + mine[i];
          if (!every && !plane_.HasMail(u)) continue;
          if (kPrefetchesDense<Op> && i + 1 < chunk.end) {
            plane_.Prefetch(chunk.worker, base + mine[i + 1]);
          }
          op.Visit(at, u);
        }
        continue;
      }
      // Frontier path: the sorted mailed-unit list (or seed list) sliced
      // to this chunk's unit range — exactly the units the sweep would
      // find, in the same order, without the per-unit flag reads.
      const uint32_t lo = base + mine[chunk.begin];
      const uint32_t hi =
          chunk.end < mine.size() ? base + mine[chunk.end] : base + stride;
      const std::span<const uint32_t> fs =
          from_seeds ? SortedSlice(seeds_[chunk.worker], lo, hi)
                     : plane_.FrontierSlice(chunk.worker, lo, hi);
      for (size_t i = 0; i < fs.size(); ++i) {
        if (i + 1 < fs.size()) plane_.Prefetch(chunk.worker, fs[i + 1]);
        op.Visit(at, fs[i]);
      }
    }
  }

  template <typename Op>
  std::string EncodeSection(const Op& op, int w) const {
    Writer enc;
    for (const uint32_t u : plane_.map().units_of(w)) {
      enc.WriteU64(u);
      enc.WriteByte(plane_.MailFlag(u));
      op.EncodeUnit(enc, u);
      enc.WriteU64(plane_.InboxCountFor(w, u));
      for (const Item& m : plane_.MessagesFor(w, u)) op.EncodeItem(enc, m);
    }
    return enc.Release();
  }

  // The store's CRC already vouched for the bytes, so reads are the fast
  // aborting kind. Messages are restored through Deliver in section
  // (owner) order, which rebuilds the mail flags and mailed list exactly
  // as the encoding run had them; the caller Seals.
  template <typename Op>
  void DecodeSection(Op& op, int w, const std::string& bytes) {
    Reader r(bytes);
    while (!r.AtEnd()) {
      const uint32_t u = static_cast<uint32_t>(r.ReadU64());
      GRAPHITE_CHECK(u < plane_.num_units());
      const uint8_t mail_flag = r.ReadByte();
      op.DecodeUnit(r, u);
      const uint64_t num_msgs = r.ReadU64();
      // The flag is derivable (set iff the unit holds messages); it stays
      // on the wire for format stability and is verified here.
      GRAPHITE_CHECK((mail_flag != 0) == (num_msgs > 0));
      for (uint64_t i = 0; i < num_msgs; ++i) {
        plane_.Deliver(w, u, op.DecodeItem(r));
      }
    }
  }

  // Encodes and commits the frame for `next_superstep`.
  template <typename Op>
  void WriteCheckpoint(Op& op, int next_superstep, RunMetrics* metrics) {
    const int64_t t0 = NowNanos();
    CheckpointFrame frame;
    frame.superstep = next_superstep;
    frame.num_units = plane_.num_units();
    frame.base_epoch = head_.base_epoch;
    frame.delta_watermark = head_.delta_watermark;
    frame.counters = {metrics->supersteps,    metrics->compute_calls,
                      metrics->scatter_calls, metrics->messages,
                      metrics->message_bytes, 0, 0};
    if constexpr (requires { op.Carry(&frame.counters); }) {
      op.Carry(&frame.counters);
    }
    frame.sections.resize(plane_.num_workers());
    std::vector<int64_t> unused_ns;  // lint:allow(vector: checkpoint barrier only, not superstep-rate)
    rt_.ParallelFor(plane_.num_workers(), &unused_ns, [&](int w, int) {
      frame.sections[w] = EncodeSection(op, w);
    });
    CheckpointStore* store = recovery_.store;
    GRAPHITE_CHECK(store->Commit(frame.superstep, EncodeFrame(frame)).ok());
    SuperstepMetrics& back = metrics->per_superstep.back();
    back.checkpoint_ns = NowNanos() - t0;
    back.checkpoint_bytes = store->last_commit_bytes();
    ++metrics->checkpoints;
    metrics->checkpoint_ns += back.checkpoint_ns;
    metrics->checkpoint_bytes += back.checkpoint_bytes;
  }

  DeliveryPlane<Item> plane_;
  SuperstepRuntime rt_;
  CheckpointPolicy checkpoint_policy_;
  RecoveryContext recovery_;
  GraphHead head_;
  // Wire buffers, indexed [chunk][dst worker]; reading a destination
  // column in chunk order yields exactly sequential mode's bytes. Writer
  // Clear keeps capacity, so steady-state supersteps reuse them.
  std::vector<std::vector<Writer>> wire_;  // lint:allow(vector: per-run wire matrix; Writer::Clear reuses capacity)
  std::vector<int> row_src_;  // lint:allow(vector: per-run chunk map, sized once)
  std::vector<Tally> tally_;  // lint:allow(vector: per-run counters, sized once)
  std::vector<int64_t> chunk_ns_;  // lint:allow(vector: per-run timings, sized once)
  // Superstep 0's seed set by owner, ascending (SplitSeeds).
  std::vector<std::vector<uint32_t>> seeds_;  // lint:allow(vector: per-run seed set, built once before superstep 0)
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_
