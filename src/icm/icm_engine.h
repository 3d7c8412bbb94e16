// The Interval-centric Computing Model engine (paper §IV, §VI) — the
// GRAPHITE runtime. Executes user interval-compute and interval-scatter
// logic over a TemporalGraph in BSP supersteps:
//
//   superstep 0   Init() seeds one state covering each vertex lifespan and
//                 Compute runs once per vertex over that span with no
//                 messages (the paper's "compute is called on all vertices
//                 in superstep 1, with no messages and for the entire
//                 vertex lifespan"). A program that declares a seed vertex
//                 (SeedVertex below: the source of a traversal) is called
//                 on that vertex only; on every other vertex its
//                 superstep-0 Compute would do nothing.
//   superstep k   Only vertices that received messages are active. The
//                 time-warp operator aligns and groups the messages with
//                 the partitioned vertex states; Compute runs once per warp
//                 tuple. State updates repartition the state dynamically.
//                 Updated state entries are warped against the out-edges
//                 (refined where an edge property the program reads
//                 changes value; IcmDeclaresScatterLabels) and Scatter
//                 runs once per resulting slice, emitting interval
//                 messages.
//   halt          When a superstep sends no messages (all vertices
//                 implicitly vote to halt; messages reactivate them).
//
// Engineering optimizations from §VI, all semantics-preserving:
//   * inline warp combiner  — with Program::Combine, warp folds each
//     message group to one payload during the sweep, so Compute receives a
//     single message and the separate group-scan pass disappears;
//   * warp suppression      — when more than `suppression_threshold` of a
//     vertex's incoming messages are unit-length, the merge-based warp is
//     bypassed for a time-point-centric grouping (more Compute calls, no
//     warp overhead; result identical);
//   * interval messages     — wire format uses the varint interval codec
//     (unit-length / open-ended intervals carry one endpoint + flag).
//
// Program contract:
//   struct MyAlgorithm {
//     using State = ...;    // operator== required
//     using Message = ...;  // operator== and MessageTraits<> required
//     State Init(VertexIdx v) const;
//     void Compute(IcmVertexContext<MyAlgorithm>& ctx,
//                  std::span<const Message> msgs);
//     void Scatter(IcmScatterContext<MyAlgorithm>& ctx, const State& s);
//     // Optional commutative+associative combiner:
//     // static Message Combine(const Message&, const Message&);
//     // Optional master compute (DESIGN.md §4i), read-only and on the
//     // coordinating thread: once after recovery, then at every barrier.
//     // void MasterCompute(std::span<const IntervalMap<State>> states,
//     //                    int next_superstep);
//     // Optional seed vertex (IcmHasSeedVertex):
//     // VertexId SeedVertex() const;
//     // Optional edge-property labels Scatter reads
//     // (IcmDeclaresScatterLabels; empty = property-blind):
//     // std::span<const LabelId> ScatterLabels() const;
//   };
#ifndef GRAPHITE_ICM_ICM_ENGINE_H_
#define GRAPHITE_ICM_ICM_ENGINE_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "engine/message_traits.h"
#include "engine/metrics.h"
#include "engine/superstep_driver.h"
#include "graph/temporal_graph.h"
#include "icm/message.h"
#include "icm/warp.h"
#include "util/serde.h"
#include "util/timer.h"

namespace graphite {

struct IcmOptions : EngineOptions {
  /// Run Compute on every vertex every superstep (fixed-iteration
  /// algorithms like PageRank); terminate at max_supersteps.
  bool always_active = false;
  int max_supersteps = std::numeric_limits<int>::max();
  /// §VI inline warp combiner (no-op unless the Program defines Combine).
  bool enable_combiner = true;
  /// §VI warp suppression for unit-lifespan-dominated inboxes.
  bool enable_suppression = true;
  /// Fraction of unit-length messages above which warp is suppressed
  /// (paper default 70%).
  double suppression_threshold = 0.7;
  /// Vertex->worker placement policy (graph/partitioner.h): the paper's
  /// hash partitioner by default, or any strategy/explicit map.
  Placement placement;
};

/// Programs that prune by a global quantity (a point query's target bound)
/// read it here. The hook runs on the coordinating thread between compute
/// phases, sees every vertex state read-only and must not allocate; it
/// may only change what later Scatter calls send, and only by dropping
/// sends that cannot change the vertex states the caller reads. Whatever
/// it derives must be a pure function of the states it sees, so a resumed
/// run recomputes it and no checkpoint field carries it.
template <typename P>
concept IcmHasMasterCompute =
    requires(P& p, std::span<const IntervalMap<typename P::State>> states,
             int next_superstep) { p.MasterCompute(states, next_superstep); };

/// Source-rooted programs whose superstep-0 Compute changes nothing on
/// any vertex but one declare that vertex (`VertexId SeedVertex() const`).
/// A cold run's superstep 0 then calls Compute on it alone (a vertex id
/// not in the graph seeds nothing), so a point query costs the vertices it
/// reaches instead of every vertex. Counters differ only in superstep 0's
/// compute_calls; states, messages and supersteps are unchanged.
template <typename P>
concept IcmHasSeedVertex = requires(const P& p) {
  { p.SeedVertex() } -> std::convertible_to<VertexId>;
};

template <typename P>
concept IcmHasCombiner = requires(const typename P::Message& a,
                                  const typename P::Message& b) {
  { P::Combine(a, b) } -> std::convertible_to<typename P::Message>;
};

/// Programs declare the edge-property labels their Scatter reads
/// (`std::span<const LabelId> ScatterLabels() const`). The pre-scatter
/// warp then splits a slice only where one of those labels changes value
/// (§IV-B: scatter runs "once for each overlapping interval of its
/// out-edges having a distinct property"): neither another label's run
/// boundary nor the seam between two adjacent runs of one value splits
/// it. An empty set declares a property-blind program (the TI
/// algorithms; §VII-A1: "the former do not use any properties"), whose
/// every overlap is one slice ("a time-join suffices before scatter").
/// A program that declares nothing is split where any label on the edge
/// changes value. IcmScatterContext::EdgeProp CHECKs that a declaring
/// program reads only labels it declared.
template <typename P>
concept IcmDeclaresScatterLabels = requires(const P& p) {
  { p.ScatterLabels() } -> std::convertible_to<std::span<const LabelId>>;
};

template <typename Program>
class IcmEngine;

/// Context passed to Program::Compute for one warp tuple: the active
/// sub-interval, the prior state over it, and vertex/graph accessors.
/// SetState() updates (and dynamically repartitions) the vertex state; the
/// written interval must lie within the tuple interval.
template <typename Program>
class IcmVertexContext {
 public:
  using State = typename Program::State;

  VertexIdx vertex() const { return vertex_; }
  VertexId vertex_id() const { return graph_->vertex_id(vertex_); }
  /// The active sub-interval this Compute call covers (tau_i).
  const Interval& interval() const { return interval_; }
  /// The vertex state inherited over interval() from the prior superstep.
  const State& state() const { return *state_; }
  /// Vertex lifespan (static interval from the temporal graph).
  const Interval& vertex_interval() const {
    return graph_->vertex_interval(vertex_);
  }
  int superstep() const { return superstep_; }
  const TemporalGraph& graph() const { return *graph_; }

  /// Updates the state over `iv` (must be contained in interval()) to
  /// `value`. Triggers dynamic repartitioning and marks the interval for
  /// the scatter phase.
  void SetState(const Interval& iv, const State& value) {
    GRAPHITE_CHECK(iv.IsValid() && iv.ContainedIn(interval_));
    states_->Set(iv, value);
    updated_->Set(iv, value);
  }

 private:
  friend class IcmEngine<Program>;
  VertexIdx vertex_ = 0;
  Interval interval_;
  const State* state_ = nullptr;
  int superstep_ = 0;
  const TemporalGraph* graph_ = nullptr;
  IntervalMap<State>* states_ = nullptr;
  IntervalMap<State>* updated_ = nullptr;
};

/// Context passed to Program::Scatter for one out-edge slice: the edge, the
/// sub-interval tau'_k (updated-state x edge-lifespan x property-boundary
/// refined), and Send().
template <typename Program>
class IcmScatterContext {
 public:
  using Message = typename Program::Message;

  const StoredEdge& edge() const { return *edge_; }
  EdgePos edge_pos() const { return edge_pos_; }
  /// The scatter slice tau'_k. Edge properties are constant over it.
  const Interval& interval() const { return interval_; }
  int superstep() const { return superstep_; }
  const TemporalGraph& graph() const { return *graph_; }

  /// Edge property value over this slice (properties are constant within a
  /// slice by construction); nullopt if absent here. A program that
  /// declares ScatterLabels may read only those.
  std::optional<PropValue> EdgeProp(LabelId label) const {
    if constexpr (IcmDeclaresScatterLabels<Program>) {
      GRAPHITE_CHECK(std::find(labels_.begin(), labels_.end(), label) !=
                     labels_.end());
    }
    return graph_->EdgeProperty(edge_pos_, label).Get(interval_.start);
  }

  /// Sends `msg` valid over `iv` to the edge's sink vertex. An empty
  /// interval means "valid nowhere" and is dropped without counting.
  void Send(const Interval& iv, const Message& msg) {
    if (iv.IsEmpty()) return;
    Writer& w = (*wire_row_)[(*worker_of_)[edge_->dst]];
    w.WriteU64(edge_->dst);
    WriteInterval(w, iv);
    MessageTraits<Message>::Write(w, msg);
    ++*messages_sent_;
  }

  /// Sends `msg` inheriting the scatter slice as its validity (tau_m =
  /// tau'_k), the paper's default when scatter omits the interval.
  void SendInherit(const Message& msg) { Send(interval_, msg); }

 private:
  friend class IcmEngine<Program>;
  const StoredEdge* edge_ = nullptr;
  EdgePos edge_pos_ = 0;
  Interval interval_;
  int superstep_ = 0;
  const TemporalGraph* graph_ = nullptr;
  std::span<const LabelId> labels_;  ///< What ScatterLabels declared.
  std::vector<Writer>* wire_row_ = nullptr;  ///< src worker's per-dst buffers
  const std::vector<int>* worker_of_ = nullptr;
  int64_t* messages_sent_ = nullptr;
};

/// Outcome of an ICM run: metrics plus the final partitioned states.
template <typename Program>
struct IcmResult {
  RunMetrics metrics;
  std::vector<IntervalMap<typename Program::State>> states;  // lint:allow(vector: per-run vertex state, lives across supersteps)
  /// Compute calls that had messages or updated state ("interval vertex
  /// visits" in the paper's intro example).
  int64_t active_compute_calls = 0;
  /// (vertex, superstep) pairs where warp was suppressed.
  int64_t suppressed_vertices = 0;
};

// lint:region(ingest-seed)
/// Warm-start input for IcmEngine::RunIncremental (DESIGN.md §4l): the
/// converged states of a finished run on the pre-append graph, plus the
/// receipt(s) of the Append calls made since. The engine moves the states
/// in, re-activates only the touched sources (scatter over the appended
/// edges) and the fresh vertices (cold superstep 0), and lets the normal
/// frontier machinery propagate from there.
///
/// Program contract for incremental equivalence: the program must be
/// MONOTONE — Compute folds messages toward a unique fixed point (min or
/// max), so re-converging from the old fixed point plus the delta seeds
/// lands on exactly the full-recompute result. All six §V path programs
/// qualify; PageRank-style always-active programs do not.
template <typename Program>
struct IcmWarmStart {
  /// Converged states from the previous run; size must equal the vertex
  /// count the previous run saw (fresh vertices get Init()).
  std::vector<IntervalMap<typename Program::State>> states;
  /// Merged receipts of every Append since those states converged.
  AppendReceipt receipt;
};
// lint:endregion(ingest-seed)

template <typename Program>
class IcmEngine {
 public:
  using State = typename Program::State;
  using Message = typename Program::Message;
  using StateEntry = typename IntervalMap<State>::Entry;
  using Item = TemporalItem<Message>;

  /// `recovery` connects the run to the checkpoint subsystem (ckpt/):
  /// checkpoints are written where options.runtime.checkpoint says, into
  /// recovery.store; with recovery.resume the run restarts from the
  /// newest valid checkpoint (or recovery.resume_from). Requires
  /// MessageTraits for State as well as Message when used. Checkpoint
  /// frames record the graph head they were taken against; a frame from a
  /// different head (edges appended or compacted since) is ignored and
  /// the run starts cold.
  static IcmResult<Program> Run(const TemporalGraph& g, Program& program,
                                const IcmOptions& options = {},
                                const RecoveryContext& recovery = {}) {
    IcmEngine engine(g, program, options, recovery, nullptr);
    return engine.Execute();
  }

  /// Incremental recompute after TemporalGraph::Append: instead of
  /// cold-starting every vertex, superstep 0 activates only the append's
  /// touched sources (which re-scatter their converged non-Init state
  /// over just the appended edges) and the fresh vertices (normal cold
  /// start). For monotone programs the result is byte-identical to
  /// Run() on the merged graph. `warm` is consumed. Combines with
  /// `recovery` as usual — a mid-run checkpoint of the incremental run
  /// resumes normally; a head-mismatched checkpoint falls back to the
  /// warm seed, not to a cold start.
  static IcmResult<Program> RunIncremental(const TemporalGraph& g,
                                           Program& program,
                                           IcmWarmStart<Program> warm,
                                           const IcmOptions& options = {},
                                           const RecoveryContext& recovery = {}) {
    IcmEngine engine(g, program, options, recovery, &warm);
    return engine.Execute();
  }

 private:
  IcmEngine(const TemporalGraph& g, Program& program, const IcmOptions& options,
            const RecoveryContext& recovery, IcmWarmStart<Program>* warm)
      : g_(g), program_(program), options_(options), recovery_(recovery),
        warm_(warm) {}

  // The engine is the superstep driver's operator
  // (engine/superstep_driver.h): the driver runs the lifecycle and calls
  // back into Visit / Decode / Fold / AtBarrier and the checkpoint codec.
  template <typename, typename>
  friend class SuperstepDriver;
  struct WorkerCounters;
  using Driver = SuperstepDriver<Item, WorkerCounters>;
  using Cursor = ChunkCursor<WorkerCounters>;

  IcmResult<Program> Execute() {
    const size_t n = g_.num_vertices();
    Driver driver(options_,
                  WorkerMap(n, options_.num_workers, options_.placement,
                            [this](uint32_t v) { return g_.vertex_id(v); }));
    driver_ = &driver;
    auto& states = result_.states;
    states.resize(n);
    // lint:region(ingest-seed)
    // Warm start (RunIncremental): adopt the converged pre-append states;
    // only vertices the append created fall through to Init below.
    VertexIdx warm_count = 0;
    if (warm_ != nullptr) {
      warm_count = static_cast<VertexIdx>(warm_->states.size());
      // The warm states must be exactly the pre-append vertex range: the
      // receipt's first fresh vertex when the appends created vertices,
      // the whole graph otherwise.
      GRAPHITE_CHECK(warm_count ==
                     std::min<uint64_t>(warm_->receipt.first_fresh_vertex, n));
      for (VertexIdx v = 0; v < warm_count; ++v) {
        states[v] = std::move(warm_->states[v]);
      }
    }
    // lint:endregion(ingest-seed)
    for (VertexIdx v = warm_count; v < n; ++v) {
      states[v] = IntervalMap<State>(g_.vertex_interval(v), program_.Init(v));
    }
    // Per-OS-lane scratch, sized once per run.
    scratch_ = std::vector<WorkerScratch>(  // lint:allow(vector: per-run setup)
        driver.runtime().num_threads());

    // Recovery (ckpt/): restore the exact input of a checkpointed
    // superstep, or start cold (warm-seeded under RunIncremental).
    if (const auto carried =
            driver.Recover(*this, recovery_, g_.head(), &result_.metrics)) {
      result_.active_compute_calls = carried->active_compute_calls;
      result_.suppressed_vertices = carried->suppressed_vertices;
    }
    const int start = std::max(0, result_.metrics.resumed_from);
    // Warm-seed applies only to a genuinely first superstep: a resume from
    // a checkpoint of the incremental run already carries the seeded state.
    warm_seeded_ = warm_ != nullptr && start == 0;
    next_superstep_ = start;
    MasterCompute();
    const int64_t run_start = NowNanos();
    driver.Run(*this, start, options_.max_supersteps, options_.always_active,
               &result_.metrics);
    result_.metrics.makespan_ns = NowNanos() - run_start;
    return std::move(result_);
  }

  // --- The driver's operator hooks. ---

  void Visit(const Cursor& at, VertexIdx v) {
    const std::span<const Item> msgs =
        driver_->plane().MessagesFor(at.worker, v);
    if (warm_seeded_ && at.superstep == 0) {
      // Incremental superstep 0: only the append's fresh vertices and
      // touched sources do any work.
      WarmSeedVertex(v, at, msgs);
      return;
    }
    ProcessVertex(v, at, msgs);
  }

  // The per-message wire format: dst, then the item (DecodeItem).
  void Decode(Reader& reader, int dst) {
    const uint32_t unit = static_cast<uint32_t>(reader.ReadU64());
    driver_->plane().Deliver(dst, unit, DecodeItem(reader));
  }

  void Fold(const WorkerCounters& c, SuperstepMetrics* ss) {
    ss->scatter_calls += c.scatter_calls;
    ss->warp_slices += c.warp.slices;
    ss->warp_merge_hits += c.warp.merge_hits;
    result_.active_compute_calls += c.active_compute_calls;
    result_.suppressed_vertices += c.suppressed_vertices;
  }

  void AtBarrier() {
    for (WorkerScratch& s : scratch_) s.ResetAtBarrier();
    ++next_superstep_;
    MasterCompute();
  }

  void MasterCompute() {
    if constexpr (IcmHasMasterCompute<Program>) {
      program_.MasterCompute(
          std::span<const IntervalMap<State>>(result_.states),
          next_superstep_);
    }
  }

  // Superstep 0's activation set: the program's seed vertex, if it
  // declares one (IcmHasSeedVertex); every vertex otherwise, and on a
  // warm start, which seeds from its receipt (WarmSeedVertex).
  std::optional<std::span<const uint32_t>> SeedUnits() {
    if constexpr (IcmHasSeedVertex<Program>) {
      if (warm_ == nullptr) {
        const auto seed = g_.IndexOf(program_.SeedVertex());
        seed_ = seed.value_or(0);
        return std::span<const uint32_t>(&seed_, seed ? 1 : 0);
      }
    }
    return std::nullopt;
  }

  void Carry(CarryCounters* c) const {
    c->active_compute_calls = result_.active_compute_calls;
    c->suppressed_vertices = result_.suppressed_vertices;
  }

  /// Checkpointing needs both the State and the Message on the wire (see
  /// ckpt/checkpoint.h); programs without traits for either simply cannot
  /// use a CheckpointStore.
  static constexpr bool kCheckpointable =
      HasWireTraits<State> && HasWireTraits<Message>;
  static constexpr bool kPrefetchDense = true;

  // The checkpoint codec (the driver frames each worker's section). A
  // vertex's state is its partitioned interval entries; on resume they
  // are adopted verbatim (FromEntries) — rebuilding via Set() would both
  // be quadratic and risk a different (coalesced) partition than the one
  // persisted.
  void EncodeUnit(Writer& w, VertexIdx v) const {
    w.WriteU64(result_.states[v].size());
    for (const StateEntry& e : result_.states[v].entries()) {
      WriteInterval(w, e.interval);
      MessageTraits<State>::Write(w, e.value);
    }
  }
  void DecodeUnit(Reader& r, VertexIdx v) {
    const uint64_t num_entries = r.ReadU64();
    std::vector<StateEntry> entries;  // lint:allow(vector: recovery decode only, not superstep-rate)
    entries.reserve(num_entries);
    for (uint64_t i = 0; i < num_entries; ++i) {
      const Interval iv = ReadInterval(r);
      entries.push_back({iv, MessageTraits<State>::Read(r)});
    }
    result_.states[v] = IntervalMap<State>::FromEntries(std::move(entries));
  }
  // One message, as on the wire after its destination: interval, payload.
  void EncodeItem(Writer& w, const Item& m) const {
    WriteInterval(w, m.interval);
    MessageTraits<Message>::Write(w, m.value);
  }
  Item DecodeItem(Reader& r) const {
    const Interval iv = ReadInterval(r);
    return {iv, MessageTraits<Message>::Read(r)};
  }

  struct WorkerCounters : ChunkTally {  // + compute_calls, messages
    int64_t scatter_calls = 0;
    int64_t active_compute_calls = 0;
    int64_t suppressed_vertices = 0;
    WarpStats warp;  ///< Untimed two-pass kernel counters for this chunk.
  };

  // Reused per-OS-thread buffers: no per-vertex allocation churn, and the
  // warp sweep state + SoA output live in a per-thread arena (per-worker
  // arenas cannot back these — two chunks of one logical worker may run
  // on different threads under stealing). The arena resets at superstep
  // barriers only, like the inbox arenas.
  struct WorkerScratch {
    WorkerScratch() {
      warp_scratch.Attach(&arena);
      warp.Attach(&arena);
      warp_combined.Attach(&arena);
    }
    void ResetAtBarrier() {
      warp_scratch.Release();
      warp.Release();
      warp_combined.Release();
      arena.Reset();
    }

    Arena arena;                          // backs the warp members below
    WarpScratch warp_scratch;             // sweep events / live set
    WarpOutput warp;                      // flat SoA warp tuples
    SuperstepVec<CombinedWarpTuple<Message>> warp_combined;
    std::vector<StateEntry> outer;        // state snapshot for warp  // lint:allow(vector: amortized scratch; capacity survives supersteps)
    std::vector<Message> group;           // materialized message group  // lint:allow(vector: amortized scratch; capacity survives supersteps)
    IntervalMap<State> updated;           // intervals written by SetState
    std::vector<TimePoint> boundaries;    // property-refinement points  // lint:allow(vector: amortized scratch; capacity survives supersteps)
    std::vector<uint32_t> order;          // suppression grouping order  // lint:allow(vector: amortized scratch; capacity survives supersteps)
  };

  void ProcessVertex(VertexIdx v, const Cursor& at,
                     std::span<const Item> msgs) {
    IntervalMap<State>* states = &result_.states[v];
    WorkerCounters* counters = at.tally;
    WorkerScratch* scratch = &scratch_[at.thread];
    scratch->updated.clear();

    IcmVertexContext<Program> ctx;
    ctx.vertex_ = v;
    ctx.superstep_ = at.superstep;
    ctx.graph_ = &g_;
    ctx.states_ = states;
    ctx.updated_ = &scratch->updated;

    if (msgs.empty()) {
      // Superstep 0 / always-active with no mail: one call per state entry.
      scratch->outer.assign(states->entries().begin(),
                            states->entries().end());
      for (const StateEntry& entry : scratch->outer) {
        ctx.interval_ = entry.interval;
        ctx.state_ = &entry.value;
        program_.Compute(ctx, std::span<const Message>());
        ++counters->compute_calls;
        if (!scratch->updated.empty()) ++counters->active_compute_calls;
      }
    } else {
      const bool suppress =
          options_.enable_suppression && ShouldSuppress(msgs);
      if (suppress) {
        ++counters->suppressed_vertices;
        ComputeSuppressed(&ctx, msgs, states, counters, scratch);
      } else {
        ComputeWarped(&ctx, msgs, states, counters, scratch);
      }
    }

    if (scratch->updated.empty()) return;
    // Keep the partition minimal: splitting states is semantically free
    // (§IV-A1), so merging equal adjacent values back is too, and it keeps
    // later warps linear in the number of *distinct* value runs.
    states->Coalesce();
    scratch->updated.Coalesce();
    ScatterPhase(v, at, scratch->updated);
  }

  bool ShouldSuppress(std::span<const Item> msgs) const {
    size_t unit = 0;
    for (const Item& m : msgs) {
      // Unbounded intervals cannot be expanded per time-point; their
      // presence forces the merge-based warp.
      if (m.interval.end == kTimeMax || m.interval.start == kTimeMin) {
        return false;
      }
      if (m.interval.IsUnit()) ++unit;
    }
    return static_cast<double>(unit) >
           options_.suppression_threshold * static_cast<double>(msgs.size());
  }

  // Normal path: time-warp the partitioned states with the inbox, then one
  // Compute per output tuple. With a combiner, each group is folded to a
  // single payload as the tuples are consumed.
  void ComputeWarped(IcmVertexContext<Program>* ctx, std::span<const Item> msgs,
                     IntervalMap<State>* states, WorkerCounters* counters,
                     WorkerScratch* scratch) {
    // Snapshot the partition: SetState during the loop repartitions the
    // live map, but warp tuples must see the prior superstep's states.
    scratch->outer.assign(states->entries().begin(), states->entries().end());
    const bool gap_fill = options_.always_active;

    // Fast path for the dominant single-message inbox: the warp of one
    // message is just its clip against each state slice (states are kept
    // coalesced, so adjacent slices differ and maximality holds).
    if (msgs.size() == 1 && !gap_fill) {
      const Item& only = msgs[0];
      for (const StateEntry& entry : scratch->outer) {
        const Interval slice = entry.interval.Intersect(only.interval);
        if (slice.IsEmpty()) continue;
        ctx->interval_ = slice;
        ctx->state_ = &entry.value;
        program_.Compute(*ctx, std::span<const Message>(&only.value, 1));
        ++counters->compute_calls;
        ++counters->active_compute_calls;
      }
      return;
    }

    auto run_compute = [&](const Interval& iv, const State& state,
                           std::span<const Message> group) {
      ctx->interval_ = iv;
      ctx->state_ = &state;
      const size_t updates_before = scratch->updated.size();
      program_.Compute(*ctx, group);
      ++counters->compute_calls;
      if (!group.empty() || scratch->updated.size() != updates_before) {
        ++counters->active_compute_calls;
      }
    };
    TimePoint cursor = scratch->outer.empty()
                           ? 0
                           : scratch->outer.front().interval.start;

    // Inline warp combiner (§VI): the sweep itself folds every message
    // group to one payload, so neither per-tuple index vectors nor a
    // separate group-scan pass exist.
    if constexpr (IcmHasCombiner<Program>) {
      if (options_.enable_combiner) {
        auto& tuples = scratch->warp_combined;
        TimeWarpCombineInto<State, Message>(
            std::span<const StateEntry>(scratch->outer), msgs,
            [](const Message& a, const Message& b) {
              return Program::Combine(a, b);
            },
            &scratch->warp_scratch, &tuples, &counters->warp);
        for (size_t i = 0; i < tuples.size(); ++i) {
          const CombinedWarpTuple<Message>& t = tuples[i];
          if (gap_fill && t.interval.start > cursor) {
            EmitGapCalls(Interval(cursor, t.interval.start), scratch,
                         run_compute);
          }
          run_compute(t.interval, scratch->outer[t.outer_index].value,
                      std::span<const Message>(&t.combined, 1));
          cursor = t.interval.end;
        }
        if (gap_fill && !scratch->outer.empty() &&
            cursor < scratch->outer.back().interval.end) {
          EmitGapCalls(Interval(cursor, scratch->outer.back().interval.end),
                       scratch, run_compute);
        }
        return;
      }
    }

    // Walk the tuples in temporal order; in always-active mode the
    // uncovered gaps between them get empty-group Compute calls. Output is
    // the flat SoA form: one shared index pool, (offset, count) per tuple.
    WarpOutput& warped = scratch->warp;
    TimeWarpInto<State, Message>(std::span<const StateEntry>(scratch->outer),
                                 msgs, &scratch->warp_scratch, &warped,
                                 &counters->warp);
    for (size_t i = 0; i < warped.size(); ++i) {
      const FlatWarpTuple& t = warped[i];
      if (gap_fill && t.interval.start > cursor) {
        EmitGapCalls(Interval(cursor, t.interval.start), scratch, run_compute);
      }
      scratch->group.clear();
      for (uint32_t idx : warped.group(t)) {
        scratch->group.push_back(msgs[idx].value);
      }
      run_compute(t.interval, scratch->outer[t.outer_index].value,
                  std::span<const Message>(scratch->group));
      cursor = t.interval.end;
    }
    if (gap_fill && !scratch->outer.empty() &&
        cursor < scratch->outer.back().interval.end) {
      EmitGapCalls(Interval(cursor, scratch->outer.back().interval.end),
                   scratch, run_compute);
    }
  }

  // Calls `run_compute` with an empty group for every prior-state slice in
  // `gap` (always-active mode only).
  template <typename RunFn>
  void EmitGapCalls(const Interval& gap, WorkerScratch* scratch,
                    RunFn&& run_compute) {
    for (const StateEntry& entry : scratch->outer) {
      const Interval slice = entry.interval.Intersect(gap);
      if (slice.IsValid()) {
        run_compute(slice, entry.value, std::span<const Message>());
      }
    }
  }

  // Suppressed path (§VI): the merge-based warp is bypassed and execution
  // "degenerates to a time-point centric execution model" — Compute runs
  // once per covered time-point with every message live there (plus the
  // always-active gap fill at unit granularity). This is warp output at
  // unit granularity, so any user logic stays exact; there are simply
  // more Compute calls, which the paper accepts in exchange for skipping
  // the warp's sort-merge on unit-dominated inboxes.
  void ComputeSuppressed(IcmVertexContext<Program>* ctx,
                         std::span<const Item> msgs,
                         IntervalMap<State>* states, WorkerCounters* counters,
                         WorkerScratch* scratch) {
    // Sort message indices by start; a sliding window then yields the live
    // set per time-point.
    scratch->order.resize(msgs.size());
    for (uint32_t i = 0; i < msgs.size(); ++i) scratch->order[i] = i;
    std::stable_sort(scratch->order.begin(), scratch->order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return msgs[a].interval.start < msgs[b].interval.start;
                     });
    scratch->outer.assign(states->entries().begin(), states->entries().end());

    // Covered time-points, bounded: ShouldSuppress rejects unbounded
    // message intervals.
    scratch->boundaries.clear();
    for (const Item& m : msgs) {
      const Interval clipped = m.interval.Intersect(states->Span());
      for (TimePoint t = clipped.start; t < clipped.end; ++t) {
        scratch->boundaries.push_back(t);
      }
    }
    std::sort(scratch->boundaries.begin(), scratch->boundaries.end());
    scratch->boundaries.erase(
        std::unique(scratch->boundaries.begin(), scratch->boundaries.end()),
        scratch->boundaries.end());

    size_t window_lo = 0;
    for (TimePoint t : scratch->boundaries) {
      // Prior state at t (from the pre-superstep snapshot).
      const StateEntry* state = nullptr;
      for (const StateEntry& entry : scratch->outer) {
        if (entry.interval.Contains(t)) {
          state = &entry;
          break;
        }
      }
      if (state == nullptr) continue;
      while (window_lo < scratch->order.size() &&
             msgs[scratch->order[window_lo]].interval.end <= t) {
        ++window_lo;
      }
      scratch->group.clear();
      for (size_t k = window_lo; k < scratch->order.size(); ++k) {
        const Item& m = msgs[scratch->order[k]];
        if (m.interval.start > t) break;
        if (m.interval.Contains(t)) scratch->group.push_back(m.value);
      }
      if (scratch->group.empty()) continue;
      if constexpr (IcmHasCombiner<Program>) {
        if (options_.enable_combiner && scratch->group.size() > 1) {
          Message folded = scratch->group[0];
          for (size_t k = 1; k < scratch->group.size(); ++k) {
            folded = Program::Combine(folded, scratch->group[k]);
          }
          scratch->group.clear();
          scratch->group.push_back(std::move(folded));
        }
      }
      ctx->interval_ = Interval(t, t + 1);
      ctx->state_ = &state->value;
      program_.Compute(*ctx, std::span<const Message>(scratch->group));
      ++counters->compute_calls;
      ++counters->active_compute_calls;
    }

    // Always-active gap fill: prior-state slices not covered by any
    // message still get their empty-group call (unit-exactness is not
    // needed there — state is constant across each uncovered slice).
    if (options_.always_active) {
      TimePoint cursor = scratch->outer.empty()
                             ? 0
                             : scratch->outer.front().interval.start;
      auto gap_compute = [&](const Interval& iv, const State& state,
                             std::span<const Message> group) {
        ctx->interval_ = iv;
        ctx->state_ = &state;
        program_.Compute(*ctx, group);
        ++counters->compute_calls;
      };
      for (TimePoint t : scratch->boundaries) {
        if (t > cursor) EmitGapCalls(Interval(cursor, t), scratch, gap_compute);
        cursor = t + 1;
      }
      if (!scratch->outer.empty() &&
          cursor < scratch->outer.back().interval.end) {
        EmitGapCalls(Interval(cursor, scratch->outer.back().interval.end),
                     scratch, gap_compute);
      }
    }
  }

  // lint:region(ingest-seed)
  // Warm superstep 0 (RunIncremental, DESIGN.md §4l). Three vertex
  // classes, everything else stays quiet:
  //   * fresh vertices (created by the append) run the normal cold
  //     superstep-0 Compute — a fresh source still seeds itself;
  //   * touched sources (sealed vertices that gained out-edges) re-scatter
  //     their converged state over ONLY the appended edges;
  //   * the rest already scattered everything they will ever scatter in
  //     the previous run, and its effects are in the warm states.
  // Only the non-Init portion of a touched source's state is re-scattered:
  // Scatter may derive its payload from the slice alone (IcmEat sends
  // slice.start + travel-time regardless of the state value), so an
  // unreached Init-valued entry would fabricate activity the full
  // recompute never had.
  void WarmSeedVertex(VertexIdx v, const Cursor& at,
                      std::span<const Item> msgs) {
    const AppendReceipt& receipt = warm_->receipt;
    if (v >= receipt.first_fresh_vertex) {
      ProcessVertex(v, at, msgs);
      return;
    }
    if (!std::binary_search(receipt.touched_sources.begin(),
                            receipt.touched_sources.end(), v)) {
      return;
    }
    const State init = program_.Init(v);
    IntervalMap<State>& updated = scratch_[at.thread].updated;
    updated.clear();
    for (const StateEntry& e : result_.states[v].entries()) {
      if (!(e.value == init)) updated.Set(e.interval, e.value);
    }
    if (updated.empty()) return;
    updated.Coalesce();
    ScatterPhase(v, at, updated, /*only_appended_edges=*/true);
  }
  // lint:endregion(ingest-seed)

  // Pre-scatter warp: each updated state entry is joined with each
  // out-edge lifespan, refined where the edge's properties change, and
  // Scatter runs once per slice (paper: "scatter is called once for each
  // overlapping interval of its out-edges having a distinct property").
  // With `only_appended_edges` (the warm seed) edges outside the warm
  // receipt's new_edge_ids are skipped.
  void ScatterPhase(VertexIdx v, const Cursor& at,
                    const IntervalMap<State>& updated,
                    bool only_appended_edges = false) {
    WorkerCounters* counters = at.tally;
    std::vector<TimePoint>& boundaries = scratch_[at.thread].boundaries;
    std::span<const LabelId> labels;
    if constexpr (IcmDeclaresScatterLabels<Program>) {
      labels = program_.ScatterLabels();
    }
    auto edges = g_.OutEdges(v);
    for (size_t k = 0; k < edges.size(); ++k) {
      const StoredEdge& e = edges[k];
      if (only_appended_edges &&
          !std::binary_search(warm_->receipt.new_edge_ids.begin(),
                              warm_->receipt.new_edge_ids.end(), e.eid)) {
        continue;
      }
      const EdgePos pos = edges.pos(k);

      IcmScatterContext<Program> sctx;
      sctx.edge_ = &e;
      sctx.edge_pos_ = pos;
      sctx.superstep_ = at.superstep;
      sctx.graph_ = &g_;
      sctx.labels_ = labels;
      sctx.wire_row_ = at.wire;
      sctx.worker_of_ = &driver_->map().worker_of();
      sctx.messages_sent_ = &counters->messages;

      updated.ForEachIntersecting(
          e.interval, [&](const Interval& overlap, const State& s) {
            if (IcmDeclaresScatterLabels<Program> && labels.empty()) {
              // Property-blind program: the whole overlap is one slice.
              sctx.interval_ = overlap;
              program_.Scatter(sctx, s);
              ++counters->scatter_calls;
              return;
            }
            RefineByProperties(pos, overlap, labels, &boundaries);
            for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
              sctx.interval_ = Interval(boundaries[b], boundaries[b + 1]);
              program_.Scatter(sctx, s);
              ++counters->scatter_calls;
            }
          });
    }
  }

  // Splits `window` where one of the declared `labels` changes value; a
  // program that declares none (empty `labels`) is refined by every label
  // on the edge. Touching runs of one value make no split.
  void RefineByProperties(EdgePos pos, const Interval& window,
                          std::span<const LabelId> labels,
                          std::vector<TimePoint>* boundaries) const {
    boundaries->clear();
    boundaries->push_back(window.start);
    boundaries->push_back(window.end);
    const auto split_at = [&](TimePoint t) {
      if (t > window.start && t < window.end) boundaries->push_back(t);
    };
    // Splits at both ends of each stretch of touching equal-valued runs.
    const auto split_where_changes = [&](const PropRuns& runs) {
      bool open = false;
      TimePoint end = 0;
      PropValue value{};
      runs.ForEachIntersecting(window, [&](const Interval& iv, PropValue v) {
        if (open && end == iv.start && value == v) {
          end = iv.end;
          return;
        }
        if (open) split_at(end);
        split_at(iv.start);
        open = true;
        end = iv.end;
        value = v;
      });
      if (open) split_at(end);
    };
    const PropertyRange props = g_.EdgeProperties(pos);
    if (labels.empty()) {
      for (const auto& [label, runs] : props) split_where_changes(runs);
    } else {
      for (const LabelId label : labels) split_where_changes(props.Find(label));
    }
    std::sort(boundaries->begin(), boundaries->end());
    boundaries->erase(std::unique(boundaries->begin(), boundaries->end()),
                      boundaries->end());
  }

  const TemporalGraph& g_;
  Program& program_;
  IcmOptions options_;
  RecoveryContext recovery_;
  IcmWarmStart<Program>* warm_;  ///< Null outside RunIncremental.
  Driver* driver_ = nullptr;     ///< The running superstep driver.
  IcmResult<Program> result_;
  // One per OS lane; capacities survive supersteps.
  std::vector<WorkerScratch> scratch_;  // lint:allow(vector: amortized scratch)
  bool warm_seeded_ = false;  ///< Superstep 0 runs the warm seed.
  VertexIdx seed_ = 0;        ///< What SeedUnits' span points at.
  int next_superstep_ = 0;    ///< The superstep MasterCompute precedes.
};

}  // namespace graphite

#endif  // GRAPHITE_ICM_ICM_ENGINE_H_
