// Streaming ingestion on a LIVE graph: a feed of updates is batched by
// the UpdateBatcher, appended to a sealed-base + delta-segment
// TemporalGraph without rebuilding it, and after every append the ICM
// reachability analytic is re-run *incrementally* — warm-started from the
// previous fixed point, re-activating only the vertices the new edges
// touch. A full recompute runs alongside each window to show the states
// agree while the incremental run does a fraction of the work (the
// paper's §VIII streaming + querying future work, end to end).
//
// The final section adds fault tolerance on the moving head: an
// incremental run checkpoints at superstep barriers, is killed mid-run by
// an injected fault, and resumes from its latest snapshot — which records
// the graph head (base epoch + delta watermark) it was taken against, so
// a snapshot from before an append can never leak into a run after one.
//
//   $ ./streaming_ingest [num-accounts] [num-events]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>
#include <vector>

#include "algorithms/icm_path.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "icm/icm_engine.h"
#include "query/temporal_query.h"
#include "stream/update_stream.h"

namespace {
using namespace graphite;  // Example code; the library never does this.

// Accounts reachable from account 0 in a finished reachability run.
int64_t CountReached(const TemporalGraph& g,
                     const IcmResult<IcmReach>& result) {
  int64_t reached = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : result.states[v].entries()) {
      if (e.value == 1) {
        ++reached;
        break;
      }
    }
  }
  return reached;
}

}  // namespace

int main(int argc, char** argv) {
  const int accounts = argc > 1 ? std::atoi(argv[1]) : 300;
  const int events = argc > 2 ? std::atoi(argv[2]) : 3000;
  const TimePoint horizon = 24;

  const auto feed = SyntheticUpdateStream(2026, accounts, events, horizon);
  std::printf("Feed: %zu events over %lld ticks for %d accounts\n\n",
              feed.size(), static_cast<long long>(horizon), accounts);

  // Bootstrap: flush the first third of the feed at the horizon, close
  // its open-ended accounts there, and append it to an empty graph whose
  // Compact() seals it into the base. Everything after it arrives through
  // Append on this same object.
  UpdateBatcher batcher;
  size_t cursor = 0;
  const TimePoint boot_time = horizon / 3;
  while (cursor < feed.size() && feed[cursor].time <= boot_time) {
    GRAPHITE_CHECK(batcher.Push(feed[cursor]).ok());
    ++cursor;
  }
  auto boot = batcher.FlushAll(horizon);
  GRAPHITE_CHECK(boot.ok());
  for (EdgeBatch::NewVertex& v : boot->vertices) v.interval.end = horizon;
  TemporalGraph g;
  GRAPHITE_CHECK(g.Append(*boot).ok());
  g.Compact();
  std::printf("Sealed base at t=%lld: %zu vertices / %zu edges "
              "(head epoch %llu)\n\n",
              static_cast<long long>(boot_time), g.num_vertices(),
              g.num_edges(),
              static_cast<unsigned long long>(g.head().base_epoch));

  // Live phase: drain the batcher at three later points in the feed.
  // DrainClosed hands back only entities whose final lifespan is known
  // (new accounts, transfers that have ended); FlushAll clips whatever is
  // still open at the horizon. Each batch lands via Append — no rebuild —
  // and the reachability analytic restarts only from what changed.
  AppendReceipt receipt;
  IcmReach boot_program(g, 0);
  auto result = IcmEngine<IcmReach>::Run(g, boot_program);
  std::printf("Bootstrap analytic: account 0 reaches %lld accounts "
              "(%lld compute calls)\n\n",
              static_cast<long long>(CountReached(g, result)),
              static_cast<long long>(result.metrics.compute_calls));

  size_t skipped = 0;
  int64_t incremental_calls = 0;
  int64_t full_calls = 0;
  for (TimePoint drain_time : {horizon / 2, 3 * horizon / 4, horizon}) {
    while (cursor < feed.size() && feed[cursor].time < drain_time) {
      // The batcher speaks the append dialect: adds, and removals of
      // edges it still holds. Removals of edges already sealed into the
      // base can't be expressed as an append (sealed lifespans are
      // final), so the demo counts and skips them.
      const GraphUpdate& u = feed[cursor];
      ++cursor;
      const Status pushed = batcher.Push(u);
      if (!pushed.ok() && u.kind == GraphUpdate::Kind::kRemoveEdge) {
        ++skipped;
        continue;
      }
      GRAPHITE_CHECK(pushed.ok());
    }
    EdgeBatch batch;
    if (drain_time >= horizon) {
      auto flushed = batcher.FlushAll(horizon);
      GRAPHITE_CHECK(flushed.ok());
      batch = std::move(*flushed);
    } else {
      batch = batcher.DrainClosed();
    }
    if (batch.empty()) continue;
    const Status s = g.Append(batch, &receipt);
    GRAPHITE_CHECK(s.ok());
    std::printf("--- drain t=%lld: +%zu vertices +%zu edges "
                "(delta watermark %llu, %zu delta edges) ---\n",
                static_cast<long long>(drain_time), batch.vertices.size(),
                batch.edges.size(),
                static_cast<unsigned long long>(g.head().delta_watermark),
                g.num_delta_edges());

    // Temporal queries see one merged view of base + delta.
    const TemporalHistogram h = CountOverTime(g);
    const PropertyStats cost =
        AggregateEdgeProperty(g, "travel-cost", Interval(0, horizon));
    std::printf("  alive edges at t=%lld: %lld   transfer fees: "
                "min %lld max %lld mean %.2f\n",
                static_cast<long long>(drain_time - 1),
                static_cast<long long>(
                    h.edges[static_cast<size_t>(drain_time - 1)]),
                static_cast<long long>(cost.min),
                static_cast<long long>(cost.max), cost.mean);

    // Incremental recompute: warm-start from the previous fixed point,
    // re-activating only the append receipt's touched sources and fresh
    // vertices. A full recompute verifies the fixed point is identical.
    IcmWarmStart<IcmReach> warm;
    warm.states = std::move(result.states);
    warm.receipt = std::exchange(receipt, AppendReceipt{});
    IcmReach inc_program(g, 0);
    result = IcmEngine<IcmReach>::RunIncremental(g, inc_program,
                                                 std::move(warm));
    IcmReach full_program(g, 0);
    const auto full = IcmEngine<IcmReach>::Run(g, full_program);
    incremental_calls += result.metrics.compute_calls;
    full_calls += full.metrics.compute_calls;
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      GRAPHITE_CHECK(result.states[v] == full.states[v]);
    }
    std::printf("  account 0 reaches %lld accounts "
                "(incremental: %lld compute calls vs %lld full — states "
                "identical)\n\n",
                static_cast<long long>(CountReached(g, result)),
                static_cast<long long>(result.metrics.compute_calls),
                static_cast<long long>(full.metrics.compute_calls));
  }
  std::printf("Ingest totals: %lld incremental vs %lld full compute calls "
              "(%.1f%% of the work), %zu non-append events skipped\n\n",
              static_cast<long long>(incremental_calls),
              static_cast<long long>(full_calls),
              full_calls > 0 ? 100.0 * static_cast<double>(incremental_calls) /
                                   static_cast<double>(full_calls)
                             : 0.0,
              skipped);

  // Compaction folds the delta segment into a new sealed base: same
  // logical graph, fresh epoch, zero delta overhead for later appends.
  const size_t delta_before = g.num_delta_edges();
  g.Compact();
  std::printf("Compacted %zu delta edges into base epoch %llu "
              "(watermark reset to %llu)\n\n",
              delta_before,
              static_cast<unsigned long long>(g.head().base_epoch),
              static_cast<unsigned long long>(g.head().delta_watermark));

  // --- Fault tolerance on the moving head: kill + resume. ---
  // One more append arrives; the incremental run over it checkpoints at
  // every superstep barrier, is killed mid-run, and resumes from its
  // latest snapshot. Frames record the head they were taken against, so
  // only snapshots of THIS epoch+watermark are eligible.
  EdgeBatch late;
  const VertexId fresh_id = 1u << 20;  // Well clear of the account ids.
  late.vertices.push_back({fresh_id, Interval(0, horizon)});
  late.edges.push_back({1u << 20, 0, fresh_id, Interval(1, horizon - 1)});
  late.props.push_back({1u << 20, std::string(kTravelCostLabel),
                        Interval(1, horizon - 1), 3});
  AppendReceipt late_receipt;
  GRAPHITE_CHECK(g.Append(late, &late_receipt).ok());

  const std::string snap_dir = "streaming-ingest-snapshots";
  IcmOptions options;
  options.num_workers = 4;
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  IcmWarmStart<IcmReach> clean_warm;
  clean_warm.states = result.states;
  clean_warm.receipt = late_receipt;
  IcmReach clean_program(g, 0);
  const auto clean = IcmEngine<IcmReach>::RunIncremental(
      g, clean_program, std::move(clean_warm), options);

  CheckpointStore store(snap_dir, /*retain=*/2);
  FaultInjector fault;
  fault.ScheduleKill(/*superstep=*/1, /*worker=*/0);
  RecoveryContext crash;
  crash.store = &store;
  crash.fault = &fault;
  IcmWarmStart<IcmReach> doomed_warm;
  doomed_warm.states = result.states;
  doomed_warm.receipt = late_receipt;
  IcmReach doomed_program(g, 0);
  const auto doomed = IcmEngine<IcmReach>::RunIncremental(
      g, doomed_program, std::move(doomed_warm), options, crash);
  std::printf("Fault injection: killed at superstep 1 (interrupted=%d, "
              "%zu snapshot(s) on disk, head %llu/%llu in every frame)\n",
              doomed.metrics.interrupted ? 1 : 0,
              store.ListCheckpoints().size(),
              static_cast<unsigned long long>(g.head().base_epoch),
              static_cast<unsigned long long>(g.head().delta_watermark));

  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  IcmWarmStart<IcmReach> resumed_warm;
  resumed_warm.states = result.states;
  resumed_warm.receipt = late_receipt;
  IcmReach resumed_program(g, 0);
  const auto resumed = IcmEngine<IcmReach>::RunIncremental(
      g, resumed_program, std::move(resumed_warm), options, resume);
  std::printf("Resumed from superstep %d: %lld reached, %lld messages "
              "(clean incremental run: %lld reached, %lld messages)\n",
              resumed.metrics.resumed_from,
              static_cast<long long>(CountReached(g, resumed)),
              static_cast<long long>(resumed.metrics.messages),
              static_cast<long long>(CountReached(g, clean)),
              static_cast<long long>(clean.metrics.messages));
  GRAPHITE_CHECK(resumed.metrics.messages == clean.metrics.messages);

  std::error_code ec;
  std::filesystem::remove_all(snap_dir, ec);
  return 0;
}
