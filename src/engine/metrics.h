// Runtime metrics collected by every engine (ICM, VCM, GoFFish, Chlonos).
// Mirrors the paper's measurement methodology (§VII-A4): makespan from the
// first user superstep to the last, split into compute+ time (user-logic
// calls with interleaved messaging) and exclusive messaging time, plus
// barrier time; and the model-intrinsic counters — user compute calls,
// scatter calls, messages sent and message bytes — that §VII-B1/B2
// correlate with time.
#ifndef GRAPHITE_ENGINE_METRICS_H_
#define GRAPHITE_ENGINE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace graphite {

class JsonWriter;

/// Per-superstep, per-worker measurements.
struct SuperstepMetrics {
  std::vector<int64_t> worker_compute_ns;  ///< Compute-phase time per worker.
  std::vector<int64_t> worker_in_bytes;    ///< Bytes received per worker.
  std::vector<int64_t> worker_compute_calls;  ///< User-logic calls per worker.
  /// OS-thread-level phase timings (lane 0 = the coordinating thread).
  /// Logical-worker vectors above are routing/model metrics; these measure
  /// the physical runtime (see SuperstepRuntime in engine/parallel.h).
  std::vector<int64_t> thread_compute_ns;
  std::vector<int64_t> thread_messaging_ns;
  /// Chunks executed by a non-home OS thread (work-stealing mode only).
  int64_t steals = 0;
  int64_t messaging_ns = 0;  ///< Exclusive message delivery time.
  int64_t barrier_ns = 0;    ///< Synchronization overhead.
  int64_t compute_calls = 0;
  int64_t scatter_calls = 0;
  int64_t messages = 0;
  int64_t message_bytes = 0;
  int64_t checkpoint_ns = 0;     ///< Time writing a barrier checkpoint.
  int64_t checkpoint_bytes = 0;  ///< Committed envelope size (0 = none).
  /// Units mailed this superstep (= next superstep's activation set);
  /// invariant across scheduling and frontier density.
  int64_t frontier_units = 0;
  /// Workers whose mailed set exceeded the density threshold and fell
  /// back to the dense activation scan (varies with frontier_density).
  int64_t frontier_dense_workers = 0;
  /// Warp kernel counters (ICM only): non-empty slices considered and
  /// slices coalesced by the maximality merge (Property 4 hits).
  int64_t warp_slices = 0;
  int64_t warp_merge_hits = 0;
};

/// Aggregate metrics for one algorithm run.
struct RunMetrics {
  int64_t supersteps = 0;
  int64_t compute_calls = 0;
  int64_t scatter_calls = 0;
  int64_t messages = 0;
  int64_t message_bytes = 0;
  int64_t steals = 0;        ///< Total stolen chunks (work-stealing mode).
  int64_t compute_ns = 0;    ///< Total compute+ time.
  int64_t messaging_ns = 0;  ///< Total exclusive messaging time.
  int64_t barrier_ns = 0;
  int64_t makespan_ns = 0;   ///< Wall clock, first to last superstep.
  int64_t checkpoints = 0;       ///< Barrier checkpoints committed.
  int64_t checkpoint_ns = 0;     ///< Total checkpoint write time.
  int64_t checkpoint_bytes = 0;  ///< Total committed envelope bytes.
  int64_t frontier_units = 0;    ///< Total mailed units across supersteps.
  int64_t frontier_dense_workers = 0;  ///< Dense-scan fallbacks taken.
  int64_t warp_slices = 0;       ///< Warp slices considered (ICM).
  int64_t warp_merge_hits = 0;   ///< Warp maximality-merge hits (ICM).
  /// True when a FaultInjector killed this run mid-superstep; the result
  /// models a crashed process and must be discarded (see ckpt/).
  bool interrupted = false;
  /// Superstep the run resumed at, or -1 for a cold start. Counters above
  /// are cumulative across the resume (carried from the checkpoint), so an
  /// interrupted-and-resumed run reports the same totals as an
  /// uninterrupted one; per_superstep only covers post-resume supersteps.
  int resumed_from = -1;
  std::vector<SuperstepMetrics> per_superstep;

  /// Folds a finished superstep into the totals.
  void Accumulate(const SuperstepMetrics& ss);

  /// Folds another run into this one (multi-phase drivers like SCC, and
  /// the per-snapshot baselines, report one merged RunMetrics).
  void Merge(const RunMetrics& other);

  /// Parameters of the modeled commodity cluster (the paper's testbed:
  /// 10 nodes, 1 GbE, Giraph over JVM). Every platform is charged by the
  /// same model, so relative comparisons depend only on the per-model
  /// counts and compute times. Defaults approximate the paper's cluster
  /// scaled to our ~1000x smaller datasets (barrier: Giraph's ~40 ms
  /// scaled to 40 us; per-message: ~200 ns of serialization/transport/GC
  /// amortized per Giraph message).
  struct ClusterModel {
    double network_bytes_per_sec = 117e6;  ///< ~1 GbE effective.
    int64_t per_message_ns = 200;          ///< Per-message overhead.
    int64_t barrier_ns = 40000;            ///< Per-superstep barrier.
    int num_workers = 8;                   ///< Messages spread over senders.
    /// When > 0, compute is charged as max-worker-calls x per_call_ns
    /// instead of the measured wall time — removing single-host cache
    /// artifacts from cross-size comparisons (used by Fig. 7).
    int64_t per_call_ns = 0;
  };

  /// Critical-path makespan under the cluster model: per superstep, the
  /// slowest worker's compute time, plus the network model (bytes into the
  /// busiest worker at link speed + per-message overhead spread across
  /// workers), plus the barrier cost. Used by the cross-platform
  /// comparisons (Table 2, Fig. 5) and the weak-scaling experiment
  /// (Fig. 7) — all logical workers share one physical host here, so wall
  /// clock alone cannot express cluster behavior (see DESIGN.md).
  int64_t SimulatedMakespanNs(const ClusterModel& model) const;
  /// Same, with the default ClusterModel.
  int64_t SimulatedMakespanNs() const;

  std::string ToString() const;

  /// Emits the aggregate counters as a JSON object in value position
  /// (timing fields in ns). Used by the query service's per-job metrics
  /// and machine-readable tooling.
  void AppendJson(JsonWriter* w) const;
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_METRICS_H_
