// Unified algorithm runners: one entry point per (algorithm, platform)
// pair, all returning comparable results plus RunMetrics. The equivalence
// tests use the typed results; the benchmark harness uses the
// metrics-only dispatcher (RunForMetrics).
//
// Platform support follows the paper's evaluation matrix (§VII-A):
//   TI algorithms (BFS, WCC, SCC, PR):   ICM, MSB, Chlonos
//   TD algorithms (SSSP, EAT, FAST, LD,
//                  TMST, RH, LCC, TC):   ICM, TGB, GoFFish
#ifndef GRAPHITE_ALGORITHMS_RUNNERS_H_
#define GRAPHITE_ALGORITHMS_RUNNERS_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "algorithms/common.h"
#include "algorithms/gof_programs.h"
#include "algorithms/icm_clustering.h"
#include "algorithms/icm_path.h"
#include "algorithms/icm_ti.h"
#include "baselines/chlonos.h"
#include "baselines/goffish.h"
#include "baselines/msb.h"
#include "baselines/tgb.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace graphite {

enum class Algorithm {
  kBfs, kWcc, kScc, kPr,                       // TI
  kSssp, kEat, kFast, kLd, kTmst, kRh, kLcc, kTc,  // TD
};
enum class Platform { kIcm, kMsb, kChl, kTgb, kGof };

/// All twelve algorithms, TI first (paper order).
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kBfs,  Algorithm::kWcc, Algorithm::kScc,  Algorithm::kPr,
    Algorithm::kSssp, Algorithm::kEat, Algorithm::kFast, Algorithm::kLd,
    Algorithm::kTmst, Algorithm::kRh,  Algorithm::kLcc,  Algorithm::kTc};
/// All five platforms, ICM first.
inline constexpr Platform kAllPlatforms[] = {
    Platform::kIcm, Platform::kMsb, Platform::kChl, Platform::kTgb,
    Platform::kGof};

/// Upper-case display names ("BFS", "ICM").
const char* AlgorithmName(Algorithm a);
const char* PlatformName(Platform p);
/// The name table both the server and the CLI read: a display name in
/// any case ("bfs", "Gof"), else InvalidArgument "unknown algorithm: X" /
/// "unknown platform: X".
Result<Algorithm> ParseAlgorithm(std::string_view name);
Result<Platform> ParsePlatform(std::string_view name);
bool IsTimeDependent(Algorithm a);
/// True iff the paper evaluates this algorithm on this platform.
bool Supports(Platform p, Algorithm a);
/// True iff the algorithm starts from RunConfig::source.
bool NeedsSource(Algorithm a);
/// NotFound "source vertex N not in graph" unless `source` is in g.
Status CheckSource(const TemporalGraph& g, VertexId source);
/// NotFound "target vertex N not in graph" unless `target` is in g.
Status CheckTarget(const TemporalGraph& g, VertexId target);
/// The check every run passes before it starts: InvalidArgument when the
/// platform does not run the algorithm, then CheckSource when the
/// algorithm reads a source, then CheckTarget for LD given a target
/// (>= 0; RunConfig::target's -1 picks the highest vertex id).
Status CheckRun(const TemporalGraph& g, Platform p, Algorithm a,
                VertexId source, VertexId target);

/// Execution knobs shared across platforms.
struct RunConfig : EngineOptions {
  VertexId source = 0;
  /// LD deadline; -1 = graph horizon.
  TimePoint deadline = -1;
  /// LD target; -1 = highest vertex id.
  VertexId target = -1;
  int chlonos_batch_size = 8;
  bool icm_combiner = true;
  bool icm_suppression = true;
  double icm_suppression_threshold = 0.7;

  IcmOptions ToIcm() const {
    IcmOptions o = With<IcmOptions>();
    o.enable_combiner = icm_combiner;
    o.enable_suppression = icm_suppression;
    o.suppression_threshold = icm_suppression_threshold;
    return o;
  }
  VcmOptions ToVcm() const { return With<VcmOptions>(); }
  ChlonosOptions ToChlonos() const {
    ChlonosOptions o = With<ChlonosOptions>();
    o.batch_size = chlonos_batch_size;
    return o;
  }
  GoffishOptions ToGoffish() const { return With<GoffishOptions>(); }

 private:
  // An engine's options with the shared EngineOptions fields copied in.
  template <typename Options>
  Options With() const {
    Options o;
    static_cast<EngineOptions&>(o) = *this;
    return o;
  }
};

/// A prepared dataset: the interval graph plus the derived structures the
/// platforms need. Derived graphs are built lazily and cached. A Workload
/// may be shared by concurrent runs: racing first callers build each
/// derived graph once, and every caller gets the same one.
class Workload {
 public:
  explicit Workload(TemporalGraph g) : g_(std::move(g)) {}

  const TemporalGraph& graph() const { return g_; }
  const TemporalGraph& reversed() const;
  const TemporalGraph& undirected() const;
  /// Travel-time-aware transformed graph (path algorithms).
  const TransformedGraph& transformed() const;
  /// Zero-travel-time transformed graph (clustering algorithms).
  const TransformedGraph& transformed_zero() const;

  /// Releases cached derived structures (frees memory between benches).
  /// No other call may run on this Workload meanwhile.
  void DropDerived();

 private:
  // One derived structure, built by the first caller. The value is never
  // replaced while the Workload is shared, so the returned reference
  // outlives the lock.
  template <typename T>
  class Lazy {
   public:
    template <typename Build>
    const T& Get(Build build) {
      MutexLock lock(mu_);
      if (!value_) value_.emplace(build());
      return *value_;
    }

   private:
    Mutex mu_;
    std::optional<T> value_ GRAPHITE_GUARDED_BY(mu_);
  };
  struct Derived {
    Lazy<TemporalGraph> reversed;
    Lazy<TemporalGraph> undirected;
    Lazy<TransformedGraph> transformed;
    Lazy<TransformedGraph> transformed_zero;
  };

  TemporalGraph g_;
  // Held by pointer so Workload stays movable (Mutex is not).
  std::unique_ptr<Derived> derived_ = std::make_unique<Derived>();
};

/// Runs (algorithm, platform) and returns the metrics; results are
/// discarded. CHECK-fails if the pair is unsupported; callers that take
/// the pair from a user pass CheckRun first.
RunMetrics RunForMetrics(const Workload& w, Platform p, Algorithm a,
                         const RunConfig& config);

// --- Typed runners used by the cross-platform equivalence tests. ---
// Each returns the per-(vertex, time) result in a canonical form plus the
// metrics via *metrics (ignored when null).

TemporalResult<int64_t> RunBfsOn(const Workload& w, Platform p,
                                 const RunConfig& config,
                                 RunMetrics* metrics = nullptr);
TemporalResult<int64_t> RunWccOn(const Workload& w, Platform p,
                                 const RunConfig& config,
                                 RunMetrics* metrics = nullptr);
TemporalResult<int64_t> RunSccOn(const Workload& w, Platform p,
                                 const RunConfig& config,
                                 RunMetrics* metrics = nullptr);
TemporalResult<double> RunPrOn(const Workload& w, Platform p,
                               const RunConfig& config,
                               RunMetrics* metrics = nullptr);
TemporalResult<int64_t> RunSsspOn(const Workload& w, Platform p,
                                  const RunConfig& config,
                                  RunMetrics* metrics = nullptr);
/// Earliest arrival per vertex (kInfCost when unreachable).
std::vector<int64_t> RunEatOn(const Workload& w, Platform p,
                              const RunConfig& config,
                              RunMetrics* metrics = nullptr);
/// Minimum journey duration per vertex (kInfCost when unreachable).
std::vector<int64_t> RunFastOn(const Workload& w, Platform p,
                               const RunConfig& config,
                               RunMetrics* metrics = nullptr);
/// Latest departure per vertex (kNegInf when impossible).
std::vector<int64_t> RunLdOn(const Workload& w, Platform p,
                             const RunConfig& config,
                             RunMetrics* metrics = nullptr);
/// (earliest arrival, tree parent id) per vertex.
std::vector<std::pair<int64_t, int64_t>> RunTmstOn(
    const Workload& w, Platform p, const RunConfig& config,
    RunMetrics* metrics = nullptr);
TemporalResult<uint8_t> RunRhOn(const Workload& w, Platform p,
                                const RunConfig& config,
                                RunMetrics* metrics = nullptr);
TemporalResult<int64_t> RunTcOn(const Workload& w, Platform p,
                                const RunConfig& config,
                                RunMetrics* metrics = nullptr);
TemporalResult<double> RunLccOn(const Workload& w, Platform p,
                                const RunConfig& config,
                                RunMetrics* metrics = nullptr);

}  // namespace graphite

#endif  // GRAPHITE_ALGORITHMS_RUNNERS_H_
