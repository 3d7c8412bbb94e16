// Request model and execution core of the temporal query service.
//
// The service answers the Granite-style workload (PAPERS.md: many small
// temporal path/reachability queries compiled onto an ICM runtime) over
// graphs kept resident in a GraphRegistry:
//
//   run      — any of the twelve (algorithm, platform) runs from
//              algorithms/runners, optionally over a TimeSlice window or
//              a TemporalSelect pre-filter (src/query operators).
//   path     — single-pair temporal path query (EAT / SSSP / FAST / LD /
//              reachability via algorithms/icm_path) reporting the
//              target's value.
//   reach_at — point-in-time reachability: the set of vertices reachable
//              from the source at instant T ("state of the graph at T").
//   bfs_at   — BFS levels sampled at instant T.
//   stats    — entity counts and optional edge-property aggregation.
//
// Every data op renders a *canonical result fragment*: a deterministic
// JSON object independent of scheduling mode, thread count and queue
// interleaving (the runtime determinism matrix pins the underlying
// result equality). The fragment is what the ResultCache stores and what
// the concurrency tests compare byte-for-byte against standalone runs;
// the per-request envelope (id, queue wait, run latency, cached flag) is
// assembled around it on every request.
#ifndef GRAPHITE_SERVER_QUERY_SERVICE_H_
#define GRAPHITE_SERVER_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "algorithms/runners.h"
#include "server/graph_registry.h"
#include "server/result_cache.h"
#include "temporal/interval.h"
#include "util/json.h"
#include "util/status.h"

namespace graphite {

/// Most logical workers a request's "workers" (or the server's --workers
/// default) may name. A run builds a [chunk][destination] wire matrix of
/// at least workers^2 rows, so an unbounded count stalls its scheduler
/// lane; the paper's clusters have at most 10 machines.
inline constexpr int kMaxRequestWorkers = 64;

/// A decoded protocol request (one JSON object per line on the wire).
struct QueryRequest {
  int64_t id = -1;          ///< Echoed in the response.
  std::string op;           ///< run | path | reach_at | bfs_at | stats |
                            ///< ping | load | append | drop | list |
                            ///< metrics | shutdown (control ops handled by
                            ///< Server).
  std::string graph;        ///< Registry name (data ops + load/drop).

  // run / path parameters.
  std::string alg;          ///< run: bfs wcc scc pr sssp eat fast ld tmst
                            ///<      rh lcc tc
  std::string platform = "icm";  ///< run: icm msb chl tgb gof
  std::string kind;         ///< path: eat | sssp | fast | ld | reach
  int64_t source = 0;
  int64_t target = -1;
  int64_t deadline = -1;    ///< LD deadline; -1 = graph horizon.
  int64_t at = -1;          ///< reach_at / bfs_at instant.

  // Query-layer pre-filters (applied before the run, in this order).
  std::optional<Interval> select_window;  ///< TemporalSelect window.
  std::string select_pred;  ///< intersects | contained_in | contains.
  std::optional<Interval> window;         ///< TimeSlice window.

  // stats parameters.
  std::string label;        ///< Edge property to aggregate (optional).

  // Execution knobs (these do NOT affect the result fragment: the
  // determinism matrix pins result equality across modes, so they are
  // excluded from the cache key).
  int workers = 0;          ///< Logical workers; 0 = service default.
  std::string mode;         ///< "" | sequential | stealing.
  bool use_cache = true;
  bool want_metrics = false;  ///< Include full RunMetrics in the envelope.
  int64_t max_vertices = 0;   ///< Cap listed vertices; 0 = all. Part of
                              ///< the cache key (it changes the fragment).

  // load parameters.
  std::string dataset;      ///< Generator catalog name (e.g. "twitter").
  double scale = 1.0;
  std::string file;         ///< Text-format graph file path.

  // append parameters (control op; see DESIGN.md §4l). shared_ptr keeps
  // QueryRequest cheap to copy through the scheduler queue.
  std::shared_ptr<EdgeBatch> batch;
  bool compact_after = false;  ///< Fold the delta into a new sealed base.
};

/// Defaults applied to requests that leave execution knobs unset.
struct ServiceOptions {
  int default_workers = 4;
  /// Engine threading default for requests with no "mode" field. Small
  /// queries are usually fastest sequential; the scheduler provides the
  /// cross-request parallelism.
  bool default_use_threads = false;
  RuntimeOptions runtime;
};

/// Per-execution bookkeeping surfaced in the response envelope and the
/// scheduler's job metrics.
struct ExecStats {
  bool cached = false;
  int64_t run_ns = 0;
  int64_t supersteps = 0;
};

class QueryService {
 public:
  QueryService(GraphRegistry* registry, ResultCache* cache,
               ServiceOptions options = {});

  /// Decodes one request line. Unknown fields are ignored; a missing or
  /// non-string "op" is an error (op semantics are checked at execution).
  static Result<QueryRequest> Parse(const std::string& line);

  /// True for ops that run a graph job (admitted through the scheduler);
  /// false for control ops the Server answers inline.
  static bool IsDataOp(const std::string& op);

  /// Cache fast path: the complete response when `req` is cacheable and
  /// present, else nullopt. Never runs supersteps.
  std::optional<std::string> TryServeFromCache(const QueryRequest& req,
                                               ExecStats* stats = nullptr);

  /// Executes a data op end to end (cache lookup, run, cache fill) and
  /// returns the response line. Errors become {"ok": false, ...} lines.
  std::string Execute(const QueryRequest& req, int64_t queue_wait_ns = 0,
                      ExecStats* stats = nullptr);

  /// Execute against an entry the caller already pinned (Execute pins the
  /// resident one); non-data ops are rejected. The fragment is cached only
  /// if `entry` is still the resident version when the run ends: a job
  /// that outlives an append or drop would otherwise insert a key under a
  /// superseded epoch that no request can hit.
  std::string ExecuteOn(const QueryRequest& req, const ResidentGraph& entry,
                        int64_t queue_wait_ns = 0, ExecStats* stats = nullptr);

  /// Renders the canonical result fragment for `req` against `base` —
  /// the exact bytes a server response carries under "result". Exposed
  /// so tests can compute the standalone expectation, and so the cache
  /// stores precisely this. Pre-filters (select/window) are applied here.
  static Result<std::string> RenderFragment(const QueryRequest& req,
                                            const Workload& base,
                                            RunMetrics* metrics = nullptr);

  /// RenderFragment with explicit execution defaults (the instance path).
  static Result<std::string> RenderFragmentWith(const QueryRequest& req,
                                                const Workload& base,
                                                const ServiceOptions& options,
                                                RunMetrics* metrics);

  /// Canonical cache key; starts with GraphPrefix(name) so a drop/reload
  /// can invalidate by prefix.
  static std::string CacheKey(const QueryRequest& req,
                              const ResidentGraph& g);
  static std::string GraphPrefix(const std::string& graph_name);

  static std::string ErrorResponse(int64_t id, const std::string& op,
                                   const Status& status);

  GraphRegistry* registry() const { return registry_; }
  ResultCache* cache() const { return cache_; }
  const ServiceOptions& options() const { return options_; }

 private:
  std::string Envelope(const QueryRequest& req, const std::string& fragment,
                       const ExecStats& stats, int64_t queue_wait_ns,
                       const RunMetrics* metrics) const;

  GraphRegistry* registry_;
  ResultCache* cache_;
  ServiceOptions options_;
};

}  // namespace graphite

#endif  // GRAPHITE_SERVER_QUERY_SERVICE_H_
