// Inputs of the end-to-end benchmark: the four resident graphs, the
// protocol requests of each workload, and the append batches of
// ingest-mixed. Everything is drawn from the bench's own copy of the
// graphs (read back from the very text files the server loads), so every
// request is valid by construction and the server should never answer
// NotFound.
#ifndef GRAPHITE_BENCH_E2E_REQUESTS_H_
#define GRAPHITE_BENCH_E2E_REQUESTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"
#include "server/query_service.h"
#include "util/rng.h"
#include "util/status.h"

namespace graphite {
namespace e2e {

/// One resident graph: its registry name, the text file the server
/// preloads, and the bench's copy read back from that file.
struct BenchGraph {
  std::string name;  ///< Registry name (tw, mag, rd, us).
  std::string path;  ///< Text file handed to --preload NAME=@path.
  TemporalGraph graph;
  int64_t load_start_ns = 0;  ///< In-process ReadTextGraphFile call.
  int64_t load_ns = 0;
  std::vector<VertexId> sources;  ///< Vertices with at least one out-edge.
  std::vector<VertexId> hubs;     ///< The 64 highest out-degree vertices.
  VertexId next_vid = 0;          ///< One past the largest vertex id.
  EdgeId next_eid = 0;            ///< One past the largest edge id.
};

/// Graph indices; the order matches kGraphMix.
enum GraphIndex { kTw = 0, kMag = 1, kRd = 2, kUs = 3, kNumGraphs = 4 };

/// Generates the Twitter-, MAG-, Reddit- and USRN-like catalog graphs at
/// scale 1 with their catalog seeds, writes them as text files under
/// `dir`, and reads each back as the bench's copy. The graphs do not
/// depend on the workload seed, so set-up, memory and whole-graph jobs
/// do the same work on every seed; the seed draws the traffic.
Result<std::vector<BenchGraph>> MakeGraphs(const std::string& dir);

/// One data request, kept structured so the same value renders the wire
/// line, the cache-identity key, and the in-process QueryRequest.
struct Query {
  int graph = kTw;
  std::string op;  ///< run | path | reach_at | bfs_at | stats
  std::string alg;
  std::string platform;  ///< Empty = the server default (icm).
  std::string kind;      ///< path kind.
  std::string mode;      ///< Empty = the server default (sequential).
  int64_t source = -1;
  int64_t target = -1;
  int64_t at = -1;
  int64_t workers = 0;
  int64_t max_vertices = 0;
  std::optional<Interval> window;  ///< TimeSlice pre-filter.
  std::optional<Interval> select;  ///< TemporalSelect (intersects).
  bool cache = true;

  bool windowed() const { return window.has_value() || select.has_value(); }
};

/// The protocol line for `q` (no trailing newline). `id` < 0 omits the
/// id, which makes the line the request's identity: two requests with
/// equal keys must receive byte-identical result fragments.
std::string QueryLine(const std::vector<BenchGraph>& graphs, const Query& q,
                      int64_t id, bool want_metrics);

/// The 800-key serve-hot universe, index = popularity rank. Op and graph
/// follow a fixed pattern over ranks (so every seed gets the same traffic
/// shape); sources, targets, instants and windows are seeded draws. 10%
/// of the keys are full-listing runs from high-degree sources.
std::vector<Query> HotUniverse(const std::vector<BenchGraph>& graphs,
                               Rng& rng);

/// Popularity rank in [0, n) with Zipf(1.0) weights.
int64_t ZipfRank(Rng& rng, int64_t n);

/// The `index`-th serve-cold request: graph mix rd 40%, us 40%, tw 10%,
/// mag 10%; 15% windowed `run sssp`, the rest traversal point queries.
/// The mix is exact over every 20 requests (a fixed pattern over `index`)
/// so it does not vary between runs; sources, targets, instants and
/// windows are seeded draws. The caller rejects keys it has already sent
/// and draws again with the same index.
Query ColdQuery(const std::vector<BenchGraph>& graphs, int64_t index,
                Rng& rng);

/// The analytics job list: whole-graph runs with full listings, the cache
/// bypassed, work stealing over 4 workers. At least one job per platform
/// and one of more than 100 supersteps on USRN-like.
std::vector<Query> AnalyticsJobs(const std::vector<BenchGraph>& graphs);

/// One append request of the ingest stream.
struct BatchLine {
  int graph = kRd;
  std::string line;  ///< The `append` protocol line.
  bool compact = false;
};

/// The ingest append stream: batches of 10 vertices and 50 edges (with
/// travel-time/-cost properties on every new edge) alternate between rd
/// and us, and every 5th batch of a graph also compacts it. Each graph's
/// batches come from its own seeded generator, so they do not depend on
/// how the sends interleave with reads.
class BatchStream {
 public:
  BatchStream(const std::vector<BenchGraph>& graphs, uint64_t seed);
  /// The graph the next batch appends to.
  int next_graph() const;
  /// Builds the next batch as an append line with request id `id`.
  BatchLine Next(int64_t id);

 private:
  const std::vector<BenchGraph>& graphs_;
  std::vector<Rng> rngs_;
  std::vector<VertexId> next_vid_;
  std::vector<EdgeId> next_eid_;
  std::vector<int> made_;
  int64_t total_ = 0;
};

/// The request-local graph RenderFragment builds for a windowed request:
/// TemporalSelect, then TimeSlice. nullopt when `req` has no pre-filter.
std::optional<TemporalGraph> Prefilter(const QueryRequest& req,
                                       const TemporalGraph& g);

}  // namespace e2e
}  // namespace graphite

#endif  // GRAPHITE_BENCH_E2E_REQUESTS_H_
