// The load driver: one graphite_server instance, four loopback
// connections served by one thread, and the log of every request sent.
//
// Responses are matched to requests by id (the server answers out of
// order). Every read's result fragment is checked against the first
// answer to the same request at the same graph state: repeated keys must
// come back byte-identical. Under ingest a read counts as pinned to a
// state only when no append to its graph was sent between its send and
// its reply, so the state it saw is known exactly.
#ifndef GRAPHITE_BENCH_E2E_DRIVER_H_
#define GRAPHITE_BENCH_E2E_DRIVER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client.h"
#include "engine/metrics.h"
#include "requests.h"
#include "util/json.h"
#include "util/rng.h"

namespace graphite {
namespace e2e {

enum class Phase : uint8_t { kWarm, kMain, kAppendLoop, kControl };

/// One request on the wire and what came back.
struct Record {
  enum class Kind : uint8_t { kRead, kAppend, kControl };
  Kind kind = Kind::kRead;
  Phase phase = Phase::kMain;
  int graph = -1;
  int conn = 0;
  bool done = false;
  bool ok = false;
  bool cached = false;
  bool pinned = false;    ///< The graph state the read saw is known.
  bool windowed = false;
  int pin = 0;            ///< Appends acknowledged on `graph` at send.
  int64_t due_ns = 0;     ///< Read: its slot freed; append: scheduled.
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  int64_t bytes = 0;      ///< Response line size.
  int64_t queue_ns = 0;   ///< Envelope "queue_ns".
  int64_t run_ns = 0;     ///< Envelope "run_ns".
  int64_t invalidated = 0;  ///< Append: cache entries the append erased.
  std::string key;        ///< Request identity: its line without id.
  std::optional<RunMetrics> engine;  ///< Traced misses only.
};

/// A distinct request (at a pinned graph state) with its wire fragment,
/// kept for the in-process re-render.
struct Sample {
  std::string key;
  int graph = 0;
  int pin = 0;
  bool windowed = false;
  std::string fragment;
};

/// Reservoir samples of distinct requests: up to `kWindowed` windowed
/// ones (so the pre-filter layer is always sampled when the workload has
/// any) and up to `size` in total.
class Sampler {
 public:
  Sampler(uint64_t seed, size_t size) : rng_(seed), size_(size) {}
  void Offer(Sample s);
  std::vector<Sample> Take();

 private:
  static constexpr size_t kWindowed = 4;
  void Offer(Sample s, std::vector<Sample>* pool, int64_t* seen, size_t cap);

  Rng rng_;
  size_t size_;
  std::vector<Sample> plain_, windowed_;
  int64_t plain_seen_ = 0, windowed_seen_ = 0;
};

class Driver {
 public:
  using NextQuery = std::function<Query()>;

  /// `want_metrics` adds "metrics":true to every data request (the traced
  /// run). `seed` drives the append batches.
  Driver(const std::vector<BenchGraph>& graphs, uint64_t seed,
         bool want_metrics, Sampler* sampler);

  Status Connect(int port);

  /// Sends every key once, with 64 requests outstanding.
  Status Warm(const std::vector<Query>& keys);
  /// The main phase: `clients` (at most 4) reads outstanding, one per
  /// connection, for `seconds`; each connection sends its next read when
  /// the last one's reply arrives. `append_hz` > 0 adds the BatchStream's
  /// appends at that fixed rate beside the reads.
  Status ClosedLoop(double seconds, int clients, const NextQuery& next,
                    double append_hz);
  /// Closed loop of appends only, for `seconds`: the next append of the
  /// BatchStream goes out as soon as its graph's previous one is
  /// acknowledged, so one append is in flight per graph of the stream.
  Status AppendLoop(double seconds);
  /// One client: whole rounds of `jobs`, one job at a time, until
  /// `seconds` have passed.
  Status Rounds(double seconds, const std::vector<Query>& jobs);
  /// A control op such as "metrics"; returns the parsed reply.
  Result<JsonValue> Control(const std::string& op);
  /// Sends "shutdown", closes the connections, and waits for the exit.
  Status Shutdown(ServerProcess* server);

  const std::vector<Record>& records() const { return records_; }
  /// Appends sent, in order.
  const std::vector<BatchLine>& batches() const { return batches_; }
  /// Start (NowNanos clock) of the main phase or the append loop.
  int64_t phase_start(Phase p) const {
    return p == Phase::kAppendLoop ? append_start_ns_ : main_start_ns_;
  }
  /// Replies that were malformed or contradicted an earlier answer.
  int64_t wrong() const { return wrong_; }
  /// Requests that got no reply in time, and the first error reply.
  int64_t timeouts() const { return timeouts_; }
  const std::string& first_error() const { return first_error_; }

 private:
  void OnLine(std::string_view line, int64_t recv_ns);
  void CheckFragment(Record& r, std::string_view fragment);
  Status SendRead(const Query& q, int64_t due_ns, int conn, Phase phase);
  int LeastLoaded();
  /// False while the next append's graph has an unacknowledged append:
  /// appends to one graph are serialized, so each read's graph state is
  /// known.
  bool AppendReady() const;
  Status SendAppend(int64_t due_ns, Phase phase);
  Status PollUntil(int64_t deadline_ns);
  /// Waits for outstanding replies up to 10 s past `phase_end`, then
  /// fails whatever is still missing.
  Status Drain(int64_t phase_end);

  const std::vector<BenchGraph>& graphs_;
  bool want_metrics_;
  Sampler* sampler_;
  LoadClient client_;

  std::vector<Record> records_;
  std::vector<int> outstanding_;
  int next_conn_ = 0;
  std::vector<std::pair<int, int64_t>> freed_;  ///< (conn, reply time).
  struct FirstAnswer {
    std::string fragment;
    int graph;
    int pin;
  };
  /// First fragment per (key, pin); entries of superseded pins are
  /// dropped, since no later read can be pinned to them.
  std::unordered_map<std::string, FirstAnswer> first_answer_;
  std::string control_reply_;
  std::string first_error_;
  int64_t wrong_ = 0;
  int64_t timeouts_ = 0;
  int64_t main_start_ns_ = 0;
  int64_t append_start_ns_ = 0;

  // Append stream state; the counters are per graph.
  BatchStream stream_;
  std::vector<BatchLine> batches_;
  std::vector<int> appends_sent_, appends_acked_;
  std::vector<bool> append_pending_;
};

}  // namespace e2e
}  // namespace graphite

#endif  // GRAPHITE_BENCH_E2E_DRIVER_H_
