// graphite_server: the always-on temporal query service (ROADMAP
// "serving" item). Wires the pieces of src/server/ together:
//
//   GraphRegistry  — partitioned TemporalGraphs resident across requests
//   ResultCache    — LRU over canonical result fragments
//   QueryService   — request decoding + canonical execution
//   JobScheduler   — bounded admission, per-graph serialization
//
// and speaks a line-delimited JSON protocol over two fronts:
//
//   * TCP (loopback): one JSON object per line in, one per line out.
//     Requests on a connection may be answered out of order (responses
//     carry the request "id"); control ops answer inline, data ops run
//     through the scheduler.
//   * stdio: the same protocol over stdin/stdout for scripting and
//     debugging without a socket.
//
// Example session:
//   > {"id":1,"op":"load","graph":"t","dataset":"twitter","scale":0.1}
//   < {"id": 1, "ok": true, "op": "load", "graph": "t", "epoch": 1, ...}
//   > {"id":2,"op":"run","graph":"t","alg":"bfs","source":0}
//   < {"id": 2, "ok": true, ..., "cached": false, "result": {...}, ...}
#ifndef GRAPHITE_SERVER_SERVER_H_
#define GRAPHITE_SERVER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "server/graph_registry.h"
#include "server/job_scheduler.h"
#include "server/query_service.h"
#include "server/result_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace graphite {

/// Longest request line a TCP connection accepts, newline excluded. A
/// longer line gets one error reply, then the connection closes.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

struct ServerOptions {
  SchedulerOptions scheduler;
  ServiceOptions service;
  size_t cache_entries = 1024;
  size_t cache_bytes = 64ull << 20;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Processes one request line. `respond` receives exactly one response
  /// line per call (no trailing newline): inline for control ops, parse
  /// errors, admission rejections and cache fast-path hits; from a worker
  /// thread for executed data ops. `respond` must be thread-safe.
  void HandleLine(const std::string& line,
                  std::function<void(std::string)> respond);

  /// Generates a catalog dataset (case-insensitive prefix, e.g.
  /// "twitter") and registers it under `name`.
  Status LoadDataset(const std::string& name, const std::string& dataset,
                     double scale);
  /// Loads a text-format graph file and registers it under `name`.
  Status LoadFile(const std::string& name, const std::string& path);

  /// Serves the protocol over an istream/ostream pair until EOF or a
  /// shutdown op; drains in-flight jobs before returning. Returns the
  /// number of requests handled.
  int64_t ServeStream(std::istream& in, std::ostream& out);

  /// Binds a loopback listener; `port` 0 picks an ephemeral port.
  /// Returns the bound port.
  Result<int> ListenTcp(int port);
  /// Accept loop; returns after RequestShutdown() (or a "shutdown" op),
  /// once every connection thread has finished.
  void ServeTcp();
  /// Unblocks ServeTcp and in-progress connection reads. Thread-safe.
  void RequestShutdown();
  bool shutdown_requested() const { return shutdown_.load(); }

  GraphRegistry& registry() { return registry_; }
  ResultCache& cache() { return cache_; }
  QueryService& service() { return service_; }
  JobScheduler& scheduler() { return scheduler_; }

 private:
  std::string HandleControl(const QueryRequest& req);
  std::string LoadResponse(const QueryRequest& req);
  void ConnectionLoop(int fd);

  ServerOptions options_;
  GraphRegistry registry_;
  ResultCache cache_;
  QueryService service_;
  JobScheduler scheduler_;

  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  Mutex conn_mu_;
  std::vector<int> conn_fds_ GRAPHITE_GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ GRAPHITE_GUARDED_BY(conn_mu_);
};

}  // namespace graphite

#endif  // GRAPHITE_SERVER_SERVER_H_
