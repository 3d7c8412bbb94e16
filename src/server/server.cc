#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>

#include "gen/generators.h"
#include "io/text_format.h"

namespace graphite {

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Per-connection response plumbing shared between the read loop and the
/// scheduler workers: serializes writes and counts in-flight responses so
/// the connection is not closed under an async data-op response.
struct ConnState {
  explicit ConnState(int fd) : fd(fd) {}
  Mutex mu;
  CondVar cv;
  int fd;  // Immutable; writes through it serialize under mu.
  int64_t pending GRAPHITE_GUARDED_BY(mu) = 0;
};

/// A control op's success reply, opened with the fields every one starts
/// with; the caller adds its own and closes the object.
JsonWriter OkReply(const QueryRequest& req) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(req.id);
  w.Key("ok").Bool(true);
  w.Key("op").String(req.op);
  return w;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.cache_entries, options.cache_bytes),
      service_(&registry_, &cache_, options.service),
      scheduler_(&service_, options.scheduler) {}

Server::~Server() {
  scheduler_.Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::LoadDataset(const std::string& name,
                           const std::string& dataset, double scale) {
  if (name.empty()) {
    return Status::InvalidArgument("load needs a graph name");
  }
  if (!std::isfinite(scale) || scale <= 0) {
    return Status::InvalidArgument("load scale must be a finite number > 0");
  }
  const auto spec = FindDataset(dataset, scale);
  if (!spec) {
    return Status::NotFound("unknown dataset: \"" + dataset +
                            "\" (want a catalog prefix, e.g. twitter)");
  }
  // Publish, then invalidate: the replaced entry is already marked
  // superseded, so no job still running on it can refill the cache.
  registry_.Add(name, Generate(spec->options));
  cache_.ErasePrefix(QueryService::GraphPrefix(name));
  return Status::OK();
}

Status Server::LoadFile(const std::string& name, const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("load needs a graph name");
  }
  auto g = ReadTextGraphFile(path);
  GRAPHITE_RETURN_NOT_OK(g.status());
  registry_.Add(name, std::move(*g));
  cache_.ErasePrefix(QueryService::GraphPrefix(name));
  return Status::OK();
}

std::vector<Status> Server::Preload(const std::vector<PreloadSpec>& specs) {
  std::vector<Status> status(specs.size());
  std::vector<std::thread> loaders;
  loaders.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    loaders.emplace_back([this, &spec = specs[i], &out = status[i]] {
      if (spec.source.rfind('@', 0) == 0) {
        out = LoadFile(spec.name, spec.source.substr(1));
      } else {
        out = LoadDataset(spec.name,
                          spec.source.substr(0, spec.source.rfind(':')),
                          spec.scale);
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  return status;
}

std::string Server::LoadResponse(const QueryRequest& req) {
  Status s;
  if (!req.file.empty()) {
    s = LoadFile(req.graph, req.file);
  } else if (!req.dataset.empty()) {
    s = LoadDataset(req.graph, req.dataset, req.scale);
  } else {
    s = Status::InvalidArgument("load needs \"dataset\" or \"file\"");
  }
  if (!s.ok()) return QueryService::ErrorResponse(req.id, req.op, s);
  auto entry = registry_.Get(req.graph);
  GRAPHITE_CHECK(entry != nullptr);
  const TemporalGraph& g = entry->workload.graph();
  JsonWriter w = OkReply(req);
  w.Key("graph").String(req.graph);
  w.Key("epoch").UInt(entry->epoch);
  w.Key("vertices").UInt(g.num_vertices());
  w.Key("edges").UInt(g.num_edges());
  w.Key("horizon").Int(g.horizon());
  w.EndObject();
  return w.Take();
}

std::string Server::HandleControl(const QueryRequest& req) {
  if (req.op == "ping") {
    JsonWriter w = OkReply(req);
    w.EndObject();
    return w.Take();
  }
  if (req.op == "load") return LoadResponse(req);
  if (req.op == "append") {
    if (req.batch == nullptr || req.batch->empty()) {
      return QueryService::ErrorResponse(
          req.id, req.op,
          Status::InvalidArgument(
              "append needs \"vertices\", \"edges\" or \"props\""));
    }
    auto info = registry_.Append(req.graph, *req.batch, req.compact_after);
    if (!info.ok()) {
      return QueryService::ErrorResponse(req.id, req.op, info.status());
    }
    // The new registry epoch already keys fresh fragments away from the
    // old ones; erasing the prefix reclaims the now-unreachable entries.
    const int64_t invalidated =
        cache_.ErasePrefix(QueryService::GraphPrefix(req.graph));
    JsonWriter w = OkReply(req);
    w.Key("graph").String(req.graph);
    w.Key("epoch").UInt(info->epoch);
    w.Key("base_epoch").UInt(info->head.base_epoch);
    w.Key("delta_watermark").UInt(info->head.delta_watermark);
    w.Key("vertices").UInt(info->vertices);
    w.Key("edges").UInt(info->edges);
    w.Key("horizon").Int(info->horizon);
    w.Key("invalidated").Int(invalidated);
    w.EndObject();
    return w.Take();
  }
  if (req.op == "drop") {
    const bool existed = registry_.Drop(req.graph);
    const int64_t invalidated =
        cache_.ErasePrefix(QueryService::GraphPrefix(req.graph));
    if (!existed) {
      return QueryService::ErrorResponse(
          req.id, req.op,
          Status::NotFound("graph not resident: \"" + req.graph + "\""));
    }
    JsonWriter w = OkReply(req);
    w.Key("graph").String(req.graph);
    w.Key("invalidated").Int(invalidated);
    w.EndObject();
    return w.Take();
  }
  if (req.op == "list") {
    JsonWriter w = OkReply(req);
    w.Key("graphs").BeginArray();
    for (const ResidentGraphInfo& info : registry_.List()) {
      w.BeginObject();
      w.Key("name").String(info.name);
      w.Key("epoch").UInt(info.epoch);
      w.Key("base_epoch").UInt(info.head.base_epoch);
      w.Key("delta_watermark").UInt(info.head.delta_watermark);
      w.Key("vertices").UInt(info.vertices);
      w.Key("edges").UInt(info.edges);
      w.Key("horizon").Int(info.horizon);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.Take();
  }
  if (req.op == "metrics") {
    const SchedulerStats sched = scheduler_.stats();
    const ResultCacheStats cache = cache_.stats();
    JsonWriter w = OkReply(req);
    w.Key("scheduler").BeginObject();
    w.Key("submitted").Int(sched.submitted);
    w.Key("rejected").Int(sched.rejected);
    w.Key("completed").Int(sched.completed);
    w.Key("fastpath_hits").Int(sched.fastpath_hits);
    w.Key("queue_wait_ns").Int(sched.queue_wait_ns);
    w.Key("run_ns").Int(sched.run_ns);
    w.Key("supersteps").Int(sched.supersteps);
    w.Key("queued").UInt(sched.queued);
    w.Key("running").UInt(sched.running);
    w.EndObject();
    w.Key("cache").BeginObject();
    w.Key("hits").Int(cache.hits);
    w.Key("misses").Int(cache.misses);
    w.Key("evictions").Int(cache.evictions);
    w.Key("inserts").Int(cache.inserts);
    w.Key("entries").Int(cache.entries);
    w.Key("bytes").Int(cache.bytes);
    const int64_t lookups = cache.hits + cache.misses;
    w.Key("hit_rate").Double(
        lookups == 0 ? 0.0
                     : static_cast<double>(cache.hits) /
                           static_cast<double>(lookups));
    w.EndObject();
    w.Key("graphs").UInt(registry_.size());
    w.EndObject();
    return w.Take();
  }
  if (req.op == "shutdown") {
    RequestShutdown();
    JsonWriter w = OkReply(req);
    w.EndObject();
    return w.Take();
  }
  return QueryService::ErrorResponse(
      req.id, req.op, Status::InvalidArgument("unknown op: " + req.op));
}

void Server::HandleLine(const std::string& line,
                        std::function<void(std::string)> respond) {
  auto req = QueryService::Parse(line);
  if (!req.ok()) {
    // Echo the "id" of an object whose other fields are bad, so a client
    // pipelining requests can tell which one failed.
    auto doc = ParseJson(line);
    const int64_t id =
        doc.ok() && doc->is_object() ? doc->GetInt("id", -1) : -1;
    respond(QueryService::ErrorResponse(id, "", req.status()));
    return;
  }
  if (QueryService::IsDataOp(req->op)) {
    const int64_t id = req->id;
    const std::string op = req->op;
    const Status s = scheduler_.Submit(std::move(*req), respond);
    if (!s.ok()) respond(QueryService::ErrorResponse(id, op, s));
    return;
  }
  respond(HandleControl(*req));
}

int64_t Server::ServeStream(std::istream& in, std::ostream& out) {
  struct StreamState {
    Mutex mu;
    CondVar cv;
    std::ostream* out;  // Immutable; writes through it serialize under mu.
    int64_t pending GRAPHITE_GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<StreamState>();
  state->out = &out;
  auto respond = [state](std::string line) {
    MutexLock lock(state->mu);
    (*state->out) << line << '\n';
    state->out->flush();
    --state->pending;
    state->cv.NotifyAll();
  };
  int64_t handled = 0;
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++handled;
    {
      MutexLock lock(state->mu);
      ++state->pending;
    }
    HandleLine(line, respond);
  }
  scheduler_.Drain();
  MutexLock lock(state->mu);
  while (state->pending != 0) state->cv.Wait(state->mu);
  return handled;
}

Result<int> Server::ListenTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return ErrnoError("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return ErrnoError("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return ErrnoError("getsockname");
  }
  listen_fd_ = fd;
  return static_cast<int>(ntohs(addr.sin_port));
}

void Server::ServeTcp() {
  GRAPHITE_CHECK(listen_fd_ >= 0);
  for (;;) {
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR && !shutdown_requested()) continue;
      break;
    }
    if (shutdown_requested()) {
      ::close(cfd);
      break;
    }
    // Join the threads of connections closed since the last accept
    // before starting this one's, which then reuses a released stack.
    std::vector<std::thread> finished;
    {
      MutexLock lock(conn_mu_);
      for (const std::thread::id id : finished_conns_) {
        auto it = std::find_if(
            conn_threads_.begin(), conn_threads_.end(),
            [id](const std::thread& t) { return t.get_id() == id; });
        finished.push_back(std::move(*it));
        conn_threads_.erase(it);
      }
      finished_conns_.clear();
    }
    for (std::thread& t : finished) t.join();
    MutexLock lock(conn_mu_);
    conn_fds_.push_back(cfd);
    conn_threads_.emplace_back([this, cfd] { ConnectionLoop(cfd); });
  }
  std::vector<std::thread> threads;
  {
    MutexLock lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  scheduler_.Drain();
}

void Server::ConnectionLoop(int fd) {
  auto state = std::make_shared<ConnState>(fd);
  auto respond = [state](std::string line) {
    line.push_back('\n');
    MutexLock lock(state->mu);
    WriteAll(state->fd, line);
    --state->pending;
    state->cv.NotifyAll();
  };
  // Between reads `buffer` holds only the unfinished last line, and the
  // next search starts past it (`scanned`), so each byte is searched once.
  std::string buffer;
  size_t scanned = 0;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    bool too_long = false;
    size_t start = 0;
    for (size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxRequestLineBytes) {
        too_long = true;
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      {
        MutexLock lock(state->mu);
        ++state->pending;
      }
      HandleLine(line, respond);
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (too_long || scanned > kMaxRequestLineBytes) {
      {
        MutexLock lock(state->mu);
        ++state->pending;
      }
      respond(QueryService::ErrorResponse(
          -1, "",
          Status::InvalidArgument("request line exceeds " +
                                  std::to_string(kMaxRequestLineBytes) +
                                  " bytes")));
      break;
    }
  }
  {
    // Wait out async data-op responses before closing the socket.
    MutexLock lock(state->mu);
    while (state->pending != 0) state->cv.Wait(state->mu);
  }
  MutexLock lock(conn_mu_);
  std::erase(conn_fds_, fd);
  ::close(fd);
  finished_conns_.push_back(std::this_thread::get_id());
}

void Server::RequestShutdown() {
  if (shutdown_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  MutexLock lock(conn_mu_);
  for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
}

}  // namespace graphite
