#include "driver.h"

#include <algorithm>
#include <limits>

#include "util/timer.h"

namespace graphite {
namespace e2e {

namespace {

constexpr int kConnections = 4;
constexpr int64_t kReplyGraceNs = 10'000'000'000;
constexpr int64_t kWarmTimeoutNs = 300'000'000'000;
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }

void ReadEngineMetrics(const JsonValue& m, RunMetrics* out) {
  out->supersteps = m.GetInt("supersteps");
  out->compute_calls = m.GetInt("compute_calls");
  out->messages = m.GetInt("messages");
  out->message_bytes = m.GetInt("message_bytes");
  out->compute_ns = m.GetInt("compute_ns");
  out->messaging_ns = m.GetInt("messaging_ns");
  out->barrier_ns = m.GetInt("barrier_ns");
  out->makespan_ns = m.GetInt("makespan_ns");
  out->steals = m.GetInt("steals");
  out->checkpoint_ns = m.GetInt("checkpoint_ns");
  out->frontier_dense_workers = m.GetInt("frontier_dense_workers");
  out->warp_slices = m.GetInt("warp_slices");
  out->warp_merge_hits = m.GetInt("warp_merge_hits");
}

}  // namespace

void Sampler::Offer(Sample s) {
  if (s.windowed) {
    Offer(std::move(s), &windowed_, &windowed_seen_, kWindowed);
  } else {
    Offer(std::move(s), &plain_, &plain_seen_, size_);
  }
}

void Sampler::Offer(Sample s, std::vector<Sample>* pool, int64_t* seen,
                    size_t cap) {
  ++*seen;
  if (pool->size() < cap) {
    pool->push_back(std::move(s));
    return;
  }
  const uint64_t j = rng_.Uniform(static_cast<uint64_t>(*seen));
  if (j < cap) (*pool)[j] = std::move(s);
}

std::vector<Sample> Sampler::Take() {
  std::vector<Sample> out = std::move(windowed_);
  for (Sample& s : plain_) {
    if (out.size() >= size_) break;
    out.push_back(std::move(s));
  }
  return out;
}

Driver::Driver(const std::vector<BenchGraph>& graphs, uint64_t seed,
               bool want_metrics, Sampler* sampler)
    : graphs_(graphs),
      want_metrics_(want_metrics),
      sampler_(sampler),
      stream_(graphs, seed),
      appends_sent_(graphs.size(), 0),
      appends_acked_(graphs.size(), 0),
      append_pending_(graphs.size(), false) {}

Status Driver::Connect(int port) {
  outstanding_.assign(kConnections, 0);
  return client_.Connect(port, kConnections);
}

int Driver::LeastLoaded() {
  int best = next_conn_;
  for (int i = 1; i < kConnections; ++i) {
    const int c = (next_conn_ + i) % kConnections;
    if (outstanding_[c] < outstanding_[best]) best = c;
  }
  next_conn_ = (best + 1) % kConnections;
  return best;
}

Status Driver::SendRead(const Query& q, int64_t due_ns, int conn,
                        Phase phase) {
  Record r;
  r.phase = phase;
  r.graph = q.graph;
  r.conn = conn;
  r.windowed = q.windowed();
  r.pin = appends_acked_[q.graph];
  r.due_ns = due_ns;
  r.key = QueryLine(graphs_, q, -1, false);
  const std::string line = QueryLine(
      graphs_, q, static_cast<int64_t>(records_.size()), want_metrics_);
  r.sent_ns = NowNanos();
  records_.push_back(std::move(r));
  ++outstanding_[conn];
  return client_.Send(conn, line);
}

bool Driver::AppendReady() const {
  return !append_pending_[stream_.next_graph()];
}

Status Driver::SendAppend(int64_t due_ns, Phase phase) {
  const int g = stream_.next_graph();
  Record r;
  r.kind = Record::Kind::kAppend;
  r.phase = phase;
  r.graph = g;
  r.conn = LeastLoaded();
  r.due_ns = due_ns;
  batches_.push_back(stream_.Next(static_cast<int64_t>(records_.size())));
  ++appends_sent_[g];
  append_pending_[g] = true;
  r.sent_ns = NowNanos();
  const int conn = r.conn;
  records_.push_back(std::move(r));
  ++outstanding_[conn];
  return client_.Send(conn, batches_.back().line);
}

Status Driver::PollUntil(int64_t deadline_ns) {
  return client_.Poll(deadline_ns, [this](std::string_view line,
                                          int64_t recv_ns) {
    OnLine(line, recv_ns);
  });
}

void Driver::OnLine(std::string_view line, int64_t recv_ns) {
  Reply reply;
  if (!ParseReply(line, &reply) || reply.id < 0 ||
      reply.id >= static_cast<int64_t>(records_.size())) {
    ++wrong_;
    return;
  }
  Record& r = records_[static_cast<size_t>(reply.id)];
  if (r.done) return;  // Already failed by a drain timeout.
  r.done = true;
  r.ok = reply.ok;
  r.cached = reply.cached;
  r.recv_ns = recv_ns;
  r.bytes = static_cast<int64_t>(line.size());
  --outstanding_[r.conn];
  if (!r.ok && first_error_.empty()) first_error_.assign(line.substr(0, 300));
  switch (r.kind) {
    case Record::Kind::kControl:
      control_reply_.assign(line);
      return;
    case Record::Kind::kAppend:
      append_pending_[r.graph] = false;
      if (r.ok) {
        const int pin = ++appends_acked_[r.graph];
        auto doc = ParseJson(line);
        if (doc.ok()) r.invalidated = doc->GetInt("invalidated");
        std::erase_if(first_answer_, [&](const auto& kv) {
          return kv.second.graph == r.graph && kv.second.pin < pin;
        });
      }
      return;
    case Record::Kind::kRead:
      freed_.push_back({r.conn, recv_ns});
      if (!r.ok) return;
      if (want_metrics_) {
        auto server = ParseJson(reply.server);
        if (server.ok()) {
          r.queue_ns = server->GetInt("queue_ns");
          r.run_ns = server->GetInt("run_ns");
          if (const JsonValue* m = server->Find("metrics")) {
            r.engine.emplace();
            ReadEngineMetrics(*m, &*r.engine);
          }
        }
      }
      CheckFragment(r, reply.result);
      return;
  }
}

void Driver::CheckFragment(Record& r, std::string_view fragment) {
  r.pinned = appends_sent_[r.graph] == r.pin;
  if (!r.pinned) return;
  std::string key = r.key + '#' + std::to_string(r.pin);
  auto [it, fresh] = first_answer_.try_emplace(std::move(key));
  if (fresh) {
    it->second = {std::string(fragment), r.graph, r.pin};
    if (sampler_ != nullptr) {
      sampler_->Offer(
          {r.key, r.graph, r.pin, r.windowed, std::string(fragment)});
    }
  } else if (it->second.fragment != fragment) {
    r.ok = false;
    ++wrong_;
  }
}

Status Driver::Drain(int64_t phase_end) {
  const int64_t deadline = phase_end + kReplyGraceNs;
  auto outstanding = [this] {
    int n = 0;
    for (int o : outstanding_) n += o;
    return n;
  };
  while (outstanding() > 0 && NowNanos() < deadline) {
    GRAPHITE_RETURN_NOT_OK(PollUntil(deadline));
  }
  for (Record& r : records_) {
    if (r.done) continue;
    ++timeouts_;
    r.done = true;
    r.ok = false;
    --outstanding_[r.conn];
    if (r.kind == Record::Kind::kAppend) append_pending_[r.graph] = false;
  }
  freed_.clear();
  return Status::OK();
}

Status Driver::Warm(const std::vector<Query>& keys) {
  freed_.clear();
  const int64_t start = NowNanos();
  // Deep enough that every graph's scheduler lane stays busy.
  constexpr size_t kWarmDepth = 64;
  size_t next = 0;
  while (next < std::min(kWarmDepth, keys.size())) {
    GRAPHITE_RETURN_NOT_OK(SendRead(keys[next], start,
                                    static_cast<int>(next % kConnections),
                                    Phase::kWarm));
    ++next;
  }
  const int64_t deadline = start + kWarmTimeoutNs;
  while (next < keys.size() && NowNanos() < deadline) {
    GRAPHITE_RETURN_NOT_OK(PollUntil(deadline));
    for (const auto& [conn, t] : freed_) {
      if (next == keys.size()) break;
      GRAPHITE_RETURN_NOT_OK(SendRead(keys[next++], t, conn, Phase::kWarm));
    }
    freed_.clear();
  }
  return Drain(NowNanos());
}

Status Driver::ClosedLoop(double seconds, int clients, const NextQuery& next,
                          double append_hz) {
  freed_.clear();
  const int64_t start = NowNanos();
  const int64_t end = start + SecondsToNs(seconds);
  main_start_ns_ = start;
  const int64_t append_period = append_hz > 0 ? SecondsToNs(1 / append_hz) : 0;
  int64_t append_due = append_hz > 0 ? start + append_period / 2 : kNever;
  for (int c = 0; c < std::min(clients, kConnections); ++c) {
    GRAPHITE_RETURN_NOT_OK(SendRead(next(), start, c, Phase::kMain));
  }
  for (;;) {
    const int64_t now = NowNanos();
    if (now >= end) break;
    for (const auto& [conn, t] : freed_) {
      GRAPHITE_RETURN_NOT_OK(SendRead(next(), t, conn, Phase::kMain));
    }
    freed_.clear();
    // An append waits for its graph's previous one; that reply wakes the
    // loop, so a blocked append needs no timed wake-up.
    int64_t wake = append_due;
    if (append_due <= now) {
      if (AppendReady()) {
        GRAPHITE_RETURN_NOT_OK(SendAppend(append_due, Phase::kMain));
        append_due += append_period;
        wake = append_due;
      } else {
        wake = kNever;
      }
    }
    GRAPHITE_RETURN_NOT_OK(PollUntil(std::min(end, wake)));
  }
  return Drain(end);
}

Status Driver::AppendLoop(double seconds) {
  const int64_t start = NowNanos();
  const int64_t end = start + SecondsToNs(seconds);
  append_start_ns_ = start;
  for (;;) {
    const int64_t now = NowNanos();
    if (now >= end) break;
    // An acknowledgement frees its graph; the wait starts there.
    while (AppendReady()) {
      GRAPHITE_RETURN_NOT_OK(SendAppend(now, Phase::kAppendLoop));
    }
    GRAPHITE_RETURN_NOT_OK(PollUntil(end));
  }
  return Drain(end);
}

Status Driver::Rounds(double seconds, const std::vector<Query>& jobs) {
  freed_.clear();
  const int64_t start = NowNanos();
  const int64_t end = start + SecondsToNs(seconds);
  main_start_ns_ = start;
  int64_t free_since = start;
  int conn = 0;
  do {
    for (const Query& job : jobs) {
      GRAPHITE_RETURN_NOT_OK(SendRead(job, free_since, conn, Phase::kMain));
      conn = (conn + 1) % kConnections;
      const int64_t deadline = std::max(end, NowNanos()) + kReplyGraceNs;
      while (freed_.empty() && NowNanos() < deadline) {
        GRAPHITE_RETURN_NOT_OK(PollUntil(deadline));
      }
      if (freed_.empty()) return Drain(NowNanos());
      free_since = freed_.back().second;
      freed_.clear();
    }
  } while (NowNanos() < end);
  return Drain(free_since);
}

Result<JsonValue> Driver::Control(const std::string& op) {
  const int64_t id = static_cast<int64_t>(records_.size());
  Record r;
  r.kind = Record::Kind::kControl;
  r.phase = Phase::kControl;
  r.sent_ns = r.due_ns = NowNanos();
  records_.push_back(r);
  ++outstanding_[0];
  JsonWriter w;
  w.BeginObject().Key("id").Int(id).Key("op").String(op).EndObject();
  GRAPHITE_RETURN_NOT_OK(client_.Send(0, w.str()));
  const int64_t deadline = NowNanos() + kReplyGraceNs;
  while (!records_[static_cast<size_t>(id)].done && NowNanos() < deadline) {
    GRAPHITE_RETURN_NOT_OK(PollUntil(deadline));
  }
  if (!records_[static_cast<size_t>(id)].ok) {
    return Status::IoError("no ok reply to control op " + op);
  }
  return ParseJson(control_reply_);
}

Status Driver::Shutdown(ServerProcess* server) {
  // The server closes every connection as it shuts down, possibly before
  // the reply is written, so the closed connections and the clean exit
  // are the acknowledgement.
  JsonWriter w;
  w.BeginObject().Key("id").Int(-1).Key("op").String("shutdown").EndObject();
  GRAPHITE_RETURN_NOT_OK(client_.Send(0, w.str()));
  GRAPHITE_RETURN_NOT_OK(client_.WaitClosed(NowNanos() + kReplyGraceNs));
  if (!server->WaitExit(10)) {
    return Status::Internal("graphite_server did not exit cleanly");
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace graphite
