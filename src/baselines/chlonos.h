// Chlonos (CHL) — the paper's clone of Chronos (§VII-A3): enhances MSB by
// loading a BATCH of snapshots into one vectorized in-memory layout and
// executing the per-snapshot VCM logic for the whole batch in lock-step
// supersteps. Compute calls and state stay separate per (snapshot,
// vertex), but the messaging phase identifies duplicate messages pushed
// to ADJACENT time-points of the same sink vertex and replaces each run
// with one message spanning the interval — saving network traffic and
// memory, which is exactly Chronos's sharing.
#ifndef GRAPHITE_BASELINES_CHLONOS_H_
#define GRAPHITE_BASELINES_CHLONOS_H_

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "algorithms/vcm_ti_kernels.h"
#include "baselines/msb.h"
#include "engine/superstep_driver.h"
#include "icm/message.h"

namespace graphite {

struct ChlonosOptions : EngineOptions {
  /// Snapshots per in-memory batch (the paper sizes this by what fits in
  /// distributed memory; e.g. 6 snapshots per batch for Twitter).
  int batch_size = 8;
  bool always_active = false;
  int max_supersteps = std::numeric_limits<int>::max();
  /// Vertex->worker placement policy (graph/partitioner.h).
  Placement placement;
};

/// Send-side context for one (snapshot, worker): records messages with
/// their snapshot so the barrier can run-length share them.
template <typename Message>
class ChlonosContext {
 public:
  struct Pending {
    uint32_t dst;
    TimePoint t;
    Message payload;
  };

  ChlonosContext(int superstep, TimePoint t, std::vector<Pending>* outbox)
      : superstep_(superstep), t_(t), outbox_(outbox) {}

  int superstep() const { return superstep_; }

  /// Sends within the current snapshot (TI kernels never cross time).
  void Send(uint32_t dst, const Message& msg) {
    outbox_->push_back({dst, t_, msg});
  }

 private:
  int superstep_;
  TimePoint t_;
  std::vector<Pending>* outbox_;
};

/// Runs `make_program(adapter)`-built kernels over the snapshots of `g`
/// in `window` (clipped to the horizon; the batch-level SCC driver passes
/// one batch) in batches, with cross-snapshot message sharing. Value
/// extraction and metrics mirror MSB so outcomes are directly comparable.
template <typename Program, typename MakeProgram>
BaselineOutcome<typename Program::Value> RunChlonos(
    const TemporalGraph& g, const ChlonosOptions& options,
    MakeProgram&& make_program, Interval window = Interval(0, kTimeMax)) {
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  using Pending = typename ChlonosContext<Message>::Pending;

  const size_t n = g.num_vertices();
  // Vertex-level placement, built once; each batch's driver routes by this
  // map while its inbox universe is the batch-expanded (snapshot, vertex)
  // units.
  const WorkerMap vmap(n, options.num_workers, options.placement,
                       [&g](uint32_t v) { return g.vertex_id(v); });

  struct Operator {
    SuperstepDriver<Message>& driver;
    std::vector<SnapshotAdapter>& adapters;
    std::vector<Program>& programs;
    std::vector<Value>& values;
    TimePoint b0;
    size_t n;
    std::vector<std::vector<Pending>> outbox{};  // Per chunk.
    // One source worker's sharing scratch; capacities survive supersteps.
    struct Share {
      std::vector<Pending> pending;
      Writer payloads;  // each payload serialized once, sliced below
      std::vector<std::pair<uint32_t, uint32_t>> slices;  // offset, length
      std::vector<uint32_t> order;
      int64_t messages = 0;
    };
    std::vector<Share> share{};  // Per source worker.
    std::vector<int64_t> share_ns{};

    // Unit idx = local snapshot k * n + vertex: the driver visits each
    // batched snapshot's copy of the chunk in turn.
    void Visit(const ChunkCursor<ChunkTally>& at, uint32_t idx) {
      const size_t k = idx / n;
      const VertexIdx v = static_cast<VertexIdx>(idx - k * n);
      if (!adapters[k].UnitExists(v)) return;
      ChlonosContext<Message> ctx(at.superstep,
                                  b0 + static_cast<TimePoint>(k),
                                  &outbox[at.chunk]);
      programs[k].Compute(ctx, v, values[idx],
                          driver.plane().MessagesFor(at.worker, idx));
      ++at.tally->compute_calls;
    }

    // Chronos-style sharing: a run of identical payloads to the same sink
    // at consecutive time-points becomes ONE interval message on the
    // wire. Each source worker's chunk outboxes merge in chunk order into
    // the row of its first chunk (rows stay grouped by source worker).
    // Source workers share in parallel: each writes only its own row and
    // scratch, and the message counts sum after the join.
    void PreRoute(SuperstepMetrics* ss) {
      driver.runtime().ParallelFor(
          driver.map().num_workers(), &share_ns,
          [this](int src_w, int) { ShareFrom(src_w); });
      for (Share& s : share) {
        ss->messages += s.messages;
        s.messages = 0;
      }
    }

    void ShareFrom(int src_w) {
      Share& s = share[src_w];
      std::vector<Pending>& pending = s.pending;
      const auto [c0, c1] = driver.runtime().ChunkRange(src_w);
      pending.clear();
      if (c1 - c0 == 1) pending.swap(outbox[c0]);  // Both keep capacity.
      for (int c = c0; c1 - c0 > 1 && c < c1; ++c) {
        pending.insert(pending.end(),
                       std::make_move_iterator(outbox[c].begin()),
                       std::make_move_iterator(outbox[c].end()));
        outbox[c].clear();
      }
      if (pending.empty()) return;
      // Serialize payloads once into a shared buffer (offset/length
      // slices) so the share-grouping sorts without per-message
      // allocations.
      s.payloads.Clear();
      s.slices.resize(pending.size());
      for (size_t i = 0; i < pending.size(); ++i) {
        const uint32_t begin = static_cast<uint32_t>(s.payloads.size());
        MessageTraits<Message>::Write(s.payloads, pending[i].payload);
        s.slices[i] = {begin,
                       static_cast<uint32_t>(s.payloads.size()) - begin};
      }
      const std::string& bytes = s.payloads.buffer();
      const auto& slices = s.slices;
      auto slice_cmp = [&](uint32_t a, uint32_t b) {
        const auto [ao, al] = slices[a];
        const auto [bo, bl] = slices[b];
        const int c = std::memcmp(bytes.data() + ao, bytes.data() + bo,
                                  std::min(al, bl));
        if (c != 0) return c < 0;
        return al < bl;
      };
      auto slice_eq = [&](uint32_t a, uint32_t b) {
        const auto [ao, al] = slices[a];
        const auto [bo, bl] = slices[b];
        return al == bl &&
               std::memcmp(bytes.data() + ao, bytes.data() + bo, al) == 0;
      };
      std::vector<uint32_t>& order = s.order;
      order.resize(pending.size());
      for (uint32_t i = 0; i < pending.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (pending[a].dst != pending[b].dst) {
          return pending[a].dst < pending[b].dst;
        }
        if (!slice_eq(a, b)) return slice_cmp(a, b);
        return pending[a].t < pending[b].t;
      });
      size_t i = 0;
      while (i < order.size()) {
        const Pending& head = pending[order[i]];
        TimePoint t_end = head.t + 1;
        size_t j = i + 1;
        while (j < order.size()) {
          const Pending& next = pending[order[j]];
          if (next.dst != head.dst || next.t != t_end ||
              !slice_eq(order[j], order[i])) {
            break;
          }
          ++t_end;
          ++j;
        }
        // One shared wire message covering [head.t, t_end):
        // dst + interval + payload slice (already-serialized bytes).
        Writer& row = driver.wire(c0)[driver.map().WorkerOf(head.dst)];
        row.WriteU64(head.dst);
        WriteInterval(row, Interval(head.t, t_end));
        row.Append(std::string_view(bytes).substr(slices[order[i]].first,
                                                  slices[order[i]].second));
        ++s.messages;
        i = j;
      }
    }

    // Expands each interval message back into the per-snapshot inboxes.
    void Decode(Reader& reader, int dst) {
      const uint32_t dv = static_cast<uint32_t>(reader.ReadU64());
      const Interval iv = ReadInterval(reader);
      const Message msg = MessageTraits<Message>::Read(reader);
      // Locals: Deliver's stores could alias the members.
      DeliveryPlane<Message>& plane = driver.plane();
      const size_t stride = n;
      size_t idx = static_cast<size_t>(iv.start - b0) * stride + dv;
      for (TimePoint tt = iv.start; tt < iv.end; ++tt, idx += stride) {
        plane.Deliver(dst, static_cast<uint32_t>(idx), msg);
      }
    }
  };

  BaselineOutcome<Value> out;
  out.result.resize(n);
  const int64_t run_start = NowNanos();

  const TimePoint window_end = std::min(window.end, g.horizon());
  for (TimePoint b0 = window.start; b0 < window_end;
       b0 += options.batch_size) {
    const TimePoint b1 = std::min<TimePoint>(b0 + options.batch_size,
                                             window_end);
    const int B = static_cast<int>(b1 - b0);

    // Vectorized batch layout: unit index = local_t * n + v.
    std::vector<SnapshotAdapter> adapters;
    adapters.reserve(B);
    for (int k = 0; k < B; ++k) {
      adapters.emplace_back(SnapshotView(&g, b0 + k));
    }
    std::vector<Program> programs;
    programs.reserve(B);
    for (int k = 0; k < B; ++k) programs.push_back(make_program(adapters[k]));

    auto unit = [n](int k, VertexIdx v) { return k * n + v; };
    std::vector<Value> values(static_cast<size_t>(B) * n);
    // Unit indexes must fit the plane's 32-bit unit type.
    GRAPHITE_CHECK(static_cast<size_t>(B) * n <=
                   std::numeric_limits<uint32_t>::max());
    for (int k = 0; k < B; ++k) {
      for (VertexIdx v = 0; v < n; ++v) {
        if (adapters[k].UnitExists(v)) {
          values[unit(k, v)] = programs[k].Init(v);
        }
      }
    }

    SuperstepDriver<Message> driver(options, vmap, static_cast<size_t>(B) * n);
    Operator op{driver, adapters, programs, values, b0, n};
    op.outbox.resize(driver.runtime().num_chunks());
    op.share.resize(driver.map().num_workers());
    driver.Run(op, 0, options.max_supersteps, options.always_active,
               &out.metrics);

    for (int k = 0; k < B; ++k) {
      for (VertexIdx v = 0; v < n; ++v) {
        if (adapters[k].UnitExists(v)) {
          out.result[v].Set(Interval(b0 + k, b0 + k + 1), values[unit(k, v)]);
        }
      }
    }
  }

  out.metrics.makespan_ns = NowNanos() - run_start;
  for (auto& map : out.result) map.Coalesce();
  return out;
}

/// Chlonos drivers mirroring the MSB entry points.
inline BaselineOutcome<int64_t> RunChlonosBfs(const TemporalGraph& g,
                                              VertexId source,
                                              const ChlonosOptions& options) {
  return RunChlonos<VcmBfs>(g, options, [&](const SnapshotAdapter& a) {
    return VcmBfs(a, source);
  });
}

inline BaselineOutcome<int64_t> RunChlonosWcc(const TemporalGraph& undirected,
                                              const ChlonosOptions& options) {
  return RunChlonos<VcmWcc>(undirected, options,
                            [&](const SnapshotAdapter& a) { return VcmWcc(a); });
}

inline BaselineOutcome<double> RunChlonosPageRank(
    const TemporalGraph& g, const ChlonosOptions& options) {
  ChlonosOptions pr = options;
  pr.always_active = true;
  pr.max_supersteps = VcmPageRank::kIterations + 1;
  return RunChlonos<VcmPageRank>(
      g, pr, [&](const SnapshotAdapter& a) { return VcmPageRank(a); });
}

/// Chlonos SCC: the forward/backward coloring loop runs at batch level,
/// with per-snapshot assigned/color vectors. Declared here, defined in
/// chlonos.cc.
BaselineOutcome<int64_t> RunChlonosScc(const TemporalGraph& g,
                                       const TemporalGraph& reversed,
                                       const ChlonosOptions& options);

}  // namespace graphite

#endif  // GRAPHITE_BASELINES_CHLONOS_H_
