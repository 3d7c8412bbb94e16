// TGB — the Transformed Graph Baseline (paper §II-C, §VII-A3): converts
// the interval graph into an algorithm-specific time-expanded graph (one
// replica per vertex per relevant time-point) and runs plain VCM on it.
// Chain edges between consecutive replicas of one vertex carry the shared
// state — those extra messages and compute calls are the baseline's
// intrinsic overhead, alongside the bloated graph size (Table 1, Fig 6a).
#ifndef GRAPHITE_BASELINES_TGB_H_
#define GRAPHITE_BASELINES_TGB_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "algorithms/icm_clustering.h"
#include "baselines/msb.h"
#include "vcm/adapters.h"
#include "vcm/vcm_engine.h"

namespace graphite {

/// Reverse CSR over a TransformedGraph (for latest-departure's backward
/// flood). Replica indices and times are shared with the forward graph.
class ReversedTransformedAdapter {
 public:
  ReversedTransformedAdapter(const TransformedGraph* tg,
                             const TemporalGraph* g)
      : tg_(tg), g_(g) {
    const size_t r = tg->num_replicas();
    std::vector<uint32_t> degree(r, 0);
    for (ReplicaIdx src = 0; src < r; ++src) {
      for (const auto& e : tg->OutEdges(src)) ++degree[e.dst];
    }
    offsets_.assign(r + 1, 0);
    for (size_t i = 0; i < r; ++i) offsets_[i + 1] = offsets_[i] + degree[i];
    edges_.resize(offsets_.back());
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (ReplicaIdx src = 0; src < r; ++src) {
      for (const auto& e : tg->OutEdges(src)) {
        edges_[cursor[e.dst]++] = {src, e.cost, e.travel_time, e.is_chain};
      }
    }
  }

  size_t NumUnits() const { return tg_->num_replicas(); }
  bool UnitExists(uint32_t) const { return true; }
  int64_t PartitionId(uint32_t r) const {
    return g_->vertex_id(tg_->replica_vertex(static_cast<ReplicaIdx>(r)));
  }
  template <typename Fn>
  void ForEachOutEdge(uint32_t r, Fn&& fn) const {
    for (uint32_t k = offsets_[r]; k < offsets_[r + 1]; ++k) {
      fn(edges_[k].dst, edges_[k]);
    }
  }

  const TransformedGraph& transformed() const { return *tg_; }

 private:
  const TransformedGraph* tg_;
  const TemporalGraph* g_;
  std::vector<uint32_t> offsets_;
  std::vector<TransformedGraph::TransitEdge> edges_;
};

// ---------------------------------------------------------------------
// VCM programs over replicas.
// ---------------------------------------------------------------------

/// SSSP on the transformed graph: replicas of the source start at 0;
/// transit edges add their cost, chain edges transfer state for free.
class TgbSssp {
 public:
  using Value = int64_t;
  using Message = int64_t;

  TgbSssp(const TransformedAdapter& adapter, VertexId source)
      : adapter_(&adapter), source_(source) {}

  Value Init(uint32_t r) const {
    const auto& tg = adapter_->transformed();
    return adapter_->graph().vertex_id(
               tg.replica_vertex(static_cast<ReplicaIdx>(r))) == source_
               ? 0
               : kInfCost;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() > 0) {
      Message best = kInfCost;
      for (const Message& m : msgs) best = std::min(best, m);
      if (best >= val) return;
      val = best;
    }
    if (val == kInfCost) return;
    adapter_->ForEachOutEdge(
        r, [&](uint32_t dst, const TransformedGraph::TransitEdge& e) {
          ctx.Send(dst, val + e.cost);
        });
  }

 private:
  const TransformedAdapter* adapter_;
  VertexId source_;
};

/// Reachability flood on the transformed graph (serves EAT and RH: the
/// earliest reached replica time is the earliest arrival).
class TgbReach {
 public:
  using Value = uint8_t;
  using Message = uint8_t;

  TgbReach(const TransformedAdapter& adapter, VertexId source)
      : adapter_(&adapter), source_(source) {}

  Value Init(uint32_t r) const {
    const auto& tg = adapter_->transformed();
    return adapter_->graph().vertex_id(
               tg.replica_vertex(static_cast<ReplicaIdx>(r))) == source_
               ? 1
               : 0;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() > 0) {
      if (val == 1 || msgs.empty()) return;
      val = 1;
    }
    if (val == 0) return;
    adapter_->ForEachOutEdge(
        r, [&](uint32_t dst, const TransformedGraph::TransitEdge&) {
          ctx.Send(dst, 1);
        });
  }

 private:
  const TransformedAdapter* adapter_;
  VertexId source_;
};

/// FAST on the transformed graph: each source replica starts a journey at
/// its own time; the maximum start time floods forward.
class TgbFast {
 public:
  using Value = int64_t;
  using Message = int64_t;

  TgbFast(const TransformedAdapter& adapter, VertexId source)
      : adapter_(&adapter), source_(source) {}

  Value Init(uint32_t r) const {
    const auto& tg = adapter_->transformed();
    const ReplicaIdx rep = static_cast<ReplicaIdx>(r);
    return adapter_->graph().vertex_id(tg.replica_vertex(rep)) == source_
               ? tg.replica_time(rep)
               : kNegInf;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() > 0) {
      Message best = kNegInf;
      for (const Message& m : msgs) best = std::max(best, m);
      if (best <= val) return;
      val = best;
    }
    if (val == kNegInf) return;
    adapter_->ForEachOutEdge(
        r, [&](uint32_t dst, const TransformedGraph::TransitEdge&) {
          ctx.Send(dst, val);
        });
  }

 private:
  const TransformedAdapter* adapter_;
  VertexId source_;
};

/// TMST on the transformed graph: (arrival, parent) pairs, minimized.
class TgbTmst {
 public:
  using Value = std::pair<int64_t, int64_t>;
  using Message = std::pair<int64_t, int64_t>;

  TgbTmst(const TransformedAdapter& adapter, VertexId source)
      : adapter_(&adapter), source_(source) {}

  Value Init(uint32_t r) const {
    const auto& tg = adapter_->transformed();
    const ReplicaIdx rep = static_cast<ReplicaIdx>(r);
    const VertexId vid = adapter_->graph().vertex_id(tg.replica_vertex(rep));
    return vid == source_ ? Value{tg.replica_time(rep), vid}
                          : Value{kInfCost, -1};
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() > 0) {
      Value best = val;
      for (const Message& m : msgs) best = std::min(best, m);
      if (!(best < val)) return;
      val = best;
    }
    if (val.first == kInfCost) return;
    const auto& tg = adapter_->transformed();
    const VertexId me =
        adapter_->graph().vertex_id(tg.replica_vertex(static_cast<ReplicaIdx>(r)));
    adapter_->ForEachOutEdge(
        r, [&](uint32_t dst, const TransformedGraph::TransitEdge& e) {
          if (e.is_chain) {
            ctx.Send(dst, val);  // State transfer keeps the arrival.
          } else {
            ctx.Send(dst, {tg.replica_time(static_cast<ReplicaIdx>(dst)), me});
          }
        });
  }

 private:
  const TransformedAdapter* adapter_;
  VertexId source_;
};

/// Latest departure: backward ok-flood on the reversed transformed graph.
class TgbLd {
 public:
  using Value = uint8_t;  ///< 1 = target reachable by the deadline.
  using Message = uint8_t;

  TgbLd(const ReversedTransformedAdapter& adapter, const TemporalGraph& g,
        VertexId target, TimePoint deadline)
      : adapter_(&adapter), g_(&g), target_(target), deadline_(deadline) {}

  Value Init(uint32_t r) const {
    const auto& tg = adapter_->transformed();
    const ReplicaIdx rep = static_cast<ReplicaIdx>(r);
    return (g_->vertex_id(tg.replica_vertex(rep)) == target_ &&
            tg.replica_time(rep) <= deadline_)
               ? 1
               : 0;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    if (ctx.superstep() > 0) {
      if (val == 1 || msgs.empty()) return;
      val = 1;
    }
    if (val == 0) return;
    adapter_->ForEachOutEdge(
        r, [&](uint32_t dst, const TransformedGraph::TransitEdge&) {
          ctx.Send(dst, 1);
        });
  }

 private:
  const ReversedTransformedAdapter* adapter_;
  const TemporalGraph* g_;
  VertexId target_;
  TimePoint deadline_;
};

/// Triangle counting on the zero-travel-time transformed graph: the
/// 4-superstep closure protocol among same-time replicas. Chain edges are
/// skipped — they would leak probes across time-points.
class TgbTriangle {
 public:
  using Value = TcState;
  using Message = std::pair<int64_t, int64_t>;  ///< (hop, origin id).

  explicit TgbTriangle(const TransformedAdapter& adapter)
      : adapter_(&adapter) {}

  Value Init(uint32_t) const { return TcState{}; }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t r, Value& val,
               std::span<const Message> msgs) {
    const auto& tg = adapter_->transformed();
    const VertexId me =
        adapter_->graph().vertex_id(tg.replica_vertex(static_cast<ReplicaIdx>(r)));
    auto for_each_transit = [&](auto&& fn) {
      adapter_->ForEachOutEdge(
          r, [&](uint32_t dst, const TransformedGraph::TransitEdge& e) {
            if (!e.is_chain) fn(dst);
          });
    };
    switch (ctx.superstep()) {
      case 0:
        val.started = true;
        for_each_transit([&](uint32_t dst) { ctx.Send(dst, {1, me}); });
        return;
      case 1:
        for (const Message& m : msgs) {
          if (m.first == 1 && m.second != me) val.forward.push_back(m.second);
        }
        for_each_transit([&](uint32_t dst) {
          const VertexId dst_id = adapter_->graph().vertex_id(
              tg.replica_vertex(static_cast<ReplicaIdx>(dst)));
          for (int64_t origin : val.forward) {
            if (origin != dst_id) ctx.Send(dst, {2, origin});
          }
        });
        return;
      case 2:
        for (const Message& m : msgs) {
          if (m.first == 2) val.close.push_back(m.second);
        }
        for_each_transit([&](uint32_t dst) {
          const VertexId dst_id = adapter_->graph().vertex_id(
              tg.replica_vertex(static_cast<ReplicaIdx>(dst)));
          for (int64_t origin : val.close) {
            if (origin == dst_id) ctx.Send(dst, {3, origin});
          }
        });
        return;
      default:
        for (const Message& m : msgs) {
          if (m.first == 3) ++val.triangles;
        }
        return;
    }
  }

 private:
  const TransformedAdapter* adapter_;
};

// ---------------------------------------------------------------------
// Result assembly: replica values -> per-(vertex, time) temporal results
// (a replica's value persists until the vertex's next replica), or one
// folded value per vertex.
// ---------------------------------------------------------------------

template <typename V, typename Keep>
TemporalResult<V> AssembleFromReplicas(const TransformedGraph& tg,
                                       const TemporalGraph& g,
                                       const std::vector<V>& values,
                                       Keep&& keep) {
  TemporalResult<V> out(g.num_vertices());
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    auto replicas = tg.ReplicasOf(v);
    for (size_t i = 0; i < replicas.size(); ++i) {
      const ReplicaIdx r = replicas[i];
      if (!keep(values[r])) continue;
      const TimePoint start = tg.replica_time(r);
      const TimePoint end = i + 1 < replicas.size()
                                ? tg.replica_time(replicas[i + 1])
                                : g.vertex_interval(v).end;
      if (start < end) out[v].Set(Interval(start, end), values[r]);
    }
    out[v].Coalesce();
  }
  return out;
}

/// Folds each original vertex's replica values into one value: out[v]
/// starts at `init` and `fold(out[v], replica_time, value)` runs over v's
/// replicas in time order. The TD runners reduce TGB runs to their
/// per-vertex answers with it (earliest arrival, latest departure, ...).
template <typename T, typename V, typename Fold>
std::vector<T> FoldReplicas(const TransformedGraph& tg, const TemporalGraph& g,
                            const std::vector<V>& values, const T& init,
                            Fold fold) {
  std::vector<T> out(g.num_vertices(), init);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (ReplicaIdx r : tg.ReplicasOf(v)) {
      fold(out[v], tg.replica_time(r), values[r]);
    }
  }
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_BASELINES_TGB_H_
