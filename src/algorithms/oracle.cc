#include "algorithms/oracle.h"

#include <algorithm>
#include <functional>
#include <queue>

namespace graphite {

namespace {

// Travel time / cost of the edge at `pos` for a departure at `t`
// (defaults 1 when the property is absent, as in the ICM programs).
struct WeightLookup {
  const TemporalGraph* g;
  std::optional<LabelId> time_label;
  std::optional<LabelId> cost_label;

  explicit WeightLookup(const TemporalGraph& graph)
      : g(&graph),
        time_label(graph.LabelIdOf(kTravelTimeLabel)),
        cost_label(graph.LabelIdOf(kTravelCostLabel)) {}

  TimePoint TravelTime(EdgePos pos, TimePoint t) const {
    if (!time_label) return 1;
    auto v = g->EdgeProperty(pos, *time_label).Get(t);
    return v ? static_cast<TimePoint>(*v) : 1;
  }
  PropValue Cost(EdgePos pos, TimePoint t) const {
    if (!cost_label) return 1;
    auto v = g->EdgeProperty(pos, *cost_label).Get(t);
    return v ? *v : 1;
  }
};

bool Alive(const TemporalGraph& g, VertexIdx v, TimePoint t) {
  return g.vertex_interval(v).Contains(t);
}

// Dijkstra over the (vertex, time) product space. Start states: (source,
// t) at cost 0 for every alive t < horizon. Waiting moves (v,t)->(v,t+1)
// at zero cost; transits depart at t and arrive at t+tt.
std::vector<std::vector<int64_t>> ProductSpaceDijkstra(const TemporalGraph& g,
                                                       VertexId source) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  const WeightLookup w(g);
  std::vector<std::vector<int64_t>> dist(
      n, std::vector<int64_t>(static_cast<size_t>(T), kInfCost));
  using Node = std::pair<int64_t, std::pair<VertexIdx, TimePoint>>;
  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> pq;
  auto push = [&](VertexIdx v, TimePoint t, int64_t c) {
    if (t < 0 || t >= T || !Alive(g, v, t)) return;
    if (c < dist[v][static_cast<size_t>(t)]) {
      dist[v][static_cast<size_t>(t)] = c;
      pq.push({c, {v, t}});
    }
  };
  auto src = g.IndexOf(source);
  GRAPHITE_CHECK(src.has_value());
  for (TimePoint t = 0; t < T; ++t) push(*src, t, 0);
  while (!pq.empty()) {
    auto [c, vt] = pq.top();
    pq.pop();
    auto [v, t] = vt;
    if (c > dist[v][static_cast<size_t>(t)]) continue;
    push(v, t + 1, c);  // Wait.
    auto edges = g.OutEdges(v);
    for (size_t k = 0; k < edges.size(); ++k) {
      const StoredEdge& e = edges[k];
      if (!e.interval.Contains(t)) continue;
      const EdgePos pos = edges.pos(k);
      push(e.dst, t + w.TravelTime(pos, t), c + w.Cost(pos, t));
    }
  }
  return dist;
}

}  // namespace

std::vector<std::vector<int64_t>> OracleSsspCosts(const TemporalGraph& g,
                                                  VertexId source) {
  return ProductSpaceDijkstra(g, source);
}

std::vector<std::vector<uint8_t>> OracleReach(const TemporalGraph& g,
                                              VertexId source) {
  const auto dist = ProductSpaceDijkstra(g, source);
  std::vector<std::vector<uint8_t>> reach(dist.size());
  for (size_t v = 0; v < dist.size(); ++v) {
    reach[v].resize(dist[v].size());
    for (size_t t = 0; t < dist[v].size(); ++t) {
      reach[v][t] = dist[v][t] != kInfCost ? 1 : 0;
    }
  }
  return reach;
}

std::vector<int64_t> OracleEat(const TemporalGraph& g, VertexId source) {
  const auto dist = ProductSpaceDijkstra(g, source);
  std::vector<int64_t> eat(dist.size(), kInfCost);
  for (size_t v = 0; v < dist.size(); ++v) {
    for (size_t t = 0; t < dist[v].size(); ++t) {
      if (dist[v][t] != kInfCost) {
        eat[v] = static_cast<int64_t>(t);
        break;
      }
    }
  }
  return eat;
}

std::vector<int64_t> OracleLatestDeparture(const TemporalGraph& g,
                                           VertexId target,
                                           TimePoint deadline) {
  // ok[v][t]: being at v at time t, the target can still be reached by the
  // deadline (possibly by waiting at v). Computed backwards over t.
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  const WeightLookup w(g);
  auto tgt = g.IndexOf(target);
  GRAPHITE_CHECK(tgt.has_value());
  std::vector<std::vector<uint8_t>> ok(
      n, std::vector<uint8_t>(static_cast<size_t>(T), 0));
  for (TimePoint t = std::min<TimePoint>(T, deadline + 1) - 1; t >= 0; --t) {
    if (Alive(g, *tgt, t)) ok[*tgt][static_cast<size_t>(t)] = 1;
  }
  for (TimePoint t = T - 1; t >= 0; --t) {
    for (VertexIdx v = 0; v < n; ++v) {
      if (ok[v][static_cast<size_t>(t)]) continue;
      if (!Alive(g, v, t)) continue;
      // Wait at v.
      if (t + 1 < T && Alive(g, v, t + 1) && ok[v][static_cast<size_t>(t + 1)]) {
        ok[v][static_cast<size_t>(t)] = 1;
        continue;
      }
      auto edges = g.OutEdges(v);
      for (size_t k = 0; k < edges.size() && !ok[v][static_cast<size_t>(t)];
           ++k) {
        const StoredEdge& e = edges[k];
        if (!e.interval.Contains(t)) continue;
        const EdgePos pos = edges.pos(k);
        const TimePoint arr = t + w.TravelTime(pos, t);
        if (arr > deadline) continue;
        if (arr < T) {
          if (Alive(g, e.dst, arr) && ok[e.dst][static_cast<size_t>(arr)]) {
            ok[v][static_cast<size_t>(t)] = 1;
          }
        } else if (e.dst == *tgt && Alive(g, e.dst, arr)) {
          // Direct arrival at the target beyond the horizon grid but
          // within the deadline.
          ok[v][static_cast<size_t>(t)] = 1;
        }
      }
    }
  }
  std::vector<int64_t> latest(n, kNegInf);
  for (VertexIdx v = 0; v < n; ++v) {
    for (TimePoint t = T - 1; t >= 0; --t) {
      if (ok[v][static_cast<size_t>(t)]) {
        latest[v] = t;
        break;
      }
    }
  }
  // The target itself can "depart" as late as the deadline (clamped to
  // its lifespan), matching the ICM formulation.
  const Interval tgt_span = g.vertex_interval(*tgt);
  if (tgt_span.Contains(std::min<TimePoint>(deadline, tgt_span.end - 1))) {
    latest[*tgt] = std::min<int64_t>(deadline, tgt_span.end - 1);
  }
  return latest;
}

std::vector<int64_t> OracleFastest(const TemporalGraph& g, VertexId source) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  const WeightLookup w(g);
  auto src = g.IndexOf(source);
  GRAPHITE_CHECK(src.has_value());
  std::vector<int64_t> fastest(n, kInfCost);
  fastest[*src] = 0;  // The source is trivially reached with duration 0.
  // For every departure time s, earliest-arrival BFS over (v, t).
  for (TimePoint s = 0; s < T; ++s) {
    if (!Alive(g, *src, s)) continue;
    std::vector<std::vector<uint8_t>> seen(
        n, std::vector<uint8_t>(static_cast<size_t>(T) + 1, 0));
    std::queue<std::pair<VertexIdx, TimePoint>> q;
    seen[*src][static_cast<size_t>(s)] = 1;
    q.push({*src, s});
    while (!q.empty()) {
      auto [v, t] = q.front();
      q.pop();
      if (v != *src || t != s) {
        // First time v is dequeued gives its earliest arrival for start s.
        fastest[v] = std::min<int64_t>(fastest[v], t - s);
      }
      if (t + 1 <= T - 1 && Alive(g, v, t + 1) &&
          !seen[v][static_cast<size_t>(t + 1)]) {
        seen[v][static_cast<size_t>(t + 1)] = 1;
        q.push({v, t + 1});
      }
      if (t >= T) continue;
      auto edges = g.OutEdges(v);
      for (size_t k = 0; k < edges.size(); ++k) {
        const StoredEdge& e = edges[k];
        if (!e.interval.Contains(t)) continue;
        const EdgePos pos = edges.pos(k);
        const TimePoint arr = t + w.TravelTime(pos, t);
        if (arr >= T || !Alive(g, e.dst, arr)) continue;
        if (!seen[e.dst][static_cast<size_t>(arr)]) {
          seen[e.dst][static_cast<size_t>(arr)] = 1;
          q.push({e.dst, arr});
        }
      }
    }
  }
  return fastest;
}

std::vector<std::vector<int64_t>> OracleBfs(const TemporalGraph& g,
                                            VertexId source) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  auto src = g.IndexOf(source);
  GRAPHITE_CHECK(src.has_value());
  std::vector<std::vector<int64_t>> depth(
      n, std::vector<int64_t>(static_cast<size_t>(T), kInfCost));
  for (TimePoint t = 0; t < T; ++t) {
    if (!Alive(g, *src, t)) continue;
    std::queue<VertexIdx> q;
    depth[*src][static_cast<size_t>(t)] = 0;
    q.push(*src);
    while (!q.empty()) {
      VertexIdx v = q.front();
      q.pop();
      for (const StoredEdge& e : g.OutEdges(v)) {
        if (!e.interval.Contains(t) || !Alive(g, e.dst, t)) continue;
        if (depth[e.dst][static_cast<size_t>(t)] == kInfCost) {
          depth[e.dst][static_cast<size_t>(t)] =
              depth[v][static_cast<size_t>(t)] + 1;
          q.push(e.dst);
        }
      }
    }
  }
  return depth;
}

std::vector<std::vector<int64_t>> OracleWcc(const TemporalGraph& g) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  std::vector<std::vector<int64_t>> label(
      n, std::vector<int64_t>(static_cast<size_t>(T), kInfCost));
  std::vector<VertexIdx> parent(n);
  for (TimePoint t = 0; t < T; ++t) {
    for (VertexIdx v = 0; v < n; ++v) parent[v] = v;
    std::function<VertexIdx(VertexIdx)> find = [&](VertexIdx v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
      const StoredEdge& e = g.edge(pos);
      if (!e.interval.Contains(t)) continue;
      parent[find(e.src)] = find(e.dst);
    }
    // Component label = min vertex id among alive members.
    std::vector<int64_t> min_id(n, kInfCost);
    for (VertexIdx v = 0; v < n; ++v) {
      if (!Alive(g, v, t)) continue;
      VertexIdx root = find(v);
      min_id[root] = std::min(min_id[root], g.vertex_id(v));
    }
    for (VertexIdx v = 0; v < n; ++v) {
      if (Alive(g, v, t)) label[v][static_cast<size_t>(t)] = min_id[find(v)];
    }
  }
  return label;
}

std::vector<std::vector<int64_t>> OracleScc(const TemporalGraph& g) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  std::vector<std::vector<int64_t>> label(
      n, std::vector<int64_t>(static_cast<size_t>(T), kInfCost));
  // Iterative Tarjan per snapshot.
  for (TimePoint t = 0; t < T; ++t) {
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<uint8_t> on_stack(n, 0);
    std::vector<VertexIdx> stack;
    int next_index = 0;
    struct Frame {
      VertexIdx v;
      size_t edge_k;
    };
    for (VertexIdx start = 0; start < n; ++start) {
      if (!Alive(g, start, t) || index[start] != -1) continue;
      std::vector<Frame> frames{{start, 0}};
      index[start] = low[start] = next_index++;
      stack.push_back(start);
      on_stack[start] = 1;
      while (!frames.empty()) {
        Frame& f = frames.back();
        auto edges = g.OutEdges(f.v);
        bool descended = false;
        while (f.edge_k < edges.size()) {
          const StoredEdge& e = edges[f.edge_k++];
          if (!e.interval.Contains(t) || !Alive(g, e.dst, t)) continue;
          if (index[e.dst] == -1) {
            index[e.dst] = low[e.dst] = next_index++;
            stack.push_back(e.dst);
            on_stack[e.dst] = 1;
            frames.push_back({e.dst, 0});
            descended = true;
            break;
          }
          if (on_stack[e.dst]) low[f.v] = std::min(low[f.v], index[e.dst]);
        }
        if (descended) continue;
        if (low[f.v] == index[f.v]) {
          // Pop one SCC; label with its max vertex id.
          std::vector<VertexIdx> members;
          VertexIdx u;
          do {
            u = stack.back();
            stack.pop_back();
            on_stack[u] = 0;
            members.push_back(u);
          } while (u != f.v);
          int64_t max_id = kNegInf;
          for (VertexIdx m : members) {
            max_id = std::max(max_id, g.vertex_id(m));
          }
          for (VertexIdx m : members) {
            label[m][static_cast<size_t>(t)] = max_id;
          }
        }
        const VertexIdx child = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[child]);
        }
      }
    }
  }
  return label;
}

std::vector<std::vector<double>> OraclePageRank(const TemporalGraph& g,
                                                int iterations) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  std::vector<std::vector<double>> rank(
      n, std::vector<double>(static_cast<size_t>(T), -1.0));
  std::vector<double> cur(n), next(n);
  std::vector<int64_t> outdeg(n);
  for (TimePoint t = 0; t < T; ++t) {
    std::fill(outdeg.begin(), outdeg.end(), 0);
    for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
      if (g.edge(pos).interval.Contains(t)) ++outdeg[g.edge(pos).src];
    }
    for (VertexIdx v = 0; v < n; ++v) cur[v] = 1.0;
    for (int it = 0; it < iterations; ++it) {
      std::fill(next.begin(), next.end(), 0.0);
      for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
        const StoredEdge& e = g.edge(pos);
        if (!e.interval.Contains(t)) continue;
        next[e.dst] += cur[e.src] / static_cast<double>(outdeg[e.src]);
      }
      for (VertexIdx v = 0; v < n; ++v) next[v] = 0.15 + 0.85 * next[v];
      std::swap(cur, next);
    }
    for (VertexIdx v = 0; v < n; ++v) {
      if (Alive(g, v, t)) rank[v][static_cast<size_t>(t)] = cur[v];
    }
  }
  return rank;
}

std::vector<std::vector<int64_t>> OracleTriangles(const TemporalGraph& g) {
  const TimePoint T = g.horizon();
  const size_t n = g.num_vertices();
  std::vector<std::vector<int64_t>> tri(
      n, std::vector<int64_t>(static_cast<size_t>(T), 0));
  for (TimePoint t = 0; t < T; ++t) {
    for (VertexIdx u = 0; u < n; ++u) {
      if (!Alive(g, u, t)) continue;
      int64_t count = 0;
      for (const StoredEdge& e1 : g.OutEdges(u)) {
        if (!e1.interval.Contains(t) || e1.dst == u) continue;
        const VertexIdx v = e1.dst;
        for (const StoredEdge& e2 : g.OutEdges(v)) {
          if (!e2.interval.Contains(t)) continue;
          const VertexIdx w = e2.dst;
          if (w == u || w == v) continue;
          for (const StoredEdge& e3 : g.OutEdges(w)) {
            if (e3.dst == u && e3.interval.Contains(t)) ++count;
          }
        }
      }
      tri[u][static_cast<size_t>(t)] = count;
    }
  }
  return tri;
}

}  // namespace graphite
