// Differential test for TemporalGraphBuilder: the sorted-array builder
// must freeze exactly the graph, and report exactly the error, of the
// hash-map builder it replaced. That builder is kept below as
// HashMapGraphBuilder, the reference only: labels stored as one string
// per property run, ids resolved through unordered_map/unordered_set.
//
// Inputs are seeded random graphs (sparse or contiguous, possibly
// negative ids; open-ended lifespans; three labels; every entity kind
// listed in shuffled order), the four e2e catalog graphs, and random
// graphs with one to three injected faults of each error class:
// duplicate vertex or edge id, missing endpoint, invalid lifespan,
// containment, bad label, overlapping runs, property on a missing
// entity. Graphs compare through testutil::SameGraph; errors by code and
// message. Half the random trials build without validation.
//
// Tier-1 runs a few hundred trials. GRAPHITE_DIFFERENTIAL_TRIALS
// multiplies the count (tools/ci.sh runs a large one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/builder.h"
#include "testutil.h"
#include "util/rng.h"

namespace graphite {

// The builder as it was before the sorted-array rewrite.
class HashMapGraphBuilder {
 public:
  void AddVertex(VertexId vid, const Interval& interval) {
    vertices_.push_back({vid, interval});
  }
  void AddEdge(EdgeId eid, VertexId src, VertexId dst,
               const Interval& interval) {
    edges_.push_back({eid, src, dst, interval});
  }
  void SetVertexProperty(VertexId vid, std::string_view label,
                         const Interval& interval, PropValue value) {
    vertex_props_.push_back({vid, std::string(label), interval, value});
  }
  void SetEdgeProperty(EdgeId eid, std::string_view label,
                       const Interval& interval, PropValue value) {
    edge_props_.push_back({eid, std::string(label), interval, value});
  }

  Result<TemporalGraph> Build(const BuilderOptions& options) {
    TemporalGraph g;
    auto base = std::make_shared<TemporalGraph::SealedBase>();
    TemporalGraph::SealedBase& b = *base;
    // Endpoints resolve through a hash map while building; the base keeps
    // the same index as a sorted flat array.
    std::unordered_map<VertexId, VertexIdx> vid_to_idx;
    auto index_of = [&vid_to_idx](VertexId vid) -> std::optional<VertexIdx> {
      auto it = vid_to_idx.find(vid);
      if (it == vid_to_idx.end()) return std::nullopt;
      return it->second;
    };

    // --- Vertices (Constraint 1: unique vids, one contiguous lifespan). ---
    b.vertex_ids.reserve(vertices_.size());
    b.vertex_intervals.reserve(vertices_.size());
    vid_to_idx.reserve(vertices_.size());
    for (const PendingVertex& v : vertices_) {
      if (!v.interval.IsValid()) {
        return Status::InvalidArgument("vertex " + std::to_string(v.vid) +
                                       " has invalid lifespan " +
                                       v.interval.ToString());
      }
      auto [it, inserted] = vid_to_idx.emplace(
          v.vid, static_cast<VertexIdx>(b.vertex_ids.size()));
      if (!inserted) {
        return Status::ConstraintViolation(
            "Constraint 1: duplicate vertex id " + std::to_string(v.vid));
      }
      b.vertex_ids.push_back(v.vid);
      b.vertex_intervals.push_back(v.interval);
    }
    const size_t num_vertices = b.vertex_ids.size();
    b.vid_index.reserve(num_vertices);
    for (size_t i = 0; i < num_vertices; ++i) {
      b.vid_index.emplace_back(b.vertex_ids[i], static_cast<VertexIdx>(i));
    }
    std::sort(b.vid_index.begin(), b.vid_index.end());

    // --- Edges (Constraint 1 uniqueness, Constraint 2 referential
    // integrity: edge lifespan contained in both endpoint lifespans). ---
    std::unordered_map<EdgeId, EdgePos> eid_to_pos;
    eid_to_pos.reserve(edges_.size());
    std::vector<uint32_t> out_degree(num_vertices + 1, 0);
    struct ResolvedEdge {
      EdgeId eid;
      VertexIdx src;
      VertexIdx dst;
      Interval interval;
    };
    std::vector<ResolvedEdge> resolved;
    resolved.reserve(edges_.size());
    std::unordered_set<EdgeId> seen_eids;
    seen_eids.reserve(edges_.size());
    for (const PendingEdge& e : edges_) {
      if (!e.interval.IsValid()) {
        return Status::InvalidArgument("edge " + std::to_string(e.eid) +
                                       " has invalid lifespan " +
                                       e.interval.ToString());
      }
      if (!seen_eids.insert(e.eid).second) {
        return Status::ConstraintViolation("Constraint 1: duplicate edge id " +
                                           std::to_string(e.eid));
      }
      auto src = index_of(e.src);
      auto dst = index_of(e.dst);
      if (!src || !dst) {
        return Status::ConstraintViolation(
            "Constraint 2: edge " + std::to_string(e.eid) +
            " references missing vertex");
      }
      if (options.validate) {
        if (!e.interval.ContainedIn(b.vertex_intervals[*src]) ||
            !e.interval.ContainedIn(b.vertex_intervals[*dst])) {
          return Status::ConstraintViolation(
              "Constraint 2: edge " + std::to_string(e.eid) + " lifespan " +
              e.interval.ToString() + " not contained in endpoint lifespans");
        }
      }
      resolved.push_back({e.eid, *src, *dst, e.interval});
      ++out_degree[*src];
    }

    // CSR out-adjacency, edges sorted by (src, eid) for determinism.
    std::stable_sort(resolved.begin(), resolved.end(),
                     [](const ResolvedEdge& a, const ResolvedEdge& b) {
                       return a.src != b.src ? a.src < b.src : a.eid < b.eid;
                     });
    b.out_offsets.assign(num_vertices + 1, 0);
    for (size_t v = 0; v < num_vertices; ++v) {
      b.out_offsets[v + 1] = b.out_offsets[v] + out_degree[v];
    }
    b.edges.reserve(resolved.size());
    for (const ResolvedEdge& e : resolved) {
      eid_to_pos.emplace(e.eid, static_cast<EdgePos>(b.edges.size()));
      b.edges.push_back({e.eid, e.src, e.dst, e.interval});
    }

    // CSR in-adjacency over edge positions.
    b.BuildInAdjacency();

    // --- Properties (Constraint 3: property interval contained in entity
    // lifespan; Def. 1: no overlapping values for one label). Vertex
    // properties are checked and flattened before edge properties, each run
    // in input order up to the first failure, so the error reported is the
    // one a run-by-run scan meets first. ---
    auto intern = [&g](const std::string& name) -> std::optional<LabelId> {
      auto it = g.label_to_id_.find(name);
      if (it != g.label_to_id_.end()) return it->second;
      if (!IsValidLabel(name)) return std::nullopt;
      LabelId id = static_cast<LabelId>(g.labels_.size());
      g.labels_.push_back(name);
      g.label_to_id_.emplace(name, id);
      return id;
    };
    std::vector<TemporalGraph::StagedRun> staged;
    auto add_props = [&](const std::vector<PendingProp>& pending,
                         const char* kind, size_t num_entities,
                         auto entity_of, auto span_of,
                         TemporalGraph::PropStore* store) -> Status {
      staged.clear();
      staged.reserve(pending.size());
      Status bad = Status::OK();
      for (uint32_t i = 0; i < pending.size() && bad.ok(); ++i) {
        const PendingProp& p = pending[i];
        const std::optional<uint32_t> entity = entity_of(p.entity);
        if (!entity) {
          bad = Status::ConstraintViolation(
              std::string("Constraint 3: property on missing ") + kind + " " +
              std::to_string(p.entity));
        } else if (!p.interval.IsValid()) {
          bad = Status::InvalidArgument("property interval invalid: " +
                                        p.interval.ToString());
        } else if (const Interval& span = span_of(*entity);
                   options.validate && !p.interval.ContainedIn(span)) {
          bad = Status::ConstraintViolation(
              std::string("Constraint 3: ") + kind + " property '" + p.label +
              "' interval " + p.interval.ToString() +
              " not contained in entity lifespan " + span.ToString());
        } else if (const std::optional<LabelId> label = intern(p.label);
                   !label) {
          bad = Status::InvalidArgument(std::string(kind) + " property label '" +
                                        p.label +
                                        "' is empty or contains whitespace");
        } else {
          staged.push_back({*entity, i, 0, *label, p.interval, p.value});
        }
      }
      const uint32_t overlap =
          TemporalGraph::OrderStagedRuns(&staged, num_entities);
      if (options.validate && overlap != TemporalGraph::kNoOverlap) {
        const PendingProp& p = pending[overlap];
        return Status::ConstraintViolation(
            std::string("Def. 1: overlapping values for ") + kind +
            " property '" + p.label + "' at " + p.interval.ToString());
      }
      GRAPHITE_RETURN_NOT_OK(bad);
      size_t groups = 0;
      for (size_t k = 0; k < staged.size(); ++k) {
        groups += k == 0 || staged[k].entity != staged[k - 1].entity ||
                  staged[k].rank != staged[k - 1].rank;
      }
      store->Reserve(num_entities, groups, staged.size());
      store->AppendStaged(staged, num_entities);
      return Status::OK();
    };
    GRAPHITE_RETURN_NOT_OK(add_props(
        vertex_props_, "vertex", num_vertices,
        [&](int64_t vid) { return index_of(vid); },
        [&](uint32_t v) -> const Interval& { return b.vertex_intervals[v]; },
        &b.vertex_props));
    GRAPHITE_RETURN_NOT_OK(add_props(
        edge_props_, "edge", b.edges.size(),
        [&](int64_t eid) -> std::optional<uint32_t> {
          auto it = eid_to_pos.find(eid);
          if (it == eid_to_pos.end()) return std::nullopt;
          return it->second;
        },
        [&](uint32_t pos) -> const Interval& { return b.edges[pos].interval; },
        &b.edge_props));

    // --- Horizon. ---
    if (options.horizon > 0) {
      g.horizon_ = options.horizon;
    } else {
      TimePoint max_end = 0;
      auto consider = [&max_end](const Interval& i) {
        if (i.end != kTimeMax && i.end > max_end) max_end = i.end;
        if (i.start != kTimeMin && i.start + 1 > max_end) max_end = i.start + 1;
      };
      for (const Interval& i : b.vertex_intervals) consider(i);
      for (const StoredEdge& e : b.edges) consider(e.interval);
      for (const PropRun& run : b.vertex_props.runs) consider(run.interval);
      for (const PropRun& run : b.edge_props.runs) consider(run.interval);
      g.horizon_ = max_end > 0 ? max_end : 1;
    }

    g.AdoptBase(std::move(base));
    return g;
  }
 private:
  struct PendingVertex {
    VertexId vid;
    Interval interval;
  };
  struct PendingEdge {
    EdgeId eid;
    VertexId src;
    VertexId dst;
    Interval interval;
  };
  struct PendingProp {
    int64_t entity;  // VertexId or EdgeId
    std::string label;
    Interval interval;
    PropValue value;
  };

  std::vector<PendingVertex> vertices_;
  std::vector<PendingEdge> edges_;
  std::vector<PendingProp> vertex_props_;
  std::vector<PendingProp> edge_props_;
};

namespace {

int Trials() {
  const char* env = std::getenv("GRAPHITE_DIFFERENTIAL_TRIALS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 1;
}

// One builder call, replayed into both builders.
struct Op {
  enum Kind { kVertex, kEdge, kVertexProp, kEdgeProp } kind;
  int64_t id = 0;  // vid, eid, or the property's entity
  VertexId src = 0;
  VertexId dst = 0;
  std::string label;
  Interval interval;
  PropValue value = 0;
};

template <typename Builder>
Result<TemporalGraph> Replay(const std::vector<Op>& ops,
                             const BuilderOptions& options) {
  Builder b;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kVertex:
        b.AddVertex(op.id, op.interval);
        break;
      case Op::kEdge:
        b.AddEdge(op.id, op.src, op.dst, op.interval);
        break;
      case Op::kVertexProp:
        b.SetVertexProperty(op.id, op.label, op.interval, op.value);
        break;
      case Op::kEdgeProp:
        b.SetEdgeProperty(op.id, op.label, op.interval, op.value);
        break;
    }
  }
  return b.Build(options);
}

// Builds `ops` with both builders and expects the same graph bytes or
// the same error. Returns whether both succeeded.
bool ExpectSameBuild(const std::vector<Op>& ops, const BuilderOptions& options,
                     const std::string& what) {
  Result<TemporalGraph> got = Replay<TemporalGraphBuilder>(ops, options);
  Result<TemporalGraph> want = Replay<HashMapGraphBuilder>(ops, options);
  EXPECT_EQ(got.ok(), want.ok())
      << what << ": got " << (got.ok() ? "OK" : got.status().ToString())
      << ", want " << (want.ok() ? "OK" : want.status().ToString());
  if (got.ok() != want.ok()) return false;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return false;
  }
  EXPECT_TRUE(testutil::SameGraph(*got, *want)) << what;
  return true;
}

constexpr const char* kLabels[] = {"travel-time", "travel-cost", "w"};

// A random finite or open-ended lifespan.
Interval RandomSpan(Rng& rng) {
  const int64_t s = rng.UniformRange(0, 40);
  Interval iv(s, s + 1 + rng.UniformRange(0, 30));
  if (rng.Uniform(8) == 0) iv.end = kTimeMax;
  if (rng.Uniform(10) == 0) iv.start = kTimeMin;
  return iv;
}

// A random sub-interval of `span`.
Interval RandomSubSpan(Rng& rng, const Interval& span) {
  const int64_t lo = span.start == kTimeMin ? -5 : span.start;
  const int64_t hi = span.end == kTimeMax ? lo + 50 : span.end;
  const int64_t s = rng.UniformRange(lo, hi);
  const int64_t e = rng.UniformRange(s + 1, hi + 1);
  Interval iv(s, e);
  if (span.start == kTimeMin && rng.Uniform(3) == 0) iv.start = kTimeMin;
  if (span.end == kTimeMax && rng.Uniform(3) == 0) iv.end = kTimeMax;
  return iv;
}

// `count` distinct ids: contiguous from a random base, or sparse.
std::vector<int64_t> RandomIds(Rng& rng, size_t count) {
  std::vector<int64_t> ids;
  const int64_t base = rng.UniformRange(-50, 50);
  const bool contiguous = rng.Uniform(2) == 0;
  std::unordered_set<int64_t> used;
  while (ids.size() < count) {
    const int64_t id = contiguous ? base + static_cast<int64_t>(ids.size())
                                  : rng.UniformRange(-1000, 1000);
    if (used.insert(id).second) ids.push_back(id);
  }
  return ids;
}

// Disjoint property runs of one label over `span`, in random pieces.
void AddRuns(Rng& rng, Op::Kind kind, int64_t entity, const Interval& span,
             const char* label, std::vector<Op>* ops) {
  const int64_t lo = span.start == kTimeMin ? -5 : span.start;
  const int64_t hi = span.end == kTimeMax ? lo + 50 : span.end;
  int64_t at = lo;
  while (at < hi) {
    const int64_t next = std::min(hi, at + rng.UniformRange(1, 8));
    if (rng.Uniform(4) != 0) {
      ops->push_back({kind, entity, 0, 0, label, Interval(at, next),
                      rng.UniformRange(-3, 20)});
    }
    at = next;
  }
}

// A valid random graph's builder calls, kinds interleaved at random.
struct RandomInput {
  std::vector<Op> ops;
  std::vector<Op> vertices;  // the vertex ops, for fault injection
  std::vector<Op> edges;
};

RandomInput MakeRandomInput(Rng& rng) {
  RandomInput in;
  const size_t nv = rng.Uniform(30);
  const std::vector<int64_t> vids = RandomIds(rng, nv);
  for (const int64_t vid : vids) {
    in.vertices.push_back({Op::kVertex, vid, 0, 0, "", RandomSpan(rng), 0});
  }
  const size_t want_edges = nv == 0 ? 0 : rng.Uniform(60);
  const std::vector<int64_t> eids = RandomIds(rng, want_edges);
  for (const int64_t eid : eids) {
    const Op& a = in.vertices[rng.Uniform(nv)];
    const Op& b = in.vertices[rng.Uniform(nv)];
    const Interval common = a.interval.Intersect(b.interval);
    if (!common.IsValid()) continue;
    in.edges.push_back(
        {Op::kEdge, eid, a.id, b.id, "", RandomSubSpan(rng, common), 0});
  }
  in.ops = in.vertices;
  in.ops.insert(in.ops.end(), in.edges.begin(), in.edges.end());
  for (const Op& v : in.vertices) {
    for (const char* label : kLabels) {
      if (rng.Uniform(3) == 0) {
        AddRuns(rng, Op::kVertexProp, v.id, v.interval, label, &in.ops);
      }
    }
  }
  for (const Op& e : in.edges) {
    for (const char* label : kLabels) {
      if (rng.Uniform(2) == 0) {
        AddRuns(rng, Op::kEdgeProp, e.id, e.interval, label, &in.ops);
      }
    }
  }
  for (size_t i = in.ops.size(); i > 1; --i) {
    std::swap(in.ops[i - 1], in.ops[rng.Uniform(i)]);
  }
  return in;
}

// Inserts one fault of a random class at a random position.
void InjectFault(Rng& rng, RandomInput* in) {
  const bool have_vertex = !in->vertices.empty();
  const bool have_edge = !in->edges.empty();
  Op op;
  switch (rng.Uniform(9)) {
    case 0:  // duplicate vertex id
      if (!have_vertex) return;
      op = in->vertices[rng.Uniform(in->vertices.size())];
      op.interval = RandomSpan(rng);
      break;
    case 1:  // duplicate edge id
      if (!have_edge) return;
      op = in->edges[rng.Uniform(in->edges.size())];
      break;
    case 2:  // missing endpoint
      if (!have_vertex) return;
      op = {Op::kEdge, 5000 + static_cast<int64_t>(rng.Uniform(100)),
            in->vertices[0].id, 9999, "", Interval(1, 2), 0};
      if (rng.Uniform(2) == 0) std::swap(op.src, op.dst);
      break;
    case 3: {  // invalid lifespan, of any kind
      const Interval bad(7, 7 - static_cast<int64_t>(rng.Uniform(3)));
      const uint64_t kind = rng.Uniform(4);
      if (kind == 0) {
        op = {Op::kVertex, 7000 + static_cast<int64_t>(rng.Uniform(100)), 0, 0,
              "", bad, 0};
      } else if (kind == 1) {
        if (!have_vertex) return;
        op = {Op::kEdge, 7000 + static_cast<int64_t>(rng.Uniform(100)),
              in->vertices[0].id, in->vertices[0].id, "", bad, 0};
      } else if (kind == 2) {
        if (!have_vertex) return;
        op = {Op::kVertexProp, in->vertices[0].id, 0, 0, "w", bad, 1};
      } else {
        if (!have_edge) return;
        op = {Op::kEdgeProp, in->edges[0].id, 0, 0, "w", bad, 1};
      }
      break;
    }
    case 4: {  // edge outside an endpoint's lifespan
      if (!have_vertex) return;
      const Op& v = in->vertices[rng.Uniform(in->vertices.size())];
      if (v.interval.end == kTimeMax) return;
      op = {Op::kEdge, 8000 + static_cast<int64_t>(rng.Uniform(100)), v.id,
            v.id, "", Interval(v.interval.end - 1, v.interval.end + 2), 0};
      break;
    }
    case 5: {  // property outside its entity's lifespan
      const bool on_edge = have_edge && rng.Uniform(2) == 0;
      if (!on_edge && !have_vertex) return;
      const Op& e = on_edge ? in->edges[rng.Uniform(in->edges.size())]
                            : in->vertices[rng.Uniform(in->vertices.size())];
      if (e.interval.end == kTimeMax) return;
      op = {on_edge ? Op::kEdgeProp : Op::kVertexProp, e.id, 0, 0,
            kLabels[rng.Uniform(3)],
            Interval(e.interval.end - 1, e.interval.end + 1), 4};
      break;
    }
    case 6: {  // a label the text format cannot carry
      const bool on_edge = have_edge && rng.Uniform(2) == 0;
      if (!on_edge && !have_vertex) return;
      const Op& e = on_edge ? in->edges[rng.Uniform(in->edges.size())]
                            : in->vertices[rng.Uniform(in->vertices.size())];
      const char* bad[] = {"", "two words", "tab\there"};
      op = {on_edge ? Op::kEdgeProp : Op::kVertexProp, e.id, 0, 0,
            bad[rng.Uniform(3)], RandomSubSpan(rng, e.interval), 4};
      break;
    }
    case 7: {  // a run overlapping an existing run of its label
      std::vector<const Op*> props;
      for (const Op& o : in->ops) {
        if (o.kind == Op::kVertexProp || o.kind == Op::kEdgeProp) {
          props.push_back(&o);
        }
      }
      if (props.empty()) return;
      op = *props[rng.Uniform(props.size())];
      op.interval.end = op.interval.start + 1;
      op.value += 100;
      break;
    }
    default: {  // a property on a missing entity
      op = {rng.Uniform(2) == 0 ? Op::kEdgeProp : Op::kVertexProp, 123456, 0,
            0, "w", Interval(0, 1), 1};
      break;
    }
  }
  in->ops.insert(in->ops.begin() + static_cast<std::ptrdiff_t>(
                                       rng.Uniform(in->ops.size() + 1)),
                 op);
}

TEST(BuilderDifferentialTest, RandomValidGraphs) {
  const int trials = 300 * Trials();
  Rng rng(0xb01d);
  int built = 0;
  for (int t = 0; t < trials; ++t) {
    const RandomInput in = MakeRandomInput(rng);
    BuilderOptions options;
    options.validate = rng.Uniform(2) == 0;
    if (rng.Uniform(4) == 0) options.horizon = rng.UniformRange(1, 100);
    built += ExpectSameBuild(in.ops, options, "trial " + std::to_string(t));
  }
  EXPECT_EQ(built, trials);  // valid input always builds
}

TEST(BuilderDifferentialTest, RandomFaultyGraphs) {
  const int trials = 600 * Trials();
  Rng rng(0xfa17);
  int failed = 0;
  for (int t = 0; t < trials; ++t) {
    RandomInput in = MakeRandomInput(rng);
    const uint64_t faults = 1 + rng.Uniform(3);
    for (uint64_t f = 0; f < faults; ++f) InjectFault(rng, &in);
    BuilderOptions options;
    options.validate = rng.Uniform(4) != 0;
    failed += !ExpectSameBuild(in.ops, options, "trial " + std::to_string(t));
  }
  // Most trials carry a fault that even an unvalidated build rejects.
  EXPECT_GT(failed, trials / 2);
}

TEST(BuilderDifferentialTest, CatalogGraphs) {
  for (const char* name : {"twitter", "mag", "reddit", "usrn"}) {
    const TemporalGraph g = Generate(DatasetByName(name, 0.25).options);
    std::vector<Op> ops;
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      ops.push_back(
          {Op::kVertex, g.vertex_id(v), 0, 0, "", g.vertex_interval(v), 0});
      for (const auto& [label, runs] : g.VertexProperties(v)) {
        for (const PropRun& run : runs.entries()) {
          ops.push_back({Op::kVertexProp, g.vertex_id(v), 0, 0,
                         g.LabelName(label), run.interval, run.value});
        }
      }
    }
    for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
      const StoredEdge& e = g.edge(pos);
      ops.push_back({Op::kEdge, e.eid, g.vertex_id(e.src), g.vertex_id(e.dst),
                     "", e.interval, 0});
      for (const auto& [label, runs] : g.EdgeProperties(pos)) {
        for (const PropRun& run : runs.entries()) {
          ops.push_back({Op::kEdgeProp, e.eid, 0, 0, g.LabelName(label),
                         run.interval, run.value});
        }
      }
    }
    BuilderOptions options;
    options.horizon = g.horizon();
    EXPECT_TRUE(ExpectSameBuild(ops, options, name));
    // The same calls in reverse order: ids arrive unsorted.
    std::reverse(ops.begin(), ops.end());
    EXPECT_TRUE(ExpectSameBuild(ops, options, std::string(name) + " reversed"));
  }
}

}  // namespace
}  // namespace graphite
