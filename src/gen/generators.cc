#include "gen/generators.h"

#include <strings.h>

#include <algorithm>
#include <cmath>

#include "graph/builder.h"
#include "util/rng.h"

namespace graphite {

namespace {

// Draws an edge lifespan within [0, T) according to the configured shape.
Interval DrawEdgeLifespan(Rng& rng, const GenOptions& opt) {
  const TimePoint T = opt.snapshots;
  switch (opt.edge_lifespan) {
    case GenOptions::Lifespan::kFull:
      return Interval(0, T);
    case GenOptions::Lifespan::kUnit: {
      const TimePoint t = rng.UniformRange(0, T);
      return Interval(t, t + 1);
    }
    case GenOptions::Lifespan::kLong: {
      // Long-lived: most edges exist from the first snapshot (the Twitter
      // and MAG shape — entity lifespans track the graph lifetime, so
      // temporal boundaries are few and sharing potential is high).
      const TimePoint start =
          rng.Bernoulli(opt.start_zero_prob)
              ? 0
              : rng.UniformRange(0, std::max<TimePoint>(1, T / 4));
      TimePoint len = rng.Geometric(1.0 / opt.mean_edge_lifespan);
      len = std::min<TimePoint>(len + opt.mean_edge_lifespan / 2, T - start);
      return Interval(start, start + std::max<TimePoint>(1, len));
    }
    case GenOptions::Lifespan::kMixed: {
      if (rng.Bernoulli(opt.unit_fraction)) {
        const TimePoint t = rng.UniformRange(0, T);
        return Interval(t, t + 1);
      }
      // Non-unit edges start early (like the long-lived shape) so the
      // realized mean lifespan tracks mean_edge_lifespan.
      const TimePoint start = rng.UniformRange(0, std::max<TimePoint>(1, T / 3));
      TimePoint len = rng.Geometric(1.0 / opt.mean_edge_lifespan);
      len = std::min<TimePoint>(len + opt.mean_edge_lifespan / 2, T - start);
      return Interval(start, start + std::max<TimePoint>(1, len));
    }
  }
  return Interval(0, T);
}

// Splits `span` into ~opt.prop_segments runs and attaches travel-time /
// travel-cost values per run.
void AttachProperties(Rng& rng, const GenOptions& opt, TemporalGraphBuilder& b,
                      EdgeId eid, const Interval& span) {
  const TimePoint len = span.end - span.start;
  int64_t segments = std::max<int64_t>(
      1, std::min<int64_t>(len, static_cast<int64_t>(
                                    1 + rng.Uniform(static_cast<uint64_t>(
                                            2 * opt.prop_segments)))));
  TimePoint t = span.start;
  for (int64_t k = 0; k < segments && t < span.end; ++k) {
    const TimePoint end =
        (k == segments - 1)
            ? span.end
            : std::min<TimePoint>(span.end,
                                  rng.UniformRange(t + 1, span.end + 1));
    b.SetEdgeProperty(eid, kTravelTimeLabel, Interval(t, end),
                      1 + rng.UniformRange(0, opt.max_travel_time));
    b.SetEdgeProperty(eid, kTravelCostLabel, Interval(t, end),
                      1 + rng.UniformRange(0, opt.max_travel_cost));
    t = end;
  }
}

TemporalGraph GeneratePowerLaw(const GenOptions& opt) {
  Rng rng(opt.seed);
  TemporalGraphBuilder b;
  const int64_t n = opt.num_vertices;
  const TimePoint T = opt.snapshots;

  // Vertex lifespans: mostly full-horizon; the rest are sub-intervals.
  std::vector<Interval> spans(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    if (rng.Bernoulli(opt.full_vertex_prob)) {
      spans[static_cast<size_t>(v)] = Interval(0, T);
    } else {
      const TimePoint s = rng.UniformRange(0, T);
      spans[static_cast<size_t>(v)] =
          Interval(s, rng.UniformRange(s + 1, T + 1));
    }
    b.AddVertex(v, spans[static_cast<size_t>(v)]);
  }

  // Power-law endpoints: a fixed random permutation maps Zipf ranks to
  // vertex ids so the hubs are spread over the id space (and thus over
  // hash partitions), as in real social graphs.
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
  for (int64_t v = n - 1; v > 0; --v) {
    std::swap(perm[static_cast<size_t>(v)],
              perm[rng.Uniform(static_cast<uint64_t>(v + 1))]);
  }

  int64_t added = 0;
  int64_t attempts = 0;
  const int64_t max_attempts = opt.num_edges * 30;
  while (added < opt.num_edges && attempts < max_attempts) {
    ++attempts;
    const int64_t src =
        perm[rng.Zipf(static_cast<uint64_t>(n), opt.zipf_alpha)];
    const int64_t dst = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
    if (src == dst) continue;
    Interval span = DrawEdgeLifespan(rng, opt);
    span = span.Intersect(spans[static_cast<size_t>(src)])
               .Intersect(spans[static_cast<size_t>(dst)]);
    if (span.IsEmpty()) continue;
    const EdgeId eid = added;
    b.AddEdge(eid, src, dst, span);
    if (opt.with_properties) AttachProperties(rng, opt, b, eid, span);
    ++added;
  }

  BuilderOptions options;
  options.horizon = T;
  options.validate = false;  // Valid by construction; tested separately.
  auto g = b.Build(options);
  GRAPHITE_CHECK(g.ok());
  return std::move(g).value();
}

TemporalGraph GenerateGrid(const GenOptions& opt) {
  Rng rng(opt.seed);
  TemporalGraphBuilder b;
  const int64_t side =
      std::max<int64_t>(2, static_cast<int64_t>(std::sqrt(
                               static_cast<double>(opt.num_vertices))));
  const int64_t n = side * side;
  const TimePoint T = opt.snapshots;
  for (int64_t v = 0; v < n; ++v) b.AddVertex(v, Interval(0, T));

  // Planar road grid: bidirectional edges to the right and down
  // neighbors, static topology (the USRN shape), properties churning.
  EdgeId eid = 0;
  auto add_bidi = [&](int64_t a, int64_t c) {
    for (int64_t pair = 0; pair < 2; ++pair) {
      const int64_t s = pair == 0 ? a : c;
      const int64_t d = pair == 0 ? c : a;
      b.AddEdge(eid, s, d, Interval(0, T));
      if (opt.with_properties) {
        AttachProperties(rng, opt, b, eid, Interval(0, T));
      }
      ++eid;
    }
  };
  for (int64_t r = 0; r < side; ++r) {
    for (int64_t c = 0; c < side; ++c) {
      const int64_t v = r * side + c;
      if (c + 1 < side) add_bidi(v, v + 1);
      if (r + 1 < side) add_bidi(v, v + side);
    }
  }

  BuilderOptions options;
  options.horizon = T;
  options.validate = false;
  auto g = b.Build(options);
  GRAPHITE_CHECK(g.ok());
  return std::move(g).value();
}

}  // namespace

TemporalGraph Generate(const GenOptions& options) {
  switch (options.topology) {
    case GenOptions::Topology::kPowerLaw:
      return GeneratePowerLaw(options);
    case GenOptions::Topology::kGrid:
      return GenerateGrid(options);
  }
  return GeneratePowerLaw(options);
}

std::vector<DatasetSpec> DatasetCatalog(double scale) {
  auto scaled = [scale](int64_t x) {
    return std::max<int64_t>(64, static_cast<int64_t>(
                                     static_cast<double>(x) * scale));
  };
  std::vector<DatasetSpec> specs;

  {  // GPlus: 4 snapshots, unit-length edges — ICM's worst case (§VII-B5).
    DatasetSpec s;
    s.name = "GPlus-like";
    s.models = "GPlus (4 snapshots, unit edge lifespans, power-law)";
    s.options.seed = 71;
    s.options.num_vertices = scaled(6000);
    s.options.num_edges = scaled(24000);
    s.options.snapshots = 4;
    s.options.edge_lifespan = GenOptions::Lifespan::kUnit;
    s.options.prop_segments = 1;
    specs.push_back(std::move(s));
  }
  {  // Reddit: mixed, 96% unit edges.
    DatasetSpec s;
    s.name = "Reddit-like";
    s.models = "Reddit (96% unit edges, mixed lifespans)";
    s.options.seed = 72;
    s.options.num_vertices = scaled(4000);
    s.options.num_edges = scaled(20000);
    s.options.snapshots = 20;
    s.options.edge_lifespan = GenOptions::Lifespan::kMixed;
    s.options.unit_fraction = 0.96;
    s.options.mean_edge_lifespan = 6;
    s.options.prop_segments = 1.2;
    specs.push_back(std::move(s));
  }
  {  // USRN: planar road grid, static topology, property churn, huge
     // diameter.
    DatasetSpec s;
    s.name = "USRN-like";
    s.models = "USRN (road grid, static topology, 96-snapshot properties)";
    s.options.seed = 73;
    s.options.num_vertices = scaled(4096);
    s.options.num_edges = scaled(16000);  // Derived from the grid.
    s.options.snapshots = 20;
    s.options.topology = GenOptions::Topology::kGrid;
    s.options.edge_lifespan = GenOptions::Lifespan::kFull;
    s.options.prop_segments = 4;  // avg property lifespan ~ T/4.
    specs.push_back(std::move(s));
  }
  {  // Twitter: long edge lifespans spanning almost the whole graph life.
    DatasetSpec s;
    s.name = "Twitter-like";
    s.models = "Twitter (edge lifespan ~ graph lifespan, LinkBench churn)";
    s.options.seed = 74;
    s.options.num_vertices = scaled(5000);
    s.options.num_edges = scaled(30000);
    s.options.snapshots = 16;
    s.options.edge_lifespan = GenOptions::Lifespan::kLong;
    s.options.mean_edge_lifespan = 30;   // Clamped: spans ~the whole life.
    s.options.start_zero_prob = 0.85;    // Paper: edge lifespan 28.4 of 30.
    s.options.full_vertex_prob = 0.97;
    s.options.prop_segments = 2;  // Property lifespan ~ half edge lifespan.
    specs.push_back(std::move(s));
  }
  {  // MAG: longest graph (most snapshots), long entity lifespans.
    DatasetSpec s;
    s.name = "MAG-like";
    s.models = "MAG (219 snapshots, long lifespans)";
    s.options.seed = 75;
    s.options.num_vertices = scaled(8000);
    s.options.num_edges = scaled(40000);
    s.options.snapshots = 28;
    s.options.edge_lifespan = GenOptions::Lifespan::kLong;
    s.options.mean_edge_lifespan = 40;   // Long-lived entities (MAG).
    s.options.full_vertex_prob = 0.95;
    s.options.prop_segments = 4;
    specs.push_back(std::move(s));
  }
  {  // WebUK: large, mixed lifespans averaging most of the horizon.
    DatasetSpec s;
    s.name = "WebUK-like";
    s.models = "WebUK (12 snapshots, avg lifespan ~9.4)";
    s.options.seed = 76;
    s.options.num_vertices = scaled(8000);
    s.options.num_edges = scaled(48000);
    s.options.snapshots = 12;
    s.options.edge_lifespan = GenOptions::Lifespan::kMixed;
    s.options.unit_fraction = 0.25;
    s.options.mean_edge_lifespan = 24;  // Clamped; realized mean ~9 of 12.
    s.options.prop_segments = 2;
    specs.push_back(std::move(s));
  }
  return specs;
}

std::optional<DatasetSpec> FindDataset(std::string_view name, double scale) {
  for (DatasetSpec& s : DatasetCatalog(scale)) {
    if (s.name.size() >= name.size() &&
        strncasecmp(s.name.data(), name.data(), name.size()) == 0) {
      return std::move(s);
    }
  }
  return std::nullopt;
}

DatasetSpec DatasetByName(const std::string& name, double scale) {
  auto spec = FindDataset(name, scale);
  GRAPHITE_CHECK(spec.has_value());
  return std::move(*spec);
}

GenOptions WeakScalingOptions(int machines, double scale,
                              TimePoint snapshots) {
  GenOptions opt;
  opt.seed = 900 + static_cast<uint64_t>(machines);
  opt.num_vertices = static_cast<int64_t>(10000.0 * machines * scale);
  opt.num_edges = static_cast<int64_t>(100000.0 * machines * scale);
  opt.snapshots = snapshots;
  opt.edge_lifespan = GenOptions::Lifespan::kMixed;
  opt.unit_fraction = 0.2;  // LinkBench-style churn on a social graph.
  opt.mean_edge_lifespan = static_cast<double>(snapshots) / 2;
  opt.prop_segments = 2;
  // LDBC's Facebook degree distribution is far milder than a raw Zipf
  // hub; bound the skew so the largest hub does not grow with the graph
  // and break per-worker load balance.
  opt.zipf_alpha = 0.4;
  return opt;
}

}  // namespace graphite
