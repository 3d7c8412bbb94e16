#include "algorithms/runners.h"

#include <strings.h>

#include <algorithm>

namespace graphite {

namespace {

VertexId ResolveTarget(const TemporalGraph& g, const RunConfig& config) {
  if (config.target >= 0) return config.target;
  return g.vertex_id(static_cast<VertexIdx>(g.num_vertices() - 1));
}

TimePoint ResolveDeadline(const TemporalGraph& g, const RunConfig& config) {
  return config.deadline >= 0 ? config.deadline : g.horizon();
}

// lcc = triangles / (d * (d-1)) with the temporal out-degree profile.
TemporalResult<double> NormalizeLcc(const TemporalGraph& g,
                                    const TemporalResult<int64_t>& triangles) {
  const std::vector<IntervalMap<int64_t>> degrees = OutDegreeProfiles(g);
  TemporalResult<double> out(g.num_vertices());
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const auto& tri : triangles[v].entries()) {
      out[v].Set(tri.interval, 0.0);
      if (tri.value == 0) continue;
      degrees[v].ForEachIntersecting(
          tri.interval, [&](const Interval& sub, int64_t d) {
            if (d >= 2) {
              out[v].Set(sub, static_cast<double>(tri.value) /
                                  static_cast<double>(d * (d - 1)));
            }
          });
    }
    out[v].Coalesce();
  }
  return out;
}

// The canonical SSSP form every platform returns: only reached entries
// (the kInfCost "unreached" sentinel dropped), coalesced.
void DropUnreached(TemporalResult<int64_t>* result) {
  for (auto& m : *result) {
    std::vector<std::pair<Interval, int64_t>> keep;
    for (const auto& e : m.entries()) {
      if (e.value != kInfCost) keep.emplace_back(e.interval, e.value);
    }
    m.clear();
    for (auto& [iv, val] : keep) m.Set(iv, val);
    m.Coalesce();
  }
}

void StoreMetrics(RunMetrics* sink, RunMetrics metrics) {
  if (sink != nullptr) *sink = std::move(metrics);
}

// A baseline's per-(vertex, time) result, its metrics stored into *sink.
template <typename V>
TemporalResult<V> Take(BaselineOutcome<V> outcome, RunMetrics* sink) {
  StoreMetrics(sink, std::move(outcome.metrics));
  return std::move(outcome.result);
}

// An ICM run's final states, its metrics stored into *sink.
template <typename Program>
TemporalResult<typename Program::State> Take(IcmResult<Program> r,
                                             RunMetrics* sink) {
  StoreMetrics(sink, std::move(r.metrics));
  return std::move(r.states);
}

// The per-vertex folds of the path runners (FoldPerVertex): the least
// state (EAT, TMST) and the greatest (LD).
constexpr auto kEarliest = [](auto& acc, const auto& e) {
  acc = std::min(acc, e.value);
};
constexpr auto kLatest = [](auto& acc, const auto& e) {
  acc = std::max(acc, e.value);
};

// The one of `values` whose display name `name` spells in any case.
template <typename T, size_t N, typename NameOf>
std::optional<T> FindByName(const T (&values)[N], NameOf name_of,
                            std::string_view name) {
  for (T value : values) {
    const std::string_view display = name_of(value);
    if (display.size() == name.size() &&
        strncasecmp(display.data(), name.data(), name.size()) == 0) {
      return value;
    }
  }
  return std::nullopt;
}

// NotFound "<role> vertex N not in graph" unless `id` is in g.
Status CheckVertex(const TemporalGraph& g, const char* role, VertexId id) {
  if (g.IndexOf(id)) return Status::OK();
  return Status::NotFound(std::string(role) + " vertex " + std::to_string(id) +
                          " not in graph");
}

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs: return "BFS";
    case Algorithm::kWcc: return "WCC";
    case Algorithm::kScc: return "SCC";
    case Algorithm::kPr: return "PR";
    case Algorithm::kSssp: return "SSSP";
    case Algorithm::kEat: return "EAT";
    case Algorithm::kFast: return "FAST";
    case Algorithm::kLd: return "LD";
    case Algorithm::kTmst: return "TMST";
    case Algorithm::kRh: return "RH";
    case Algorithm::kLcc: return "LCC";
    case Algorithm::kTc: return "TC";
  }
  return "?";
}

const char* PlatformName(Platform p) {
  switch (p) {
    case Platform::kIcm: return "ICM";
    case Platform::kMsb: return "MSB";
    case Platform::kChl: return "CHL";
    case Platform::kTgb: return "TGB";
    case Platform::kGof: return "GOF";
  }
  return "?";
}

Result<Algorithm> ParseAlgorithm(std::string_view name) {
  if (auto a = FindByName(kAllAlgorithms, AlgorithmName, name)) return *a;
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

Result<Platform> ParsePlatform(std::string_view name) {
  if (auto p = FindByName(kAllPlatforms, PlatformName, name)) return *p;
  return Status::InvalidArgument("unknown platform: " + std::string(name));
}

bool IsTimeDependent(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs:
    case Algorithm::kWcc:
    case Algorithm::kScc:
    case Algorithm::kPr:
      return false;
    default:
      return true;
  }
}

bool Supports(Platform p, Algorithm a) {
  switch (p) {
    case Platform::kIcm:
      return true;
    case Platform::kMsb:
    case Platform::kChl:
      return !IsTimeDependent(a);
    case Platform::kTgb:
    case Platform::kGof:
      return IsTimeDependent(a);
  }
  return false;
}

bool NeedsSource(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs:
    case Algorithm::kSssp:
    case Algorithm::kEat:
    case Algorithm::kFast:
    case Algorithm::kTmst:
    case Algorithm::kRh:
      return true;
    default:
      return false;
  }
}

Status CheckSource(const TemporalGraph& g, VertexId source) {
  return CheckVertex(g, "source", source);
}

Status CheckTarget(const TemporalGraph& g, VertexId target) {
  return CheckVertex(g, "target", target);
}

Status CheckRun(const TemporalGraph& g, Platform p, Algorithm a,
                VertexId source, VertexId target) {
  if (!Supports(p, a)) {
    return Status::InvalidArgument(std::string(PlatformName(p)) +
                                   " does not support " + AlgorithmName(a) +
                                   " (TI: icm/msb/chl; TD: icm/tgb/gof)");
  }
  if (NeedsSource(a)) GRAPHITE_RETURN_NOT_OK(CheckSource(g, source));
  if (a == Algorithm::kLd && target >= 0) return CheckTarget(g, target);
  return Status::OK();
}

const TemporalGraph& Workload::reversed() const {
  return derived_->reversed.Get([this] { return ReverseGraph(g_); });
}
const TemporalGraph& Workload::undirected() const {
  return derived_->undirected.Get([this] { return MakeUndirected(g_); });
}
const TransformedGraph& Workload::transformed() const {
  return derived_->transformed.Get(
      [this] { return BuildTransformedGraph(g_); });
}
const TransformedGraph& Workload::transformed_zero() const {
  return derived_->transformed_zero.Get([this] {
    TransformOptions options;
    options.forced_travel_time = 0;
    return BuildTransformedGraph(g_, options);
  });
}
void Workload::DropDerived() { derived_ = std::make_unique<Derived>(); }

// ---------------------------------------------------------------------
// TI runners.
// ---------------------------------------------------------------------

TemporalResult<int64_t> RunBfsOn(const Workload& w, Platform p,
                                 const RunConfig& config, RunMetrics* metrics) {
  switch (p) {
    case Platform::kIcm: {
      IcmBfs program(config.source);
      auto states = Take(
          IcmEngine<IcmBfs>::Run(w.graph(), program, config.ToIcm()), metrics);
      for (auto& m : states) m.Coalesce();
      return states;
    }
    case Platform::kMsb:
      return Take(RunMsbBfs(w.graph(), config.source, config.ToVcm()), metrics);
    case Platform::kChl:
      return Take(
          RunChlonosBfs(w.graph(), config.source, config.ToChlonos()), metrics);
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<int64_t> RunWccOn(const Workload& w, Platform p,
                                 const RunConfig& config, RunMetrics* metrics) {
  switch (p) {
    case Platform::kIcm: {
      IcmWcc program;
      auto states = Take(
          IcmEngine<IcmWcc>::Run(w.undirected(), program, config.ToIcm()),
          metrics);
      for (auto& m : states) m.Coalesce();
      return states;
    }
    case Platform::kMsb:
      return Take(RunMsbWcc(w.undirected(), config.ToVcm()), metrics);
    case Platform::kChl:
      return Take(RunChlonosWcc(w.undirected(), config.ToChlonos()), metrics);
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<int64_t> RunSccOn(const Workload& w, Platform p,
                                 const RunConfig& config, RunMetrics* metrics) {
  switch (p) {
    case Platform::kIcm: {
      auto r = RunIcmScc(w.graph(), w.reversed(), config.ToIcm());
      StoreMetrics(metrics, std::move(r.metrics));
      return std::move(r.components);
    }
    case Platform::kMsb:
      return Take(RunMsbScc(w.graph(), w.reversed(), config.ToVcm()), metrics);
    case Platform::kChl:
      return Take(
          RunChlonosScc(w.graph(), w.reversed(), config.ToChlonos()), metrics);
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<double> RunPrOn(const Workload& w, Platform p,
                               const RunConfig& config, RunMetrics* metrics) {
  switch (p) {
    case Platform::kIcm: {
      IcmPageRank program(w.graph());
      auto r = IcmEngine<IcmPageRank>::Run(w.graph(), program,
                                           PageRankOptions(config.ToIcm()));
      StoreMetrics(metrics, std::move(r.metrics));
      // Clip to the horizon window so the per-snapshot platforms compare
      // directly (open-ended lifespans extend past the last snapshot).
      TemporalResult<double> out(r.states.size());
      for (size_t v = 0; v < r.states.size(); ++v) {
        r.states[v].ForEachIntersecting(
            Interval(0, w.graph().horizon()),
            [&](const Interval& iv, double val) { out[v].Set(iv, val); });
        out[v].Coalesce();
      }
      return out;
    }
    case Platform::kMsb:
      return Take(RunMsbPageRank(w.graph(), config.ToVcm()), metrics);
    case Platform::kChl:
      return Take(RunChlonosPageRank(w.graph(), config.ToChlonos()), metrics);
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

// ---------------------------------------------------------------------
// TD runners.
// ---------------------------------------------------------------------

TemporalResult<int64_t> RunSsspOn(const Workload& w, Platform p,
                                  const RunConfig& config,
                                  RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  switch (p) {
    case Platform::kIcm: {
      IcmSssp program(g, config.source);
      auto states =
          Take(IcmEngine<IcmSssp>::Run(g, program, config.ToIcm()), metrics);
      DropUnreached(&states);
      return states;
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      TransformedAdapter adapter(&tg, &g);
      TgbSssp program(adapter, config.source);
      std::vector<int64_t> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      auto out = AssembleFromReplicas<int64_t>(
          tg, g, values, [](int64_t v) { return v != kInfCost; });
      // The source is at cost 0 over its whole lifespan, replicas or not.
      if (auto src = g.IndexOf(config.source)) {
        out[*src].Set(g.vertex_interval(*src), 0);
        out[*src].Coalesce();
      }
      return out;
    }
    case Platform::kGof: {
      GofSssp program(g, config.source);
      auto states = Take(RunGoffish(g, program, config.ToGoffish()), metrics);
      DropUnreached(&states);
      return states;
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

std::vector<int64_t> RunEatOn(const Workload& w, Platform p,
                              const RunConfig& config, RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  switch (p) {
    case Platform::kIcm: {
      IcmEat program(g, config.source);
      return FoldPerVertex(
          Take(IcmEngine<IcmEat>::Run(g, program, config.ToIcm()), metrics),
          kInfCost, kEarliest);
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      TransformedAdapter adapter(&tg, &g);
      TgbReach program(adapter, config.source);
      std::vector<uint8_t> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      auto eat = FoldReplicas(
          tg, g, values, kInfCost,
          [](int64_t& acc, TimePoint t, uint8_t reached) {
            if (reached) acc = std::min(acc, t);
          });
      if (auto src = g.IndexOf(config.source)) {
        eat[*src] = std::max<TimePoint>(0, g.vertex_interval(*src).start);
      }
      return eat;
    }
    case Platform::kGof: {
      GofEat program(g, config.source);
      return FoldPerVertex(
          Take(RunGoffish(g, program, config.ToGoffish()), metrics), kInfCost,
          kEarliest);
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

std::vector<int64_t> RunFastOn(const Workload& w, Platform p,
                               const RunConfig& config, RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  const auto src = g.IndexOf(config.source);
  GRAPHITE_CHECK(src.has_value());
  // A state is the latest journey start that arrives at its interval's
  // start; the source's own row is 0 on every platform (set below).
  auto shortest = [](int64_t& acc, const auto& e) {
    if (e.value != kNegInf) acc = std::min(acc, e.interval.start - e.value);
  };
  std::vector<int64_t> fastest;
  switch (p) {
    case Platform::kIcm: {
      IcmFast program(g, config.source);
      fastest = FoldPerVertex(
          Take(IcmEngine<IcmFast>::Run(g, program, config.ToIcm()), metrics),
          kInfCost, shortest);
      break;
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      TransformedAdapter adapter(&tg, &g);
      TgbFast program(adapter, config.source);
      std::vector<int64_t> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      fastest = FoldReplicas(
          tg, g, values, kInfCost,
          [](int64_t& acc, TimePoint t, int64_t start) {
            if (start != kNegInf) acc = std::min(acc, t - start);
          });
      break;
    }
    case Platform::kGof: {
      GofFast program(g, config.source);
      fastest = FoldPerVertex(
          Take(RunGoffish(g, program, config.ToGoffish()), metrics), kInfCost,
          shortest);
      break;
    }
    default:
      GRAPHITE_CHECK(false);
  }
  fastest[*src] = 0;
  return fastest;
}

std::vector<int64_t> RunLdOn(const Workload& w, Platform p,
                             const RunConfig& config, RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  const VertexId target = ResolveTarget(g, config);
  const TimePoint deadline = ResolveDeadline(g, config);
  switch (p) {
    case Platform::kIcm: {
      const TemporalGraph& reversed = w.reversed();
      IcmLatestDeparture program(reversed, target, deadline);
      return FoldPerVertex(
          Take(IcmEngine<IcmLatestDeparture>::Run(reversed, program,
                                                  config.ToIcm()),
               metrics),
          kNegInf, kLatest);
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      ReversedTransformedAdapter adapter(&tg, &g);
      TgbLd program(adapter, g, target, deadline);
      std::vector<uint8_t> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      auto latest = FoldReplicas(
          tg, g, values, kNegInf,
          [](int64_t& acc, TimePoint t, uint8_t reached) {
            if (reached) acc = std::max(acc, t);
          });
      // The target may "depart" as late as the clamped deadline.
      if (auto tgt = g.IndexOf(target)) {
        const Interval& span = g.vertex_interval(*tgt);
        const TimePoint clamp = std::min<TimePoint>(deadline, span.end - 1);
        if (span.Contains(clamp)) latest[*tgt] = std::max(latest[*tgt], clamp);
      }
      return latest;
    }
    case Platform::kGof: {
      const TemporalGraph& reversed = w.reversed();
      GofLatestDeparture program(reversed, target, deadline);
      GoffishOptions options = config.ToGoffish();
      options.reverse_time = true;
      return FoldPerVertex(
          Take(RunGoffish(reversed, program, options), metrics), kNegInf,
          kLatest);
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

std::vector<std::pair<int64_t, int64_t>> RunTmstOn(const Workload& w,
                                                   Platform p,
                                                   const RunConfig& config,
                                                   RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  using Arrival = std::pair<int64_t, int64_t>;  // (arrival, tree parent)
  const Arrival unreached{kInfCost, -1};
  switch (p) {
    case Platform::kIcm: {
      IcmTmst program(g, config.source);
      return FoldPerVertex(
          Take(IcmEngine<IcmTmst>::Run(g, program, config.ToIcm()), metrics),
          unreached, kEarliest);
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      TransformedAdapter adapter(&tg, &g);
      TgbTmst program(adapter, config.source);
      std::vector<Arrival> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      auto best = FoldReplicas(
          tg, g, values, unreached,
          [](Arrival& acc, TimePoint, const Arrival& arrival) {
            acc = std::min(acc, arrival);
          });
      if (auto src = g.IndexOf(config.source)) {
        best[*src] = {std::max<TimePoint>(0, g.vertex_interval(*src).start),
                      config.source};
      }
      return best;
    }
    case Platform::kGof: {
      GofTmst program(g, config.source);
      return FoldPerVertex(
          Take(RunGoffish(g, program, config.ToGoffish()), metrics), unreached,
          kEarliest);
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<uint8_t> RunRhOn(const Workload& w, Platform p,
                                const RunConfig& config, RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  // The reached intervals (state 1), coalesced.
  auto reached = [](const TemporalResult<uint8_t>& states) {
    auto out = FoldPerVertex(states, IntervalMap<uint8_t>(),
                             [](IntervalMap<uint8_t>& acc, const auto& e) {
                               if (e.value == 1) acc.Set(e.interval, 1);
                             });
    for (auto& m : out) m.Coalesce();
    return out;
  };
  switch (p) {
    case Platform::kIcm: {
      IcmReach program(g, config.source);
      return reached(
          Take(IcmEngine<IcmReach>::Run(g, program, config.ToIcm()), metrics));
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed();
      TransformedAdapter adapter(&tg, &g);
      TgbReach program(adapter, config.source);
      std::vector<uint8_t> values;
      StoreMetrics(metrics,
                   RunVcm(adapter, program, config.ToVcm(), &values));
      auto out = AssembleFromReplicas<uint8_t>(
          tg, g, values, [](uint8_t v) { return v == 1; });
      if (auto src = g.IndexOf(config.source)) {
        out[*src].Set(g.vertex_interval(*src), 1);
        out[*src].Coalesce();
      }
      return out;
    }
    case Platform::kGof: {
      GofReach program(g, config.source);
      return reached(
          Take(RunGoffish(g, program, config.ToGoffish()), metrics));
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<int64_t> RunTcOn(const Workload& w, Platform p,
                                const RunConfig& config, RunMetrics* metrics) {
  const TemporalGraph& g = w.graph();
  switch (p) {
    case Platform::kIcm: {
      IcmTriangleCount program;
      auto r = IcmEngine<IcmTriangleCount>::Run(
          g, program, TriangleOptions(config.ToIcm()));
      StoreMetrics(metrics, std::move(r.metrics));
      return TriangleCounts(r.states);
    }
    case Platform::kTgb: {
      const TransformedGraph& tg = w.transformed_zero();
      TransformedAdapter adapter(&tg, &g);
      TgbTriangle program(adapter);
      VcmOptions options = config.ToVcm();
      options.max_supersteps = 4;
      std::vector<TcState> values;
      StoreMetrics(metrics, RunVcm(adapter, program, options, &values));
      auto out = FoldReplicas(
          tg, g, values, IntervalMap<int64_t>(),
          [](IntervalMap<int64_t>& acc, TimePoint t, const TcState& s) {
            if (s.triangles > 0) acc.Set(Interval(t, t + 1), s.triangles);
          });
      for (auto& m : out) m.Coalesce();
      return out;
    }
    case Platform::kGof: {
      GofTriangle program;
      auto out = FoldPerVertex(
          Take(RunGoffish(g, program, config.ToGoffish()), metrics),
          IntervalMap<int64_t>(), [](IntervalMap<int64_t>& acc, const auto& e) {
            if (e.value.triangles > 0) acc.Set(e.interval, e.value.triangles);
          });
      for (auto& m : out) m.Coalesce();
      return out;
    }
    default:
      GRAPHITE_CHECK(false);
      return {};
  }
}

TemporalResult<double> RunLccOn(const Workload& w, Platform p,
                                const RunConfig& config, RunMetrics* metrics) {
  if (p == Platform::kIcm) {
    auto r = RunIcmLcc(w.graph(), config.ToIcm());
    StoreMetrics(metrics, std::move(r.metrics));
    return std::move(r.lcc);
  }
  // TGB / GOF: closure counts from the triangle run, then the shared
  // degree normalization.
  const TemporalResult<int64_t> tc = RunTcOn(w, p, config, metrics);
  return NormalizeLcc(w.graph(), tc);
}

RunMetrics RunForMetrics(const Workload& w, Platform p, Algorithm a,
                         const RunConfig& config) {
  GRAPHITE_CHECK(Supports(p, a));
  RunMetrics metrics;
  switch (a) {
    case Algorithm::kBfs: RunBfsOn(w, p, config, &metrics); break;
    case Algorithm::kWcc: RunWccOn(w, p, config, &metrics); break;
    case Algorithm::kScc: RunSccOn(w, p, config, &metrics); break;
    case Algorithm::kPr: RunPrOn(w, p, config, &metrics); break;
    case Algorithm::kSssp: RunSsspOn(w, p, config, &metrics); break;
    case Algorithm::kEat: RunEatOn(w, p, config, &metrics); break;
    case Algorithm::kFast: RunFastOn(w, p, config, &metrics); break;
    case Algorithm::kLd: RunLdOn(w, p, config, &metrics); break;
    case Algorithm::kTmst: RunTmstOn(w, p, config, &metrics); break;
    case Algorithm::kRh: RunRhOn(w, p, config, &metrics); break;
    case Algorithm::kLcc: RunLccOn(w, p, config, &metrics); break;
    case Algorithm::kTc: RunTcOn(w, p, config, &metrics); break;
  }
  return metrics;
}

}  // namespace graphite
