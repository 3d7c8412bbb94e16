// Runtime-scheduling benchmark: sequential vs the persistent pool with
// chunked work stealing, on the Table-1 dataset generators plus a
// deliberately skewed power-law partition (range partition puts the
// preferential-attachment hubs on worker 0, the worst case static
// assignment that stealing exists to fix).
//
// Prints a table to stdout and writes machine-readable results to
// BENCH_runtime.json (override with argv[2]). All modes are exact-result
// equivalent (see tests/runtime_determinism_test.cc), so wall makespan is
// the only axis. Speedups are host-dependent: on a single-core container
// every threaded mode degenerates to sequential-plus-overhead, which the
// JSON records honestly via hardware_concurrency.
#include <fstream>
#include <thread>

#include "algorithms/icm_ti.h"
#include "bench_common.h"
#include "util/json.h"

namespace graphite {
namespace {

struct Mode {
  const char* name;
  bool use_threads;
};

const Mode kModes[] = {
    {"sequential", false},
    {"stealing", true},
};

struct Sample {
  double wall_ms = 0;
  int64_t steals = 0;
};

// Best-of-3 wall time; steals from the fastest run.
template <typename Fn>
Sample Measure(const Fn& run) {
  Sample best;
  for (int rep = 0; rep < 3; ++rep) {
    const RunMetrics m = run();
    const double ms = bench::Ms(m.makespan_ns);
    if (rep == 0 || ms < best.wall_ms) best = {ms, m.steals};
  }
  return best;
}

void WriteModes(JsonWriter* json, const Sample samples[]) {
  json->BeginObject();
  for (size_t i = 0; i < std::size(kModes); ++i) {
    json->Key(kModes[i].name).BeginObject();
    json->Key("wall_ms").Fixed(samples[i].wall_ms, 3);
    json->Key("steals").Int(samples[i].steals);
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace
}  // namespace graphite

int main(int argc, char** argv) {
  using namespace graphite;
  const double scale = bench::ResolveScale(argc, argv, 1.0);
  const char* json_path = argc > 2 ? argv[2] : "BENCH_runtime.json";
  const int threads =
      std::max(1u, std::thread::hardware_concurrency());
  const int workers = 8;

  std::printf("Runtime scheduling bench: %d logical workers, %d OS threads "
              "(hardware), best of 3\n\n",
              workers, threads);
  JsonWriter json(2);
  json.BeginObject();
  json.Key("hardware_concurrency").Int(threads);
  json.Key("num_workers").Int(workers);
  json.Key("note").String(
      "measured on a " + std::to_string(threads) +
      "-core host, best of 3; the two scheduling modes are sequential "
      "and work stealing (the per-superstep spawn and static pool modes "
      "were removed after stealing beat both on every input); stealing "
      "needs >1 core to beat sequential, the small graphs (GPlus, Reddit, "
      "USRN) vary up to ~2x run to run on a shared host, and speedup keys "
      "are emitted only when hardware_concurrency >= 4");

  // --- Part 1: Table-1 generators, PR (always-active, compute-heavy). ---
  TextTable table;
  table.AddRow({"Graph", "seq-ms", "steal-ms", "steals", "seq/steal"});
  json.Key("table1_pr").BeginArray();
  std::vector<bench::BenchDataset> datasets = bench::LoadCatalog(scale);
  for (size_t d = 0; d < datasets.size(); ++d) {
    bench::BenchDataset& ds = datasets[d];
    RunConfig config;
    config.num_workers = workers;
    config.source = bench::HubVertex(ds.workload.graph());
    Sample samples[std::size(kModes)];
    for (size_t i = 0; i < std::size(kModes); ++i) {
      config.use_threads = kModes[i].use_threads;
      config.runtime.num_threads = threads;
      samples[i] = Measure([&] {
        return RunForMetrics(ds.workload, Platform::kIcm, Algorithm::kPr,
                             config);
      });
    }
    table.AddRow({ds.name, FormatDouble(samples[0].wall_ms, 1),
                  FormatDouble(samples[1].wall_ms, 1),
                  std::to_string(samples[1].steals),
                  FormatDouble(samples[0].wall_ms /
                                   std::max(1e-9, samples[1].wall_ms),
                               2)});
    json.BeginObject();
    json.Key("graph").String(ds.name);
    json.Key("modes");
    WriteModes(&json, samples);
    json.EndObject();
    ds.workload.DropDerived();
  }
  datasets.clear();
  json.EndArray();
  std::printf("Table-1 generators, PageRank on ICM:\n%s\n",
              table.ToString().c_str());

  // --- Part 2: skewed power-law partition (the stealing showcase). ---
  // Range partition w = v*W/n: preferential attachment makes low-index
  // vertices the hubs, so worker 0 owns nearly all the compute.
  GenOptions gen;
  gen.seed = 99;
  gen.num_vertices = static_cast<int64_t>(20000 * scale);
  gen.num_edges = static_cast<int64_t>(120000 * scale);
  gen.topology = GenOptions::Topology::kPowerLaw;
  gen.zipf_alpha = 1.0;
  gen.edge_lifespan = GenOptions::Lifespan::kLong;
  std::fprintf(stderr, "[gen] skewed power-law ...\n");
  const TemporalGraph g = Generate(gen);
  std::vector<int> partition(g.num_vertices());
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    partition[v] = static_cast<int>(
        static_cast<int64_t>(v) * workers / g.num_vertices());
  }
  Sample samples[std::size(kModes)];
  for (size_t i = 0; i < std::size(kModes); ++i) {
    IcmOptions options;
    options.num_workers = workers;
    options.use_threads = kModes[i].use_threads;
    options.runtime.num_threads = threads;
    options.placement = Placement::Explicit(&partition);
    samples[i] = Measure([&] {
      IcmPageRank program(g);
      return IcmEngine<IcmPageRank>::Run(g, program, PageRankOptions(options))
          .metrics;
    });
  }
  TextTable skew;
  skew.AddRow({"Mode", "wall-ms", "steals"});
  for (size_t i = 0; i < std::size(kModes); ++i) {
    skew.AddRow({kModes[i].name, FormatDouble(samples[i].wall_ms, 1),
                 std::to_string(samples[i].steals)});
  }
  std::printf("Skewed power-law (hubs on worker 0), PageRank:\n%s\n",
              skew.ToString().c_str());
  json.Key("skewed_powerlaw_pr").BeginObject();
  json.Key("modes");
  WriteModes(&json, samples);
  // Speedup ratios only mean something with real parallel hardware: on a
  // 1–3 core host every threaded mode is sequential plus overhead, so the
  // keys are omitted rather than recorded as vacuous sub-1.0 ratios.
  if (threads >= 4) {
    const double vs_sequential =
        samples[0].wall_ms / std::max(1e-9, samples[1].wall_ms);
    std::printf("Stealing vs sequential: %.2fx (target: beats sequential "
                "on >=4 cores)\n",
                vs_sequential);
    json.Key("speedup_stealing_vs_sequential").Fixed(vs_sequential, 2);
  } else {
    std::printf("Speedup ratios omitted: only %d hardware core(s)\n",
                threads);
  }
  json.EndObject();
  json.EndObject();

  std::ofstream out(json_path);
  out << json.str() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(stderr, "[json] wrote %s\n", json_path);
  return 0;
}
