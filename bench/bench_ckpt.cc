// Checkpoint overhead benchmark: SSSP on ICM over the Table-1 dataset
// generators, once without checkpointing and once per every-k policy
// (k = 1, 2, 4). Reports wall time, time spent encoding+committing
// checkpoint frames (both as ms and as % of the run), checkpoint count,
// and bytes written per superstep. Snapshot directories live under the
// working directory and are removed when the run finishes.
//
// Prints a table to stdout and writes machine-readable results to
// BENCH_ckpt.json (override with argv[2]). The "gated" block holds each
// dataset's every-1 checkpoint bytes, which do not vary from run to run;
// tools/check_bench_regression.py compares it against the committed
// baseline.
#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/icm_path.h"
#include "bench_common.h"
#include "ckpt/checkpoint_store.h"
#include "util/json.h"

namespace graphite {
namespace {

struct Policy {
  const char* name;
  int every_k;  // 0 = checkpointing disabled
};

const Policy kPolicies[] = {
    {"none", 0},
    {"every1", 1},
    {"every2", 2},
    {"every4", 4},
};

struct Sample {
  double wall_ms = 0;
  double ckpt_ms = 0;
  int64_t checkpoints = 0;
  int64_t ckpt_bytes = 0;
  int64_t supersteps = 0;
};

// Best-of-3 by wall time; checkpoint counters from the fastest run (they
// are identical across reps — only timing varies).
template <typename Fn>
Sample Measure(const Fn& run) {
  Sample best;
  for (int rep = 0; rep < 3; ++rep) {
    const RunMetrics m = run();
    const double ms = bench::Ms(m.makespan_ns);
    if (rep == 0 || ms < best.wall_ms) {
      best = {ms, bench::Ms(m.checkpoint_ns), m.checkpoints,
              m.checkpoint_bytes, m.supersteps};
    }
  }
  return best;
}

double OverheadPct(const Sample& s) {
  return s.wall_ms <= 0 ? 0.0 : 100.0 * s.ckpt_ms / s.wall_ms;
}

void WritePolicy(JsonWriter* json, const Sample& s) {
  json->BeginObject();
  json->Key("wall_ms").Fixed(s.wall_ms, 3);
  json->Key("ckpt_ms").Fixed(s.ckpt_ms, 3);
  json->Key("overhead_pct").Fixed(OverheadPct(s), 2);
  json->Key("checkpoints").Int(s.checkpoints);
  json->Key("ckpt_bytes").Int(s.ckpt_bytes);
  json->Key("bytes_per_superstep")
      .Fixed(s.supersteps > 0 ? static_cast<double>(s.ckpt_bytes) /
                                    static_cast<double>(s.supersteps)
                              : 0.0,
             1);
  json->EndObject();
}

}  // namespace
}  // namespace graphite

int main(int argc, char** argv) {
  using namespace graphite;
  const double scale = bench::ResolveScale(argc, argv, 1.0);
  const char* json_path = argc > 2 ? argv[2] : "BENCH_ckpt.json";
  const int threads = std::max(1u, std::thread::hardware_concurrency());
  const int workers = 8;
  const std::string snap_root = "bench-ckpt-snapshots";

  std::printf("Checkpoint overhead bench: SSSP on ICM, %d logical workers, "
              "%d OS threads, best of 3\n\n",
              workers, threads);
  JsonWriter json(2);
  json.BeginObject();
  json.Key("hardware_concurrency").Int(threads);
  json.Key("num_workers").Int(workers);
  json.Key("algorithm").String("sssp_icm");
  json.Key("datasets").BeginArray();
  // Gate key per dataset ("GPlus-like" -> "ckpt_every1_bytes_gplus") and
  // its every-1 checkpoint bytes.
  std::vector<std::pair<std::string, int64_t>> gated;

  TextTable table;
  table.AddRow({"Graph", "ss", "none-ms", "k1-ms", "k1-ov%", "k2-ov%",
                "k4-ov%", "k1-ckpts", "k1-B/ss"});
  std::vector<bench::BenchDataset> datasets = bench::LoadCatalog(scale);
  for (size_t d = 0; d < datasets.size(); ++d) {
    bench::BenchDataset& ds = datasets[d];
    const TemporalGraph& g = ds.workload.graph();
    const VertexId source = bench::HubVertex(g);

    IcmOptions options;
    options.num_workers = workers;
    options.use_threads = true;
    options.runtime.num_threads = threads;

    Sample samples[std::size(kPolicies)];
    for (size_t i = 0; i < std::size(kPolicies); ++i) {
      const Policy& p = kPolicies[i];
      options.runtime.checkpoint = p.every_k > 0
                                       ? CheckpointPolicy::EveryK(p.every_k)
                                       : CheckpointPolicy::None();
      CheckpointStore store(snap_root + "/" + ds.name + "-" + p.name,
                            /*retain=*/2);
      RecoveryContext recovery;
      recovery.store = p.every_k > 0 ? &store : nullptr;
      samples[i] = Measure([&] {
        IcmSssp program(g, source);
        return IcmEngine<IcmSssp>::Run(g, program, options, recovery).metrics;
      });
    }

    const Sample& none = samples[0];
    const Sample& k1 = samples[1];
    table.AddRow({ds.name, std::to_string(none.supersteps),
                  FormatDouble(none.wall_ms, 1), FormatDouble(k1.wall_ms, 1),
                  FormatDouble(OverheadPct(k1), 1),
                  FormatDouble(OverheadPct(samples[2]), 1),
                  FormatDouble(OverheadPct(samples[3]), 1),
                  std::to_string(k1.checkpoints),
                  FormatDouble(k1.supersteps > 0
                                   ? static_cast<double>(k1.ckpt_bytes) /
                                         static_cast<double>(k1.supersteps)
                                   : 0.0,
                               0)});
    std::string key = "ckpt_every1_bytes_";
    for (const char c : ds.name.substr(0, ds.name.find('-'))) {
      key.push_back(static_cast<char>(std::tolower(c)));
    }
    gated.emplace_back(std::move(key), k1.ckpt_bytes);
    json.BeginObject();
    json.Key("graph").String(ds.name);
    json.Key("policies").BeginObject();
    for (size_t i = 0; i < std::size(kPolicies); ++i) {
      json.Key(kPolicies[i].name);
      WritePolicy(&json, samples[i]);
    }
    json.EndObject();
    json.EndObject();
    ds.workload.DropDerived();
  }
  datasets.clear();
  json.EndArray();
  json.Key("gated").BeginObject();
  for (const auto& [key, bytes] : gated) {
    json.Key(key).BeginObject();
    json.Key("value").Int(bytes);
    json.Key("better").String("lower");
    json.Key("timing").Bool(false);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();

  std::printf("Checkpoint overhead, SSSP on ICM (ov%% = ckpt time / wall):\n"
              "%s\n",
              table.ToString().c_str());

  std::error_code ec;
  std::filesystem::remove_all(snap_root, ec);

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
