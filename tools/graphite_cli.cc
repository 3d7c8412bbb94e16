// graphite — command-line driver for the library.
//
//   graphite gen --dataset twitter --scale 0.5 --out graph.tg
//   graphite stats graph.tg
//   graphite run --alg sssp --platform icm --source 3 graph.tg
//   graphite run --alg wcc --platform msb --workers 8 graph.tg
//   graphite slice --from 2 --to 8 graph.tg --out window.tg
//   graphite bench --alg sssp graph.tg          (ICM vs all baselines)
//   graphite query --port 7171 --op run --graph t --alg bfs --source 3
//   graphite query --port 7171 --json '{"op":"list"}'
//
// Exit status: 0 on success, 1 on usage/user error: a flag the command
// does not read, an integer flag that is not one whole integer (--workers
// in [1, 64]), a --scale that is not a finite number > 0, an unknown
// dataset, algorithm or platform, an unsupported (algorithm, platform)
// pair or a source vertex not in the graph.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "algorithms/runners.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "io/text_format.h"
#include "query/temporal_query.h"
#include "server/query_service.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

using namespace graphite;  // Tool code; the library never does this.

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& name, const std::string& def = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? def : it->second;
  }
  /// The flag as one whole T token that `valid` accepts; anything else
  /// exits with status 1, naming the flag and what it wants.
  template <typename T, typename Valid>
  T Number(const std::string& name, T def, Valid valid,
           const std::string& want) const {
    auto it = flags.find(name);
    if (it == flags.end()) return def;
    const std::string& text = it->second;
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !valid(value)) {
      std::fprintf(stderr, "error: bad value for --%s: '%s' (want %s)\n",
                   name.c_str(), text.c_str(), want.c_str());
      std::exit(1);
    }
    return value;
  }
  int64_t IntFlag(const std::string& name, int64_t def,
                  int64_t lo = std::numeric_limits<int64_t>::min(),
                  int64_t hi = std::numeric_limits<int64_t>::max()) const {
    return Number<int64_t>(
        name, def, [&](int64_t v) { return v >= lo && v <= hi; },
        "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
            "]");
  }
  double ScaleFlag() const {
    return Number<double>(
        "scale", 1.0, [](double v) { return std::isfinite(v) && v > 0; },
        "a finite number > 0");
  }
  /// False, after naming it, when a flag is not one the command reads.
  bool OnlyFlags(std::initializer_list<std::string_view> known) const {
    for (const auto& [name, value] : flags) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        std::fprintf(stderr, "error: %s does not take --%s\n",
                     command.c_str(), name.c_str());
        return false;
      }
    }
    return true;
  }
};

/// Prints a failed status as the CLI's one-line error; returns exit 1.
int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: graphite <command> [flags] [graph-file]\n"
      "commands:\n"
      "  gen    --dataset <gplus|reddit|usrn|twitter|mag|webuk>\n"
      "         [--scale S] --out FILE          generate a catalog analog\n"
      "  stats  FILE                            Table-1 style statistics\n"
      "  run    --alg A --platform P FILE       run one algorithm\n"
      "         [--source V] [--target V] [--workers N] [--deadline T]\n"
      "         A: bfs wcc scc pr sssp eat fast ld tmst rh lcc tc\n"
      "         P: icm msb chl tgb gof\n"
      "  bench  --alg A FILE [--workers N]       ICM vs every baseline\n"
      "         [--source V] [--target V] [--deadline T]\n"
      "  slice  --from T --to T FILE --out FILE  temporal time-slice\n"
      "  query  --port N <request flags>         ask a running\n"
      "         graphite_server (127.0.0.1) and pretty-print the reply\n"
      "         --json '{...}'   send a raw request line instead of flags\n"
      "         --op OP [--graph G] [--alg A] [--platform P] [--kind K]\n"
      "         [--source V] [--target V] [--at T] [--deadline T]\n"
      "         [--from T --to T] [--workers N] [--mode M] [--label L]\n"
      "         [--dataset D] [--scale S] [--file F] [--id N]\n");
  return 1;
}

int CmdGen(const Args& args) {
  if (!args.OnlyFlags({"dataset", "scale", "out"})) return 1;
  const std::string dataset = args.Flag("dataset");
  const std::string out = args.Flag("out");
  if (dataset.empty() || out.empty()) return Usage();
  const auto spec = FindDataset(dataset, args.ScaleFlag());
  if (!spec) {
    std::fprintf(stderr, "error: unknown dataset '%s'\n", dataset.c_str());
    return 1;
  }
  const TemporalGraph g = Generate(spec->options);
  const Status s = WriteTextGraphFile(g, out);
  if (!s.ok()) return Fail(s);
  std::printf("%s: wrote %s (%zu vertices, %zu edges, %lld snapshots)\n",
              spec->name.c_str(), out.c_str(), g.num_vertices(),
              g.num_edges(), static_cast<long long>(g.horizon()));
  return 0;
}

int CmdStats(const Args& args) {
  if (!args.OnlyFlags({})) return 1;
  if (args.positional.empty()) return Usage();
  auto g = ReadTextGraphFile(args.positional[0]);
  if (!g.ok()) return Fail(g.status());
  const GraphStats s = ComputeGraphStats(*g);
  std::printf("snapshots            %lld\n",
              static_cast<long long>(s.num_snapshots));
  std::printf("interval graph       %s V, %s E\n",
              FormatCount(static_cast<int64_t>(s.interval_v)).c_str(),
              FormatCount(static_cast<int64_t>(s.interval_e)).c_str());
  std::printf("largest snapshot     %s V, %s E\n",
              FormatCount(static_cast<int64_t>(s.largest_snapshot_v)).c_str(),
              FormatCount(static_cast<int64_t>(s.largest_snapshot_e)).c_str());
  std::printf("transformed graph    %s V, %s E\n",
              FormatCount(static_cast<int64_t>(s.transformed_v)).c_str(),
              FormatCount(static_cast<int64_t>(s.transformed_e)).c_str());
  std::printf("multi-snapshot       %s V, %s E\n",
              FormatCount(static_cast<int64_t>(s.multi_snapshot_v)).c_str(),
              FormatCount(static_cast<int64_t>(s.multi_snapshot_e)).c_str());
  std::printf("avg lifespans        V %.2f, E %.2f, prop %.2f\n",
              s.avg_vertex_lifespan, s.avg_edge_lifespan,
              s.avg_prop_lifespan);
  return 0;
}

RunConfig ConfigFrom(const Args& args) {
  RunConfig config;
  config.num_workers =
      static_cast<int>(args.IntFlag("workers", 4, 1, kMaxRequestWorkers));
  config.source = args.IntFlag("source", 0);
  config.target = args.IntFlag("target", -1);
  config.deadline = args.IntFlag("deadline", -1);
  return config;
}

int CmdRun(const Args& args) {
  if (!args.OnlyFlags(
          {"alg", "platform", "source", "target", "workers", "deadline"})) {
    return 1;
  }
  if (args.positional.empty()) return Usage();
  const RunConfig config = ConfigFrom(args);
  auto alg = ParseAlgorithm(args.Flag("alg"));
  if (!alg.ok()) return Fail(alg.status());
  auto platform = ParsePlatform(args.Flag("platform", "icm"));
  if (!platform.ok()) return Fail(platform.status());
  auto g = ReadTextGraphFile(args.positional[0]);
  if (!g.ok()) return Fail(g.status());
  const Status check =
      CheckRun(*g, *platform, *alg, config.source, config.target);
  if (!check.ok()) return Fail(check);
  Workload w(std::move(*g));
  const RunMetrics m = RunForMetrics(w, *platform, *alg, config);
  std::printf("%s on %s: %s\n", AlgorithmName(*alg), PlatformName(*platform),
              m.ToString().c_str());
  return 0;
}

int CmdBench(const Args& args) {
  if (!args.OnlyFlags({"alg", "source", "target", "workers", "deadline"})) {
    return 1;
  }
  if (args.positional.empty()) return Usage();
  const RunConfig config = ConfigFrom(args);
  auto alg = ParseAlgorithm(args.Flag("alg"));
  if (!alg.ok()) return Fail(alg.status());
  auto g = ReadTextGraphFile(args.positional[0]);
  if (!g.ok()) return Fail(g.status());
  // ICM runs every algorithm, so its check is every platform's.
  const Status check =
      CheckRun(*g, Platform::kIcm, *alg, config.source, config.target);
  if (!check.ok()) return Fail(check);
  Workload w(std::move(*g));
  TextTable table;
  table.AddRow({"Platform", "Makespan-ms", "Compute-calls", "Messages",
                "Supersteps"});
  for (Platform p : kAllPlatforms) {
    if (!Supports(p, *alg)) continue;
    const RunMetrics m = RunForMetrics(w, p, *alg, config);
    table.AddRow({PlatformName(p),
                  FormatDouble(static_cast<double>(m.makespan_ns) / 1e6, 1),
                  FormatCount(m.compute_calls), FormatCount(m.messages),
                  std::to_string(m.supersteps)});
  }
  std::printf("%s on %s:\n%s", AlgorithmName(*alg),
              args.positional[0].c_str(), table.ToString().c_str());
  return 0;
}

int CmdSlice(const Args& args) {
  if (!args.OnlyFlags({"from", "to", "out"})) return 1;
  if (args.positional.empty()) return Usage();
  const std::string out = args.Flag("out");
  if (out.empty()) return Usage();
  auto g = ReadTextGraphFile(args.positional[0]);
  if (!g.ok()) return Fail(g.status());
  const Interval window(args.IntFlag("from", 0),
                        args.IntFlag("to", g->horizon()));
  if (!window.IsValid()) {
    std::fprintf(stderr, "error: empty window %s\n",
                 window.ToString().c_str());
    return 1;
  }
  const TemporalGraph sliced = TimeSlice(*g, window);
  const Status s = WriteTextGraphFile(sliced, out);
  if (!s.ok()) return Fail(s);
  std::printf("sliced %s to %s: %zu vertices, %zu edges\n",
              window.ToString().c_str(), out.c_str(), sliced.num_vertices(),
              sliced.num_edges());
  return 0;
}

// Builds one protocol request line from the command-line flags (or takes
// --json verbatim).
std::string BuildRequestLine(const Args& args) {
  const std::string raw = args.Flag("json");
  if (!raw.empty()) return raw;
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(args.IntFlag("id", 1));
  w.Key("op").String(args.Flag("op", "ping"));
  auto str_flag = [&](const char* flag, const char* key) {
    const std::string v = args.Flag(flag);
    if (!v.empty()) w.Key(key).String(v);
  };
  auto int_flag = [&](const char* flag, const char* key) {
    if (args.flags.count(flag) != 0) {
      w.Key(key).Int(args.IntFlag(flag, 0));
    }
  };
  str_flag("graph", "graph");
  str_flag("alg", "alg");
  str_flag("platform", "platform");
  str_flag("kind", "kind");
  str_flag("label", "label");
  str_flag("mode", "mode");
  str_flag("dataset", "dataset");
  str_flag("file", "file");
  int_flag("source", "source");
  int_flag("target", "target");
  int_flag("deadline", "deadline");
  int_flag("at", "at");
  int_flag("workers", "workers");
  int_flag("max-vertices", "max_vertices");
  if (args.flags.count("scale") != 0) w.Key("scale").Double(args.ScaleFlag());
  if (args.flags.count("from") != 0 || args.flags.count("to") != 0) {
    w.Key("window")
        .BeginArray()
        .Int(args.IntFlag("from", 0))
        .Int(args.IntFlag("to", 0))
        .EndArray();
  }
  if (args.Flag("cache") == "off") w.Key("cache").Bool(false);
  if (args.Flag("metrics") == "on") w.Key("metrics").Bool(true);
  w.EndObject();
  return w.Take();
}

int CmdQuery(const Args& args) {
  if (!args.OnlyFlags({"port", "json", "op", "graph", "alg", "platform",
                       "kind", "label", "mode", "dataset", "file", "source",
                       "target", "deadline", "at", "workers", "max-vertices",
                       "scale", "from", "to", "cache", "metrics", "id"})) {
    return 1;
  }
  const int port = static_cast<int>(args.IntFlag("port", -1, -1, 65535));
  if (port < 0) {
    std::fprintf(stderr, "error: query needs --port\n");
    return Usage();
  }
  const std::string request = BuildRequestLine(args);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%d: %s\n", port,
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }
  std::string out = request + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "error: write: %s\n", std::strerror(errno));
      ::close(fd);
      return 1;
    }
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
    const size_t nl = response.find('\n');
    if (nl != std::string::npos) {
      response.resize(nl);
      break;
    }
  }
  ::close(fd);
  if (response.empty()) {
    std::fprintf(stderr, "error: no response from server\n");
    return 1;
  }

  auto doc = ParseJson(response);
  if (!doc.ok()) {
    // Not JSON (shouldn't happen) — show it raw rather than nothing.
    std::printf("%s\n", response.c_str());
    return 1;
  }
  JsonWriter pretty(2);
  doc->WriteTo(&pretty);
  std::printf("%s\n", pretty.str().c_str());
  return doc->GetBool("ok", false) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      const std::string name = argv[i] + 2;
      if (i + 1 >= argc) return Usage();
      args.flags[name] = argv[++i];
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  if (args.command == "gen") return CmdGen(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "run") return CmdRun(args);
  if (args.command == "bench") return CmdBench(args);
  if (args.command == "slice") return CmdSlice(args);
  if (args.command == "query") return CmdQuery(args);
  return Usage();
}
