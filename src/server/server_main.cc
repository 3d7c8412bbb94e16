// graphite_server — line-delimited JSON temporal query service.
//
//   graphite_server --stdio --preload t=twitter:0.1
//   graphite_server --port 7171 --threads 4 --preload t=twitter --preload
//       r=reddit
//
// Protocol: one JSON object per line; see src/server/server.h and the
// README "serving" quickstart.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "server/server.h"
#include "util/json.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: graphite_server [--port N | --stdio] [options]\n"
               "  --port N           listen on 127.0.0.1:N (0 = ephemeral)\n"
               "  --stdio            serve stdin/stdout instead of TCP\n"
               "  --threads N        scheduler worker threads (default 4)\n"
               "  --queue N          admission queue bound (default 128)\n"
               "  --cache-entries N  result cache entries (default 1024)\n"
               "  --cache-mb N       result cache size bound in MiB\n"
               "  --workers N        default per-request workers (default 4,\n"
               "                     at most 64)\n"
               "  --preload NAME=DATASET[:SCALE]  generate + register a\n"
               "                     catalog dataset before serving\n"
               "  --preload NAME=@FILE            load a text-format graph\n"
               "                     (preloads load in parallel; each NAME\n"
               "                     may appear once)\n");
}

/// Parses `text` as one whole integer token in [lo, hi]; anything else
/// (empty, trailing bytes, out of range) exits with status 2 naming the
/// flag, before any graph loads or threads start.
template <typename T>
T ParseFlag(const std::string& flag, const char* text, T lo, T hi) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    std::fprintf(stderr,
                 "bad value for %s: '%s' (want an integer in [%s, %s])\n",
                 flag.c_str(), text, std::to_string(lo).c_str(),
                 std::to_string(hi).c_str());
    std::exit(2);
  }
  return value;
}

/// Parses a --preload SCALE as one whole finite number > 0, or exits
/// with status 2 as ParseFlag does.
double ParseScale(const char* text) {
  double value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value <= 0) {
    std::fprintf(stderr,
                 "bad value for --preload: scale '%s' (want a finite "
                 "number > 0)\n",
                 text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  graphite::ServerOptions options;
  int port = -1;
  bool stdio = false;
  std::vector<graphite::PreloadSpec> preloads;

  constexpr size_t kSizeMax = std::numeric_limits<size_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = ParseFlag(arg, next(), 0, 65535);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--threads") {
      options.scheduler.num_threads =
          ParseFlag(arg, next(), 1, std::numeric_limits<int>::max());
    } else if (arg == "--queue") {
      options.scheduler.max_queue = ParseFlag(arg, next(), size_t{1}, kSizeMax);
    } else if (arg == "--cache-entries") {
      options.cache_entries = ParseFlag(arg, next(), size_t{0}, kSizeMax);
    } else if (arg == "--cache-mb") {
      options.cache_bytes = ParseFlag(arg, next(), size_t{0}, kSizeMax >> 20)
                            << 20;
    } else if (arg == "--workers") {
      options.service.default_workers =
          ParseFlag(arg, next(), 1, graphite::kMaxRequestWorkers);
    } else if (arg == "--preload") {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "bad --preload spec: %s\n", spec.c_str());
        return 2;
      }
      graphite::PreloadSpec p{spec.substr(0, eq), spec.substr(eq + 1)};
      const size_t colon = p.source.rfind(':');
      if (p.source.rfind('@', 0) != 0 && colon != std::string::npos) {
        p.scale = ParseScale(p.source.c_str() + colon + 1);
      }
      // The preloads load concurrently, so two of one name would race
      // for which stays registered.
      for (const graphite::PreloadSpec& earlier : preloads) {
        if (earlier.name == p.name) {
          std::fprintf(stderr,
                       "bad value for --preload: duplicate --preload name "
                       "'%s'\n",
                       p.name.c_str());
          return 2;
        }
      }
      preloads.push_back(std::move(p));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (stdio == (port >= 0)) {
    std::fprintf(stderr, "pick exactly one of --stdio / --port\n");
    Usage();
    return 2;
  }

  graphite::Server server(options);
  // Every preload loads on its own thread; the outcomes print in flag
  // order once all have finished.
  const std::vector<graphite::Status> loaded = server.Preload(preloads);
  for (size_t i = 0; i < preloads.size(); ++i) {
    const graphite::PreloadSpec& p = preloads[i];
    if (!loaded[i].ok()) {
      std::fprintf(stderr, "preload %s failed: %s\n", p.name.c_str(),
                   loaded[i].ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "preloaded %s (%s)\n", p.name.c_str(),
                 p.source.c_str());
  }

  if (stdio) {
    server.ServeStream(STDIN_FILENO, STDOUT_FILENO);
    return 0;
  }
  auto bound = server.ListenTcp(port);
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  // Machine-readable startup line (tests and scripts parse this).
  graphite::JsonWriter ready;
  ready.BeginObject();
  ready.Key("ready").Bool(true);
  ready.Key("port").Int(*bound);
  ready.EndObject();
  std::fprintf(stdout, "%s\n", ready.str().c_str());
  std::fflush(stdout);
  server.ServeTcp();
  return 0;
}
