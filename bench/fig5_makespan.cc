// Reproduces Fig. 5: per-algorithm makespan split into compute+ time,
// exclusive messaging time and barrier time, together with the counts of
// compute calls and messages sent, for every graph and platform. As in
// the paper, EAT and FAST are omitted (they behave like SSSP).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace graphite;
  const double scale = bench::ResolveScale(argc, argv, 0.4);
  RunConfig config;
  config.num_workers = 8;

  auto datasets = bench::LoadCatalog(scale);
  // The paper plots 4 TI + 6 TD algorithms (EAT/FAST omitted for brevity).
  const std::vector<Algorithm> algorithms = {
      Algorithm::kBfs,  Algorithm::kWcc, Algorithm::kScc, Algorithm::kPr,
      Algorithm::kSssp, Algorithm::kLd,  Algorithm::kTmst, Algorithm::kRh,
      Algorithm::kLcc,  Algorithm::kTc};
  const auto points = bench::RunSweep(datasets, config, algorithms);

  std::printf("\nFig. 5: makespan split and counts per algorithm, graph "
              "and platform (scale %.2f, %d workers)\n",
              scale, config.num_workers);
  for (const auto& ds : datasets) {
    std::printf("\n=== %s (%s) ===\n", ds.name.c_str(), ds.models.c_str());
    TextTable table;
    table.AddRow({"Alg", "Platform", "Makespan-ms", "Compute+-ms",
                  "Messaging-ms", "Barrier-ms", "Supersteps",
                  "Compute-calls", "Messages"});
    for (Algorithm a : algorithms) {
      for (Platform p : kAllPlatforms) {
        if (!Supports(p, a)) continue;
        const auto& m = bench::Find(points, ds.name, a, p).metrics;
        table.AddRow({AlgorithmName(a), PlatformName(p),
                      FormatDouble(bench::Ms(m.makespan_ns), 1),
                      FormatDouble(bench::Ms(m.compute_ns), 1),
                      FormatDouble(bench::Ms(m.messaging_ns), 1),
                      FormatDouble(bench::Ms(m.barrier_ns), 1),
                      std::to_string(m.supersteps),
                      FormatCount(m.compute_calls), FormatCount(m.messages)});
      }
    }
    std::printf("%s", table.ToString().c_str());
  }
  std::printf(
      "\nShapes to check against the paper:\n"
      "  * Twitter/MAG-like: ICM needs 1-2 orders of magnitude fewer\n"
      "    compute calls and messages than MSB (long shared lifespans);\n"
      "  * GPlus-like: all platforms converge to similar counts (unit\n"
      "    lifespans leave nothing to share);\n"
      "  * USRN-like: superstep counts dominate (graph diameter), and\n"
      "    ICM's single pass beats per-snapshot execution;\n"
      "  * TGB pays extra messages/calls for replica state transfer.\n");
  return 0;
}
