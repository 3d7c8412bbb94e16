// Resident-graph registry: the serving layer keeps partitioned
// TemporalGraphs (wrapped in algorithm Workloads, so derived structures —
// reversed / undirected / transformed graphs — are built once and reused
// across requests) alive across requests instead of re-loading per run.
//
// Entries are handed out as shared_ptr so an in-flight job keeps its graph
// alive across a concurrent drop/reload/append; each load or append bumps a
// per-name epoch that the result cache keys embed, so stale cached payloads
// can never be served for a replaced graph.
//
// Versions. A published entry is never modified. Append copies the
// resident TemporalGraph — O(delta): the sealed CSR base is immutable and
// shared by reference between versions (graph/temporal_graph.h) — applies
// the batch to the copy, and publishes the copy under a new epoch. Costs:
// append O(batch + delta); append with compact O(E) block copies of the
// base's flat arrays (no per-edge allocation), and releasing a replaced
// base is a handful of frees; publish O(1).
//
// Locking. A per-name writer lock serializes Add, Drop and Append on one
// name, so appends to one graph apply in arrival order while writers to
// different graphs run in parallel; it is held while a new version is
// built. `mu_` guards only the name -> entry map and is held for O(1)
// work: a lookup, a shared_ptr copy, or a swap. No graph is constructed,
// copied or destroyed under `mu_` — replaced entries are released after
// unlocking — so Get and List never wait on graph construction or
// destruction.
//
// The registry is thread-safe, and so is a ResidentGraph's Workload:
// concurrent runs may share one entry, and each derived graph is built
// once however many of them ask for it first.
#ifndef GRAPHITE_SERVER_GRAPH_REGISTRY_H_
#define GRAPHITE_SERVER_GRAPH_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/runners.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace graphite {

struct ResidentGraph {
  std::string name;
  uint64_t epoch = 0;  ///< Bumped on every (re)load or append of this name.
  Workload workload;
  /// Set once this entry stops being the resident version of `name`
  /// (replaced by a load or append, or dropped), before the registry
  /// lock that published the change is released.
  std::atomic<bool> superseded{false};

  ResidentGraph(std::string n, uint64_t e, TemporalGraph g)
      : name(std::move(n)), epoch(e), workload(std::move(g)) {}
};

struct ResidentGraphInfo {
  std::string name;
  uint64_t epoch = 0;  ///< Registry epoch (bumped per load/append).
  size_t vertices = 0;
  size_t edges = 0;
  TimePoint horizon = 0;
  GraphHead head;  ///< The graph's own time-axis head (DESIGN.md §4l).
};

class GraphRegistry {
 public:
  /// Registers (or replaces) `name`; returns the new epoch.
  uint64_t Add(const std::string& name, TemporalGraph g);

  /// Appends `batch` to resident graph `name` (optionally Compact()ing
  /// after) and publishes the grown graph under a NEW registry epoch.
  /// Copy-on-append, built outside `mu_` under the name's writer lock:
  /// in-flight jobs keep their pre-append entry alive through the
  /// shared_ptr they hold and finish against the old view; requests
  /// admitted after the swap see the new head. The caller is
  /// responsible for invalidating cached fragments by graph prefix (the
  /// epoch embedded in cache keys already prevents stale serving).
  /// NotFound when absent; Append's validation errors pass through and
  /// leave the resident graph untouched.
  Result<ResidentGraphInfo> Append(const std::string& name,
                                   const EdgeBatch& batch, bool compact);

  /// nullptr when absent. The returned entry stays valid (shared
  /// ownership) even if the name is dropped or replaced meanwhile.
  std::shared_ptr<ResidentGraph> Get(const std::string& name) const;

  /// True when the name was resident.
  bool Drop(const std::string& name);

  std::vector<ResidentGraphInfo> List() const;

  size_t size() const;

 private:
  /// The writer lock for `name`, created on first use and never freed.
  Mutex& WriterLock(const std::string& name);
  /// Publishes `next` (nullptr = drop) as `name`'s entry under `mu_`,
  /// marking the replaced entry superseded, and returns the replaced
  /// entry so the caller releases it after `mu_` is unlocked.
  std::shared_ptr<ResidentGraph> Swap(const std::string& name,
                                      std::shared_ptr<ResidentGraph> next);

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<ResidentGraph>> graphs_
      GRAPHITE_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> epochs_
      GRAPHITE_GUARDED_BY(mu_);  // survives drops
  std::map<std::string, std::unique_ptr<Mutex>> writers_
      GRAPHITE_GUARDED_BY(mu_);  // survives drops
};

}  // namespace graphite

#endif  // GRAPHITE_SERVER_GRAPH_REGISTRY_H_
