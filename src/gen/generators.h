// Synthetic temporal-graph generators. Each of the paper's six real-world
// datasets (Table 1) is modeled by a deterministic generator reproducing
// the characteristics the evaluation depends on — degree distribution
// (power-law social vs. planar road), snapshot count, entity-lifespan
// distribution (unit / long / mixed) and property churn — at laptop scale.
// A configurable LDBC-like generator drives the weak-scaling experiment
// (Fig. 7), with LinkBench-style structural churn.
#ifndef GRAPHITE_GEN_GENERATORS_H_
#define GRAPHITE_GEN_GENERATORS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/temporal_graph.h"

namespace graphite {

/// Knobs for the generic temporal graph synthesizer.
struct GenOptions {
  uint64_t seed = 1;
  int64_t num_vertices = 1000;
  int64_t num_edges = 5000;
  /// Snapshot count (graph horizon T).
  TimePoint snapshots = 16;

  /// Topology family.
  enum class Topology {
    kPowerLaw,  ///< Preferential-attachment-like (social/web graphs).
    kGrid,      ///< Planar 2D grid with bidirectional edges (road nets).
  };
  Topology topology = Topology::kPowerLaw;
  /// Zipf skew of the power-law endpoint sampling.
  double zipf_alpha = 0.8;

  /// Lifespan shape of edges.
  enum class Lifespan {
    kUnit,   ///< Every edge lives one time-point (GPlus).
    kLong,   ///< Edges live ~full graph lifetime (Twitter/MAG).
    kMixed,  ///< Unit-heavy mix (Reddit) or spread (WebUK).
    kFull,   ///< Static topology, lifespan == horizon (USRN).
  };
  Lifespan edge_lifespan = Lifespan::kLong;
  /// Fraction of unit-lifespan edges in kMixed mode.
  double unit_fraction = 0.5;
  /// Mean edge lifespan (time-points) in kLong/kMixed modes.
  double mean_edge_lifespan = 8;
  /// Probability a kLong edge exists from t=0 (temporal uniformity: high
  /// values mean long shared lifespans, the Twitter shape).
  double start_zero_prob = 0.6;

  /// Vertices live for the whole horizon with this probability; otherwise
  /// a random sub-interval covering their edges.
  double full_vertex_prob = 0.9;

  /// Attach travel-time / travel-cost edge properties (TD algorithms).
  bool with_properties = true;
  /// Mean number of property segments per edge (property churn).
  double prop_segments = 2.0;
  TimePoint max_travel_time = 2;
  PropValue max_travel_cost = 20;
};

/// Synthesizes a valid temporal graph (Constraints 1-3 hold by
/// construction, and the builder checks them).
TemporalGraph Generate(const GenOptions& options);

/// The six dataset analogs (paper Table 1), keyed by the real graph they
/// model. `scale` multiplies vertex/edge counts (1.0 = default laptop
/// scale, ~1000x smaller than the paper's clusters).
struct DatasetSpec {
  std::string name;        ///< e.g. "GPlus-like".
  std::string models;      ///< The real dataset it stands in for.
  GenOptions options;
};

/// Returns all six specs at the given scale.
std::vector<DatasetSpec> DatasetCatalog(double scale = 1.0);

/// The first catalog entry whose name starts with `name` in any case
/// ("twitter", "Red"), or nullopt.
std::optional<DatasetSpec> FindDataset(std::string_view name,
                                       double scale = 1.0);
/// FindDataset for a name known to be in the catalog; CHECK-fails
/// otherwise.
DatasetSpec DatasetByName(const std::string& name, double scale = 1.0);

/// LDBC-like weak-scaling graph (Fig. 7): `machines` scales vertices and
/// edges linearly (~10k vertices and ~100k edges per machine at scale 1),
/// perturbed over `snapshots` time-points with LinkBench-style churn.
GenOptions WeakScalingOptions(int machines, double scale = 1.0,
                              TimePoint snapshots = 16);

}  // namespace graphite

#endif  // GRAPHITE_GEN_GENERATORS_H_
