// Forward simulation of the linear threshold model with lazily drawn
// thresholds: the LT counterpart of ForwardSimulator.

#ifndef SOLDIST_SIM_LT_FORWARD_SIM_H_
#define SOLDIST_SIM_LT_FORWARD_SIM_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "sim/counters.h"
#include "sim/forward_sim.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Simulates LT diffusions.
///
/// Thresholds θ_v are drawn lazily the first time influence weight
/// reaches v (equivalent to drawing all upfront; saves n draws per run).
/// Traversal accounting mirrors the IC simulator: each activated vertex
/// is scanned once and contributes all its out-edges.
class LtForwardSimulator {
 public:
  explicit LtForwardSimulator(const InfluenceGraph* ig);

  /// Runs one LT diffusion from `seeds`; returns the activated count.
  std::uint32_t Simulate(std::span<const VertexId> seeds, Rng* rng,
                         TraversalCounters* counters);

  /// Mean activated count over `runs` simulations.
  double EstimateInfluence(std::span<const VertexId> seeds,
                           std::uint64_t runs, Rng* rng,
                           TraversalCounters* counters);

 private:
  const InfluenceGraph* ig_;
  VisitedMarker active_;
  VisitedMarker weighted_;  // has v accumulated any weight this run?
  std::vector<double> weight_;
  std::vector<double> threshold_;
  std::vector<VertexId> queue_;
};

using LtForwardSimulatorCache = SimulatorCache<LtForwardSimulator>;

/// LT shorthand for EstimateInfluenceSharded<LtForwardSimulator>: the same
/// chunk driver and stream derivation as IC.
inline double EstimateLtInfluenceSharded(
    const InfluenceGraph& ig, std::span<const VertexId> seeds,
    std::uint64_t runs, std::uint64_t master_seed, SamplingEngine* engine,
    TraversalCounters* counters, LtForwardSimulatorCache* cache = nullptr) {
  return EstimateInfluenceSharded<LtForwardSimulator>(
      ig, seeds, runs, master_seed, engine, counters, cache);
}

}  // namespace soldist

#endif  // SOLDIST_SIM_LT_FORWARD_SIM_H_
