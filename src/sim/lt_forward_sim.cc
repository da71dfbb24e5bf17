#include "sim/lt_forward_sim.h"

namespace soldist {

LtForwardSimulator::LtForwardSimulator(const InfluenceGraph* ig)
    : ig_(ig),
      active_(ig->num_vertices()),
      weighted_(ig->num_vertices()),
      weight_(ig->num_vertices(), 0.0),
      threshold_(ig->num_vertices(), 0.0) {
  queue_.reserve(ig->num_vertices());
}

std::uint32_t LtForwardSimulator::Simulate(std::span<const VertexId> seeds,
                                           Rng* rng,
                                           TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  active_.NextEpoch();
  weighted_.NextEpoch();
  queue_.clear();
  for (VertexId s : seeds) {
    if (active_.Mark(s)) queue_.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    counters->vertices += 1;
    const EdgeId begin = g.out_offsets()[u];
    const EdgeId end = g.out_offsets()[u + 1];
    counters->edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      VertexId v = g.out_targets()[e];
      if (active_.IsMarked(v)) continue;
      if (weighted_.Mark(v)) {
        // First contact this run: reset accumulator, draw the threshold.
        weight_[v] = 0.0;
        threshold_[v] = rng->UnitReal();
      }
      weight_[v] += ig_->OutProbability(e);
      if (weight_[v] >= threshold_[v]) {
        active_.Mark(v);
        queue_.push_back(v);
      }
    }
  }
  return static_cast<std::uint32_t>(queue_.size());
}

double LtForwardSimulator::EstimateInfluence(std::span<const VertexId> seeds,
                                             std::uint64_t runs, Rng* rng,
                                             TraversalCounters* counters) {
  SOLDIST_CHECK(runs > 0);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    total += Simulate(seeds, rng, counters);
  }
  return static_cast<double>(total) / static_cast<double>(runs);
}

}  // namespace soldist
