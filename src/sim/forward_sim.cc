#include "sim/forward_sim.h"

namespace soldist {

ForwardSimulator::ForwardSimulator(const InfluenceGraph* ig)
    : ig_(ig), active_(ig->num_vertices()), queue_(ig->num_vertices()) {}

std::uint32_t ForwardSimulator::Simulate(std::span<const VertexId> seeds,
                                         Rng* rng,
                                         TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  const EdgeId* offsets = g.out_offsets().data();
  const VertexId* targets = g.out_targets().data();
  const std::uint64_t* threshold = ig_->out_thresholds().data();
  VertexId* queue = queue_.data();
  active_.NextEpoch();
  std::uint32_t* stamp = active_.stamps();
  const std::uint32_t epoch = active_.epoch();
  Mt19937_64::Cursor coins(&rng->engine());
  std::size_t tail = 0;
  for (VertexId s : seeds) {
    if (active_.Mark(s)) queue[tail++] = s;
  }
  std::uint64_t edges = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const VertexId u = queue[head];
    // Scan u: one vertex examination plus all of its out-edges.
    const EdgeId begin = offsets[u];
    const EdgeId end = offsets[u + 1];
    edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      const VertexId v = targets[e];
      const std::uint32_t s = stamp[v];
      if (s == epoch) continue;  // already active: coin is moot
      // v is unmarked, so it is not queued and tail < n: the slot is free.
      const std::uint32_t live = (coins() >> 11) < threshold[e];
      const std::uint32_t mask = 0u - live;
      stamp[v] = (s & ~mask) | (epoch & mask);
      queue[tail] = v;
      tail += live;
    }
  }
  // Every queued vertex was scanned exactly once.
  counters->vertices += tail;
  counters->edges += edges;
  return static_cast<std::uint32_t>(tail);
}

std::vector<VertexId> ForwardSimulator::SimulateSet(
    std::span<const VertexId> seeds, Rng* rng, TraversalCounters* counters) {
  const std::uint32_t size = Simulate(seeds, rng, counters);
  return {queue_.begin(), queue_.begin() + size};
}

double ForwardSimulator::EstimateInfluence(std::span<const VertexId> seeds,
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
