// Forward Monte-Carlo simulation of the independent cascade model (paper
// Section 2.2): the sampling primitive behind Oneshot.

#ifndef SOLDIST_SIM_FORWARD_SIM_H_
#define SOLDIST_SIM_FORWARD_SIM_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "random/splitmix64.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Simulates IC diffusions on one influence graph.
///
/// Reusable across simulations (epoch-marked visited array, an n-entry
/// queue buffer); not thread-safe — use one simulator per thread.
///
/// Draw contract: a diffusion flips exactly one coin per out-edge e
/// scanned to a target that is not yet active, in BFS order: one 64-bit
/// draw `bits` from the Rng's engine, live iff (bits >> 11) < t(e) with
/// t(e) = InfluenceGraph::out_thresholds()[e] — the same outcome as
/// rng->Bernoulli(p(e)) on those bits. The coin's outcome never decides a
/// branch (the loop always writes the target at the queue tail, advances
/// the tail by the outcome and marks it by a mask select), but which coins
/// are drawn, their order and their p are fixed by this contract, so
/// activated sets, counters and the Rng's state after every call are a
/// pure function of (seeds, rng).
class ForwardSimulator {
 public:
  explicit ForwardSimulator(const InfluenceGraph* ig);

  /// Runs one diffusion from `seeds`; returns |A_<=n|, the number of
  /// activated vertices (seeds included).
  ///
  /// Traversal accounting (paper Appendix): every activated vertex is
  /// scanned once (+1 vertex); scanning examines all its out-edges
  /// (+d+(u) edges), including edges to already-active targets.
  std::uint32_t Simulate(std::span<const VertexId> seeds, Rng* rng,
                         TraversalCounters* counters);

  /// Like Simulate but also returns the activated set (visit order).
  std::vector<VertexId> SimulateSet(std::span<const VertexId> seeds, Rng* rng,
                                    TraversalCounters* counters);

  /// Mean activated count over `runs` simulations: the Oneshot estimator's
  /// core loop (Algorithm 3.2).
  double EstimateInfluence(std::span<const VertexId> seeds,
                           std::uint64_t runs, Rng* rng,
                           TraversalCounters* counters);

  const InfluenceGraph& influence_graph() const { return *ig_; }

 private:
  const InfluenceGraph* ig_;
  VisitedMarker active_;
  std::vector<VertexId> queue_;  // size n; the live prefix is the BFS queue
};

/// Per-worker-slot simulator cache for EstimateInfluenceSharded: pass the
/// same cache across calls (Oneshot calls once per candidate vertex per
/// greedy round) so each slot's O(n) simulator is built once, not per
/// chunk. Scratch reuse never affects results — all randomness comes from
/// the per-chunk streams.
template <typename Simulator>
using SimulatorCache = std::vector<std::unique_ptr<Simulator>>;
using ForwardSimulatorCache = SimulatorCache<ForwardSimulator>;

/// Mean activated count over `runs` diffusions from `seeds`, fanned out
/// through `engine` with per-chunk PRNG streams (chunk c draws from
/// DeriveSeed(DeriveSeed(master_seed, c), 1)). `Simulator` is the model's
/// kernel: ForwardSimulator (IC, the default) or LtForwardSimulator.
/// Activated counts are integers accumulated per chunk and merged in chunk
/// order, so the result is byte-identical for any worker count. `cache`
/// (optional) amortizes simulator construction across calls; it must not
/// be shared between concurrently running calls.
template <typename Simulator = ForwardSimulator>
double EstimateInfluenceSharded(const InfluenceGraph& ig,
                                std::span<const VertexId> seeds,
                                std::uint64_t runs, std::uint64_t master_seed,
                                SamplingEngine* engine,
                                TraversalCounters* counters,
                                SimulatorCache<Simulator>* cache = nullptr) {
  SOLDIST_CHECK(runs > 0);
  const std::uint64_t num_chunks = engine->NumChunks(runs);
  SimulatorCache<Simulator> local_cache;
  SimulatorCache<Simulator>& sims = cache != nullptr ? *cache : local_cache;
  if (sims.size() < engine->num_workers()) {
    sims.resize(engine->num_workers());
  }
  std::vector<std::uint64_t> totals(num_chunks, 0);
  std::vector<TraversalCounters> chunk_counters(num_chunks);
  engine->Run(master_seed, runs,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    if (sims[slot] == nullptr) {
      sims[slot] = std::make_unique<Simulator>(&ig);
    }
    Rng rng(DeriveSeed(chunk.seed, 1));
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      totals[chunk.index] +=
          sims[slot]->Simulate(seeds, &rng, &chunk_counters[chunk.index]);
    }
  });
  std::uint64_t total = 0;
  for (std::uint64_t t : totals) total += t;
  if (counters != nullptr) *counters += MergeCounters(chunk_counters);
  return static_cast<double>(total) / static_cast<double>(runs);
}

}  // namespace soldist

#endif  // SOLDIST_SIM_FORWARD_SIM_H_
