// Snapshot sampling (paper Section 3.4): live-edge random graphs G(i) ~ G
// generated once in Build and shared across the greedy selection.

#ifndef SOLDIST_SIM_SNAPSHOT_SAMPLER_H_
#define SOLDIST_SIM_SNAPSHOT_SAMPLER_H_

#include <vector>

#include "graph/traversal.h"
#include "model/diffusion.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief One live-edge random graph in CSR form.
struct Snapshot {
  std::vector<EdgeId> out_offsets;    // size n+1
  std::vector<VertexId> out_targets;  // live edges only

  EdgeId num_live_edges() const {
    return static_cast<EdgeId>(out_targets.size());
  }
};

/// \brief Samples snapshots and answers reachability on them.
///
/// Draw contract: a snapshot flips exactly one coin per arc e of the graph
/// in CSR order (vertex by vertex, each vertex's out-arcs in order): one
/// 64-bit draw `bits` from the Rng's engine, live iff (bits >> 11) < t(e)
/// with t(e) = InfluenceGraph::out_thresholds()[e] — the same outcome as
/// rng->Bernoulli(p(e)) on those bits. The coin's outcome never decides a
/// branch (the loop always writes the target at the live tail and advances
/// the tail by the outcome), but the draws themselves are fixed by this
/// contract, so snapshots, counters and the Rng's state after every call
/// are a pure function of the stream.
class SnapshotSampler {
 public:
  explicit SnapshotSampler(const InfluenceGraph* ig);

  /// Draws one snapshot: every edge e kept independently with p(e).
  ///
  /// Accounting: stored live edges are *sample size* (counters->
  /// sample_edges); the coin flip per edge is Build work the paper
  /// excludes from the traversal cost ("Build touches each edge only τ
  /// times, which does not dominate", Section 3.4.2).
  Snapshot Sample(Rng* rng, TraversalCounters* counters);

  /// Sample into a caller-owned snapshot, reusing its buffers — the
  /// condensed build discards each raw CSR right after condensing it, so
  /// one scratch snapshot serves the whole loop.
  void SampleInto(Rng* rng, TraversalCounters* counters, Snapshot* out);

  /// r_G(i)(seeds): vertices reachable from `seeds` in `snapshot`.
  ///
  /// Accounting: each reached vertex is scanned (+1 vertex) and its *live*
  /// out-edges are examined (+live-degree edges) — the m̃/m edge-cost
  /// factor of Section 5.3.2 comes from scanning live edges only.
  std::uint32_t CountReachable(const Snapshot& snapshot,
                               std::span<const VertexId> seeds,
                               TraversalCounters* counters);

  /// Like CountReachable but returns the reached set (visit order).
  std::vector<VertexId> ReachableSet(const Snapshot& snapshot,
                                     std::span<const VertexId> seeds,
                                     TraversalCounters* counters);

 private:
  const InfluenceGraph* ig_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> live_targets_;  // SampleInto's branch-free scratch
};

/// \brief One chunk's worth of snapshots, produced by SampleSnapshotShards.
struct SnapshotShard {
  std::vector<Snapshot> snapshots;
  TraversalCounters counters;
};

/// Samples `count` snapshots of `instance`'s model (SnapshotSampler under
/// IC, LtSnapshotSampler under LT) through `engine`, one shard per chunk;
/// chunk c draws from a stream seeded with DeriveSeed(DeriveSeed(
/// master_seed, c), 1), so the concatenation in shard order is
/// worker-count-independent.
std::vector<SnapshotShard> SampleSnapshotShards(const ModelInstance& instance,
                                                std::uint64_t master_seed,
                                                std::uint64_t count,
                                                SamplingEngine* engine);

/// IC shorthand for SampleSnapshotShards(ModelInstance::Ic(&ig), ...).
inline std::vector<SnapshotShard> SampleSnapshotShards(
    const InfluenceGraph& ig, std::uint64_t master_seed, std::uint64_t count,
    SamplingEngine* engine) {
  return SampleSnapshotShards(ModelInstance::Ic(&ig), master_seed, count,
                              engine);
}

}  // namespace soldist

#endif  // SOLDIST_SIM_SNAPSHOT_SAMPLER_H_
