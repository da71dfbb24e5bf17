// Reverse-reachable (RR) set sampling (paper Definition 3.1): the
// primitive behind RIS and behind the shared influence oracle.
//
// An RR set for target z is the set of vertices that can reach z in a
// live-edge random graph; for a uniformly random z,
// Pr[R ∩ S != ∅] = Inf(S)/n (Borgs et al., Observation 3.2).

#ifndef SOLDIST_SIM_RR_SAMPLER_H_
#define SOLDIST_SIM_RR_SAMPLER_H_

#include <span>
#include <vector>

#include "graph/traversal.h"
#include "model/diffusion.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Generates RR sets by reverse BFS with per-in-edge coin flips.
///
/// Matches the paper's PRNG discipline (Section 4.1): one stream picks the
/// random target, a second stream drives the edge coins.
///
/// Draw contract: one target_rng->UniformInt(n) per Sample, then exactly
/// one coin per in-edge e scanned from a source not yet in R, in BFS
/// order: one 64-bit draw `bits` from coin_rng's engine, live iff
/// (bits >> 11) < t(e) with t(e) = InfluenceGraph::in_thresholds()[e] —
/// the same outcome as coin_rng->Bernoulli(p(e)) on those bits. The coin's
/// outcome never decides a branch (the loop always writes the source at
/// the queue tail, advances the tail by the outcome and marks it by a mask
/// select), but which coins are drawn, their order and their p are fixed
/// by this contract, so RR sets, their entry order, counters and both
/// Rngs' states are a pure function of the streams.
class RrSampler {
 public:
  explicit RrSampler(const InfluenceGraph* ig);

  /// Samples one RR set for a uniformly random target into `*out`
  /// (cleared first; target is out->front()).
  ///
  /// Accounting (paper Section 3.5.2): every vertex added to R is scanned
  /// (+1 vertex) and all its in-edges are examined (+d−(v) edges); the RR
  /// set's weight w(R) = Σ_{v∈R} d−(v) is exactly the edge count. Stored
  /// entries are sample size (counters->sample_vertices += |R|).
  void Sample(Rng* target_rng, Rng* coin_rng, std::vector<VertexId>* out,
              TraversalCounters* counters);

  /// Sample with the same draws, appending the RR set to `*flat` instead
  /// of replacing `*out`: a flat+offsets builder copies each set once.
  void AppendSample(Rng* target_rng, Rng* coin_rng,
                    std::vector<VertexId>* flat, TraversalCounters* counters);

  /// Samples an RR set for a *fixed* target (tests; oracle stratification).
  void SampleForTarget(VertexId target, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters);

  const InfluenceGraph& influence_graph() const { return *ig_; }

 private:
  /// The kernel: leaves R in queue_[0, size) and returns its size.
  std::size_t Traverse(VertexId target, Rng* coin_rng,
                       TraversalCounters* counters);

  const InfluenceGraph* ig_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;  // size n; the live prefix is R
};

/// \brief One chunk's worth of RR sets in flat+offsets (CSR) form, ready
/// for a bulk RrCollection::Merge. Produced by SampleRrShards.
struct RrShard {
  std::vector<VertexId> flat;
  std::vector<std::uint64_t> offsets;  ///< local: offsets[0] = 0
  TraversalCounters counters;
  /// Per-set counter deltas (set i of this shard cost per_set[i]); filled
  /// only when the sampler was asked to record them (RrArena needs them to
  /// attribute exact costs to every prefix).
  std::vector<TraversalCounters> per_set;

  std::uint64_t num_sets() const {
    return offsets.empty() ? 0
                           : static_cast<std::uint64_t>(offsets.size()) - 1;
  }
};

/// Samples `count` RR sets of `instance`'s model (RrSampler under IC,
/// LtRrSampler under LT) through `engine`, one shard per chunk.
///
/// Chunk c derives its (target, coin) stream pair from the chunk seed
/// DeriveSeed(master_seed, c), so the shard sequence — and therefore the
/// merged collection — is byte-identical for any worker count.
/// `record_per_set` additionally fills RrShard::per_set (never affects
/// the sampled content: recording draws nothing from the streams).
std::vector<RrShard> SampleRrShards(const ModelInstance& instance,
                                    std::uint64_t master_seed,
                                    std::uint64_t count,
                                    SamplingEngine* engine,
                                    bool record_per_set = false);

/// IC shorthand for SampleRrShards(ModelInstance::Ic(&ig), ...).
inline std::vector<RrShard> SampleRrShards(const InfluenceGraph& ig,
                                           std::uint64_t master_seed,
                                           std::uint64_t count,
                                           SamplingEngine* engine,
                                           bool record_per_set = false) {
  return SampleRrShards(ModelInstance::Ic(&ig), master_seed, count, engine,
                        record_per_set);
}

/// \brief A flattened collection of RR sets with an inverted index.
///
/// Storage: entries of set i are flat()[offsets()[i] .. offsets()[i+1]).
/// The inverted index maps vertex v to the ids of the RR sets containing
/// v, enabling O(Σ_v |index(v)|) coverage queries.
class RrCollection {
 public:
  explicit RrCollection(VertexId num_vertices);

  /// Appends one RR set (entries need not be sorted).
  void Add(const std::vector<VertexId>& rr_set);

  /// Bulk-appends shards in shard order: one flat+offsets (CSR-style)
  /// splice per shard instead of a per-set Add loop. Call BuildIndex()
  /// once afterwards.
  void Merge(std::span<const RrShard> shards);

  /// Move overload: when the collection is still empty, the first
  /// shard's flat buffer is adopted wholesale instead of copied (the
  /// single largest allocation of an engine-routed RIS/IMM build);
  /// remaining shards append as usual.
  void Merge(std::vector<RrShard>&& shards);

  std::uint64_t size() const { return static_cast<std::uint64_t>(offsets_.size()) - 1; }
  std::uint64_t total_entries() const {
    return static_cast<std::uint64_t>(flat_.size());
  }
  VertexId num_vertices() const { return num_vertices_; }

  std::span<const VertexId> Set(std::uint64_t i) const {
    return {flat_.data() + offsets_[i], flat_.data() + offsets_[i + 1]};
  }

  /// Builds the vertex -> set-ids index; call after the last Add/Merge and
  /// before InvertedList/CountCovered. Incremental: only sets appended
  /// since the previous build are counting-sorted in (their ids are larger
  /// than every indexed id, so per-vertex lists stay ascending and the
  /// already-indexed prefix is a bulk copy, not a scattered re-placement);
  /// a call with no new sets is a DCHECK-guarded no-op instead of the
  /// full rebuild it used to be (IMM's Merge-then-select rounds hit both
  /// cases every run). Set ids and offsets are 32-bit: a collection must
  /// stay under 2^32 entries (CHECKed; the paper-full grids top out at
  /// ~2^28).
  void BuildIndex();

  /// Ids of the RR sets containing v, ascending. Requires BuildIndex().
  std::span<const std::uint32_t> InvertedList(VertexId v) const;

  /// Number of RR sets intersecting `seeds` (requires BuildIndex()).
  std::uint64_t CountCovered(std::span<const VertexId> seeds) const;

  /// Mean RR-set size: the empirical EPT of Section 3.5.2.
  double MeanSize() const;

 private:
  VertexId num_vertices_;
  std::vector<VertexId> flat_;
  std::vector<std::uint64_t> offsets_;  // size() + 1 entries
  std::vector<std::uint32_t> index_flat_;
  std::vector<std::uint32_t> index_offsets_;  // n + 1 entries once built
  std::uint64_t indexed_sets_ = 0;  // sets covered by the current index
  bool index_built_ = false;
  // Scratch for CountCovered (mutable: queries are logically const).
  mutable std::vector<std::uint32_t> covered_stamp_;
  mutable std::uint32_t covered_epoch_ = 0;
};

}  // namespace soldist

#endif  // SOLDIST_SIM_RR_SAMPLER_H_
