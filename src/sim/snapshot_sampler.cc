#include "sim/snapshot_sampler.h"

#include <memory>

#include "random/splitmix64.h"
#include "sim/lt_samplers.h"

namespace soldist {

SnapshotSampler::SnapshotSampler(const InfluenceGraph* ig)
    : ig_(ig), visited_(ig->num_vertices()) {
  queue_.reserve(ig->num_vertices());
}

Snapshot SnapshotSampler::Sample(Rng* rng, TraversalCounters* counters) {
  Snapshot snap;
  SampleInto(rng, counters, &snap);
  return snap;
}

void SnapshotSampler::SampleInto(Rng* rng, TraversalCounters* counters,
                                 Snapshot* out) {
  const Graph& g = ig_->graph();
  const VertexId n = g.num_vertices();
  const EdgeId* offsets = g.out_offsets().data();
  const VertexId* targets = g.out_targets().data();
  const std::uint64_t* threshold = ig_->out_thresholds().data();
  Mt19937_64::Cursor coins(&rng->engine());
  out->out_offsets.resize(static_cast<std::size_t>(n) + 1);
  out->out_offsets[0] = 0;
  std::size_t live = 0;
  for (VertexId u = 0; u < n; ++u) {
    const EdgeId begin = offsets[u];
    const EdgeId end = offsets[u + 1];
    // Room for every out-edge of u to be live; the scratch only grows to
    // the largest live count plus one out-degree, never to m.
    if (live_targets_.size() < live + (end - begin)) {
      live_targets_.resize(live + (end - begin));
    }
    VertexId* buf = live_targets_.data();
    for (EdgeId e = begin; e < end; ++e) {
      buf[live] = targets[e];
      live += (coins() >> 11) < threshold[e];
    }
    out->out_offsets[u + 1] = static_cast<EdgeId>(live);
  }
  // A fresh snapshot's capacity stays at the live count: the engine path
  // stores raw snapshots.
  out->out_targets.assign(live_targets_.begin(),
                          live_targets_.begin() + live);
  counters->sample_edges += live;
}

std::uint32_t SnapshotSampler::CountReachable(const Snapshot& snapshot,
                                              std::span<const VertexId> seeds,
                                              TraversalCounters* counters) {
  visited_.NextEpoch();
  queue_.clear();
  for (VertexId s : seeds) {
    if (visited_.Mark(s)) queue_.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    counters->vertices += 1;
    const EdgeId begin = snapshot.out_offsets[u];
    const EdgeId end = snapshot.out_offsets[u + 1];
    counters->edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      VertexId w = snapshot.out_targets[e];
      if (visited_.Mark(w)) queue_.push_back(w);
    }
  }
  return static_cast<std::uint32_t>(queue_.size());
}

std::vector<VertexId> SnapshotSampler::ReachableSet(
    const Snapshot& snapshot, std::span<const VertexId> seeds,
    TraversalCounters* counters) {
  CountReachable(snapshot, seeds, counters);
  return queue_;
}

namespace {

/// The one snapshot chunk driver; `Sampler` is the model's kernel
/// (SnapshotSampler or LtSnapshotSampler), built from `source` once per
/// worker slot.
template <typename Sampler, typename Source>
std::vector<SnapshotShard> SampleSnapshotShardsWith(const Source* source,
                                                    std::uint64_t master_seed,
                                                    std::uint64_t count,
                                                    SamplingEngine* engine) {
  std::vector<SnapshotShard> shards(engine->NumChunks(count));
  std::vector<std::unique_ptr<Sampler>> samplers(engine->num_workers());
  engine->Run(master_seed, count,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    if (samplers[slot] == nullptr) {
      samplers[slot] = std::make_unique<Sampler>(source);
    }
    Rng rng(DeriveSeed(chunk.seed, 1));
    SnapshotShard& shard = shards[chunk.index];
    shard.snapshots.reserve(chunk.end - chunk.begin);
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      shard.snapshots.push_back(
          samplers[slot]->Sample(&rng, &shard.counters));
    }
  });
  return shards;
}

}  // namespace

std::vector<SnapshotShard> SampleSnapshotShards(const ModelInstance& instance,
                                                std::uint64_t master_seed,
                                                std::uint64_t count,
                                                SamplingEngine* engine) {
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    return SampleSnapshotShardsWith<LtSnapshotSampler>(
        instance.lt_weights, master_seed, count, engine);
  }
  return SampleSnapshotShardsWith<SnapshotSampler>(instance.ig, master_seed,
                                                   count, engine);
}

}  // namespace soldist
