#include "sim/rr_sampler.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "random/splitmix64.h"
#include "sim/lt_samplers.h"

namespace soldist {

RrSampler::RrSampler(const InfluenceGraph* ig)
    : ig_(ig), visited_(ig->num_vertices()), queue_(ig->num_vertices()) {}

void RrSampler::Sample(Rng* target_rng, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters) {
  out->clear();
  AppendSample(target_rng, coin_rng, out, counters);
}

void RrSampler::AppendSample(Rng* target_rng, Rng* coin_rng,
                             std::vector<VertexId>* flat,
                             TraversalCounters* counters) {
  auto target =
      static_cast<VertexId>(target_rng->UniformInt(ig_->num_vertices()));
  const std::size_t size = Traverse(target, coin_rng, counters);
  flat->insert(flat->end(), queue_.data(), queue_.data() + size);
}

void RrSampler::SampleForTarget(VertexId target, Rng* coin_rng,
                                std::vector<VertexId>* out,
                                TraversalCounters* counters) {
  const std::size_t size = Traverse(target, coin_rng, counters);
  out->assign(queue_.data(), queue_.data() + size);
}

std::size_t RrSampler::Traverse(VertexId target, Rng* coin_rng,
                                TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  const EdgeId* offsets = g.in_offsets().data();
  const VertexId* sources = g.in_sources().data();
  const std::uint64_t* threshold = ig_->in_thresholds().data();
  VertexId* queue = queue_.data();
  visited_.NextEpoch();
  std::uint32_t* stamp = visited_.stamps();
  const std::uint32_t epoch = visited_.epoch();
  Mt19937_64::Cursor coins(&coin_rng->engine());
  stamp[target] = epoch;
  queue[0] = target;
  std::size_t tail = 1;
  std::uint64_t edges = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const VertexId v = queue[head];
    const EdgeId begin = offsets[v];
    const EdgeId end = offsets[v + 1];
    edges += end - begin;
    for (EdgeId pos = begin; pos < end; ++pos) {
      const VertexId w = sources[pos];
      const std::uint32_t s = stamp[w];
      if (s == epoch) continue;
      // w is unmarked, so it is not queued and tail < n: the slot is free.
      const std::uint32_t live = (coins() >> 11) < threshold[pos];
      const std::uint32_t mask = 0u - live;
      stamp[w] = (s & ~mask) | (epoch & mask);
      queue[tail] = w;
      tail += live;
    }
  }
  // Every entry of R was scanned exactly once.
  counters->vertices += tail;
  counters->edges += edges;
  counters->sample_vertices += tail;
  return tail;
}

namespace {

/// The one RR chunk driver; `Sampler` is the model's kernel (RrSampler or
/// LtRrSampler), built from `source` once per worker slot.
template <typename Sampler, typename Source>
std::vector<RrShard> SampleRrShardsWith(const Source* source,
                                        std::uint64_t master_seed,
                                        std::uint64_t count,
                                        SamplingEngine* engine,
                                        bool record_per_set) {
  std::vector<RrShard> shards(engine->NumChunks(count));
  // Per-worker-slot samplers: the O(n) scratch is built at most once per
  // slot and reused across chunks; sampler scratch never affects output
  // (every chunk's randomness comes from its own derived streams).
  std::vector<std::unique_ptr<Sampler>> samplers(engine->num_workers());
  // Per-slot running mean RR-set size: later chunks pre-reserve their
  // flat buffer instead of growing it through doubling reallocations.
  // Slot statistics are schedule-dependent scratch — they size capacity
  // only, never content.
  struct SlotStats {
    std::uint64_t sets = 0;
    std::uint64_t entries = 0;
  };
  std::vector<SlotStats> stats(engine->num_workers());
  const CancelToken* cancel = engine->cancel();
  engine->Run(master_seed, count,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    // Cooperative cancel: a fired token skips whole chunks (the empty
    // shard marks the cut) — except chunk 0, so at least one set always
    // lands. Completed-prefix content is untouched, so a cancelled
    // build truncates to a byte-identical smaller arena.
    if (cancel != nullptr && chunk.index > 0 && cancel->cancelled()) {
      return;
    }
    if (samplers[slot] == nullptr) {
      samplers[slot] = std::make_unique<Sampler>(source);
    }
    Rng target_rng(DeriveSeed(chunk.seed, 1));
    Rng coin_rng(DeriveSeed(chunk.seed, 2));
    RrShard& shard = shards[chunk.index];
    const std::uint64_t chunk_sets = chunk.end - chunk.begin;
    shard.offsets.reserve(chunk_sets + 1);
    shard.offsets.push_back(0);
    SlotStats& st = stats[slot];
    if (st.sets > 0) {
      const double mean = static_cast<double>(st.entries) /
                          static_cast<double>(st.sets);
      shard.flat.reserve(
          static_cast<std::size_t>(mean * static_cast<double>(chunk_sets) *
                                   1.25) +
          16);
    }
    std::vector<VertexId> rr_set;
    if (record_per_set) shard.per_set.reserve(chunk_sets);
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      // Per-set cancel inside the chunk (guarded so the global first set
      // always completes); a partial shard keeps its produced prefix.
      if (cancel != nullptr && (chunk.index > 0 || i > chunk.begin) &&
          cancel->cancelled()) {
        break;
      }
      const TraversalCounters before = shard.counters;
      samplers[slot]->Sample(&target_rng, &coin_rng, &rr_set,
                             &shard.counters);
      if (record_per_set) shard.per_set.push_back(shard.counters - before);
      shard.flat.insert(shard.flat.end(), rr_set.begin(), rr_set.end());
      shard.offsets.push_back(static_cast<std::uint64_t>(shard.flat.size()));
    }
    st.sets += chunk_sets;
    st.entries += static_cast<std::uint64_t>(shard.flat.size());
  });
  return shards;
}

}  // namespace

std::vector<RrShard> SampleRrShards(const ModelInstance& instance,
                                    std::uint64_t master_seed,
                                    std::uint64_t count,
                                    SamplingEngine* engine,
                                    bool record_per_set) {
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    return SampleRrShardsWith<LtRrSampler>(instance.lt_weights, master_seed,
                                           count, engine, record_per_set);
  }
  return SampleRrShardsWith<RrSampler>(instance.ig, master_seed, count,
                                       engine, record_per_set);
}

RrCollection::RrCollection(VertexId num_vertices)
    : num_vertices_(num_vertices) {
  offsets_.push_back(0);
}

void RrCollection::Add(const std::vector<VertexId>& rr_set) {
  flat_.insert(flat_.end(), rr_set.begin(), rr_set.end());
  offsets_.push_back(static_cast<std::uint64_t>(flat_.size()));
  index_built_ = false;
}

void RrCollection::Merge(std::vector<RrShard>&& shards) {
  std::size_t first = 0;
  if (flat_.empty() && size() == 0 && !shards.empty()) {
    // Adopt the first shard's flat buffer: on a fresh collection this is
    // a pointer swap instead of the build's single largest copy.
    RrShard& head = shards[0];
    flat_ = std::move(head.flat);
    offsets_.reserve(offsets_.size() + head.num_sets());
    for (std::uint64_t j = 1; j < head.offsets.size(); ++j) {
      offsets_.push_back(head.offsets[j]);
    }
    index_built_ = false;
    first = 1;
  }
  Merge(std::span<const RrShard>(shards.data() + first,
                                 shards.size() - first));
}

void RrCollection::Merge(std::span<const RrShard> shards) {
  std::uint64_t extra_entries = 0;
  std::uint64_t extra_sets = 0;
  for (const RrShard& shard : shards) {
    extra_entries += shard.flat.size();
    extra_sets += shard.num_sets();
  }
  flat_.reserve(flat_.size() + extra_entries);
  offsets_.reserve(offsets_.size() + extra_sets);
  for (const RrShard& shard : shards) {
    const std::uint64_t base = static_cast<std::uint64_t>(flat_.size());
    flat_.insert(flat_.end(), shard.flat.begin(), shard.flat.end());
    for (std::uint64_t j = 1; j < shard.offsets.size(); ++j) {
      offsets_.push_back(base + shard.offsets[j]);
    }
  }
  index_built_ = false;
}

void RrCollection::BuildIndex() {
  const std::uint64_t total_sets = size();
  SOLDIST_CHECK(total_sets <=
                std::numeric_limits<std::uint32_t>::max())
      << "32-bit set ids overflow: " << total_sets << " RR sets";
  SOLDIST_CHECK(flat_.size() <=
                std::numeric_limits<std::uint32_t>::max())
      << "32-bit index offsets overflow: " << flat_.size() << " entries";
  if (index_built_ && indexed_sets_ == total_sets) {
    // Double-build with no new sets: a no-op, never a full rebuild
    // (IMM's final selection round builds on an unchanged collection).
    SOLDIST_DCHECK(index_flat_.size() == flat_.size())
        << "index/content mismatch on a supposedly indexed collection";
    return;
  }
  // Single-pass counting sort of the appended tail: new per-vertex counts
  // come from one scan of the un-indexed entries; appended set ids exceed
  // every indexed id, so the old per-vertex lists are bulk-copied in front
  // and the new ids placed behind them keep each list ascending.
  const std::uint64_t n = num_vertices_;
  const std::uint64_t indexed_entries = offsets_[indexed_sets_];
  SOLDIST_DCHECK(index_flat_.size() == indexed_entries);
  std::vector<std::uint32_t> new_offsets(n + 1, 0);
  for (std::uint64_t pos = indexed_entries; pos < flat_.size(); ++pos) {
    ++new_offsets[static_cast<std::size_t>(flat_[pos]) + 1];
  }
  if (indexed_sets_ > 0) {
    for (std::uint64_t v = 0; v < n; ++v) {
      new_offsets[v + 1] += index_offsets_[v + 1] - index_offsets_[v];
    }
  }
  std::partial_sum(new_offsets.begin(), new_offsets.end(),
                   new_offsets.begin());
  std::vector<std::uint32_t> new_flat(flat_.size());
  std::vector<std::uint32_t> cursor(new_offsets.begin(),
                                    new_offsets.end() - 1);
  if (indexed_sets_ > 0) {
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint32_t len = index_offsets_[v + 1] - index_offsets_[v];
      std::copy_n(index_flat_.begin() + index_offsets_[v], len,
                  new_flat.begin() + cursor[v]);
      cursor[v] += len;
    }
  }
  for (std::uint64_t set_id = indexed_sets_; set_id < total_sets;
       ++set_id) {
    for (VertexId v : Set(set_id)) {
      new_flat[cursor[v]++] = static_cast<std::uint32_t>(set_id);
    }
  }
  index_flat_ = std::move(new_flat);
  index_offsets_ = std::move(new_offsets);
  indexed_sets_ = total_sets;
  covered_stamp_.assign(total_sets, 0);
  covered_epoch_ = 0;
  index_built_ = true;
}

std::span<const std::uint32_t> RrCollection::InvertedList(VertexId v) const {
  SOLDIST_CHECK(index_built_) << "call BuildIndex() first";
  SOLDIST_DCHECK(v < num_vertices_);
  return {index_flat_.data() + index_offsets_[v],
          index_flat_.data() + index_offsets_[v + 1]};
}

std::uint64_t RrCollection::CountCovered(
    std::span<const VertexId> seeds) const {
  SOLDIST_CHECK(index_built_) << "call BuildIndex() first";
  if (++covered_epoch_ == 0) {
    std::fill(covered_stamp_.begin(), covered_stamp_.end(), 0);
    covered_epoch_ = 1;
  }
  std::uint64_t covered = 0;
  for (VertexId v : seeds) {
    for (std::uint32_t set_id : InvertedList(v)) {
      if (covered_stamp_[set_id] != covered_epoch_) {
        covered_stamp_[set_id] = covered_epoch_;
        ++covered;
      }
    }
  }
  return covered;
}

double RrCollection::MeanSize() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(total_entries()) / static_cast<double>(size());
}

}  // namespace soldist
