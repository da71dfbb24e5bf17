// FNV-1a 64 digests of sampled outputs, for tests that pin ABSOLUTE
// results rather than comparing one configuration against another: a
// changed draw, stream rule or traversal counter moves the digest.
//
// The golden tables in sampling_engine_test (IC) and
// lt_sampling_engine_test (LT) cover RunGreedy (k = 5) for every approach
// under the default sampling options and under 4 workers with chunk 64,
// on Karate and Physicians with iwc probabilities, plus one digest per
// chunk-driver output. snapshot_condensed_test pins condensed Snapshot
// the same way, for both RunGreedy and RunCelfGreedy.

#ifndef SOLDIST_TESTS_GOLDEN_DIGEST_H_
#define SOLDIST_TESTS_GOLDEN_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/greedy.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/diffusion.h"
#include "model/probability.h"
#include "random/rng.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"
#include "sim/world_arena.h"

namespace soldist {
namespace golden {

inline std::uint64_t Mix(std::uint64_t value, std::uint64_t hash) {
  return Fnv1a64(&value, sizeof(value), hash);
}

inline std::uint64_t MixCounters(const TraversalCounters& c,
                                 std::uint64_t hash) {
  hash = Mix(c.vertices, hash);
  hash = Mix(c.edges, hash);
  hash = Mix(c.sample_vertices, hash);
  return Mix(c.sample_edges, hash);
}

template <typename T>
std::uint64_t MixVector(const std::vector<T>& v, std::uint64_t hash) {
  hash = Mix(v.size(), hash);
  return v.empty() ? hash : Fnv1a64(v.data(), v.size() * sizeof(T), hash);
}

constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;

/// Sorted seed set, per-round estimates (bit patterns) and counters.
inline std::uint64_t GreedyDigest(const GreedyRunResult& run,
                                  const TraversalCounters& counters) {
  std::uint64_t hash = MixVector(run.SortedSeedSet(), kBasis);
  hash = MixVector(run.estimates, hash);
  return MixCounters(counters, hash);
}

inline std::uint64_t RrShardsDigest(const std::vector<RrShard>& shards) {
  std::uint64_t hash = Mix(shards.size(), kBasis);
  for (const RrShard& shard : shards) {
    hash = MixVector(shard.flat, hash);
    hash = MixVector(shard.offsets, hash);
    hash = MixCounters(shard.counters, hash);
  }
  return hash;
}

inline std::uint64_t SnapshotShardsDigest(
    const std::vector<SnapshotShard>& shards) {
  std::uint64_t hash = Mix(shards.size(), kBasis);
  for (const SnapshotShard& shard : shards) {
    hash = Mix(shard.snapshots.size(), hash);
    for (const Snapshot& snap : shard.snapshots) {
      hash = MixVector(snap.out_offsets, hash);
      hash = MixVector(snap.out_targets, hash);
    }
    hash = MixCounters(shard.counters, hash);
  }
  return hash;
}

/// A sharded forward estimate: the mean's bit pattern plus its counters.
inline std::uint64_t ForwardDigest(double mean,
                                   const TraversalCounters& counters) {
  return MixCounters(counters, Fnv1a64(&mean, sizeof(mean), kBasis));
}

/// The pinned networks, both with iwc probabilities (LT needs in-weights
/// summing to at most 1).
inline InfluenceGraph Network(const std::string& name) {
  EdgeList edges = name == "Karate" ? Datasets::Karate()
                                    : Datasets::Physicians(/*seed=*/1);
  return MakeInfluenceGraph(GraphBuilder::FromEdgeList(edges),
                            ProbabilityModel::kIwc);
}

/// The two pinned sampling configurations.
inline SamplingOptions Sampling(bool threaded) {
  SamplingOptions options;
  if (threaded) {
    options.num_threads = 4;
    options.chunk_size = 64;
  }
  return options;
}

/// Above one 64-set chunk, so the threaded configuration draws from more
/// than one chunk stream.
inline std::uint64_t SampleNumber(Approach approach) {
  switch (approach) {
    case Approach::kOneshot:
      return 96;
    case Approach::kSnapshot:
      return 160;
    case Approach::kRis:
      return 4096;
  }
  return 0;
}

/// RunGreedy (k = 5) through the unified factory, digested.
inline std::uint64_t GreedyRunDigest(const ModelInstance& instance,
                                     Approach approach, bool threaded) {
  auto estimator =
      MakeEstimator(instance, approach, SampleNumber(approach), /*seed=*/29,
                    SnapshotEstimator::Mode::kResidual, Sampling(threaded));
  Rng tie_rng(7);
  GreedyRunResult run = RunGreedy(
      estimator.get(), instance.ig->num_vertices(), 5, &tie_rng);
  return GreedyDigest(run, estimator->counters());
}

struct GreedyCase {
  const char* network;
  Approach approach;
  bool threaded;
  std::uint64_t digest;
};

/// Renders a case as a table line, so a failing run prints what it saw.
inline std::string CaseLine(const GreedyCase& c, std::uint64_t digest) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"%s\", Approach::k%s, %s, 0x%016llxull}",
                c.network,
                c.approach == Approach::kOneshot    ? "Oneshot"
                : c.approach == Approach::kSnapshot ? "Snapshot"
                                                    : "Ris",
                c.threaded ? "true" : "false",
                static_cast<unsigned long long>(digest));
  return buf;
}

inline std::string Hex(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace golden
}  // namespace soldist

#endif  // SOLDIST_TESTS_GOLDEN_DIGEST_H_
