// Determinism regression for the parallel LT path, mirroring
// sampling_engine_test for IC: LT builds draw through the chunked
// deterministic streams for EVERY sampling configuration, so parallel
// builds (num_threads ∈ {1, 2, 4}) must produce byte-identical shards and
// identical seed sets to the sequential default — a stronger contract
// than IC, whose sequential default is a distinct legacy stream family.

#include <gtest/gtest.h>

#include <vector>

#include "core/factory.h"
#include "core/greedy.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "exp/trial_runner.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/diffusion.h"
#include "model/probability.h"
#include "sim/lt_forward_sim.h"
#include "sim/lt_samplers.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "golden_digest.h"

namespace soldist {
namespace {

InfluenceGraph KarateIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

/// Sequential default, but with the test's chunk size (the chunk size —
/// never the worker count — selects which stream produces which sample).
SamplingOptions Sequential(std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.chunk_size = chunk_size;
  return options;
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

void ExpectCountersEq(const TraversalCounters& a,
                      const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

TEST(LtSamplingEngineTest, RrShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  SamplingEngine sequential(Sequential(32));
  auto reference = SampleLtRrShards(weights, 7, 500, &sequential);
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 32));
    auto shards = SampleLtRrShards(weights, 7, 500, &parallel);
    ASSERT_EQ(shards.size(), reference.size()) << threads;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(shards[s].flat, reference[s].flat) << threads;
      EXPECT_EQ(shards[s].offsets, reference[s].offsets) << threads;
      ExpectCountersEq(shards[s].counters, reference[s].counters);
    }
  }
}

TEST(LtSamplingEngineTest, SnapshotShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  SamplingEngine sequential(Sequential(16));
  auto reference = SampleLtSnapshotShards(weights, 9, 200, &sequential);
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 16));
    auto shards = SampleLtSnapshotShards(weights, 9, 200, &parallel);
    ASSERT_EQ(shards.size(), reference.size()) << threads;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      ASSERT_EQ(shards[s].snapshots.size(), reference[s].snapshots.size());
      for (std::size_t i = 0; i < shards[s].snapshots.size(); ++i) {
        EXPECT_EQ(shards[s].snapshots[i].out_offsets,
                  reference[s].snapshots[i].out_offsets);
        EXPECT_EQ(shards[s].snapshots[i].out_targets,
                  reference[s].snapshots[i].out_targets);
      }
      ExpectCountersEq(shards[s].counters, reference[s].counters);
    }
  }
}

TEST(LtSamplingEngineTest, ShardedForwardSimIdenticalAndUnbiased) {
  // Diamond with all weights 0.5: exact LT influence of {0} is 2.5.
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 3);
  edges.Add(2, 3);
  InfluenceGraph ig(GraphBuilder::FromEdgeList(edges),
                    std::vector<double>(4, 0.5));
  const std::vector<VertexId> seeds = {0};

  SamplingEngine sequential(Sequential(64));
  TraversalCounters counters1;
  double reference = EstimateLtInfluenceSharded(ig, seeds, 20000, 13,
                                                &sequential, &counters1);
  EXPECT_NEAR(reference, 2.5, 0.05);
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 64));
    TraversalCounters counters;
    double mean = EstimateLtInfluenceSharded(ig, seeds, 20000, 13,
                                             &parallel, &counters);
    EXPECT_DOUBLE_EQ(mean, reference) << threads;
    ExpectCountersEq(counters, counters1);
  }
}

/// Runs one greedy selection and returns (sorted seed set, counters).
std::pair<std::vector<VertexId>, TraversalCounters> LtGreedyWith(
    const LtWeights& weights, Approach approach, std::uint64_t samples,
    const SamplingOptions& sampling, int k) {
  auto estimator =
      MakeEstimator(ModelInstance::Lt(&weights), approach, samples,
                    /*seed=*/21, SnapshotEstimator::Mode::kResidual, sampling);
  Rng tie_rng(123);
  GreedyRunResult run = RunGreedy(
      estimator.get(), weights.influence_graph().num_vertices(), k, &tie_rng);
  return {run.SortedSeedSet(), estimator->counters()};
}

TEST(LtSamplingEngineTest, EstimatorsIdenticalAcrossThreadCounts) {
  // The satellite contract: num_threads ∈ {1, 2, 4} all match the
  // sequential default — seed sets AND counters.
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    std::uint64_t samples = approach == Approach::kRis ? 2000 : 256;
    auto [seeds_ref, counters_ref] =
        LtGreedyWith(weights, approach, samples, Sequential(), 3);
    for (int threads : {2, 4}) {
      auto [seeds, counters] =
          LtGreedyWith(weights, approach, samples, Threads(threads), 3);
      EXPECT_EQ(seeds, seeds_ref)
          << ApproachName(approach) << " @ " << threads << " threads";
      ExpectCountersEq(counters, counters_ref);
    }
  }
}

TEST(LtSamplingEngineTest, UnifiedFactoryRoutesBothModels) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  auto lt = MakeEstimator(ModelInstance::Lt(&weights), Approach::kRis, 64, 1);
  EXPECT_EQ(lt->name(), "LT-RIS");
  auto ic = MakeEstimator(ModelInstance::Ic(&ig), Approach::kRis, 64, 1);
  EXPECT_EQ(ic->name(), "RIS");
  // The unified overload must agree with the direct LT factory.
  auto direct =
      std::make_unique<RisEstimator>(ModelInstance::Lt(&weights), 64, 1);
  lt->Build();
  direct->Build();
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(lt->Estimate(v), direct->Estimate(v)) << v;
  }
}

TEST(LtSamplingEngineTest, RunTrialsLtIdenticalAcrossSamplingModes) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  ModelInstance instance = ModelInstance::Lt(&weights);
  TrialConfig config;
  config.approach = Approach::kRis;
  config.sample_number = 512;
  config.k = 2;
  config.trials = 6;
  config.master_seed = 31;
  config.sampling.chunk_size = 64;

  // Sequential default (inline chunked streams)...
  TrialResult sequential = RunTrials(instance, config, nullptr);

  // ...vs sample-level parallelism on a shared pool...
  ThreadPool four(4);
  TrialConfig parallel_config = config;
  parallel_config.sampling.num_threads = 0;  // engine on the shared pool
  TrialResult sample_parallel = RunTrials(instance, parallel_config, &four);
  EXPECT_EQ(sequential.seed_sets, sample_parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters,
                   sample_parallel.total_counters);

  // ...vs trial-level parallelism (legacy sampling mode fans trials out).
  TrialResult trial_parallel = RunTrials(instance, config, &four);
  EXPECT_EQ(sequential.seed_sets, trial_parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters,
                   trial_parallel.total_counters);
}

TEST(LtSamplingEngineTest, OneshotEstimateSequenceIdentical) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  OneshotEstimator a(ModelInstance::Lt(&weights), 256, 17, Sequential());
  OneshotEstimator b(ModelInstance::Lt(&weights), 256, 17, Threads(4));
  a.Build();
  b.Build();
  for (VertexId v = 0; v < 8; ++v) {
    ASSERT_DOUBLE_EQ(a.Estimate(v), b.Estimate(v)) << "vertex " << v;
  }
  a.Update(0);
  b.Update(0);
  ASSERT_DOUBLE_EQ(a.Estimate(5), b.Estimate(5));
  ExpectCountersEq(a.counters(), b.counters());
}

// Golden digests (tests/golden_digest.h): absolute LT outputs of RunGreedy
// for every approach and of every LT chunk driver. The comparisons above
// only check worker counts against each other; these pin the streams.
TEST(GoldenDigestTest, LtGreedyRuns) {
  const golden::GreedyCase kCases[] = {
      {"Karate", Approach::kOneshot, false, 0xd5d8c69086640f51ull},
      {"Karate", Approach::kOneshot, true, 0x6c038d6473725061ull},
      {"Karate", Approach::kSnapshot, false, 0xccd1e56a2df747a0ull},
      {"Karate", Approach::kSnapshot, true, 0x6bcd59dbcea7e7e3ull},
      {"Karate", Approach::kRis, false, 0xdb1cae03eb3e6eaaull},
      {"Karate", Approach::kRis, true, 0x2bc8e06b52d65290ull},
      {"Physicians", Approach::kOneshot, false, 0xbf8b2babded06539ull},
      {"Physicians", Approach::kOneshot, true, 0xc31e17fe8da14630ull},
      {"Physicians", Approach::kSnapshot, false, 0x395cd93e0da517beull},
      {"Physicians", Approach::kSnapshot, true, 0x597bc0f13ad010d0ull},
      {"Physicians", Approach::kRis, false, 0x3980deb1afb9b518ull},
      {"Physicians", Approach::kRis, true, 0x5a606069e8b97922ull},
  };
  for (const golden::GreedyCase& c : kCases) {
    InfluenceGraph ig = golden::Network(c.network);
    LtWeights weights(&ig);
    const std::uint64_t digest = golden::GreedyRunDigest(
        ModelInstance::Lt(&weights), c.approach, c.threaded);
    EXPECT_EQ(digest, c.digest) << golden::CaseLine(c, digest);
  }
}

TEST(GoldenDigestTest, LtChunkDrivers) {
  InfluenceGraph ig = golden::Network("Physicians");
  LtWeights weights(&ig);
  SamplingEngine engine(Threads(4, 64));
  const std::uint64_t rr =
      golden::RrShardsDigest(SampleLtRrShards(weights, 5, 1000, &engine));
  EXPECT_EQ(rr, 0x11960b890ffcd047ull)
      << "SampleLtRrShards " << golden::Hex(rr);
  const std::uint64_t snapshots = golden::SnapshotShardsDigest(
      SampleLtSnapshotShards(weights, 9, 200, &engine));
  EXPECT_EQ(snapshots, 0xad5253a81cbd665cull)
      << "SampleLtSnapshotShards " << golden::Hex(snapshots);
  const std::vector<VertexId> seeds = {0, 7, 40};
  TraversalCounters counters;
  const double mean =
      EstimateLtInfluenceSharded(ig, seeds, 3000, 13, &engine, &counters);
  const std::uint64_t forward = golden::ForwardDigest(mean, counters);
  EXPECT_EQ(forward, 0x08bf5a00b403b83eull)
      << "EstimateLtInfluenceSharded " << golden::Hex(forward);
  for (bool threaded : {false, true}) {
    RrArena arena =
        RrArena::SampleLt(weights, 17, 1500, golden::Sampling(threaded));
    const std::uint64_t digest = golden::MixCounters(
        arena.PrefixCounters(arena.capacity()),
        golden::Mix(arena.ContentChecksum(), golden::kBasis));
    EXPECT_EQ(digest,
              threaded ? 0x634d7419d6a8dc1cull : 0x2da3da5da3ca8bb2ull)
        << "RrArena::SampleLt threaded=" << threaded << " "
        << golden::Hex(digest);
  }
}

}  // namespace
}  // namespace soldist
