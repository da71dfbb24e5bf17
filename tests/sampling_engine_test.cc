// Tests for the deterministic chunked sampling engine: the output of any
// engine-routed build must be a pure function of (master seed, count,
// chunk_size) — byte-identical for 1 or N worker threads — and the bulk
// RrCollection::Merge path must agree with the per-set Add path.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/factory.h"
#include "core/greedy.h"
#include "core/imm.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "core/tim.h"
#include "exp/trial_runner.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "random/splitmix64.h"
#include "sim/forward_sim.h"
#include "sim/rr_arena.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"
#include "golden_digest.h"

namespace soldist {
namespace {

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

/// Engine running chunks on exactly one worker thread (still the chunked
/// deterministic streams, unlike the default SamplingOptions{}).
SamplingOptions OneThreadEngine(ThreadPool* one_thread_pool,
                                std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = 1;
  options.chunk_size = chunk_size;
  options.pool = one_thread_pool;
  return options;
}

SamplingOptions FourThreadEngine(std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = 4;
  options.chunk_size = chunk_size;
  return options;
}

TEST(SamplingOptionsTest, DefaultIsLegacySequential) {
  SamplingOptions options;
  EXPECT_FALSE(options.UseEngine());
  EXPECT_TRUE(FourThreadEngine().UseEngine());
  ThreadPool pool(1);
  EXPECT_TRUE(OneThreadEngine(&pool).UseEngine());
}

TEST(SamplingEngineTest, ChunkSeedsDependOnlyOnMasterAndIndex) {
  SamplingOptions options;
  options.chunk_size = 10;
  SamplingEngine engine(options);
  std::vector<SamplingEngine::Chunk> chunks;
  engine.Run(77, 35, [&](const SamplingEngine::Chunk& c, std::size_t slot) {
    EXPECT_EQ(slot, 0u);  // inline path uses slot 0
    chunks.push_back(c);
  });
  ASSERT_EQ(chunks.size(), 4u);
  for (std::uint64_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].index, c);
    EXPECT_EQ(chunks[c].begin, c * 10);
    EXPECT_EQ(chunks[c].end, std::min<std::uint64_t>((c + 1) * 10, 35));
    EXPECT_EQ(chunks[c].seed, DeriveSeed(77, c));
  }
}

TEST(SamplingEngineTest, RunCoversEveryIndexOnceAtAnyWorkerCount) {
  for (int workers : {1, 4}) {
    SamplingOptions options;
    options.num_threads = workers;
    options.chunk_size = 7;
    SamplingEngine engine(options);
    std::vector<std::atomic<int>> hits(100);
    engine.Run(1, 100,
               [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
      EXPECT_LT(slot, engine.num_workers());
      for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers;
  }
}

TEST(SamplingEngineTest, RrShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  SamplingEngine sequentialish(OneThreadEngine(&one, 32));
  SamplingEngine parallel(FourThreadEngine(32));
  auto a = SampleRrShards(ig, 5, 500, &sequentialish);
  auto b = SampleRrShards(ig, 5, 500, &parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].flat, b[s].flat);
    EXPECT_EQ(a[s].offsets, b[s].offsets);
    EXPECT_EQ(a[s].counters.vertices, b[s].counters.vertices);
    EXPECT_EQ(a[s].counters.edges, b[s].counters.edges);
    EXPECT_EQ(a[s].counters.sample_vertices, b[s].counters.sample_vertices);
  }
}

TEST(RrCollectionTest, MergeMatchesPerSetAdd) {
  InfluenceGraph ig = KarateUc01();
  SamplingEngine engine(FourThreadEngine(16));
  auto shards = SampleRrShards(ig, 9, 200, &engine);

  RrCollection merged(ig.num_vertices());
  merged.Merge(shards);
  merged.BuildIndex();

  RrCollection added(ig.num_vertices());
  for (const RrShard& shard : shards) {
    for (std::uint64_t s = 0; s < shard.num_sets(); ++s) {
      added.Add(std::vector<VertexId>(
          shard.flat.begin() + static_cast<std::ptrdiff_t>(shard.offsets[s]),
          shard.flat.begin() +
              static_cast<std::ptrdiff_t>(shard.offsets[s + 1])));
    }
  }
  added.BuildIndex();

  ASSERT_EQ(merged.size(), added.size());
  ASSERT_EQ(merged.total_entries(), added.total_entries());
  for (std::uint64_t s = 0; s < merged.size(); ++s) {
    ASSERT_EQ(std::vector<VertexId>(merged.Set(s).begin(),
                                    merged.Set(s).end()),
              std::vector<VertexId>(added.Set(s).begin(),
                                    added.Set(s).end()));
  }
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    std::vector<std::uint64_t> lm(merged.InvertedList(v).begin(),
                                  merged.InvertedList(v).end());
    std::vector<std::uint64_t> la(added.InvertedList(v).begin(),
                                  added.InvertedList(v).end());
    EXPECT_EQ(lm, la) << "vertex " << v;
  }
}

TEST(MergeCountersTest, SumsAllShards) {
  std::vector<TraversalCounters> parts(3);
  parts[0].vertices = 1;
  parts[1].edges = 2;
  parts[2].sample_vertices = 3;
  parts[2].sample_edges = 4;
  TraversalCounters total = MergeCounters(parts);
  EXPECT_EQ(total.vertices, 1u);
  EXPECT_EQ(total.edges, 2u);
  EXPECT_EQ(total.sample_vertices, 3u);
  EXPECT_EQ(total.sample_edges, 4u);
}

/// Runs one greedy selection with the given estimator options and returns
/// (sorted seed set, counters).
template <typename MakeFn>
std::pair<std::vector<VertexId>, TraversalCounters> GreedyWith(
    const InfluenceGraph& ig, MakeFn make, int k) {
  auto estimator = make();
  Rng tie_rng(123);
  GreedyRunResult run = RunGreedy(estimator.get(), ig.num_vertices(), k,
                                  &tie_rng);
  return {run.SortedSeedSet(), estimator->counters()};
}

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

TEST(SamplingEngineTest, RisBuildIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  auto [seeds1, counters1] = GreedyWith(ig, [&] {
    return std::make_unique<RisEstimator>(&ig, 2000, 11,
                                          OneThreadEngine(&one));
  }, 3);
  auto [seeds4, counters4] = GreedyWith(ig, [&] {
    return std::make_unique<RisEstimator>(&ig, 2000, 11, FourThreadEngine());
  }, 3);
  EXPECT_EQ(seeds1, seeds4);
  ExpectCountersEq(counters1, counters4);
}

TEST(SamplingEngineTest, SnapshotBuildIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  auto [seeds1, counters1] = GreedyWith(ig, [&] {
    return std::make_unique<SnapshotEstimator>(
        &ig, 64, 13, SnapshotEstimator::Mode::kResidual,
        OneThreadEngine(&one, 16));
  }, 3);
  auto [seeds4, counters4] = GreedyWith(ig, [&] {
    return std::make_unique<SnapshotEstimator>(
        &ig, 64, 13, SnapshotEstimator::Mode::kResidual,
        FourThreadEngine(16));
  }, 3);
  EXPECT_EQ(seeds1, seeds4);
  ExpectCountersEq(counters1, counters4);
}

TEST(SamplingEngineTest, OneshotEstimatesIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  OneshotEstimator a(&ig, 512, 17, OneThreadEngine(&one, 64));
  OneshotEstimator b(&ig, 512, 17, FourThreadEngine(64));
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

TEST(SamplingEngineTest, FactoryRoutesOptionsToAllThreeApproaches) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto [seeds1, counters1] = GreedyWith(ig, [&] {
      return MakeEstimator(ModelInstance::Ic(&ig), approach, 256, 19,
                           SnapshotEstimator::Mode::kResidual,
                           OneThreadEngine(&one));
    }, 2);
    auto [seeds4, counters4] = GreedyWith(ig, [&] {
      return MakeEstimator(ModelInstance::Ic(&ig), approach, 256, 19,
                           SnapshotEstimator::Mode::kResidual,
                           FourThreadEngine());
    }, 2);
    EXPECT_EQ(seeds1, seeds4) << ApproachName(approach);
    ExpectCountersEq(counters1, counters4);
  }
}

TEST(SamplingEngineTest, ImmAndTimIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  ImmParams imm_params;
  imm_params.k = 3;
  imm_params.epsilon = 0.3;
  ImmResult imm1 = RunImm(ig, imm_params, 23, OneThreadEngine(&one));
  ImmResult imm4 = RunImm(ig, imm_params, 23, FourThreadEngine());
  EXPECT_EQ(imm1.seeds, imm4.seeds);
  EXPECT_EQ(imm1.theta, imm4.theta);
  EXPECT_DOUBLE_EQ(imm1.estimated_influence, imm4.estimated_influence);

  TimParams tim_params;
  tim_params.k = 2;
  tim_params.epsilon = 0.5;
  TimResult tim1 = RunTimPlus(ig, tim_params, 29, OneThreadEngine(&one));
  TimResult tim4 = RunTimPlus(ig, tim_params, 29, FourThreadEngine());
  EXPECT_EQ(tim1.greedy.seeds, tim4.greedy.seeds);
  EXPECT_EQ(tim1.theta, tim4.theta);
  EXPECT_DOUBLE_EQ(tim1.kpt, tim4.kpt);
}

TEST(SamplingEngineTest, RunTrialsSampleParallelIdenticalToOneThread) {
  InfluenceGraph ig = KarateUc01();
  TrialConfig config;
  config.approach = Approach::kRis;
  config.sample_number = 512;
  config.k = 2;
  config.trials = 6;
  config.master_seed = 31;

  ThreadPool one(1);
  TrialConfig config1 = config;
  config1.sampling = OneThreadEngine(&one);
  TrialResult r1 = RunTrials(ig, config1, nullptr);

  ThreadPool four(4);
  TrialConfig config4 = config;
  config4.sampling.num_threads = 0;  // engine on the shared pool
  config4.sampling.chunk_size = 64;
  TrialResult r4 = RunTrials(ig, config4, &four);

  EXPECT_EQ(r1.seed_sets, r4.seed_sets);
  ExpectCountersEq(r1.total_counters, r4.total_counters);
}

TEST(SamplingEngineTest, TrialParallelAndSequentialAgree) {
  // Trial-level parallelism (legacy sampling) must also be schedule-free:
  // per-trial seeds are derived from (master, t) regardless of workers.
  InfluenceGraph ig = KarateUc01();
  TrialConfig config;
  config.approach = Approach::kSnapshot;
  config.sample_number = 16;
  config.k = 2;
  config.trials = 8;
  config.master_seed = 37;
  TrialResult sequential = RunTrials(ig, config, nullptr);
  ThreadPool four(4);
  TrialResult parallel = RunTrials(ig, config, &four);
  EXPECT_EQ(sequential.seed_sets, parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters, parallel.total_counters);
}

TEST(RisEstimatorTest, ChosenSeedScoresZeroAfterUpdate) {
  // Regression: Estimate(v) of an already-chosen seed must return 0 —
  // Update eagerly decrements the coverage counts of every member of the
  // sets it deactivates, so a chosen seed never keeps a stale score.
  InfluenceGraph ig = KarateUc01();
  RisEstimator estimator(&ig, 1000, 41);
  Rng tie_rng(1);
  // RunGreedy calls Build() itself.
  GreedyRunResult run = RunGreedy(&estimator, ig.num_vertices(), 3, &tie_rng);
  for (VertexId seed : run.seeds) {
    EXPECT_DOUBLE_EQ(estimator.Estimate(seed), 0.0) << "seed " << seed;
  }
}

TEST(RisEstimatorTest, ChosenSeedScoresZeroOnEnginePath) {
  InfluenceGraph ig = KarateUc01();
  RisEstimator estimator(&ig, 1000, 43, FourThreadEngine());
  estimator.Build();
  double before = estimator.Estimate(0);
  EXPECT_GT(before, 0.0);
  estimator.Update(0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(0), 0.0);
}

// Golden digests (tests/golden_digest.h): absolute IC outputs of RunGreedy
// for every approach and of every chunk driver, so a refactor that keeps
// the 1-vs-N-thread comparisons above green but moves a draw still fails.
TEST(GoldenDigestTest, IcGreedyRuns) {
  const golden::GreedyCase kCases[] = {
      {"Karate", Approach::kOneshot, false, 0xf51c679905a89d0aull},
      {"Karate", Approach::kOneshot, true, 0x514c0ed98bab5711ull},
      {"Karate", Approach::kSnapshot, false, 0xd10dcf0e55f939ccull},
      {"Karate", Approach::kSnapshot, true, 0xc75128620eb0bfeeull},
      {"Karate", Approach::kRis, false, 0x466c6be7af25d979ull},
      {"Karate", Approach::kRis, true, 0x5dcb03b8bafa5405ull},
      {"Physicians", Approach::kOneshot, false, 0x615592b2162b9324ull},
      {"Physicians", Approach::kOneshot, true, 0x27acd8cf114a4e22ull},
      {"Physicians", Approach::kSnapshot, false, 0xb81613103891e4fcull},
      {"Physicians", Approach::kSnapshot, true, 0x0058810cfbc5151dull},
      {"Physicians", Approach::kRis, false, 0x47a211512de27658ull},
      {"Physicians", Approach::kRis, true, 0x4587eadb43e8b809ull},
  };
  for (const golden::GreedyCase& c : kCases) {
    InfluenceGraph ig = golden::Network(c.network);
    const std::uint64_t digest =
        golden::GreedyRunDigest(ModelInstance::Ic(&ig), c.approach,
                                c.threaded);
    EXPECT_EQ(digest, c.digest) << golden::CaseLine(c, digest);
  }
}

TEST(GoldenDigestTest, IcChunkDrivers) {
  InfluenceGraph ig = golden::Network("Physicians");
  SamplingEngine engine(FourThreadEngine(64));
  const std::uint64_t rr =
      golden::RrShardsDigest(SampleRrShards(ig, 5, 1000, &engine));
  EXPECT_EQ(rr, 0xeab8928c565600d0ull)
      << "SampleRrShards " << golden::Hex(rr);
  const std::uint64_t snapshots = golden::SnapshotShardsDigest(
      SampleSnapshotShards(ig, 9, 200, &engine));
  EXPECT_EQ(snapshots, 0x4204c7e6f7ac631cull)
      << "SampleSnapshotShards " << golden::Hex(snapshots);
  const std::vector<VertexId> seeds = {0, 7, 40};
  TraversalCounters counters;
  const double mean =
      EstimateInfluenceSharded(ig, seeds, 3000, 13, &engine, &counters);
  const std::uint64_t forward = golden::ForwardDigest(mean, counters);
  EXPECT_EQ(forward, 0x52a3395ecdde04adull)
      << "EstimateInfluenceSharded " << golden::Hex(forward);
  for (bool threaded : {false, true}) {
    RrArena arena =
        RrArena::SampleIc(ig, 17, 1500, golden::Sampling(threaded));
    const std::uint64_t digest = golden::MixCounters(
        arena.PrefixCounters(arena.capacity()),
        golden::Mix(arena.ContentChecksum(), golden::kBasis));
    EXPECT_EQ(digest,
              threaded ? 0xd1fe400419df3aa0ull : 0xa346cfded91309f7ull)
        << "RrArena::SampleIc threaded=" << threaded << " "
        << golden::Hex(digest);
  }
}

}  // namespace
}  // namespace soldist
