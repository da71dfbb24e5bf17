// The EstimateAll contract (core/estimator.h): one call over a greedy
// round returns, bit for bit, what the per-vertex Estimate loop returns
// over the same candidates, and leaves counters() where that loop leaves
// them. The condensed Snapshot core overrides it with a world-major
// batch, so it is checked against a twin estimator running the loop —
// fresh and arena-served, on Karate and Physicians, after 0–3 Updates —
// and mixed use in both orders must agree, as must the arena's and the
// fresh backend's CELF bounds and runs. RunGreedy, which now drives
// every round through EstimateAll, must reproduce the per-vertex greedy
// loop it replaced for every approach and backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/celf.h"
#include "core/factory.h"
#include "core/greedy.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"

namespace soldist {
namespace {

constexpr std::uint64_t kSeed = 41;
constexpr std::uint64_t kArenaCapacity = 256;

struct Workload {
  std::string name;
  InfluenceGraph ig;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  for (ProbabilityModel prob : {ProbabilityModel::kIwc,
                                ProbabilityModel::kUc01}) {
    const std::string suffix =
        prob == ProbabilityModel::kIwc ? " iwc" : " uc0.1";
    workloads.push_back(
        {"Karate" + suffix,
         MakeInfluenceGraph(GraphBuilder::FromEdgeList(Datasets::Karate()),
                            prob)});
    workloads.push_back(
        {"Physicians" + suffix,
         MakeInfluenceGraph(
             GraphBuilder::FromEdgeList(Datasets::Physicians(3)), prob)});
  }
  return workloads;
}

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b,
                      const std::string& label) {
  EXPECT_EQ(a.vertices, b.vertices) << label;
  EXPECT_EQ(a.edges, b.edges) << label;
  EXPECT_EQ(a.sample_vertices, b.sample_vertices) << label;
  EXPECT_EQ(a.sample_edges, b.sample_edges) << label;
}

/// Bit equality, not ==: the contract is the same double, not a close one.
void ExpectBitsEq(const std::vector<double>& a, const std::vector<double>& b,
                  const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[j]),
              std::bit_cast<std::uint64_t>(b[j]))
        << label << " candidate #" << j << ": " << a[j] << " vs " << b[j];
  }
}

std::vector<double> EstimateLoop(InfluenceEstimator* estimator,
                                 const std::vector<VertexId>& candidates) {
  std::vector<double> out(candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    out[j] = estimator->Estimate(candidates[j]);
  }
  return out;
}

std::vector<double> EstimateBatch(InfluenceEstimator* estimator,
                                  const std::vector<VertexId>& candidates) {
  std::vector<double> out(candidates.size());
  estimator->EstimateAll(candidates, out);
  return out;
}

/// The unselected vertices in a fresh shuffled order.
std::vector<VertexId> ShuffledCandidates(
    VertexId n, const std::vector<VertexId>& selected, Rng* rng) {
  std::vector<VertexId> candidates;
  for (VertexId v = 0; v < n; ++v) {
    if (std::find(selected.begin(), selected.end(), v) == selected.end()) {
      candidates.push_back(v);
    }
  }
  std::shuffle(candidates.begin(), candidates.end(), rng->engine());
  return candidates;
}

/// Twins `batch` and `loop` (built, identical state) answer four rounds:
/// batch by EstimateAll, loop by per-vertex Estimate, each round over a
/// new shuffled candidate list, then both commit the round's best
/// candidate. Every round's scores must bit-match and the counters must
/// agree after it — i.e. after 0, 1, 2 and 3 Updates.
void CheckTwinsAgree(InfluenceEstimator* batch, InfluenceEstimator* loop,
                     VertexId n, const std::string& label) {
  Rng rng(kSeed);
  std::vector<VertexId> selected;
  for (int updates = 0; updates <= 3; ++updates) {
    const std::string where =
        label + " after " + std::to_string(updates) + " updates";
    const std::vector<VertexId> candidates =
        ShuffledCandidates(n, selected, &rng);
    const std::vector<double> batched = EstimateBatch(batch, candidates);
    ExpectBitsEq(batched, EstimateLoop(loop, candidates), where);
    ExpectCountersEq(batch->counters(), loop->counters(), where);
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(batched.begin(), batched.end()) - batched.begin());
    batch->Update(candidates[best]);
    loop->Update(candidates[best]);
    selected.push_back(candidates[best]);
  }
}

/// Mixed use on twins: one answers a round by EstimateAll and then asks
/// every candidate singly, the other the reverse. All four score vectors
/// must bit-match, and the counters must agree after each round.
void CheckMixedUseAgrees(InfluenceEstimator* batch_first,
                         InfluenceEstimator* loop_first, VertexId n,
                         const std::string& label) {
  Rng rng(kSeed + 1);
  std::vector<VertexId> selected;
  for (int updates = 0; updates <= 3; ++updates) {
    const std::string where =
        label + " mixed, after " + std::to_string(updates) + " updates";
    const std::vector<VertexId> candidates =
        ShuffledCandidates(n, selected, &rng);
    const std::vector<double> reference =
        EstimateBatch(batch_first, candidates);
    ExpectBitsEq(EstimateLoop(batch_first, candidates), reference, where);
    ExpectBitsEq(EstimateLoop(loop_first, candidates), reference, where);
    ExpectBitsEq(EstimateBatch(loop_first, candidates), reference, where);
    ExpectCountersEq(batch_first->counters(), loop_first->counters(), where);
    const VertexId seed = candidates[updates % candidates.size()];
    batch_first->Update(seed);
    loop_first->Update(seed);
    selected.push_back(seed);
  }
}

std::unique_ptr<InfluenceEstimator> FreshCondensed(const InfluenceGraph& ig,
                                                   std::uint64_t tau) {
  auto estimator = std::make_unique<SnapshotEstimator>(
      &ig, tau, kSeed, SnapshotEstimator::Mode::kCondensed);
  estimator->Build();
  return estimator;
}

std::unique_ptr<InfluenceEstimator> FromArena(const SnapshotArena& arena,
                                              std::uint64_t tau) {
  auto estimator = std::make_unique<ArenaSnapshotEstimator>(&arena, tau);
  estimator->Build();
  return estimator;
}

TEST(EstimateAllTest, CondensedBatchMatchesPerVertexLoop) {
  for (const Workload& w : Workloads()) {
    const VertexId n = w.ig.num_vertices();
    const SnapshotArena arena =
        SnapshotArena::Sample(w.ig, kSeed, kArenaCapacity, SamplingOptions{});
    for (std::uint64_t tau : {1, 37, 256}) {
      const std::string label = w.name + " tau=" + std::to_string(tau);
      CheckTwinsAgree(FreshCondensed(w.ig, tau).get(),
                      FreshCondensed(w.ig, tau).get(), n,
                      label + " fresh");
      CheckTwinsAgree(FromArena(arena, tau).get(),
                      FromArena(arena, tau).get(), n, label + " arena");
    }
  }
}

TEST(EstimateAllTest, MixedSingleAndBatchCallsAgree) {
  for (const Workload& w : Workloads()) {
    const VertexId n = w.ig.num_vertices();
    const SnapshotArena arena =
        SnapshotArena::Sample(w.ig, kSeed, kArenaCapacity, SamplingOptions{});
    for (std::uint64_t tau : {1, 37, 256}) {
      const std::string label = w.name + " tau=" + std::to_string(tau);
      CheckMixedUseAgrees(FreshCondensed(w.ig, tau).get(),
                          FreshCondensed(w.ig, tau).get(), n,
                          label + " fresh");
      CheckMixedUseAgrees(FromArena(arena, tau).get(),
                          FromArena(arena, tau).get(), n, label + " arena");
    }
  }
}

/// CELF is the single-vertex caller: the arena estimator sums its
/// bounds per call and the fresh backend at Build, so every InitialBound
/// must bit-match, and a CELF run over each must pick the same seeds with
/// the same estimates and counters.
TEST(EstimateAllTest, ArenaInitialBoundsAndCelfMatchFresh) {
  constexpr int kK = 4;
  for (const Workload& w : Workloads()) {
    const VertexId n = w.ig.num_vertices();
    const SnapshotArena arena =
        SnapshotArena::Sample(w.ig, kSeed, kArenaCapacity, SamplingOptions{});
    for (std::uint64_t tau : {1, 37, 256}) {
      const std::string label = w.name + " tau=" + std::to_string(tau);
      std::unique_ptr<InfluenceEstimator> fresh = FreshCondensed(w.ig, tau);
      std::unique_ptr<InfluenceEstimator> served = FromArena(arena, tau);
      std::vector<double> fresh_bounds(n);
      std::vector<double> served_bounds(n);
      for (VertexId v = 0; v < n; ++v) {
        fresh_bounds[v] = fresh->InitialBound(v);
        served_bounds[v] = served->InitialBound(v);
      }
      ExpectBitsEq(served_bounds, fresh_bounds, label + " bounds");

      SnapshotEstimator fresh_celf(&w.ig, tau, kSeed,
                                   SnapshotEstimator::Mode::kCondensed);
      ArenaSnapshotEstimator served_celf(&arena, tau);
      Rng tie_a(kSeed), tie_b(kSeed);
      const CelfRunResult a = RunCelfGreedy(&served_celf, n, kK, &tie_a);
      const CelfRunResult b = RunCelfGreedy(&fresh_celf, n, kK, &tie_b);
      EXPECT_EQ(a.greedy.seeds, b.greedy.seeds) << label;
      ExpectBitsEq(a.greedy.estimates, b.greedy.estimates, label + " celf");
      EXPECT_EQ(a.estimate_calls, b.estimate_calls) << label;
      ExpectCountersEq(served_celf.counters(), fresh_celf.counters(), label);
    }
  }
}

/// The greedy loop RunGreedy ran before rounds went through EstimateAll:
/// Estimate per unselected vertex in shuffled order, last maximum wins.
GreedyRunResult PerVertexGreedy(InfluenceEstimator* estimator,
                                VertexId num_vertices, int k, Rng* tie_rng) {
  estimator->Build();
  std::vector<VertexId> order(num_vertices);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::shuffle(order.begin(), order.end(), tie_rng->engine());
  std::vector<std::uint8_t> selected(num_vertices, 0);
  GreedyRunResult result;
  for (int round = 0; round < k; ++round) {
    VertexId best = kInvalidVertex;
    double best_estimate = -1.0;
    for (VertexId v : order) {
      if (selected[v]) continue;
      const double estimate = estimator->Estimate(v);
      if (estimate >= best_estimate) {
        best_estimate = estimate;
        best = v;
      }
    }
    estimator->Update(best);
    selected[best] = 1;
    result.seeds.push_back(best);
    result.estimates.push_back(best_estimate);
  }
  return result;
}

TEST(EstimateAllTest, RunGreedyMatchesPerVertexGreedyEveryApproach) {
  constexpr int kK = 4;
  for (const Workload& w : Workloads()) {
    const ModelInstance instance = ModelInstance::Ic(&w.ig);
    const VertexId n = w.ig.num_vertices();
    const RrArena rr_arena =
        RrArena::SampleIc(w.ig, kSeed, 4096, SamplingOptions{});
    const SnapshotArena snapshot_arena =
        SnapshotArena::Sample(w.ig, kSeed, kArenaCapacity, SamplingOptions{});
    using Factory = std::function<std::unique_ptr<InfluenceEstimator>()>;
    const std::vector<std::pair<std::string, Factory>> factories = {
        {"Oneshot",
         [&] { return MakeEstimator(instance, Approach::kOneshot, 4, kSeed); }},
        {"RIS",
         [&] { return MakeEstimator(instance, Approach::kRis, 4096, kSeed); }},
        {"arena RIS",
         [&] { return std::make_unique<ArenaRisEstimator>(&rr_arena, 3000); }},
        {"Snapshot naive",
         [&] {
           return MakeEstimator(instance, Approach::kSnapshot, 37, kSeed,
                                SnapshotEstimator::Mode::kNaive);
         }},
        {"Snapshot residual",
         [&] {
           return MakeEstimator(instance, Approach::kSnapshot, 37, kSeed,
                                SnapshotEstimator::Mode::kResidual);
         }},
        {"Snapshot condensed",
         [&] {
           return MakeEstimator(instance, Approach::kSnapshot, 256, kSeed,
                                SnapshotEstimator::Mode::kCondensed);
         }},
        {"arena Snapshot",
         [&] {
           return std::make_unique<ArenaSnapshotEstimator>(&snapshot_arena,
                                                           200);
         }},
    };
    for (const auto& [name, make] : factories) {
      const std::string label = w.name + " " + name;
      std::unique_ptr<InfluenceEstimator> batched = make();
      std::unique_ptr<InfluenceEstimator> per_vertex = make();
      Rng tie_a(kSeed), tie_b(kSeed);
      const GreedyRunResult a = RunGreedy(batched.get(), n, kK, &tie_a);
      const GreedyRunResult b =
          PerVertexGreedy(per_vertex.get(), n, kK, &tie_b);
      EXPECT_EQ(a.seeds, b.seeds) << label;
      ExpectBitsEq(a.estimates, b.estimates, label);
      ExpectCountersEq(batched->counters(), per_vertex->counters(), label);
    }
  }
}

}  // namespace
}  // namespace soldist
