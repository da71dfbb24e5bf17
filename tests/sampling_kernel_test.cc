// The IC sampling kernels (forward simulation, RR sets, snapshots) against
// reference copies of their straightforward loops, where the coin outcome
// decides a branch and survivors are push_back-ed. The kernels must make
// the same draws: equal sets in equal order, equal counters, and the same
// next NextBits() from every Rng passed in. Each reference loop runs twice:
// on Rng::Bernoulli, and on libstdc++'s std::mt19937_64 with the double
// compare UnitReal() < p, so the kernels' block engine and integer coin
// thresholds are pinned against the standard engine too.

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "model/probability.h"
#include "random/rng.h"
#include "sim/counters.h"
#include "sim/forward_sim.h"
#include "sim/rr_sampler.h"
#include "sim/snapshot_sampler.h"

namespace soldist {
namespace {

/// Coin source of the reference loops: Rng::Bernoulli(p).
struct RngCoin {
  Rng* rng;
  bool operator()(double p) { return rng->Bernoulli(p); }
};

/// Coin source of the reference loops: std::mt19937_64 with the double
/// compare, the engine and coin the kernels drew with before.
struct StdCoin {
  std::mt19937_64 engine;
  bool operator()(double p) {
    return static_cast<double>(engine() >> 11) * 0x1.0p-53 < p;
  }
};

template <typename Coin>
std::vector<VertexId> ReferenceSimulate(const InfluenceGraph& ig,
                                        std::span<const VertexId> seeds,
                                        Coin&& coin,
                                        TraversalCounters* counters) {
  const Graph& g = ig.graph();
  VisitedMarker active(g.num_vertices());
  std::vector<VertexId> queue;
  for (VertexId s : seeds) {
    if (active.Mark(s)) queue.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    VertexId u = queue[head++];
    counters->vertices += 1;
    const EdgeId begin = g.out_offsets()[u];
    const EdgeId end = g.out_offsets()[u + 1];
    counters->edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      VertexId v = g.out_targets()[e];
      if (active.IsMarked(v)) continue;
      if (coin(ig.OutProbability(e))) {
        active.Mark(v);
        queue.push_back(v);
      }
    }
  }
  return queue;
}

template <typename Coin>
std::vector<VertexId> ReferenceRrSet(const InfluenceGraph& ig,
                                     VertexId target, Coin&& coin,
                                     TraversalCounters* counters) {
  const Graph& g = ig.graph();
  VisitedMarker visited(g.num_vertices());
  std::vector<VertexId> out;
  visited.Mark(target);
  out.push_back(target);
  std::size_t head = 0;
  while (head < out.size()) {
    VertexId v = out[head++];
    counters->vertices += 1;
    const EdgeId begin = g.in_offsets()[v];
    const EdgeId end = g.in_offsets()[v + 1];
    counters->edges += end - begin;
    for (EdgeId pos = begin; pos < end; ++pos) {
      VertexId w = g.in_sources()[pos];
      if (visited.IsMarked(w)) continue;
      if (coin(ig.InProbability(pos))) {
        visited.Mark(w);
        out.push_back(w);
      }
    }
  }
  counters->sample_vertices += out.size();
  return out;
}

template <typename Coin>
Snapshot ReferenceSnapshot(const InfluenceGraph& ig, Coin&& coin,
                           TraversalCounters* counters) {
  const Graph& g = ig.graph();
  const VertexId n = g.num_vertices();
  Snapshot out;
  out.out_offsets.resize(static_cast<std::size_t>(n) + 1);
  out.out_offsets[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = g.out_offsets()[u]; e < g.out_offsets()[u + 1]; ++e) {
      if (coin(ig.OutProbability(e))) {
        out.out_targets.push_back(g.out_targets()[e]);
      }
    }
    out.out_offsets[u + 1] = static_cast<EdgeId>(out.out_targets.size());
  }
  counters->sample_edges += out.num_live_edges();
  return out;
}

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

/// The kernel's Rng and both references' streams stand at the same word.
void ExpectNextBitsEq(Rng* rng, Rng* ref_rng, StdCoin* std_coin) {
  const std::uint64_t next = rng->NextBits();
  ASSERT_EQ(next, ref_rng->NextBits());
  ASSERT_EQ(next, std_coin->engine());
}

struct Case {
  std::string name;
  InfluenceGraph ig;
};

InfluenceGraph FromEdges(const EdgeList& edges, ProbabilityModel model) {
  Rng rng(7);  // trivalency draws its probabilities
  return MakeInfluenceGraph(GraphBuilder::FromEdgeList(edges), model, &rng);
}

/// Parallel arcs (0->1 twice), self-loops (0->0, 1->1), p = 1 arcs on a
/// cycle, and vertex 5 with no edges at all.
InfluenceGraph EdgeCaseGraph() {
  EdgeList edges;
  edges.num_vertices = 6;
  edges.Add(0, 0);
  edges.Add(0, 1);
  edges.Add(0, 1);
  edges.Add(1, 1);
  edges.Add(1, 2);
  edges.Add(2, 0);
  edges.Add(2, 3);
  edges.Add(3, 4);
  edges.Add(4, 2);
  edges.Add(4, 4);
  Graph g = GraphBuilder::FromEdgeList(edges);
  const double cycle[] = {1.0, 0.5, 0.3, 1.0, 0.7, 0.2};
  std::vector<double> p(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) p[e] = cycle[e % 6];
  return InfluenceGraph(std::move(g), std::move(p));
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  const ProbabilityModel models[] = {ProbabilityModel::kIwc,
                                     ProbabilityModel::kUc01,
                                     ProbabilityModel::kTrivalency};
  for (ProbabilityModel model : models) {
    const std::string p = ProbabilityModelName(model);
    cases.push_back({"Karate/" + p, FromEdges(Datasets::Karate(), model)});
    cases.push_back(
        {"Physicians/" + p, FromEdges(Datasets::Physicians(42), model)});
  }
  cases.push_back({"edge-cases", EdgeCaseGraph()});
  return cases;
}

/// Seed sets for vertex count n: every single vertex (capped), then
/// random sets of 1..4 drawn with replacement, so duplicates occur.
std::vector<std::vector<VertexId>> SeedSets(VertexId n) {
  std::vector<std::vector<VertexId>> sets;
  for (VertexId v = 0; v < n && v < 40; ++v) sets.push_back({v});
  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    std::vector<VertexId> s(1 + rng.UniformInt(4));
    for (VertexId& v : s) v = static_cast<VertexId>(rng.UniformInt(n));
    sets.push_back(s);
  }
  sets.push_back({0, 0});
  sets.push_back({n - 1, 0, n - 1});
  return sets;
}

TEST(SamplingKernelTest, SimulateMatchesReference) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    ForwardSimulator sim(&c.ig);
    Rng rng(11);
    Rng ref_rng(11);
    StdCoin std_coin{std::mt19937_64(11)};
    TraversalCounters counters;
    TraversalCounters ref_counters;
    TraversalCounters std_counters;
    for (const std::vector<VertexId>& seeds : SeedSets(c.ig.num_vertices())) {
      for (int run = 0; run < 3; ++run) {
        std::vector<VertexId> got = sim.SimulateSet(seeds, &rng, &counters);
        std::vector<VertexId> want = ReferenceSimulate(
            c.ig, seeds, RngCoin{&ref_rng}, &ref_counters);
        ASSERT_EQ(got, want);
        ASSERT_EQ(got,
                  ReferenceSimulate(c.ig, seeds, std_coin, &std_counters));
        ExpectCountersEq(counters, ref_counters);
        ExpectCountersEq(counters, std_counters);
        ExpectNextBitsEq(&rng, &ref_rng, &std_coin);
        // Simulate alone returns the same count from the same draws.
        TraversalCounters scratch;
        const std::uint32_t count = sim.Simulate(seeds, &rng, &scratch);
        EXPECT_EQ(count,
                  ReferenceSimulate(c.ig, seeds, RngCoin{&ref_rng}, &scratch)
                      .size());
        EXPECT_EQ(count,
                  ReferenceSimulate(c.ig, seeds, std_coin, &scratch).size());
        ExpectNextBitsEq(&rng, &ref_rng, &std_coin);
      }
    }
  }
}

TEST(SamplingKernelTest, RrSetsMatchReference) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const VertexId n = c.ig.num_vertices();
    RrSampler sampler(&c.ig);
    Rng coin(21);
    Rng ref_coin(21);
    StdCoin std_coin{std::mt19937_64(21)};
    TraversalCounters counters;
    TraversalCounters ref_counters;
    TraversalCounters std_counters;
    // The output vector is reused, so stale entries must never leak.
    std::vector<VertexId> rr_set = {n - 1, n - 1, n - 1};
    for (int round = 0; round < 3; ++round) {
      for (VertexId target = 0; target < n; ++target) {
        sampler.SampleForTarget(target, &coin, &rr_set, &counters);
        ASSERT_EQ(rr_set, ReferenceRrSet(c.ig, target, RngCoin{&ref_coin},
                                         &ref_counters));
        ASSERT_EQ(rr_set,
                  ReferenceRrSet(c.ig, target, std_coin, &std_counters));
        ExpectCountersEq(counters, ref_counters);
        ExpectCountersEq(counters, std_counters);
        ExpectNextBitsEq(&coin, &ref_coin, &std_coin);
      }
    }
    Rng target_rng(31);
    Rng ref_target_rng(31);
    for (int i = 0; i < 500; ++i) {
      sampler.Sample(&target_rng, &coin, &rr_set, &counters);
      const auto target = static_cast<VertexId>(ref_target_rng.UniformInt(n));
      ASSERT_EQ(rr_set, ReferenceRrSet(c.ig, target, RngCoin{&ref_coin},
                                       &ref_counters));
      ASSERT_EQ(rr_set,
                ReferenceRrSet(c.ig, target, std_coin, &std_counters));
      ExpectCountersEq(counters, ref_counters);
      ExpectCountersEq(counters, std_counters);
      ASSERT_EQ(target_rng.NextBits(), ref_target_rng.NextBits());
      ExpectNextBitsEq(&coin, &ref_coin, &std_coin);
    }
    // AppendSample makes the same draws and appends the same set.
    std::vector<VertexId> flat = {n - 1};
    sampler.AppendSample(&target_rng, &coin, &flat, &counters);
    const auto target = static_cast<VertexId>(ref_target_rng.UniformInt(n));
    std::vector<VertexId> want = {n - 1};
    const std::vector<VertexId> ref = ReferenceRrSet(
        c.ig, target, RngCoin{&ref_coin}, &ref_counters);
    want.insert(want.end(), ref.begin(), ref.end());
    ASSERT_EQ(flat, want);
    ExpectCountersEq(counters, ref_counters);
    ASSERT_EQ(coin.NextBits(), ref_coin.NextBits());
  }
}

TEST(SamplingKernelTest, SnapshotsMatchReference) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    SnapshotSampler sampler(&c.ig);
    Rng rng(41);
    Rng ref_rng(41);
    StdCoin std_coin{std::mt19937_64(41)};
    TraversalCounters counters;
    TraversalCounters ref_counters;
    TraversalCounters std_counters;
    Snapshot reused;
    for (int i = 0; i < 40; ++i) {
      const bool into = i % 2 == 1;
      Snapshot fresh;
      if (into) {
        sampler.SampleInto(&rng, &counters, &reused);
      } else {
        fresh = sampler.Sample(&rng, &counters);
        // A stored snapshot holds no slack beyond its live edges.
        EXPECT_EQ(fresh.out_targets.capacity(), fresh.out_targets.size());
      }
      const Snapshot& got = into ? reused : fresh;
      Snapshot want =
          ReferenceSnapshot(c.ig, RngCoin{&ref_rng}, &ref_counters);
      ASSERT_EQ(got.out_offsets, want.out_offsets);
      ASSERT_EQ(got.out_targets, want.out_targets);
      Snapshot std_want = ReferenceSnapshot(c.ig, std_coin, &std_counters);
      ASSERT_EQ(got.out_offsets, std_want.out_offsets);
      ASSERT_EQ(got.out_targets, std_want.out_targets);
      ExpectCountersEq(counters, ref_counters);
      ExpectCountersEq(counters, std_counters);
      ExpectNextBitsEq(&rng, &ref_rng, &std_coin);
    }
  }
}

}  // namespace
}  // namespace soldist
