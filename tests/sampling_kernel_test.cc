// The IC sampling kernels (forward simulation, RR sets, snapshots) against
// reference copies of their straightforward loops, where the coin outcome
// decides a branch and survivors are push_back-ed. The kernels must make
// the same draws: equal sets in equal order, equal counters, and the same
// next NextBits() from every Rng passed in.

#include <gtest/gtest.h>

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

std::vector<VertexId> ReferenceSimulate(const InfluenceGraph& ig,
                                        std::span<const VertexId> seeds,
                                        Rng* rng,
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
      if (rng->Bernoulli(ig.OutProbability(e))) {
        active.Mark(v);
        queue.push_back(v);
      }
    }
  }
  return queue;
}

std::vector<VertexId> ReferenceRrSet(const InfluenceGraph& ig,
                                     VertexId target, Rng* coin_rng,
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
      if (coin_rng->Bernoulli(ig.InProbability(pos))) {
        visited.Mark(w);
        out.push_back(w);
      }
    }
  }
  counters->sample_vertices += out.size();
  return out;
}

Snapshot ReferenceSnapshot(const InfluenceGraph& ig, Rng* rng,
                           TraversalCounters* counters) {
  const Graph& g = ig.graph();
  const VertexId n = g.num_vertices();
  Snapshot out;
  out.out_offsets.resize(static_cast<std::size_t>(n) + 1);
  out.out_offsets[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = g.out_offsets()[u]; e < g.out_offsets()[u + 1]; ++e) {
      if (rng->Bernoulli(ig.OutProbability(e))) {
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
    TraversalCounters counters;
    TraversalCounters ref_counters;
    for (const std::vector<VertexId>& seeds : SeedSets(c.ig.num_vertices())) {
      for (int run = 0; run < 3; ++run) {
        std::vector<VertexId> got = sim.SimulateSet(seeds, &rng, &counters);
        std::vector<VertexId> want =
            ReferenceSimulate(c.ig, seeds, &ref_rng, &ref_counters);
        ASSERT_EQ(got, want);
        ExpectCountersEq(counters, ref_counters);
        ASSERT_EQ(rng.NextBits(), ref_rng.NextBits());
        // Simulate alone returns the same count from the same draws.
        TraversalCounters scratch;
        EXPECT_EQ(sim.Simulate(seeds, &rng, &scratch),
                  ReferenceSimulate(c.ig, seeds, &ref_rng, &scratch).size());
        ASSERT_EQ(rng.NextBits(), ref_rng.NextBits());
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
    TraversalCounters counters;
    TraversalCounters ref_counters;
    // The output vector is reused, so stale entries must never leak.
    std::vector<VertexId> rr_set = {n - 1, n - 1, n - 1};
    for (int round = 0; round < 3; ++round) {
      for (VertexId target = 0; target < n; ++target) {
        sampler.SampleForTarget(target, &coin, &rr_set, &counters);
        ASSERT_EQ(rr_set, ReferenceRrSet(c.ig, target, &ref_coin,
                                         &ref_counters));
        ExpectCountersEq(counters, ref_counters);
        ASSERT_EQ(coin.NextBits(), ref_coin.NextBits());
      }
    }
    Rng target_rng(31);
    Rng ref_target_rng(31);
    for (int i = 0; i < 500; ++i) {
      sampler.Sample(&target_rng, &coin, &rr_set, &counters);
      const auto target = static_cast<VertexId>(ref_target_rng.UniformInt(n));
      ASSERT_EQ(rr_set,
                ReferenceRrSet(c.ig, target, &ref_coin, &ref_counters));
      ExpectCountersEq(counters, ref_counters);
      ASSERT_EQ(target_rng.NextBits(), ref_target_rng.NextBits());
      ASSERT_EQ(coin.NextBits(), ref_coin.NextBits());
    }
  }
}

TEST(SamplingKernelTest, SnapshotsMatchReference) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    SnapshotSampler sampler(&c.ig);
    Rng rng(41);
    Rng ref_rng(41);
    TraversalCounters counters;
    TraversalCounters ref_counters;
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
      Snapshot want = ReferenceSnapshot(c.ig, &ref_rng, &ref_counters);
      ASSERT_EQ(got.out_offsets, want.out_offsets);
      ASSERT_EQ(got.out_targets, want.out_targets);
      ExpectCountersEq(counters, ref_counters);
      ASSERT_EQ(rng.NextBits(), ref_rng.NextBits());
    }
  }
}

}  // namespace
}  // namespace soldist
