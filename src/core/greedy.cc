#include "core/greedy.h"

#include <algorithm>
#include <span>

namespace soldist {

std::vector<VertexId> GreedyRunResult::SortedSeedSet() const {
  std::vector<VertexId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

GreedyRunResult RunGreedy(InfluenceEstimator* estimator,
                          VertexId num_vertices, int k, Rng* tie_rng) {
  SOLDIST_CHECK(k >= 1);
  SOLDIST_CHECK(static_cast<VertexId>(k) <= num_vertices);

  estimator->Build();

  std::vector<VertexId> order(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) order[v] = v;
  std::shuffle(order.begin(), order.end(), tie_rng->engine());

  // `order` holds the unselected vertices in shuffled order: each round
  // scores them in one EstimateAll call and erases its seed in place.
  std::vector<double> scores(num_vertices);
  GreedyRunResult result;
  result.seeds.reserve(k);
  result.estimates.reserve(k);
  for (int round = 0; round < k; ++round) {
    std::span<double> round_scores(scores.data(), order.size());
    estimator->EstimateAll(order, round_scores);
    std::size_t best = order.size();
    double best_estimate = -1.0;
    for (std::size_t j = 0; j < order.size(); ++j) {
      // ">=": the LAST maximum in shuffled order wins (Algorithm 3.1
      // line 5), which breaks ties uniformly at random.
      if (round_scores[j] >= best_estimate) {
        best_estimate = round_scores[j];
        best = j;
      }
    }
    SOLDIST_CHECK(best != order.size());
    const VertexId seed = order[best];
    estimator->Update(seed);
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(best));
    result.seeds.push_back(seed);
    result.estimates.push_back(best_estimate);
  }
  return result;
}

}  // namespace soldist
