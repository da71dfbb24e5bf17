#include "model/influence_graph.h"

#include <numeric>

#include "random/rng.h"

namespace soldist {

InfluenceGraph::InfluenceGraph(Graph graph,
                               std::vector<double> out_probabilities)
    : graph_(std::move(graph)), out_prob_(std::move(out_probabilities)) {
  SOLDIST_CHECK_EQ(out_prob_.size(), graph_.num_edges())
      << "probability array must align with the out-CSR edges";
  for (double p : out_prob_) {
    SOLDIST_CHECK(p > 0.0 && p <= 1.0) << "edge probability out of (0,1]";
  }
  // Mirror probabilities into in-CSR order via the arc cross-index.
  const auto& in_to_out = graph_.in_to_out_edge();
  in_prob_.resize(out_prob_.size());
  out_threshold_.resize(out_prob_.size());
  in_threshold_.resize(out_prob_.size());
  for (std::size_t e = 0; e < out_prob_.size(); ++e) {
    out_threshold_[e] = CoinThreshold(out_prob_[e]);
  }
  for (std::size_t pos = 0; pos < in_to_out.size(); ++pos) {
    in_prob_[pos] = out_prob_[in_to_out[pos]];
    in_threshold_[pos] = out_threshold_[in_to_out[pos]];
  }
  sum_prob_ = std::accumulate(out_prob_.begin(), out_prob_.end(), 0.0);
}

}  // namespace soldist
