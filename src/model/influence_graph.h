// InfluenceGraph: a directed graph plus an influence-probability function
// p : E -> (0, 1] (paper Section 2.1). Probabilities are stored aligned to
// both CSR directions so forward simulation and reverse (RR-set) sampling
// each stream through contiguous memory, each beside its integer coin
// threshold t(e) = CoinThreshold(p(e)), which the IC kernels compare raw
// engine bits against.

#ifndef SOLDIST_MODEL_INFLUENCE_GRAPH_H_
#define SOLDIST_MODEL_INFLUENCE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace soldist {

/// \brief Immutable influence graph G = (V, E, p).
class InfluenceGraph {
 public:
  /// \param graph the structure; \param out_probabilities p(e) for each
  /// out-CSR edge id, all in (0, 1].
  InfluenceGraph(Graph graph, std::vector<double> out_probabilities);

  const Graph& graph() const { return graph_; }
  VertexId num_vertices() const { return graph_.num_vertices(); }
  EdgeId num_edges() const { return graph_.num_edges(); }

  /// Probability of the arc with out-CSR edge id `e`.
  double OutProbability(EdgeId e) const {
    SOLDIST_DCHECK(e < out_prob_.size());
    return out_prob_[e];
  }

  /// Probability of the arc at in-CSR position `pos` (same arc as
  /// graph().in_sources()[pos]).
  double InProbability(EdgeId pos) const {
    SOLDIST_DCHECK(pos < in_prob_.size());
    return in_prob_[pos];
  }

  const std::vector<double>& out_probabilities() const { return out_prob_; }

  /// t(e) = ceil(p(e)·2^53) in out-CSR / in-CSR order: (bits >> 11) <
  /// t(e) is the coin Bernoulli(p(e)) on the same 64 bits.
  const std::vector<std::uint64_t>& out_thresholds() const {
    return out_threshold_;
  }
  const std::vector<std::uint64_t>& in_thresholds() const {
    return in_threshold_;
  }

  /// m̃ = Σ_e p(e): the expected number of live edges in G ~ G; Snapshot's
  /// expected per-snapshot sample size (paper Table 1).
  double SumProbabilities() const { return sum_prob_; }

 private:
  Graph graph_;
  std::vector<double> out_prob_;
  std::vector<double> in_prob_;
  std::vector<std::uint64_t> out_threshold_;
  std::vector<std::uint64_t> in_threshold_;
  double sum_prob_;
};

}  // namespace soldist

#endif  // SOLDIST_MODEL_INFLUENCE_GRAPH_H_
