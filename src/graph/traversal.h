// Reusable BFS machinery: epoch-marked visited sets and restartable queues
// avoid O(n) clearing between the millions of tiny traversals the samplers
// perform.

#ifndef SOLDIST_GRAPH_TRAVERSAL_H_
#define SOLDIST_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace soldist {

/// \brief O(1)-reset visited marker backed by a generation counter.
///
/// Mark(v) stamps v with the current epoch; NextEpoch() invalidates all
/// marks in O(1). Overflow of the 32-bit epoch triggers a full clear.
class VisitedMarker {
 public:
  explicit VisitedMarker(std::size_t size) : stamp_(size, 0), epoch_(1) {}

  void Resize(std::size_t size) { stamp_.assign(size, 0); epoch_ = 1; }

  void NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: all stamps stale but may collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool IsMarked(VertexId v) const { return stamp_[v] == epoch_; }

  /// Marks v; returns true if it was unmarked (first visit).
  bool Mark(VertexId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

  /// Raw stamps and the current epoch, for loops that hoist both into
  /// locals: v is marked iff stamps()[v] == epoch(). The IC sampling
  /// kernels mark on a coin outcome as a mask select, which no predictor
  /// has to learn.
  std::uint32_t* stamps() { return stamp_.data(); }
  std::uint32_t epoch() const { return epoch_; }

  std::size_t size() const { return stamp_.size(); }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_;
};

/// \brief Forward-BFS reachability over the full graph (every arc present).
///
/// Used for graph statistics and the exact computation r_G(S) on
/// deterministic graphs; the stochastic samplers have their own loops.
class BfsReachability {
 public:
  explicit BfsReachability(const Graph* graph);

  /// Number of vertices reachable from `sources` (sources included).
  std::uint64_t CountReachable(std::span<const VertexId> sources);

  /// All vertices reachable from `sources`, in visit order.
  std::vector<VertexId> ReachableSet(std::span<const VertexId> sources);

  /// BFS hop distances from `source`; kUnreachableDistance if unreachable.
  static constexpr std::uint32_t kUnreachableDistance = ~0u;
  std::vector<std::uint32_t> Distances(VertexId source);

 private:
  const Graph* graph_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
};

}  // namespace soldist

#endif  // SOLDIST_GRAPH_TRAVERSAL_H_
