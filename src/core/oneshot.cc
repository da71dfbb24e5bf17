#include "core/oneshot.h"

#include "random/splitmix64.h"

namespace soldist {

OneshotEstimator::OneshotEstimator(const ModelInstance& instance,
                                   std::uint64_t beta, std::uint64_t seed,
                                   const SamplingOptions& sampling)
    : instance_(instance), beta_(beta), rng_(seed) {
  SOLDIST_CHECK(instance_.ig != nullptr);
  SOLDIST_CHECK(beta_ >= 1);
  if (!UseChunkedStreams(instance_.model, sampling)) {
    simulator_.emplace(instance_.ig);
    return;
  }
  engine_ = std::make_unique<SamplingEngine>(sampling);
  call_master_ = DeriveSeed(seed, 3);
  if (instance_.model == DiffusionModel::kLt) {
    sim_cache_.emplace<LtForwardSimulatorCache>();
  }
}

double OneshotEstimator::Estimate(VertexId v) {
  scratch_.assign(seeds_.begin(), seeds_.end());
  scratch_.push_back(v);
  if (simulator_.has_value()) {
    return simulator_->EstimateInfluence(scratch_, beta_, &rng_, &counters_);
  }
  const std::uint64_t call_seed = DeriveSeed(call_master_, calls_++);
  return std::visit(
      [&](auto& cache) {
        return EstimateInfluenceSharded(*instance_.ig, scratch_, beta_,
                                        call_seed, engine_.get(), &counters_,
                                        &cache);
      },
      sim_cache_);
}

}  // namespace soldist
