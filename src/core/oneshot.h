// Oneshot (paper Algorithm 3.2): Monte-Carlo simulation on the spot.
// Sample number β = simulations per Estimate call. Estimates are unbiased
// but mutually independent, so neither monotonicity nor submodularity of
// the estimated function is guaranteed (Section 3.3.1).

#ifndef SOLDIST_CORE_ONESHOT_H_
#define SOLDIST_CORE_ONESHOT_H_

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/estimator.h"
#include "model/diffusion.h"
#include "sim/forward_sim.h"
#include "sim/lt_forward_sim.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief The Oneshot estimator, under either diffusion model.
class OneshotEstimator : public InfluenceEstimator {
 public:
  /// \param beta simulations per estimate (must be >= 1)
  /// \param seed PRNG seed for this run
  OneshotEstimator(const ModelInstance& instance, std::uint64_t beta,
                   std::uint64_t seed, const SamplingOptions& sampling = {});
  OneshotEstimator(const InfluenceGraph* ig, std::uint64_t beta,
                   std::uint64_t seed, const SamplingOptions& sampling = {})
      : OneshotEstimator(ModelInstance::Ic(ig), beta, seed, sampling) {}

  void Build() override {}  // Oneshot builds nothing.

  /// Mean activated count over β fresh simulations from S ∪ {v}.
  ///
  /// On the chunked streams (UseChunkedStreams) the β runs of each call
  /// fan out through the engine: call j uses per-chunk streams derived
  /// from (seed, call index j), so the sequence of estimates is
  /// deterministic for any worker count. The IC legacy family keeps the
  /// single-stream loop, bit-identical to the pre-engine code.
  double Estimate(VertexId v) override;

  void Update(VertexId v) override { seeds_.push_back(v); }

  bool EstimatesAreMarginal() const override { return false; }
  std::uint64_t sample_number() const override { return beta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override {
    return instance_.model == DiffusionModel::kLt ? "LT-Oneshot" : "Oneshot";
  }

 private:
  ModelInstance instance_;
  std::uint64_t beta_;
  Rng rng_;
  std::optional<ForwardSimulator> simulator_;  ///< IC legacy loop only
  /// Chunked streams only: reused across Estimate calls (it may own a
  /// pool), with the model kernel's per-slot simulators.
  std::unique_ptr<SamplingEngine> engine_;
  std::variant<ForwardSimulatorCache, LtForwardSimulatorCache> sim_cache_;
  std::uint64_t call_master_ = 0;  ///< DeriveSeed(seed, 3)
  std::uint64_t calls_ = 0;
  std::vector<VertexId> seeds_;
  std::vector<VertexId> scratch_;
  TraversalCounters counters_;
};

}  // namespace soldist

#endif  // SOLDIST_CORE_ONESHOT_H_
