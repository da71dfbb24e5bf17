// Estimator factory: one call site for "give me approach X at sample
// number s under diffusion model M" used by the experiment harness, the
// adaptive selector, and the examples.

#ifndef SOLDIST_CORE_FACTORY_H_
#define SOLDIST_CORE_FACTORY_H_

#include <memory>

#include "core/estimator.h"
#include "core/snapshot.h"
#include "model/diffusion.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// Creates the estimator for one run under `instance`'s diffusion model.
/// The same three classes serve IC and LT; the model picks only the
/// sampling kernel and, through UseChunkedStreams, the stream family.
/// `snapshot_mode` applies to IC Snapshot only (LT Snapshot has a single,
/// naive-with-cached-base strategy).
std::unique_ptr<InfluenceEstimator> MakeEstimator(
    const ModelInstance& instance, Approach approach,
    std::uint64_t sample_number, std::uint64_t seed,
    SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kResidual,
    const SamplingOptions& sampling = {});

}  // namespace soldist

#endif  // SOLDIST_CORE_FACTORY_H_
