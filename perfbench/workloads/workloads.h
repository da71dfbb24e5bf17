// The benchmark's workloads. Each takes its seed from RunArgs, makes its
// own inputs, checks every answer, and fills Outcome with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run).

#ifndef PERFBENCH_WORKLOADS_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_WORKLOADS_H_

#include "api/session.h"
#include "common.h"
#include "core/estimator.h"
#include "serve/query_service.h"

namespace perfbench {

void RunReplWarm(const RunArgs& args, Outcome* out);
void RunServeCold(const RunArgs& args, Outcome* out);
void RunPaperSweep(const RunArgs& args, soldist::Approach approach,
                   Outcome* out);

/// A mix line's answer from a view: Spread, or MarginalGain for gain.
inline double Answer(const soldist::serve::QueryView& view,
                     const QueryLine& q,
                     soldist::serve::QueryScratch* scratch) {
  return q.kind == QueryLine::kGain
             ? view.MarginalGain(q.seeds, q.vertex, scratch)
             : view.Spread(q.seeds, scratch);
}

/// The serve hit path under sharing (hit_path.cc): View() + one point
/// query per request from `pool`, on four resident arenas keyed like
/// `base` with seeds base.seed .. base.seed + 3, at two client threads
/// for 2/3 of `seconds` and one for the rest.
void MeasureHitPath(soldist::serve::QueryService* service,
                    const soldist::api::WorkloadSpec& workload,
                    const soldist::serve::QuerySpec& base,
                    const std::vector<QueryLine>& pool, std::uint64_t seed,
                    double seconds, Outcome* out);

/// Records the workload's dataset shape (n, m) in the result file.
void RecordDataset(soldist::api::Session& session,
                   const soldist::api::WorkloadSpec& workload, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_WORKLOADS_H_
