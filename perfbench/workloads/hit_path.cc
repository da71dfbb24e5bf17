// The serve hit path under sharing, measured in repl-warm's traced run:
// a few resident arenas of the REPL's workload (different sampling
// seeds); client threads run a closed loop where each request calls
// QueryService::View() on one of them (always a hit) and answers one
// point query from the repl-warm mix. Each request is split into the
// View() call (serve: ArenaCache probe + view mint) and the kernel
// (serve: QueryView), at two threads and at one, which tells a kernel
// slowdown under sharing from a hit-path slowdown. Answers must equal a
// single-thread reference and the cache must count one hit per request.

#include <algorithm>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kKeys = 4;
/// Per-thread sample slots, allocated before the clock starts.
constexpr std::size_t kMaxSamples = std::size_t{1} << 22;

struct Shared {
  soldist::serve::QueryService* service;
  const soldist::api::WorkloadSpec* workload;
  std::vector<soldist::serve::QuerySpec> keys;
  const std::vector<QueryLine>* pool;
  /// reference[key][line]: single-thread answer bits.
  std::vector<std::vector<std::uint64_t>> reference;
};

struct ThreadResult {
  std::vector<float> view_ns;
  std::vector<float> kernel_ns;
  double layer_s = 0.0;  ///< sum of the view + kernel spans
  double wall_s = 0.0;   ///< the thread's loop wall
  std::uint64_t requests = 0;
  std::uint64_t bad = 0;
};

void Client(const Shared* s, std::uint64_t seed, double end,
            ThreadResult* r) {
  Mix mix(seed);
  soldist::serve::QueryScratch scratch;
  r->view_ns.assign(kMaxSamples, 0.0f);
  r->kernel_ns.assign(kMaxSamples, 0.0f);
  const double start = Now();
  double t0 = start;
  for (;;) {
    const std::uint64_t pick = mix.Next();
    const std::size_t k = pick % s->keys.size();
    const std::size_t j = (pick >> 8) % s->pool->size();
    auto view = s->service->View(*s->workload, s->keys[k]);
    const double t1 = Now();
    const bool ok = view.ok() && !view.value().degraded();
    const double answer = ok ? Answer(view.value(), (*s->pool)[j], &scratch)
                             : 0.0;
    const double t2 = Now();
    const std::size_t slot = std::min(r->requests, kMaxSamples - 1);
    r->view_ns[slot] = static_cast<float>(1e9 * (t1 - t0));
    r->kernel_ns[slot] = static_cast<float>(1e9 * (t2 - t1));
    r->layer_s += t2 - t0;
    ++r->requests;
    if (!ok || Bits(answer) != s->reference[k][j]) ++r->bad;
    if (t2 >= end) break;
    t0 = t2;
  }
  r->wall_s = Now() - start;
}

struct Phase {
  std::vector<ThreadResult> threads;
  std::vector<double> view_ns, kernel_ns;
  std::uint64_t hits = 0;
};

Phase RunPhase(const Shared& s, std::uint64_t seed, int threads,
               double seconds, Outcome* out) {
  Phase phase;
  phase.threads.resize(threads);
  const std::uint64_t hits_before = s.service->cache_stats().hits;
  const double end = Now() + seconds;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(Client, &s, seed * 7919 + t, end, &phase.threads[t]);
  }
  for (std::thread& w : workers) w.join();
  phase.hits = s.service->cache_stats().hits - hits_before;
  std::uint64_t requests = 0;
  for (const ThreadResult& t : phase.threads) {
    requests += t.requests;
    out->attempted += t.requests;
    out->failed += t.bad;
    const std::size_t n = std::min(t.requests, kMaxSamples);
    phase.view_ns.insert(phase.view_ns.end(), t.view_ns.begin(),
                         t.view_ns.begin() + n);
    phase.kernel_ns.insert(phase.kernel_ns.end(), t.kernel_ns.begin(),
                           t.kernel_ns.begin() + n);
  }
  if (phase.hits != requests) {
    out->Fail("cache hits " + std::to_string(phase.hits) + " != requests " +
              std::to_string(requests));
  }
  return phase;
}

}  // namespace

void MeasureHitPath(soldist::serve::QueryService* service,
                    const soldist::api::WorkloadSpec& workload,
                    const soldist::serve::QuerySpec& base,
                    const std::vector<QueryLine>& pool, std::uint64_t seed,
                    double seconds, Outcome* out) {
  Shared s{service, &workload, {}, &pool, {}};
  soldist::serve::QueryScratch scratch;
  for (int k = 0; k < kKeys; ++k) {
    soldist::serve::QuerySpec spec = base;
    spec.seed = base.seed + static_cast<std::uint64_t>(k);
    auto view = service->View(workload, spec);
    if (!view.ok()) {
      out->Fail("hit-path warm-up View: " + view.status().ToString());
      return;
    }
    s.keys.push_back(spec);
    std::vector<std::uint64_t> bits;
    for (const QueryLine& q : pool) {
      bits.push_back(Bits(Answer(view.value(), q, &scratch)));
    }
    s.reference.push_back(std::move(bits));
  }
  Phase two = RunPhase(s, seed, 2, 2.0 * seconds / 3.0, out);
  Phase one = RunPhase(s, seed + 1, 1, seconds / 3.0, out);
  double layer_s = 0.0, wall_s = 0.0;
  for (const Phase* p : {&two, &one}) {
    for (const ThreadResult& t : p->threads) {
      layer_s += t.layer_s;
      wall_s += t.wall_s;
    }
  }
  Reconciles(layer_s, wall_s, out, "hit-path clients");
  out->metrics.Set("serve.view_hit_ns_p50", Percentile(&two.view_ns, 0.5),
                   "ns");
  out->metrics.Set("serve.kernel_ns_p50", Percentile(&two.kernel_ns, 0.5),
                   "ns");
  out->metrics.Set("serve.view_hit_ns_p50_1t", Percentile(&one.view_ns, 0.5),
                   "ns");
  out->metrics.Set("serve.kernel_ns_p50_1t",
                   Percentile(&one.kernel_ns, 0.5), "ns");
  out->metrics.Set("serve.cache_hits", static_cast<double>(two.hits),
                   "count");
}

}  // namespace perfbench
