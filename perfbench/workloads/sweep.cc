// sweep-oneshot, sweep-snapshot, sweep-ris: ROADMAP path 3, the paper's
// own experiment. RunSweep on Physicians iwc IC, k = 4, T = 20 trials,
// condensed Snapshot, SweepReuse::kOn, trial-level parallelism on one
// pool of width min(nproc, 4). One workload per approach, so a gain in
// one approach is never hidden by another approach's time. Seed sets,
// entropy and mean influence of every cell must hash to the committed
// digest for the run's master seed (perfbench/digests/sweep.json).
//
// The traced run rebuilds the sweep from its public parts on one thread
// (RrArena::SampleFor / SnapshotArena::Sample + the arena estimators, or
// MakeEstimator for Oneshot; RunGreedy through a forwarding estimator
// that times Build, Update and the sweeps between Updates;
// RrOracle::EstimateInfluence) with the stream derivation documented in
// exp/trial_runner.h, and requires it to be byte-identical to RunSweep.

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "core/greedy.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "exp/sweep.h"
#include "random/splitmix64.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "stats/influence_distribution.h"
#include "stats/seed_set_distribution.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using soldist::Approach;
using soldist::VertexId;

constexpr int kK = 4;
constexpr std::uint64_t kTrials = 20;

int MaxExponent(Approach a) {
  switch (a) {
    case Approach::kOneshot:
      return 6;
    case Approach::kSnapshot:
      return 12;
    case Approach::kRis:
      return 18;
  }
  return 0;
}

/// Greedy-phase times of one approach, summed over cells and trials.
struct SelectTimes {
  double build = 0.0;   ///< estimator construction + Build()
  double round1 = 0.0;  ///< shuffle + first Estimate sweep
  double later = 0.0;   ///< Estimate sweeps of rounds 2..k
  double update = 0.0;  ///< Update() calls
  std::uint64_t estimate_calls = 0;
};

/// Forwards every call to the wrapped estimator; times Build, Update and
/// the Estimate sweeps between Updates. Selection is unchanged because
/// every virtual RunGreedy consults is forwarded.
class TimedEstimator final : public soldist::InfluenceEstimator {
 public:
  TimedEstimator(soldist::InfluenceEstimator* inner, SelectTimes* times)
      : inner_(inner), times_(times) {}

  void Build() override {
    const double t0 = Now();
    inner_->Build();
    mark_ = Now();
    times_->build += mark_ - t0;
  }
  double Estimate(VertexId v) override {
    ++times_->estimate_calls;
    return inner_->Estimate(v);
  }
  void Update(VertexId v) override {
    const double t0 = Now();
    (round_ == 0 ? times_->round1 : times_->later) += t0 - mark_;
    inner_->Update(v);
    mark_ = Now();
    times_->update += mark_ - t0;
    ++round_;
  }
  bool EstimatesAreMarginal() const override {
    return inner_->EstimatesAreMarginal();
  }
  bool ProvidesInitialBounds() const override {
    return inner_->ProvidesInitialBounds();
  }
  double InitialBound(VertexId v) override { return inner_->InitialBound(v); }
  std::uint64_t sample_number() const override {
    return inner_->sample_number();
  }
  const soldist::TraversalCounters& counters() const override {
    return inner_->counters();
  }
  std::string name() const override { return inner_->name(); }

 private:
  soldist::InfluenceEstimator* inner_;
  SelectTimes* times_;
  double mark_ = 0.0;
  int round_ = 0;
};

soldist::SweepConfig ConfigFor(Approach a, std::uint64_t master) {
  soldist::SweepConfig config;
  config.approach = a;
  config.k = kK;
  config.trials = kTrials;
  config.master_seed = master;
  config.min_exponent = 0;
  config.max_exponent = MaxExponent(a);
  config.snapshot_mode = soldist::SnapshotEstimator::Mode::kCondensed;
  config.reuse = soldist::SweepReuse::kOn;
  return config;
}

/// Per-cell results as the gate compares them.
struct Cell {
  std::vector<std::vector<VertexId>> seed_sets;
  double entropy = 0.0;
  double mean_influence = 0.0;
  soldist::TraversalCounters counters;
};

std::vector<Cell> FromSweep(const std::vector<soldist::SweepCell>& cells) {
  std::vector<Cell> out;
  for (const soldist::SweepCell& c : cells) {
    out.push_back(Cell{c.result.seed_sets, c.entropy,
                       c.result.influence.Mean(), c.result.total_counters});
  }
  return out;
}

/// FNV-1a over every cell's sorted seed sets, entropy and mean
/// influence (both printed with round-trip precision).
std::string Digest(const std::vector<Cell>& cells) {
  std::uint64_t h = 1469598103934665603ULL;
  auto feed = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const Cell& cell : cells) {
    for (const auto& set : cell.seed_sets) {
      for (VertexId v : set) feed(std::to_string(v) + ",");
      feed("|");
    }
    char stats[96];
    std::snprintf(stats, sizeof(stats), "H=%.17g;I=%.17g\n", cell.entropy,
                  cell.mean_influence);
    feed(stats);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

struct Traced {
  std::vector<Cell> cells;
  double wall = 0.0;
  double sample = 0.0;
  SelectTimes select;
  double eval = 0.0;
  double stats = 0.0;
};

/// The sweep rebuilt from public parts, one thread.
Traced Rebuild(const soldist::ModelInstance& instance,
               const soldist::RrOracle& oracle, Approach a,
               std::uint64_t master) {
  using soldist::DeriveSeed;
  Traced tr;
  const int max_exp = MaxExponent(a);
  const VertexId n = instance.ig->num_vertices();
  std::vector<std::uint64_t> taus;
  for (int e = 0; e <= max_exp; ++e) taus.push_back(std::uint64_t{1} << e);
  tr.cells.resize(taus.size());
  for (Cell& c : tr.cells) c.seed_sets.resize(kTrials);
  const double start = Now();

  auto select = [&](soldist::InfluenceEstimator* est, std::uint64_t tie_seed,
                    std::size_t cell, std::uint64_t t) {
    soldist::Rng tie(tie_seed);
    TimedEstimator timed(est, &tr.select);
    tr.cells[cell].seed_sets[t] =
        soldist::RunGreedy(&timed, n, kK, &tie).SortedSeedSet();
    tr.cells[cell].counters += est->counters();
  };

  if (a == Approach::kOneshot) {
    // Oneshot runs every cell on its own streams (SweepReuse::kLegacy
    // mechanics): cell master = DeriveSeed(master, exponent), trial t
    // draws (2t) for the estimator and (2t + 1) for the tie shuffle.
    for (std::size_t l = 0; l < taus.size(); ++l) {
      const std::uint64_t cell_master = DeriveSeed(master, l);
      for (std::uint64_t t = 0; t < kTrials; ++t) {
        const double t0 = Now();
        auto est = soldist::MakeEstimator(
            instance, a, taus[l], DeriveSeed(cell_master, 2 * t),
            soldist::SnapshotEstimator::Mode::kCondensed, {});
        tr.select.build += Now() - t0;
        select(est.get(), DeriveSeed(cell_master, 2 * t + 1), l, t);
      }
    }
  } else {
    // Ladder mechanics: trial master = DeriveSeed(master, t); the arena
    // samples stream DeriveSeed(trial_master, 0) once at the largest tau;
    // cell tau shuffles with DeriveSeed(DeriveSeed(trial_master, 1), tau).
    const std::uint64_t cap = taus.back();
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      const std::uint64_t trial_master = DeriveSeed(master, t);
      const std::uint64_t sample_seed = DeriveSeed(trial_master, 0);
      const std::uint64_t shuffle_master = DeriveSeed(trial_master, 1);
      std::unique_ptr<soldist::RrArena> rr;
      std::unique_ptr<soldist::SnapshotArena> snap;
      double t0 = Now();
      if (a == Approach::kRis) {
        rr = std::make_unique<soldist::RrArena>(
            soldist::RrArena::SampleFor(instance, sample_seed, cap, {}));
      } else {
        snap = std::make_unique<soldist::SnapshotArena>(
            soldist::SnapshotArena::Sample(*instance.ig, sample_seed, cap, {}));
      }
      tr.sample += Now() - t0;
      for (std::size_t l = 0; l < taus.size(); ++l) {
        t0 = Now();
        std::unique_ptr<soldist::InfluenceEstimator> est;
        if (rr != nullptr) {
          est = std::make_unique<soldist::ArenaRisEstimator>(rr.get(), taus[l]);
        } else {
          est = std::make_unique<soldist::ArenaSnapshotEstimator>(snap.get(),
                                                                  taus[l]);
        }
        tr.select.build += Now() - t0;
        select(est.get(), DeriveSeed(shuffle_master, taus[l]), l, t);
      }
    }
  }

  for (Cell& cell : tr.cells) {
    soldist::InfluenceDistribution influence;
    double t0 = Now();
    for (const auto& seeds : cell.seed_sets) {
      influence.Add(oracle.EstimateInfluence(seeds));
    }
    tr.eval += Now() - t0;
    t0 = Now();
    soldist::SeedSetDistribution distribution;
    for (const auto& seeds : cell.seed_sets) distribution.Add(seeds);
    cell.entropy = distribution.Entropy();
    cell.mean_influence = influence.Mean();
    tr.stats += Now() - t0;
  }
  tr.wall = Now() - start;
  return tr;
}

bool Identical(const std::vector<Cell>& a, const std::vector<Cell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seed_sets != b[i].seed_sets ||
        Bits(a[i].entropy) != Bits(b[i].entropy) ||
        Bits(a[i].mean_influence) != Bits(b[i].mean_influence) ||
        a[i].counters.vertices != b[i].counters.vertices ||
        a[i].counters.edges != b[i].counters.edges) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunPaperSweep(const RunArgs& args, Approach a, Outcome* out) {
  const auto workload = soldist::api::WorkloadSpec::Dataset("Physicians")
                            .Probability(soldist::ProbabilityModel::kIwc);
  // Set-up: session, instance and the shared oracle, several times.
  std::vector<double> setups;
  std::unique_ptr<soldist::api::Session> session;
  const soldist::RrOracle* oracle = nullptr;
  for (int i = 0; i < 3; ++i) {
    session.reset();
    const double start = Now();
    soldist::api::SessionOptions options;
    options.threads = 1;
    session = std::make_unique<soldist::api::Session>(options);
    auto resolved = session->ResolveWorkload(workload);
    auto resolved_oracle = session->ResolveOracle(workload);
    setups.push_back(Now() - start);
    if (!resolved.ok() || !resolved_oracle.ok()) {
      out->Fail("workload or oracle resolution failed");
      return;
    }
    oracle = resolved_oracle.value();
  }
  RecordDataset(*session, workload, out);
  const soldist::ModelInstance instance =
      session->ResolveWorkload(workload).value();

  const std::uint64_t master = 1 + args.seed % 16;
  const soldist::SweepConfig config = ConfigFor(a, master);
  const int cells = MaxExponent(a) + 1;
  soldist::ThreadPool pool(static_cast<std::size_t>(args.threads));
  out->info["master_seed"] = std::to_string(master);
  out->info["pool_width"] = std::to_string(args.threads);

  // One RunSweep, timed, with the digest gate.
  auto run_sweep = [&](soldist::ThreadPool* p, double* wall,
                       std::vector<soldist::SweepCell>* raw) {
    const double start = Now();
    *raw = soldist::RunSweep(instance, *oracle, config, p);
    *wall = Now() - start;
    std::vector<Cell> result = FromSweep(*raw);
    const std::string digest = Digest(result);
    out->info["digest"] = JsonString(digest);
    out->Check(!args.expect_digest.empty() && digest == args.expect_digest,
               "sweep digest " + digest + " != committed '" +
                   args.expect_digest + "'");
    return result;
  };

  if (!args.trace) {
    // Latency: each sweep's per-cell mean solve time at p50 and p90 over
    // its cells (a fixed cell per approach), then the median over sweeps.
    std::vector<double> walls, p50, p90;
    std::vector<soldist::SweepCell> last;
    const Budget budget(args.seconds);
    while (budget.Left() || walls.size() < 2) {
      double wall = 0.0;
      run_sweep(&pool, &wall, &last);
      walls.push_back(wall);
      std::vector<double> solve;
      for (const soldist::SweepCell& c : last) {
        solve.push_back(c.result.seconds / static_cast<double>(kTrials));
      }
      p50.push_back(Percentile(&solve, 0.50));
      p90.push_back(Percentile(&solve, 0.90));
    }
    std::string entropy = "[";
    for (const soldist::SweepCell& c : last) {
      if (entropy.size() > 1) entropy += ",";
      entropy += std::to_string(c.entropy);
    }
    out->info["entropy_by_cell"] = entropy + "]";
    const double wall = Median(walls);
    out->metrics.Set("setup_s", Median(setups), "s");
    out->metrics.Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    out->metrics.Set("throughput_per_s",
                     static_cast<double>(kTrials * cells) / wall, "1/s");
    out->metrics.Set("latency_p50_ms", 1e3 * Median(p50), "ms");
    out->metrics.Set("latency_p90_ms", 1e3 * Median(p90), "ms");
    out->info["samples"] = "{\"sweeps\":" + std::to_string(walls.size()) +
                           ",\"sweep_wall_s\":" + std::to_string(wall) + "}";
    return;
  }

  // Traced: RunSweep on the pool (the end-to-end wall), RunSweep on one
  // thread (the untraced single-thread wall), then the timed rebuild.
  double wall_pool = 0.0, wall_one = 0.0;
  std::vector<soldist::SweepCell> raw;
  const std::vector<Cell> reference = run_sweep(&pool, &wall_pool, &raw);
  soldist::ThreadPool one(1);
  const std::vector<Cell> single = run_sweep(&one, &wall_one, &raw);
  const Traced tr = Rebuild(instance, *oracle, a, master);
  out->Check(Identical(single, reference), "1-thread RunSweep differs");
  out->Check(Identical(tr.cells, reference),
             "public-parts rebuild differs from RunSweep");

  const SelectTimes& s = tr.select;
  const double select = s.build + s.round1 + s.later + s.update;
  Reconciles(tr.sample + select + tr.eval + tr.stats, tr.wall, out,
             "sweep rebuild");
  // The paper's traversal cost (Sections 1.3, 3.2): every cell's
  // counters as RunSweep reports them, i.e. the work a direct build at
  // that tau does; ns_per_edge divides all sampling and selection time
  // by it.
  soldist::TraversalCounters work;
  for (const Cell& cell : tr.cells) work += cell.counters;
  out->metrics.Set("exp.sample_s", tr.sample, "s");
  out->metrics.Set("core.select_s", select, "s");
  out->metrics.Set("core.build_s", s.build, "s");
  out->metrics.Set("core.round1_s", s.round1, "s");
  out->metrics.Set("core.later_rounds_s", s.later, "s");
  out->metrics.Set("core.update_s", s.update, "s");
  out->metrics.Set("core.estimate_calls",
                   static_cast<double>(s.estimate_calls), "count");
  out->metrics.Set("sim.vertices", static_cast<double>(work.vertices),
                   "count");
  out->metrics.Set("sim.edges", static_cast<double>(work.edges), "count");
  out->metrics.Set("sim.sample_size",
                   static_cast<double>(work.TotalSampleSize()), "count");
  out->metrics.Set("sim.ns_per_edge",
                   work.edges == 0 ? 0.0
                                   : 1e9 * (tr.sample + select) /
                                         static_cast<double>(work.edges),
                   "ns");
  out->metrics.Set("oracle.eval_s", tr.eval, "s");
  out->metrics.Set("exp.parallel_efficiency",
                   tr.wall / (static_cast<double>(args.threads) * wall_pool),
                   "ratio");
  out->metrics.Set("trace.wall_s", tr.wall, "s");
  out->metrics.Set("trace.overhead_pct",
                   100.0 * (tr.wall - wall_one) / wall_one, "%");
  out->info["sweep_wall_s"] = std::to_string(wall_pool);
}

}  // namespace perfbench
