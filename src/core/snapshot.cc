#include "core/snapshot.h"

#include <algorithm>
#include <cctype>
#include <memory>

#include "graph/traversal.h"
#include "sim/condensed_snapshot.h"
#include "sim/snapshot_arena.h"

namespace soldist {
namespace {

template <typename Vec>
std::uint64_t VecBytes(const Vec& v) {
  return static_cast<std::uint64_t>(v.capacity() * sizeof(v[0]));
}

}  // namespace

/// kNaive / kResidual: the pre-condensation code, verbatim — full
/// snapshots in CSR form, per-candidate BFS on the (residual) live-edge
/// graphs. The only backend LT runs (kNaive): reachability on a sampled
/// live-edge graph is model-agnostic, so only the sampling kernel
/// differs.
class SnapshotEstimator::FullBackend {
 public:
  FullBackend(const ModelInstance& instance, std::uint64_t tau,
              std::uint64_t seed, SnapshotEstimator::Mode mode,
              const SamplingOptions& sampling, TraversalCounters* counters)
      : instance_(instance),
        tau_(tau),
        seed_(seed),
        mode_(mode),
        sampling_(sampling),
        sampler_(instance.ig),
        counters_(counters),
        visited_(instance.ig->num_vertices()) {
    queue_.reserve(instance.ig->num_vertices());
  }

  void Build() {
    snapshots_.reserve(tau_);
    if (UseChunkedStreams(instance_.model, sampling_)) {
      SamplingEngine engine(sampling_);
      std::vector<SnapshotShard> shards =
          SampleSnapshotShards(instance_, seed_, tau_, &engine);
      for (SnapshotShard& shard : shards) {
        *counters_ += shard.counters;
        for (Snapshot& snap : shard.snapshots) {
          snapshots_.push_back(std::move(snap));
        }
      }
    } else {
      Rng rng(seed_);  // legacy single-stream path
      for (std::uint64_t i = 0; i < tau_; ++i) {
        snapshots_.push_back(sampler_.Sample(&rng, counters_));
      }
    }
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      base_reach_.assign(tau_, 0);  // r_i(∅) = 0
    } else {
      removed_.assign(
          tau_ * static_cast<std::uint64_t>(instance_.ig->num_vertices()), 0);
    }
  }

  double Estimate(VertexId v) {
    std::uint64_t total = 0;
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      scratch_.assign(seeds_.begin(), seeds_.end());
      scratch_.push_back(v);
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        total += sampler_.CountReachable(snapshots_[i], scratch_,
                                         counters_) -
                 base_reach_[i];
      }
    } else {
      const VertexId source[1] = {v};
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        total += ResidualReach(i, source, /*mark_removed=*/false);
      }
    }
    return static_cast<double>(total) / static_cast<double>(tau_);
  }

  void Update(VertexId v) {
    seeds_.push_back(v);
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        base_reach_[i] = static_cast<std::uint32_t>(
            sampler_.CountReachable(snapshots_[i], seeds_, counters_));
      }
    } else {
      const VertexId source[1] = {v};
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        ResidualReach(i, source, /*mark_removed=*/true);
      }
    }
  }

  std::uint64_t MemoryBytes() const {
    std::uint64_t bytes = VecBytes(base_reach_) + VecBytes(removed_) +
                          VecBytes(seeds_) + VecBytes(queue_) +
                          VecBytes(scratch_) +
                          static_cast<std::uint64_t>(visited_.size()) * 4;
    for (const Snapshot& snap : snapshots_) {
      bytes += VecBytes(snap.out_offsets) + VecBytes(snap.out_targets);
    }
    return bytes;
  }

 private:
  /// Reachable-count from `sources` in snapshot i, skipping vertices
  /// already removed from the residual graph (residual mode only; in
  /// naive mode nothing is ever removed).
  std::uint32_t ResidualReach(std::size_t i,
                              std::span<const VertexId> sources,
                              bool mark_removed) {
    const Snapshot& snap = snapshots_[i];
    const std::uint64_t n = instance_.ig->num_vertices();
    const std::uint8_t* removed = removed_.data() + i * n;
    visited_.NextEpoch();
    queue_.clear();
    for (VertexId s : sources) {
      if (removed[s]) continue;
      if (visited_.Mark(s)) queue_.push_back(s);
    }
    std::size_t head = 0;
    while (head < queue_.size()) {
      VertexId u = queue_[head++];
      counters_->vertices += 1;
      const EdgeId begin = snap.out_offsets[u];
      const EdgeId end = snap.out_offsets[u + 1];
      counters_->edges += end - begin;
      for (EdgeId e = begin; e < end; ++e) {
        VertexId w = snap.out_targets[e];
        if (removed[w] || visited_.IsMarked(w)) continue;
        visited_.Mark(w);
        queue_.push_back(w);
      }
    }
    if (mark_removed) {
      std::uint8_t* removed_mut = removed_.data() + i * n;
      for (VertexId u : queue_) removed_mut[u] = 1;
    }
    return static_cast<std::uint32_t>(queue_.size());
  }

  ModelInstance instance_;
  std::uint64_t tau_;
  std::uint64_t seed_;
  SnapshotEstimator::Mode mode_;
  SamplingOptions sampling_;
  SnapshotSampler sampler_;  // IC legacy sampling; BFS for both models
  TraversalCounters* counters_;
  std::vector<Snapshot> snapshots_;
  /// Naive mode: r_i(S) for the current seed set S.
  std::vector<std::uint32_t> base_reach_;
  std::vector<VertexId> seeds_;
  /// Residual mode: removed_[i * n + v] = 1 when v was deleted from H_i.
  std::vector<std::uint8_t> removed_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> scratch_;
};

/// \brief The condensed incremental-gain engine behind every condensed
/// Snapshot estimator: ArenaSnapshotEstimator serves it a SnapshotArena
/// prefix, and a fresh kCondensed SnapshotEstimator serves it the arena
/// it sampled at capacity τ. Init consumes worlds + precomputed warmth
/// (sim/snapshot_arena.h); the gains are maintained incrementally.
///
/// Exactness argument, component by component:
///  * Condensation preserves reachability, so r_i(v) = Σ sizes of the
///    DAG components reachable from comp(v).
///  * Every set removed by Update is a reachability set — closed under
///    successors and a union of whole components (reaching one member of
///    an SCC reaches all of it). Hence "removed" is component-granular
///    and successor-closed, and a residual walk may skip removed
///    components without missing live ones (a live component reachable
///    only through removed ones would itself be removed).
///  * Gains are cached per (snapshot, component); Update invalidates a
///    conservative superset of the stale entries — the live DAG
///    *ancestors* of the newly removed components (precise reverse walk)
///    or, when the removal is large, every entry of the snapshot (O(1)
///    generation bump). Invalidation can only cause recomputation, never
///    change a value.
///
/// Init is deterministic and counter-free: the warm cache entries are a
/// pure function of the worlds, so the same worlds + warmth always yield
/// byte-identical state no matter how they were chunked. The caller keeps
/// the worlds (comp_of included) alive for the core's lifetime; the
/// warmth is read only by Init and InitialBound, which take it as an
/// argument.
///
/// Layout, tuned for the access pattern (τ up to 2^16 snapshots means
/// every per-snapshot indirection in a per-vertex Estimate is a cache
/// miss): EstimateAll answers a whole greedy round world-major — per
/// world it reads that world's comp_of, its contiguous CompState slice
/// and its generation once, then visits every candidate. A round's
/// removed set is fixed, so it recomputes exactly the stale (world,
/// component) pairs the per-vertex loop would — same values, same
/// component-granular counters. Per-component state is one packed 8-byte
/// {value, gen} record in a single flat array (removed = sentinel
/// generation), so the state lookup is one cache line, not three. A
/// single-vertex Estimate (CELF) is the one-candidate batch.
class ArenaSnapshotEstimator::Core {
 public:
  Core() : visited_(0) {}

  /// Sizes the packed state and pre-seeds the gain cache from warmth's
  /// exact entries.
  void Init(std::span<const CondensedSnapshot> snaps,
            std::span<const SnapshotWarmth> warmth,
            TraversalCounters* counters) {
    SOLDIST_CHECK(warmth.size() == snaps.size());
    snaps_ = snaps;
    tau_ = static_cast<std::uint64_t>(snaps.size());
    counters_ = counters;
    std::uint32_t max_components = 0;
    state_offset_.resize(snaps_.size() + 1);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const std::uint32_t c = snaps_[i].num_components();
      state_offset_[i + 1] = state_offset_[i] + c;
      max_components = std::max(max_components, c);
    }
    // gen 0 != generation 1: everything starts stale (then the warmth
    // pass below pre-seeds the saturated components).
    state_.assign(state_offset_.back(), CompState{0, 0});
    generation_.assign(snaps_.size(), 1);
    live_.resize(snaps_.size());
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      live_[i] = snaps_[i].num_components();
    }
    // Component-granular scratch: sized to the largest DAG, not to n
    // (the scratch-per-mode contract MemoryBytes reports on).
    visited_.Resize(max_components);
    queue_.reserve(max_components);
    rqueue_.reserve(max_components);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const SnapshotWarmth& w = warmth[i];
      CompState* state = state_.data() + state_offset_[i];
      const std::uint32_t num_components = snaps_[i].num_components();
      for (std::uint32_t c = 0; c < num_components; ++c) {
        if (w.is_exact[c]) {
          // Exact warmth IS the reachable count: pre-seed the gain
          // cache so the first greedy iteration is a lookup for the
          // long small-reach tail.
          state[c].value = w.bound[c];
          state[c].gen = 1;  // == the initial generation: warm
        }
      }
    }
  }

  /// out[j] = (1/τ) Σ_i r_i(residual, candidates[j]), world-major. Every
  /// partial sum is an integer at most n·τ, far below 2^53, so
  /// accumulating in double is exact and out[j] bit-equals the integer
  /// total divided by τ.
  void EstimateAll(std::span<const VertexId> candidates,
                   std::span<double> out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const std::uint32_t* comp_of = snaps_[i].comp_of.data();
      CompState* state = state_.data() + state_offset_[i];
      const std::uint32_t generation = generation_[i];
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        const std::uint32_t c = comp_of[candidates[j]];
        CompState& cs = state[c];
        if (cs.gen == kRemovedGen) continue;
        if (cs.gen != generation) {
          cs.value = ResidualDagReach(i, c);
          cs.gen = generation;
        }
        out[j] += cs.value;
      }
    }
    for (double& score : out) score /= static_cast<double>(tau_);
  }

  double Estimate(VertexId v) {
    double score;
    EstimateAll(std::span<const VertexId>(&v, 1),
                std::span<double>(&score, 1));
    return score;
  }

  void Update(VertexId v) {
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const CondensedSnapshot& snap = snaps_[i];
      CompState* state = state_.data() + state_offset_[i];
      const std::uint32_t c = snap.comp_of[v];
      if (state[c].gen == kRemovedGen) continue;  // r_i gains nothing

      // Forward walk over the live DAG: the components the new seed
      // removes from snapshot i.
      visited_.NextEpoch();
      queue_.clear();
      visited_.Mark(c);
      queue_.push_back(c);
      std::size_t head = 0;
      while (head < queue_.size()) {
        std::uint32_t u = queue_[head++];
        counters_->vertices += 1;
        auto successors = snap.dag.Successors(u);
        counters_->edges += successors.size();
        for (std::uint32_t w : successors) {
          if (state[w].gen == kRemovedGen || visited_.IsMarked(w)) continue;
          visited_.Mark(w);
          queue_.push_back(w);
        }
      }
      for (std::uint32_t u : queue_) state[u].gen = kRemovedGen;
      live_[i] -= static_cast<std::uint32_t>(queue_.size());

      // Cached gains are now stale exactly for the live ANCESTORS of the
      // newly removed components. For a big removal (the typical first
      // seed wipes the hub region, whose ancestors are most of the DAG)
      // a generation bump invalidates everything in O(1) — cheaper than
      // walking ancestors that cover the DAG anyway. For small removals
      // a precise reverse walk preserves the untouched caches.
      // Previously removed components cannot sit on a path INTO the
      // newly removed set (their successors were removed with them), so
      // the reverse walk skips them without losing an ancestor.
      if (queue_.size() * 4 > live_[i]) {
        ++generation_[i];
        continue;
      }
      const std::uint32_t stale = generation_[i] - 1;  // != generation
      rqueue_.assign(queue_.begin(), queue_.end());
      head = 0;
      while (head < rqueue_.size()) {
        std::uint32_t u = rqueue_[head++];
        counters_->vertices += 1;
        auto predecessors = snap.rev.Successors(u);
        counters_->edges += predecessors.size();
        for (std::uint32_t p : predecessors) {
          if (state[p].gen == kRemovedGen || visited_.IsMarked(p)) continue;
          visited_.Mark(p);
          state[p].gen = stale;
          rqueue_.push_back(p);
        }
      }
    }
  }

  /// (1/τ) Σ_i warmth[i].bound[comp_i(v)]. CELF asks every vertex once,
  /// so the first call sums all n totals world-major — one pass over
  /// each world's comp_of — instead of n scattered walks over τ worlds.
  double InitialBound(VertexId v, std::span<const SnapshotWarmth> warmth) {
    if (bound_total_.empty()) {
      const std::size_t n = snaps_[0].comp_of.size();
      bound_total_.assign(n, 0);
      for (std::size_t i = 0; i < snaps_.size(); ++i) {
        const std::uint32_t* comp_of = snaps_[i].comp_of.data();
        const std::uint32_t* bound = warmth[i].bound.data();
        for (std::size_t u = 0; u < n; ++u) {
          bound_total_[u] += bound[comp_of[u]];
        }
      }
    }
    return static_cast<double>(bound_total_[v]) / static_cast<double>(tau_);
  }

  /// Bookkeeping bytes only — the worlds belong to the caller.
  std::uint64_t MemoryBytes() const {
    return VecBytes(queue_) + VecBytes(rqueue_) + VecBytes(state_) +
           VecBytes(state_offset_) + VecBytes(generation_) +
           VecBytes(live_) + VecBytes(bound_total_) +
           static_cast<std::uint64_t>(visited_.size()) * 4;
  }

 private:
  /// Packed per-(snapshot, component) state: one 8-byte record, one
  /// cache line per lookup. gen == kRemovedGen marks the component
  /// removed; otherwise value is valid iff gen == generation_[snapshot].
  struct CompState {
    std::uint32_t value;
    std::uint32_t gen;
  };
  static constexpr std::uint32_t kRemovedGen = ~0u;

  /// Exact residual reach of component c in snapshot i: BFS over the live
  /// DAG summing member counts. Counter accounting is component-granular
  /// — that reduction (DAG nodes/arcs instead of live vertices/edges) is
  /// precisely what bench_snapshot_backends records.
  std::uint32_t ResidualDagReach(std::size_t i, std::uint32_t c) {
    const CondensedSnapshot& snap = snaps_[i];
    const CompState* state = state_.data() + state_offset_[i];
    visited_.NextEpoch();
    queue_.clear();
    visited_.Mark(c);
    queue_.push_back(c);
    std::uint64_t total = 0;
    std::size_t head = 0;
    while (head < queue_.size()) {
      std::uint32_t u = queue_[head++];
      counters_->vertices += 1;
      total += snap.comp_size[u];
      auto successors = snap.dag.Successors(u);
      counters_->edges += successors.size();
      for (std::uint32_t w : successors) {
        if (state[w].gen == kRemovedGen || visited_.IsMarked(w)) continue;
        visited_.Mark(w);
        queue_.push_back(w);
      }
    }
    return static_cast<std::uint32_t>(total);
  }

  std::span<const CondensedSnapshot> snaps_;
  std::uint64_t tau_ = 0;
  TraversalCounters* counters_ = nullptr;
  std::vector<CompState> state_;            // flat, all snapshots
  std::vector<std::uint64_t> state_offset_; // per snapshot, into state_
  std::vector<std::uint32_t> generation_;   // per snapshot
  std::vector<std::uint32_t> live_;         // live components per snapshot
  VisitedMarker visited_;                   // component ids, max-C sized
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> rqueue_;
  std::vector<std::uint64_t> bound_total_;  // per vertex; CELF only
};

SnapshotEstimator::SnapshotEstimator(const ModelInstance& instance,
                                     std::uint64_t tau, std::uint64_t seed,
                                     Mode mode,
                                     const SamplingOptions& sampling)
    : instance_(instance),
      tau_(tau),
      seed_(seed),
      mode_(instance.model == DiffusionModel::kLt ? Mode::kNaive : mode),
      sampling_(sampling) {
  SOLDIST_CHECK(instance_.ig != nullptr);
  SOLDIST_CHECK(tau_ >= 1);
}

SnapshotEstimator::~SnapshotEstimator() = default;

void SnapshotEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  if (mode_ == Mode::kCondensed) {
    // An arena at capacity τ samples, condenses and warms with exactly
    // this estimator's stream discipline, so serving its whole prefix IS
    // the fresh condensed estimator. Only component-granular state is
    // allocated, never the O(n)-per-snapshot arrays of the full modes.
    arena_ = std::make_unique<SnapshotArena>(
        SnapshotArena::Sample(*instance_.ig, seed_, tau_, sampling_));
    condensed_ = std::make_unique<ArenaSnapshotEstimator>(arena_.get(), tau_);
    condensed_->Build();
    return;
  }
  full_ = std::make_unique<FullBackend>(instance_, tau_, seed_, mode_,
                                        sampling_, &counters_);
  full_->Build();
}

double SnapshotEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  return condensed_ != nullptr ? condensed_->Estimate(v) : full_->Estimate(v);
}

void SnapshotEstimator::EstimateAll(std::span<const VertexId> candidates,
                                    std::span<double> out) {
  SOLDIST_CHECK(built_);
  if (condensed_ != nullptr) {
    condensed_->EstimateAll(candidates, out);
  } else {
    InfluenceEstimator::EstimateAll(candidates, out);
  }
}

void SnapshotEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  if (condensed_ != nullptr) {
    condensed_->Update(v);
  } else {
    full_->Update(v);
  }
}

double SnapshotEstimator::InitialBound(VertexId v) {
  SOLDIST_CHECK(built_);
  SOLDIST_CHECK(mode_ == Mode::kCondensed);
  return condensed_->InitialBound(v);
}

const TraversalCounters& SnapshotEstimator::counters() const {
  return condensed_ != nullptr ? condensed_->counters() : counters_;
}

std::uint64_t SnapshotEstimator::MemoryBytes() const {
  if (condensed_ != nullptr) {
    return arena_->MemoryBytes() + condensed_->MemoryBytes();
  }
  return full_ == nullptr ? 0 : full_->MemoryBytes();
}

ArenaSnapshotEstimator::ArenaSnapshotEstimator(const SnapshotArena* arena,
                                               std::uint64_t tau)
    : arena_(arena), tau_(tau) {
  SOLDIST_CHECK(arena_ != nullptr);
  SOLDIST_CHECK(tau_ >= 1);
  SOLDIST_CHECK(tau_ <= arena_->capacity())
      << "prefix " << tau_ << " exceeds arena capacity "
      << arena_->capacity();
}

ArenaSnapshotEstimator::~ArenaSnapshotEstimator() = default;

void ArenaSnapshotEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  // The sampling cost of exactly the first τ worlds — identical to what
  // a fresh build at τ would have accumulated.
  counters_ = arena_->PrefixCounters(tau_);
  core_ = std::make_unique<Core>();
  core_->Init(arena_->Worlds(tau_), arena_->Warmths(tau_), &counters_);
}

double ArenaSnapshotEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  return core_->Estimate(v);
}

void ArenaSnapshotEstimator::EstimateAll(
    std::span<const VertexId> candidates, std::span<double> out) {
  SOLDIST_CHECK(built_);
  core_->EstimateAll(candidates, out);
}

void ArenaSnapshotEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  core_->Update(v);
}

double ArenaSnapshotEstimator::InitialBound(VertexId v) {
  SOLDIST_CHECK(built_);
  return core_->InitialBound(v, arena_->Warmths(tau_));
}

std::uint64_t ArenaSnapshotEstimator::MemoryBytes() const {
  return core_ == nullptr ? 0 : core_->MemoryBytes();
}

std::string SnapshotModeName(SnapshotEstimator::Mode mode) {
  switch (mode) {
    case SnapshotEstimator::Mode::kNaive:
      return "naive";
    case SnapshotEstimator::Mode::kResidual:
      return "residual";
    case SnapshotEstimator::Mode::kCondensed:
      return "condensed";
  }
  return "?";
}

StatusOr<SnapshotEstimator::Mode> ParseSnapshotMode(
    const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "naive") return SnapshotEstimator::Mode::kNaive;
  if (lower == "residual") return SnapshotEstimator::Mode::kResidual;
  if (lower == "condensed") return SnapshotEstimator::Mode::kCondensed;
  return Status::InvalidArgument(
      "unknown snapshot mode: '" + name +
      "' (expected naive, residual, or condensed)");
}

}  // namespace soldist
