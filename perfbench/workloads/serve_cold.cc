// serve-cold: ROADMAP path 2, the cold serving request (probe -> admit
// -> load or sample -> checksum -> save). One client runs a fixed
// schedule against an in-process QueryService whose arena_dir is a
// fresh directory per pass: RR Views on ca-GrQc uc0.1 (tau = 2^13, two
// seeds, one upgrade to 2^14) and SnapshotViews on Physicians iwc
// (tau = 2^12). The byte budget is below the smallest arena, so the
// cache holds one arena and every switch evicts; halfway the client
// restarts (new Session and QueryService on the same directory, which
// runs the recovery sweep) and the rest are reloads. Each request is
// followed by a fixed probe batch whose answers must be byte-identical
// to that key's fresh sample.
//
// The pass directory is deleted afterwards, so loads read through the
// page cache: they measure decode and verify, not the disk.
//
// The traced run replays the schedule from the public parts
// (RrArena::SampleFor, SnapshotArena::Sample, store Save/Load,
// ContentChecksum, RecoverArenaDir, the views) and times each call.

#include <sys/stat.h>

#include <filesystem>
#include <map>
#include <memory>

#include "serve/query_service.h"
#include "store/arena_io.h"
#include "store/recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using soldist::VertexId;

enum class Kind { kRr, kSnapshot };
enum class Class { kHit, kReload, kUpgrade, kSample };

const char* KindName(Kind kind) {
  return kind == Kind::kRr ? "rr" : "snapshot";
}
const char* ClassName(Class c) {
  switch (c) {
    case Class::kHit:
      return "hit";
    case Class::kReload:
      return "reload";
    case Class::kUpgrade:
      return "upgrade";
    case Class::kSample:
      return "sample";
  }
  return "?";
}

/// One schedule step: a View / SnapshotView, or the client restart.
struct Step {
  bool restart = false;
  Kind kind = Kind::kRr;
  int key = 0;  ///< RR keys 0..1 (sampling seeds), snapshot key 0
  std::uint64_t tau = 0;
};

constexpr std::uint64_t kRrTau = std::uint64_t{1} << 13;
constexpr std::uint64_t kRrUpTau = std::uint64_t{1} << 14;
constexpr std::uint64_t kSnapTau = std::uint64_t{1} << 12;

std::vector<Step> Schedule() {
  auto rr = [](int key, std::uint64_t tau) {
    return Step{false, Kind::kRr, key, tau};
  };
  auto snap = [] { return Step{false, Kind::kSnapshot, 0, kSnapTau}; };
  return {rr(0, kRrTau), rr(0, kRrTau), rr(1, kRrTau), rr(0, kRrTau),
          rr(0, kRrTau), rr(1, kRrTau), snap(),        snap(),
          rr(0, kRrTau), rr(1, kRrTau), rr(1, kRrUpTau), rr(1, kRrTau),
          Step{true, Kind::kRr, 0, 0},
          snap(),        snap(),        rr(0, kRrTau), rr(0, kRrTau),
          rr(1, kRrTau), snap(),        rr(1, kRrTau), rr(0, kRrTau)};
}

/// The cache-of-one model: what each step must be, given that the
/// budget holds one arena, eviction never takes the new one, loads
/// serve any saved capacity >= tau, and only fresh builds save.
struct Model {
  struct Resident {
    bool any = false;
    Kind kind = Kind::kRr;
    int key = 0;
    std::uint64_t cap = 0;
  } resident;
  std::map<std::pair<int, int>, std::uint64_t> disk;  // (kind, key) -> cap
  std::uint64_t builds = 0, evictions = 0, loads = 0, hits = 0;

  Class Next(const Step& s) {
    if (s.restart) {
      resident = Resident();
      return Class::kHit;
    }
    const bool same = resident.any && resident.kind == s.kind &&
                      resident.key == s.key;
    if (same && resident.cap >= s.tau) {
      ++hits;
      return Class::kHit;
    }
    ++builds;
    if (resident.any && !same) ++evictions;
    std::uint64_t& saved = disk[{static_cast<int>(s.kind), s.key}];
    Class c;
    if (saved >= s.tau) {
      ++loads;
      c = Class::kReload;
    } else {
      saved = s.tau;
      c = same ? Class::kUpgrade : Class::kSample;
    }
    resident = Resident{true, s.kind, s.key, s.tau};
    return c;
  }
};

struct Inputs {
  soldist::api::WorkloadSpec rr_workload;
  soldist::api::WorkloadSpec snap_workload;
  std::uint64_t rr_seeds[2] = {0, 0};
  std::uint64_t snap_seed = 0;
  std::vector<QueryLine> rr_probes;                   // ca-GrQc mix
  std::vector<std::pair<VertexId, VertexId>> pairs;   // Physicians
};

std::vector<std::uint64_t> ProbeRr(const soldist::serve::QueryView& view,
                                   const Inputs& in) {
  soldist::serve::QueryScratch scratch;
  std::vector<std::uint64_t> bits;
  for (const QueryLine& q : in.rr_probes) {
    bits.push_back(Bits(Answer(view, q, &scratch)));
  }
  return bits;
}

std::vector<std::uint64_t> ProbeSnap(
    const soldist::serve::SnapshotQueryView& view, const Inputs& in) {
  soldist::serve::WorldScratch scratch;
  std::vector<std::uint64_t> bits;
  for (const auto& [a, b] : in.pairs) {
    bits.push_back(Bits(view.ExpectedReach(a, &scratch)));
    bits.push_back(Bits(view.ReachProbability(a, b, &scratch)));
  }
  return bits;
}

soldist::serve::QuerySpec SpecFor(const Step& s, const Inputs& in) {
  soldist::serve::QuerySpec spec;
  spec.sample_number = s.tau;
  spec.seed = s.kind == Kind::kRr ? in.rr_seeds[s.key] : in.snap_seed;
  return spec;
}

soldist::api::SessionOptions ColdOptions(const std::string& dir) {
  soldist::api::SessionOptions options;
  options.threads = 1;
  options.arena_dir = dir;
  options.arena_budget_bytes = std::uint64_t{1} << 20;
  return options;
}

/// Probe answers per (kind, key, tau), first recorded from a fresh
/// sample and compared on every later visit.
using References = std::map<std::tuple<int, int, std::uint64_t>,
                            std::vector<std::uint64_t>>;

void CheckProbes(const Step& s, Class c, std::vector<std::uint64_t> bits,
                 References* refs, Outcome* out) {
  auto id = std::make_tuple(static_cast<int>(s.kind), s.key, s.tau);
  auto it = refs->find(id);
  if (it == refs->end()) {
    out->Check(c == Class::kSample || c == Class::kUpgrade,
               "first visit of a key is not a fresh sample");
    (*refs)[id] = std::move(bits);
    return;
  }
  out->Check(it->second == bits, std::string("probe answers differ on a ") +
                                     ClassName(c) + " of " + KindName(s.kind));
}

struct Timed {
  Class cls;
  Kind kind;
  double seconds;
};

/// One pass of the schedule through the real QueryService.
struct ServicePass {
  double wall = 0.0;
  std::vector<Timed> requests;
  std::uint64_t builds = 0, evictions = 0, hits = 0;
};

ServicePass RunService(const std::string& dir, const Inputs& in,
                       References* refs, Outcome* out) {
  ServicePass pass;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<Step> schedule = Schedule();
  Model model;
  const double start = Now();
  auto session =
      std::make_unique<soldist::api::Session>(ColdOptions(dir));
  auto service =
      std::make_unique<soldist::serve::QueryService>(session.get());
  auto harvest = [&] {
    const auto stats = service->cache_stats();
    pass.builds += stats.builds;
    pass.evictions += stats.evictions;
    pass.hits += stats.hits;
  };
  for (const Step& s : schedule) {
    const Class expect = model.Next(s);
    if (s.restart) {
      harvest();
      service.reset();
      session.reset();
      session = std::make_unique<soldist::api::Session>(ColdOptions(dir));
      service = std::make_unique<soldist::serve::QueryService>(session.get());
      out->Check(service->recovery_report().Clean(),
                 "recovery sweep found debris after a clean shutdown");
      continue;
    }
    const soldist::serve::QuerySpec spec = SpecFor(s, in);
    std::vector<std::uint64_t> bits;
    bool ok = false;
    const double t0 = Now();
    if (s.kind == Kind::kRr) {
      auto view = service->View(in.rr_workload, spec);
      const double t1 = Now();
      pass.requests.push_back({expect, s.kind, t1 - t0});
      ok = view.ok() && !view.value().degraded();
      if (ok) bits = ProbeRr(view.value(), in);
    } else {
      auto view = service->SnapshotView(in.snap_workload, spec);
      const double t1 = Now();
      pass.requests.push_back({expect, s.kind, t1 - t0});
      ok = view.ok() && !view.value().degraded();
      if (ok) bits = ProbeSnap(view.value(), in);
    }
    out->Check(ok, "View failed or degraded");
    if (ok) CheckProbes(s, expect, std::move(bits), refs, out);
  }
  harvest();
  service.reset();
  session.reset();
  pass.wall = Now() - start;
  fs::remove_all(dir);
  if (pass.builds != model.builds || pass.evictions != model.evictions ||
      pass.hits != model.hits) {
    out->Fail("cache counters (builds " + std::to_string(pass.builds) +
              ", evictions " + std::to_string(pass.evictions) + ", hits " +
              std::to_string(pass.hits) + ") differ from the schedule's");
  }
  return pass;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const char* name : {"/manifest.txt", "/payload.bin"}) {
    struct stat st {};
    if (stat((dir + name).c_str(), &st) == 0) {
      total += static_cast<std::uint64_t>(st.st_size);
    }
  }
  return total;
}

/// Wall and thread-CPU of one call.
struct Span {
  double wall = 0.0;
  double cpu = 0.0;
};
template <typename F>
Span Time(F&& f) {
  const double w0 = Now(), c0 = ThreadCpu();
  f();
  return Span{Now() - w0, ThreadCpu() - c0};
}

struct Samples {
  std::vector<double> wall, cpu;
  void Add(const Span& s) {
    wall.push_back(s.wall);
    cpu.push_back(s.cpu);
  }
  double Sum() const {
    double t = 0.0;
    for (double w : wall) t += w;
    return t;
  }
};

/// The schedule rebuilt from public parts, each call timed.
void Replay(const std::string& dir, const Inputs& in,
            soldist::api::Session* session, const References& service_refs,
            double service_wall, Outcome* out) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto rr_instance = session->ResolveWorkload(in.rr_workload).value();
  const auto snap_instance =
      session->ResolveWorkload(in.snap_workload).value();
  const soldist::SamplingOptions sampling = session->SamplingFor(1, 256);

  std::map<std::string, Samples> spans;  // layer name -> calls
  double probe_s = 0.0, view_s = 0.0;
  std::uint64_t bytes_written = 0, bytes_read = 0, loads = 0;
  soldist::TraversalCounters rr_work, snap_work;
  References refs;
  Model model;
  std::shared_ptr<const soldist::RrArena> rr;
  std::shared_ptr<const soldist::SnapshotArena> snap;

  const double start = Now();
  for (const Step& s : Schedule()) {
    const Class c = model.Next(s);
    if (s.restart) {
      rr.reset();
      snap.reset();
      spans["store.recover"].Add(Time([&] {
        auto report = soldist::store::RecoverArenaDir(dir);
        out->Check(report.ok() && report.value().Clean(),
                   "replay recovery sweep");
      }));
      continue;
    }
    const std::string entry = dir + "/" + KindName(s.kind) + "-" +
                              std::to_string(s.key);
    soldist::store::ArenaManifest manifest;
    manifest.kind = s.kind == Kind::kRr ? "rr" : "snapshot";
    manifest.workload = s.kind == Kind::kRr ? in.rr_workload.Label()
                                            : in.snap_workload.Label();
    manifest.seed = SpecFor(s, in).seed;
    manifest.stream = "seq";
    manifest.capacity = s.tau;
    const std::string kind = KindName(s.kind);
    if (c == Class::kSample || c == Class::kUpgrade) {
      if (s.kind == Kind::kRr) {
        std::shared_ptr<soldist::RrArena> built;
        spans["sim.rr_sample"].Add(Time([&] {
          built = std::make_shared<soldist::RrArena>(
              soldist::RrArena::SampleFor(rr_instance, manifest.seed, s.tau,
                                          sampling));
        }));
        rr_work += built->PrefixCounters(built->capacity());
        spans["store.save." + kind].Add(Time([&] {
          out->Check(soldist::store::SaveRrArena(*built, manifest, entry).ok(),
                     "SaveRrArena");
        }));
        rr = built;
      } else {
        std::shared_ptr<soldist::SnapshotArena> built;
        spans["sim.snapshot_sample"].Add(Time([&] {
          built = std::make_shared<soldist::SnapshotArena>(
              soldist::SnapshotArena::Sample(*snap_instance.ig, manifest.seed,
                                             s.tau, sampling));
        }));
        snap_work += built->PrefixCounters(built->capacity());
        spans["store.save." + kind].Add(Time([&] {
          out->Check(
              soldist::store::SaveSnapshotArena(*built, manifest, entry).ok(),
              "SaveSnapshotArena");
        }));
        snap = built;
      }
      bytes_written += DirBytes(entry);
    } else if (c == Class::kReload) {
      ++loads;
      bytes_read += DirBytes(entry);
      spans["store.load." + kind].Add(Time([&] {
        if (s.kind == Kind::kRr) {
          auto loaded = soldist::store::LoadRrArena(entry, manifest);
          out->Check(loaded.ok(), "LoadRrArena");
          if (loaded.ok()) rr = std::move(loaded).value();
        } else {
          auto loaded = soldist::store::LoadSnapshotArena(entry, manifest);
          out->Check(loaded.ok(), "LoadSnapshotArena");
          if (loaded.ok()) snap = std::move(loaded).value();
        }
      }));
    }
    if (c != Class::kHit) {
      // The cache fingerprints every admitted arena (scrubber reference).
      spans["serve.checksum"].Add(Time([&] {
        volatile std::uint64_t sum = s.kind == Kind::kRr
                                         ? rr->ContentChecksum()
                                         : snap->ContentChecksum();
        (void)sum;
      }));
    }
    std::vector<std::uint64_t> bits;
    double t0 = Now();
    if (s.kind == Kind::kRr) {
      const soldist::serve::QueryView view(rr, s.tau);
      const double t1 = Now();
      bits = ProbeRr(view, in);
      view_s += t1 - t0;
      probe_s += Now() - t1;
    } else {
      const soldist::serve::SnapshotQueryView view(snap, s.tau);
      const double t1 = Now();
      bits = ProbeSnap(view, in);
      view_s += t1 - t0;
      probe_s += Now() - t1;
    }
    auto id = std::make_tuple(static_cast<int>(s.kind), s.key, s.tau);
    auto ref = service_refs.find(id);
    out->Check(ref != service_refs.end() && ref->second == bits,
               "replay probes differ from the service's");
  }
  const double wall = Now() - start;
  fs::remove_all(dir);

  double layer_sum = probe_s + view_s;
  for (const auto& [name, samples] : spans) layer_sum += samples.Sum();
  Reconciles(layer_sum, wall, out, "serve-cold replay");

  for (const char* kind : {"rr", "snapshot"}) {
    for (const char* op : {"save", "load"}) {
      const Samples& s = spans[std::string("store.") + op + "." + kind];
      const double w = 1e3 * Median(s.wall), c = 1e3 * Median(s.cpu);
      const std::string base = std::string("store.") + op;
      out->metrics.Set(base + "_ms." + kind, w, "ms");
      out->metrics.Set(base + "_cpu_ms." + kind, c, "ms");
      out->metrics.Set(base + "_wait_ms." + kind, w - c, "ms");
    }
  }
  out->metrics.Set("sim.rr_sample_ms", 1e3 * Median(spans["sim.rr_sample"].wall),
                   "ms");
  out->metrics.Set("sim.snapshot_sample_ms",
                   1e3 * Median(spans["sim.snapshot_sample"].wall), "ms");
  out->metrics.Set("sim.rr_vertices", static_cast<double>(rr_work.vertices),
                   "count");
  out->metrics.Set("sim.rr_edges", static_cast<double>(rr_work.edges), "count");
  // Snapshot sampling flips every edge without counting a traversal;
  // its work count is the sample it stores.
  out->metrics.Set("sim.snapshot_stored_vertices",
                   static_cast<double>(snap_work.sample_vertices), "count");
  out->metrics.Set("sim.snapshot_stored_edges",
                   static_cast<double>(snap_work.sample_edges), "count");
  out->metrics.Set("serve.checksum_ms",
                   1e3 * Median(spans["serve.checksum"].wall), "ms");
  out->metrics.Set("store.recover_ms",
                   1e3 * Median(spans["store.recover"].wall), "ms");
  out->metrics.Set("store.loads", static_cast<double>(loads), "count");
  out->metrics.Set("store.bytes_written", static_cast<double>(bytes_written),
                   "bytes");
  out->metrics.Set("store.bytes_read", static_cast<double>(bytes_read),
                   "bytes");
  out->metrics.Set("trace.wall_s", wall, "s");
  // Against the service pass of the same schedule: the tracing overhead.
  out->metrics.Set("trace.overhead_pct",
                   100.0 * (wall - service_wall) / service_wall, "%");
  if (loads != model.loads) out->Fail("replay load count");
}

Inputs MakeInputs(soldist::api::Session* session, std::uint64_t seed,
                  Outcome* out) {
  Inputs in;
  in.rr_workload = soldist::api::WorkloadSpec::Dataset("ca-GrQc").Probability(
      soldist::ProbabilityModel::kUc01);
  in.snap_workload = soldist::api::WorkloadSpec::Dataset("Physicians")
                         .Probability(soldist::ProbabilityModel::kIwc);
  Mix mix(seed ^ 0xc01dULL);
  in.rr_seeds[0] = 1 + mix.Below(1000003);
  in.rr_seeds[1] = in.rr_seeds[0] + 1;
  in.snap_seed = 1 + mix.Below(1000003);
  RecordDataset(*session, in.rr_workload, out);
  RecordDataset(*session, in.snap_workload, out);
  const VertexId rr_n =
      session->ResolveWorkload(in.rr_workload).value().ig->num_vertices();
  const VertexId snap_n =
      session->ResolveWorkload(in.snap_workload).value().ig->num_vertices();
  in.rr_probes = MakeQueryMix(seed, rr_n, 8);
  for (int i = 0; i < 4; ++i) {
    in.pairs.emplace_back(static_cast<VertexId>(mix.Below(snap_n)),
                          static_cast<VertexId>(mix.Below(snap_n)));
  }
  return in;
}

}  // namespace

void RunServeCold(const RunArgs& args, Outcome* out) {
  const std::string root = args.work_dir + "/serve-cold";
  // Set-up: the first service construction (session, both workloads
  // resolved, recovery sweep over an empty directory), several times.
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    const std::string dir = root + "/setup";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const double start = Now();
    {
      soldist::api::Session session(ColdOptions(dir));
      bool ok = session.ResolveWorkload(
                           soldist::api::WorkloadSpec::Dataset("ca-GrQc")
                               .Probability(soldist::ProbabilityModel::kUc01))
                    .ok() &&
                session.ResolveWorkload(
                           soldist::api::WorkloadSpec::Dataset("Physicians")
                               .Probability(soldist::ProbabilityModel::kIwc))
                    .ok();
      soldist::serve::QueryService service(&session);
      out->Check(ok, "workload resolution");
      setups.push_back(Now() - start);
    }
    fs::remove_all(dir);
  }

  soldist::api::Session info_session;
  const Inputs in = MakeInputs(&info_session, args.seed, out);
  References refs;

  if (!args.trace) {
    std::vector<double> latency, walls;
    const Budget budget(args.seconds);
    for (int pass = 0; budget.Left() || pass < 2; ++pass) {
      const ServicePass p =
          RunService(root + "/pass" + std::to_string(pass), in, &refs, out);
      for (const Timed& t : p.requests) latency.push_back(t.seconds);
      walls.push_back(p.wall);
    }
    fs::remove_all(root);
    const double wall = Median(walls);
    out->metrics.Set("setup_s", Median(setups), "s");
    out->metrics.Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    out->metrics.Set("throughput_per_s",
                     static_cast<double>(Schedule().size() - 1) / wall,
                     "1/s");
    out->metrics.Set("latency_p50_ms", 1e3 * Percentile(&latency, 0.50), "ms");
    out->metrics.Set("latency_p90_ms", 1e3 * Percentile(&latency, 0.90), "ms");
    out->info["samples"] = "{\"passes\":" + std::to_string(walls.size()) +
                           ",\"requests\":" + std::to_string(latency.size()) +
                           ",\"pass_wall_s\":" + std::to_string(wall) + "}";
    return;
  }

  // Traced: one service pass for the per-class acquire latencies and the
  // cache counters, then the public-parts replay of the same schedule.
  const ServicePass p = RunService(root + "/service", in, &refs, out);
  std::map<std::string, std::vector<double>> by_class;
  for (const Timed& t : p.requests) {
    by_class[std::string(ClassName(t.cls)) + "." + KindName(t.kind)]
        .push_back(t.seconds);
  }
  for (const Class c :
       {Class::kHit, Class::kReload, Class::kUpgrade, Class::kSample}) {
    for (const Kind k : {Kind::kRr, Kind::kSnapshot}) {
      const std::string name =
          std::string(ClassName(c)) + "." + KindName(k);
      auto it = by_class.find(name);
      if (it == by_class.end()) continue;  // the schedule has none
      out->metrics.Set("serve.acquire_ms." + name, 1e3 * Median(it->second),
                       "ms");
    }
  }
  out->metrics.Set("serve.builds", static_cast<double>(p.builds), "count");
  out->metrics.Set("serve.evictions", static_cast<double>(p.evictions),
                   "count");
  Replay(root + "/replay", in, &info_session, refs, p.wall, out);
  fs::remove_all(root);
}

}  // namespace perfbench
