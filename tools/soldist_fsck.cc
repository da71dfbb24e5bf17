// soldist_fsck: offline integrity checker / repairer for an --arena-dir
// tree (store/arena_io.h format, store/recovery.h semantics). Where the
// serving layer sweeps at startup and scrubs in the background, fsck is
// the operator's standalone handle on the same machinery — one
// store::PlanRecovery behind every command, so what `verify` reports is
// exactly what `repair` does:
//
//   soldist_fsck verify <dir>   read-only: print the recovery plan, one
//                               line per classified path (healthy /
//                               corrupt / orphan-payload / tmp-debris /
//                               foreign) with its reason. Exit 0 when
//                               the plan repairs nothing, 1 otherwise —
//                               nothing is modified.
//   soldist_fsck repair <dir>   apply that plan (store::ApplyRecovery):
//                               delete *.tmp debris and orphan payloads,
//                               quarantine corrupt entries into
//                               <dir>/quarantine/. Prints the
//                               RecoveryReport; exit 0 when the sweep
//                               finished (clean or repaired), 1 when
//                               filesystem errors stopped it from
//                               finishing. A repaired tree reloads clean.
//   soldist_fsck ls <dir>       read-only inventory: each planned path's
//                               state plus, where a manifest reads, its
//                               identity (kind, workload, seed, stream,
//                               capacity).
//
// --json switches every output line to a JSON object (one per entry,
// plus a final summary line), mirroring the REPL's machine-readable
// discipline. Usage errors exit 2.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "store/arena_io.h"
#include "store/recovery.h"
#include "util/json.h"
#include "util/status.h"

namespace soldist {
namespace {

namespace fs = std::filesystem;

constexpr int kExitClean = 0;
constexpr int kExitBad = 1;
constexpr int kExitUsage = 2;

int Usage() {
  std::fprintf(
      stderr,
      "usage: soldist_fsck <verify|repair|ls> <arena-dir> [--json]\n"
      "  verify  read-only integrity check; exit 1 if anything is bad\n"
      "  repair  recovery sweep: delete debris, quarantine corruption\n"
      "  ls      inventory of entries with manifest identity + state\n");
  return kExitUsage;
}

/// verify and ls: one line per plan step, then a summary. ls adds each
/// manifest's identity where one reads and, being an inventory, always
/// exits 0; verify exits 1 when the plan repairs anything.
int PrintPlan(const store::RecoveryPlan& plan, bool json, bool inventory) {
  std::uint64_t bad = 0;
  for (const store::RecoveryStep& step : plan.steps) {
    bad += step.NeedsRepair() ? 1 : 0;
    JsonObject record;
    record.Str("type", "entry")
        .Str("path", step.path)
        .Str("state", step.State())
        .Bool("bad", step.NeedsRepair());
    if (!step.reason.empty()) record.Str("detail", step.reason);
    std::string detail = step.reason;
    StatusOr<store::ArenaManifest> manifest =
        inventory ? store::ReadArenaManifest(step.path)
                  : Status::NotFound("identity not requested");
    if (manifest.ok()) {
      const store::ArenaManifest& m = manifest.value();
      record.Str("kind", m.kind)
          .Str("workload", m.workload)
          .UInt("seed", m.seed)
          .Str("stream", m.stream)
          .UInt("capacity", m.capacity)
          .UInt("num_vertices", m.num_vertices)
          .UInt("payload_bytes", m.payload_bytes);
      detail = "kind=" + m.kind + " workload=" + m.workload +
               " seed=" + std::to_string(m.seed) + " stream=" + m.stream +
               " capacity=" + std::to_string(m.capacity);
    }
    if (json) {
      std::printf("%s\n", record.ToString().c_str());
    } else if (detail.empty()) {
      std::printf("%-14s %s\n", step.State(), step.path.c_str());
    } else {
      std::printf("%-14s %s: %s\n", step.State(), step.path.c_str(),
                  detail.c_str());
    }
  }
  if (json) {
    JsonObject summary;
    summary.Str("type", "summary")
        .UInt("entries", plan.steps.size())
        .UInt("bad", bad)
        .Bool("clean", bad == 0);
    std::printf("%s\n", summary.ToString().c_str());
  } else {
    std::printf("%zu entries, %llu bad\n", plan.steps.size(),
                static_cast<unsigned long long>(bad));
  }
  return bad == 0 || inventory ? kExitClean : kExitBad;
}

int RunRepair(const store::RecoveryPlan& plan, bool json) {
  const store::RecoveryReport report = store::ApplyRecovery(plan);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    for (const std::string& action : report.actions) {
      std::printf("%s\n", action.c_str());
    }
    std::printf(
        "%llu scanned, %llu healthy, %llu tmp cleaned, %llu orphans "
        "removed, %llu quarantined, %llu errors\n",
        static_cast<unsigned long long>(report.scanned_entries),
        static_cast<unsigned long long>(report.healthy_entries),
        static_cast<unsigned long long>(report.cleaned_tmp_files),
        static_cast<unsigned long long>(report.orphaned_payloads),
        static_cast<unsigned long long>(report.quarantined_entries),
        static_cast<unsigned long long>(report.sweep_errors));
  }
  // Debris removed and corruption quarantined IS a successful repair;
  // only filesystem errors that kept the sweep from finishing fail it.
  return report.sweep_errors == 0 ? kExitClean : kExitBad;
}

int Run(int argc, const char* const* argv) {
  std::string command, root;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (command.empty()) {
      command = argv[i];
    } else if (root.empty()) {
      root = argv[i];
    } else {
      return Usage();
    }
  }
  if (command.empty() || root.empty()) return Usage();
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "soldist_fsck: '%s' is not a directory\n",
                 root.c_str());
    return kExitBad;
  }
  if (command != "verify" && command != "repair" && command != "ls") {
    return Usage();
  }
  StatusOr<store::RecoveryPlan> plan = store::PlanRecovery(root);
  if (!plan.ok()) {
    std::fprintf(stderr, "soldist_fsck: %s\n",
                 plan.status().ToString().c_str());
    return kExitBad;
  }
  if (command == "repair") return RunRepair(plan.value(), json);
  return PrintPlan(plan.value(), json, /*inventory=*/command == "ls");
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
