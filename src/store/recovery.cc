#include "store/recovery.h"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "store/arena_io.h"
#include "util/json.h"
#include "util/logging.h"

namespace soldist {
namespace store {
namespace {

namespace fs = std::filesystem;

constexpr char kQuarantineDirName[] = "quarantine";

/// The fsck state and the report verb of each RecoveryAction, in enum
/// order, and whether it classifies an entry directory (what
/// RecoveryReport::scanned_entries counts).
struct ActionNames {
  const char* state;
  const char* verb;
  bool entry;
};
constexpr ActionNames kActionNames[] = {
    {"healthy", "", true},                // kKeep
    {"foreign", "skipped", true},         // kSkip
    {"tmp-debris", "deleted", false},     // kDeleteTmp
    {"tmp-debris", "removed", true},      // kRemoveDir
    {"orphan-payload", "deleted", true},  // kDeleteOrphan
    {"corrupt", "quarantined", true},     // kQuarantine
    {"error", "error", false},            // kError
};
static_assert(std::size(kActionNames) ==
              static_cast<std::size_t>(RecoveryAction::kError) + 1);

bool IsTmpFile(const fs::path& path) {
  const std::string name = path.filename().string();
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
}

/// Children of `dir`, sorted by path so sweep order (and therefore the
/// actions log) is deterministic across filesystems.
std::vector<fs::path> SortedChildren(const fs::path& dir, std::error_code* ec) {
  std::vector<fs::path> children;
  fs::directory_iterator it(dir, *ec);
  if (*ec) return children;
  for (const fs::directory_entry& entry : it) children.push_back(entry.path());
  std::sort(children.begin(), children.end());
  return children;
}

bool IsEntryDir(const fs::path& path) {
  std::error_code ec;
  return fs::is_directory(path, ec) &&
         path.filename().string() != kQuarantineDirName;
}

/// Where QuarantineEntry moves `entry_dir`: the first free name of
/// <quarantine>/<entry name>, <entry name>.1, ...
fs::path QuarantineTarget(const fs::path& quarantine,
                          const std::string& entry_dir) {
  const std::string base = fs::path(entry_dir).filename().string();
  fs::path target = quarantine / base;
  std::error_code ec;
  for (int suffix = 1; fs::exists(target, ec); ++suffix) {
    target = quarantine / (base + "." + std::to_string(suffix));
  }
  return target;
}

void AddStep(RecoveryPlan* plan, RecoveryAction action, const fs::path& path,
             std::string reason, std::string target = "") {
  plan->steps.push_back(
      {action, path.string(), std::move(reason), std::move(target)});
}

void PlanEntryDir(const fs::path& dir, RecoveryPlan* plan) {
  std::error_code ec;
  bool remains = false;
  for (const fs::path& child : SortedChildren(dir, &ec)) {
    if (IsTmpFile(child)) {
      AddStep(plan, RecoveryAction::kDeleteTmp, child, "uncommitted tmp");
    } else {
      remains = true;
    }
  }
  if (ec) {
    AddStep(plan, RecoveryAction::kError, dir, ec.message());
    return;
  }
  if (!remains) {
    AddStep(plan, RecoveryAction::kRemoveDir, dir, "empty after tmp cleanup");
    return;
  }
  if (!fs::exists(dir / "manifest.txt", ec)) {
    // No committed manifest: the save never committed as a whole, so
    // nothing in here can be a valid entry — but only delete shapes the
    // protocol explains (a committed payload). Anything else is not
    // ours to destroy.
    if (fs::exists(dir / "payload.bin", ec)) {
      AddStep(plan, RecoveryAction::kDeleteOrphan, dir,
              "payload without manifest");
    } else {
      AddStep(plan, RecoveryAction::kSkip, dir,
              "no manifest, no payload — not an arena entry");
    }
    return;
  }
  const Status verified = VerifyArena(dir.string());
  if (verified.ok()) {
    AddStep(plan, RecoveryAction::kKeep, dir, "");
  } else {
    AddStep(plan, RecoveryAction::kQuarantine, dir, verified.ToString(),
            QuarantineTarget(fs::path(plan->root) / kQuarantineDirName,
                             dir.string())
                .string());
  }
}

}  // namespace

std::string RecoveryReport::ToJson() const {
  JsonObject obj;
  obj.UInt("scanned_entries", scanned_entries)
      .UInt("healthy_entries", healthy_entries)
      .UInt("cleaned_tmp_files", cleaned_tmp_files)
      .UInt("orphaned_payloads", orphaned_payloads)
      .UInt("quarantined_entries", quarantined_entries)
      .UInt("removed_empty_dirs", removed_empty_dirs)
      .UInt("sweep_errors", sweep_errors)
      .Bool("clean", Clean());
  std::string array = "[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) array += ",";
    array += JsonQuote(actions[i]);
  }
  array += "]";
  obj.Raw("actions", array);
  return obj.ToString();
}

const char* RecoveryStep::State() const {
  return kActionNames[static_cast<int>(action)].state;
}

std::string RecoveryStep::ActionLine() const {
  if (action == RecoveryAction::kKeep) return "";
  if (action == RecoveryAction::kError) {
    return "error: listing '" + path + "' (" + reason + ")";
  }
  std::string line = kActionNames[static_cast<int>(action)].verb;
  line += ": " + path;
  if (!target.empty()) line += " -> " + target;
  return line + " (" + reason + ")";
}

std::vector<std::string> RecoveryPlan::Actions() const {
  std::vector<std::string> lines;
  for (const RecoveryStep& step : steps) {
    if (step.action != RecoveryAction::kKeep) {
      lines.push_back(step.ActionLine());
    }
  }
  return lines;
}

std::vector<std::string> ListArenaEntries(const std::string& root) {
  std::vector<std::string> entries;
  std::error_code ec;
  for (const fs::path& child : SortedChildren(root, &ec)) {
    if (IsEntryDir(child)) entries.push_back(child.string());
  }
  return entries;
}

Status QuarantineEntry(const std::string& root, const std::string& entry_dir,
                       std::string* moved_to) {
  const fs::path quarantine = fs::path(root) / kQuarantineDirName;
  std::error_code ec;
  fs::create_directories(quarantine, ec);
  if (ec) {
    return Status::IoError("cannot create '" + quarantine.string() +
                           "': " + ec.message());
  }
  const fs::path target = QuarantineTarget(quarantine, entry_dir);
  fs::rename(entry_dir, target, ec);
  if (ec) {
    return Status::IoError("cannot move '" + entry_dir + "' to '" +
                           target.string() + "': " + ec.message());
  }
  if (moved_to != nullptr) *moved_to = target.string();
  return Status::OK();
}

StatusOr<RecoveryPlan> PlanRecovery(const std::string& root) {
  RecoveryPlan plan;
  plan.root = root;
  std::error_code ec;
  const fs::path root_path(root);
  if (!fs::exists(root_path, ec)) return plan;  // nothing ever saved
  if (!fs::is_directory(root_path, ec)) {
    return Status::InvalidArgument("arena dir '" + root +
                                   "' is not a directory");
  }
  for (const fs::path& child : SortedChildren(root_path, &ec)) {
    if (IsEntryDir(child)) {
      PlanEntryDir(child, &plan);
    } else if (IsTmpFile(child)) {
      AddStep(&plan, RecoveryAction::kDeleteTmp, child, "uncommitted tmp");
    }
    // Other stray files at the root (e.g. a user's notes) are ignored.
  }
  if (ec) AddStep(&plan, RecoveryAction::kError, root_path, ec.message());
  return plan;
}

RecoveryReport ApplyRecovery(const RecoveryPlan& plan) {
  RecoveryReport report;
  // The counter a successful step bumps, in RecoveryAction order.
  std::uint64_t* const counters[] = {
      &report.healthy_entries,   nullptr,
      &report.cleaned_tmp_files, &report.removed_empty_dirs,
      &report.orphaned_payloads, &report.quarantined_entries,
      &report.sweep_errors};
  for (const RecoveryStep& step : plan.steps) {
    const int action = static_cast<int>(step.action);
    if (kActionNames[action].entry) ++report.scanned_entries;
    RecoveryStep done = step;
    std::error_code ec;
    std::string error;
    if (step.action == RecoveryAction::kDeleteTmp ||
        step.action == RecoveryAction::kRemoveDir) {
      fs::remove(step.path, ec);
    } else if (step.action == RecoveryAction::kDeleteOrphan) {
      fs::remove_all(step.path, ec);
    } else if (step.action == RecoveryAction::kQuarantine) {
      const Status moved = QuarantineEntry(plan.root, step.path, &done.target);
      if (!moved.ok()) {
        error = "quarantining '" + step.path + "' failed (" +
                moved.ToString() + ")";
      }
    }
    if (ec) {
      error = (step.action == RecoveryAction::kDeleteTmp ? "deleting '"
                                                         : "removing '") +
              step.path + "' (" + ec.message() + ")";
    }
    if (!error.empty()) {
      ++report.sweep_errors;
      report.actions.push_back("error: " + error);
      continue;
    }
    if (std::uint64_t* count = counters[action]) ++*count;
    if (step.action != RecoveryAction::kKeep) {
      report.actions.push_back(done.ActionLine());
    }
  }
  return report;
}

StatusOr<RecoveryReport> RecoverArenaDir(const std::string& root) {
  StatusOr<RecoveryPlan> plan = PlanRecovery(root);
  if (!plan.ok()) return plan.status();
  RecoveryReport report = ApplyRecovery(plan.value());
  if (!report.Clean()) {
    SOLDIST_LOG(Warning) << "arena recovery swept '" << root << "': "
                         << report.ToJson();
  }
  return report;
}

}  // namespace store
}  // namespace soldist
