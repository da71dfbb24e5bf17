// Startup recovery sweep for an --arena-dir tree: turns whatever a
// crashed (or byte-flipped) predecessor left behind into a directory the
// serving layer can trust blindly.
//
// The arena_io tmp + atomic-rename protocol makes classification
// unambiguous (state = the name soldist_fsck prints):
//
//   *.tmp file                      tmp-debris: uncommitted write, deleted
//                                   (the rename never happened).
//   entry holding only *.tmp        tmp-debris: the directory is removed
//                                   once its tmp files are gone.
//   payload.bin without manifest    orphan-payload: crash between the
//                                   payload commit and the manifest
//                                   commit, deleted (the save as a whole
//                                   never committed).
//   manifest without payload.bin    corrupt: the protocol commits the
//                                   payload first, so this is damage —
//                                   QUARANTINED like any corrupt entry.
//   manifest + payload failing      corrupt: bit rot / tampering after a
//   VerifyArena                     clean commit — QUARANTINED (moved
//                                   into <root>/quarantine/) so the bytes
//                                   survive for forensics but can never
//                                   be served.
//   manifest + payload verifying    healthy: untouched.
//   neither manifest nor payload    foreign: not ours, untouched.
//
// The sweep is split in two: PlanRecovery classifies read-only and
// ApplyRecovery carries the plan out, so `soldist_fsck verify` prints
// exactly what `repair` (and the service's startup sweep) will do. The
// sweep is idempotent (a second pass over a recovered tree plans no
// repair) and conservative: nothing that passes verification is ever
// modified. QueryService runs it once at startup when --arena-dir is
// set; the background scrubber walks the same ListArenaEntries and
// reuses QuarantineEntry for entries that rot while the service is up.

#ifndef SOLDIST_STORE_RECOVERY_H_
#define SOLDIST_STORE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace soldist {
namespace store {

/// What one recovery sweep saw and did. All counts are for this sweep
/// only (the sweep is stateless between runs).
struct RecoveryReport {
  std::uint64_t scanned_entries = 0;     ///< entry directories visited
  std::uint64_t healthy_entries = 0;     ///< passed VerifyArena
  std::uint64_t cleaned_tmp_files = 0;   ///< *.tmp debris deleted
  std::uint64_t orphaned_payloads = 0;   ///< payload-without-manifest dirs deleted
  std::uint64_t quarantined_entries = 0; ///< corrupt entries moved aside
  std::uint64_t removed_empty_dirs = 0;  ///< entry dirs left empty after cleanup
  std::uint64_t sweep_errors = 0;        ///< filesystem ops that failed mid-sweep
  /// Human-readable "<action>: <path> (<why>)" lines, in sweep order —
  /// what soldist_fsck prints and the CI artifact records.
  std::vector<std::string> actions;

  /// True when the tree needed no intervention.
  bool Clean() const {
    return cleaned_tmp_files == 0 && orphaned_payloads == 0 &&
           quarantined_entries == 0 && removed_empty_dirs == 0 &&
           sweep_errors == 0;
  }

  /// One-object JSON rendering (counts + actions array).
  std::string ToJson() const;
};

/// What recovery does to one path under an arena root.
enum class RecoveryAction {
  kKeep,          ///< healthy entry — untouched
  kSkip,          ///< not an arena entry — untouched
  kDeleteTmp,     ///< *.tmp file — deleted
  kRemoveDir,     ///< entry dir left empty once its tmp files go — removed
  kDeleteOrphan,  ///< payload without manifest — entry dir deleted
  kQuarantine,    ///< corrupt entry — moved into <root>/quarantine/
  kError,         ///< a directory could not be listed — reported only
};

/// One classified path of a RecoveryPlan.
struct RecoveryStep {
  RecoveryAction action = RecoveryAction::kKeep;
  std::string path;
  std::string reason;  ///< why; the VerifyArena status for kQuarantine
  std::string target;  ///< kQuarantine only: where the entry will move

  /// The state soldist_fsck prints: "healthy", "foreign", "tmp-debris",
  /// "orphan-payload", "corrupt" or "error".
  const char* State() const;
  /// True when the tree is not clean at this path (fsck verify exit 1).
  bool NeedsRepair() const {
    return action != RecoveryAction::kKeep && action != RecoveryAction::kSkip;
  }
  /// The RecoveryReport::actions line ApplyRecovery writes when the step
  /// succeeds ("" for kKeep, which writes none).
  std::string ActionLine() const;
};

/// A read-only classification of every immediate child of an arena
/// root, in sorted path order (an entry's own tmp files precede it).
struct RecoveryPlan {
  std::string root;
  std::vector<RecoveryStep> steps;

  /// The action lines of every step but kKeep: what ApplyRecovery
  /// reports when every filesystem operation succeeds.
  std::vector<std::string> Actions() const;
};

/// Sorted entry directories under an arena root (quarantine excluded) —
/// the directories PlanRecovery classifies and the scrubber's disk pass
/// rotates through. Empty when the root is missing or unreadable.
std::vector<std::string> ListArenaEntries(const std::string& root);

/// Moves `entry_dir` (an immediate subdirectory of `root`) into
/// `<root>/quarantine/`, creating it on demand and suffixing the target
/// name (".1", ".2", ...) if a previous quarantine of the same entry
/// exists. On success `*moved_to` (optional) receives the final path.
Status QuarantineEntry(const std::string& root, const std::string& entry_dir,
                       std::string* moved_to);

/// Classifies one arena root per the table above without touching it.
/// A missing root plans nothing (nothing was ever saved); a root that is
/// not a directory is kInvalidArgument. `<root>/quarantine/` is never
/// scanned.
StatusOr<RecoveryPlan> PlanRecovery(const std::string& root);

/// Carries out a plan. A failed filesystem operation becomes an "error:"
/// action and a sweep_errors count, never an abort.
RecoveryReport ApplyRecovery(const RecoveryPlan& plan);

/// ApplyRecovery(PlanRecovery(root)), logging a warning when the tree
/// needed repair.
StatusOr<RecoveryReport> RecoverArenaDir(const std::string& root);

}  // namespace store
}  // namespace soldist

#endif  // SOLDIST_STORE_RECOVERY_H_
