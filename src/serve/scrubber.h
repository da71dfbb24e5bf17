// Background integrity scrubber: the serving layer's defense against
// state that rots AFTER it was admitted. The startup recovery sweep
// (store/recovery.h) proves the arena directory clean once; the scrubber
// keeps both the resident cache and the directory honest for as long as
// the service runs:
//
//   resident pass   recompute WorldArena::ContentChecksum of one cached
//                   arena per cycle and compare against the checksum
//                   recorded at admission. A mismatch means the arena
//                   rotted in RAM — it is Invalidate()d (evicted; the
//                   next request rebuilds byte-identically from the
//                   cache key) and never served again.
//   disk pass       store::VerifyArena one persisted entry per cycle
//                   of store::ListArenaEntries (the recovery plan's
//                   own listing): manifest + payload presence, checksum
//                   and header. A failing entry — a committed manifest
//                   naming a missing payload included — is quarantined
//                   with store::QuarantineEntry so a later process can
//                   neither load nor trust it.
//
// Both passes are INCREMENTAL — one round-robin cursor walks both entry
// sets one element per cycle, so a scrub cycle's cost is one arena hash
// or one payload read, never a full sweep stall. ScrubAll() (REPL
// `scrub`, tests) runs a complete rotation synchronously.
//
// Scheduling is clock-driven and injectable: MaybeScrub() consults the
// ClockMicrosFn and runs one cycle when `interval_ms` has elapsed, so
// tests drive a fake clock deterministically; Start() spawns the
// production timer thread that calls it. All counters are monotone.

#ifndef SOLDIST_SERVE_SCRUBBER_H_
#define SOLDIST_SERVE_SCRUBBER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "serve/arena_cache.h"
#include "serve/resilience.h"

namespace soldist {
namespace serve {

/// Monotone counters of everything the scrubber has done since
/// construction (REPL `stats` surfaces them).
struct ScrubStats {
  std::uint64_t cycles = 0;               ///< scrub cycles run
  std::uint64_t resident_checked = 0;     ///< resident checksum re-verifications
  std::uint64_t resident_corruptions = 0; ///< admitted-checksum mismatches
  std::uint64_t invalidations = 0;        ///< cache entries evicted for rot
  std::uint64_t disk_checked = 0;         ///< persisted entries re-verified
  std::uint64_t disk_corruptions = 0;     ///< VerifyArena failures
  std::uint64_t quarantined = 0;          ///< entries moved to quarantine/
};

/// \brief Interval-driven integrity scrubber over one ArenaCache and
/// (optionally) one arena directory. Thread-safe: cycles are serialized
/// internally, and the cache/filesystem operations it performs are safe
/// against concurrent serving.
class Scrubber {
 public:
  /// \param cache        the resident cache to re-verify (required).
  /// \param arena_dir    persisted-arena root; "" disables the disk pass.
  /// \param interval_ms  cycle cadence for MaybeScrub/Start; 0 disables
  ///                     time-driven scrubbing (explicit RunCycle and
  ///                     ScrubAll still work).
  /// \param clock        injectable monotonic clock (tests); defaults to
  ///                     SteadyNowMicros.
  Scrubber(ArenaCache* cache, std::string arena_dir,
           std::uint64_t interval_ms, ClockMicrosFn clock = {});

  /// Stops the background thread (if started).
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Spawns the timer thread (no-op when interval_ms == 0 or already
  /// started). The thread wakes at the interval and calls MaybeScrub.
  void Start();

  /// Joins the timer thread (idempotent).
  void Stop();

  /// Runs one cycle iff `interval_ms` has elapsed on the injected clock
  /// since the last cycle (time-driven entry point; deterministic under
  /// a fake clock). Returns whether a cycle ran.
  bool MaybeScrub();

  /// One unconditional incremental cycle: verifies the next resident
  /// entry and the next persisted entry (round-robin cursors).
  void RunCycle();

  /// A complete rotation: every resident entry and every persisted
  /// entry verified once, synchronously (REPL `scrub`; tests).
  void ScrubAll();

  ScrubStats stats() const;

 private:
  void ScrubResidentAt(std::size_t index);
  /// Verifies entry dir `index` (mod the entry count) of
  /// store::ListArenaEntries — the recovery plan's own listing.
  void ScrubDiskAt(std::size_t index);
  void ThreadMain();

  ArenaCache* const cache_;
  const std::string arena_dir_;
  const std::uint64_t interval_ms_;
  const ClockMicrosFn clock_;

  mutable std::mutex mu_;  ///< guards cursor_, counters, last_cycle_us_
  std::uint64_t last_cycle_us_ = 0;
  /// Round-robin position of both passes (each takes it modulo its own
  /// entry count, so the two sets rotate independently).
  std::size_t cursor_ = 0;
  ScrubStats stats_;

  std::mutex thread_mu_;  ///< guards thread_/stop_ with cv_
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
};

}  // namespace serve
}  // namespace soldist

#endif  // SOLDIST_SERVE_SCRUBBER_H_
