#include "serve/scrubber.h"

#include <chrono>
#include <utility>
#include <vector>

#include "store/arena_io.h"
#include "store/recovery.h"
#include "util/logging.h"

namespace soldist {
namespace serve {

Scrubber::Scrubber(ArenaCache* cache, std::string arena_dir,
                   std::uint64_t interval_ms, ClockMicrosFn clock)
    : cache_(cache),
      arena_dir_(std::move(arena_dir)),
      interval_ms_(interval_ms),
      clock_(std::move(clock)) {
  SOLDIST_CHECK(cache_ != nullptr);
  // First time-driven cycle fires one interval AFTER construction — a
  // service that just ran the startup recovery sweep has nothing new to
  // verify yet.
  last_cycle_us_ = clock_ ? clock_() : SteadyNowMicros();
}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start() {
  if (interval_ms_ == 0) return;
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { ThreadMain(); });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Scrubber::ThreadMain() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [&] { return stop_; });
    if (stop_) break;
    lock.unlock();
    MaybeScrub();
    lock.lock();
  }
}

bool Scrubber::MaybeScrub() {
  if (interval_ms_ == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t now = clock_ ? clock_() : SteadyNowMicros();
    if (now - last_cycle_us_ < interval_ms_ * 1000) return false;
    last_cycle_us_ = now;  // claim the cycle before releasing mu_
  }
  RunCycle();
  return true;
}

void Scrubber::RunCycle() {
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cycles;
    last_cycle_us_ = clock_ ? clock_() : SteadyNowMicros();
    index = cursor_++;
  }
  ScrubResidentAt(index);
  ScrubDiskAt(index);
}

void Scrubber::ScrubAll() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cycles;
    last_cycle_us_ = clock_ ? clock_() : SteadyNowMicros();
  }
  const std::size_t residents = cache_->ResidentEntries().size();
  for (std::size_t i = 0; i < residents; ++i) ScrubResidentAt(i);
  const std::size_t entries = store::ListArenaEntries(arena_dir_).size();
  for (std::size_t i = 0; i < entries; ++i) ScrubDiskAt(i);
}

void Scrubber::ScrubResidentAt(std::size_t index) {
  const std::vector<ArenaCache::ResidentEntry> resident =
      cache_->ResidentEntries();
  if (resident.empty()) return;
  const ArenaCache::ResidentEntry& entry = resident[index % resident.size()];
  // The hash walks the whole arena — outside every lock; the shared_ptr
  // keeps the arena alive even if it is evicted mid-hash.
  const std::uint64_t now_checksum = entry.arena->ContentChecksum();
  const bool corrupt = now_checksum != entry.admitted_checksum;
  bool invalidated = false;
  if (corrupt) {
    // Evict-and-rebuild, never serve: the next request for this key
    // rebuilds from its sampling streams, byte-identical to what was
    // admitted. In-flight views keep the rotten arena alive but no new
    // view will be minted from it.
    invalidated = cache_->Invalidate(entry.key);
    SOLDIST_LOG(Warning) << "scrubber: resident arena '" << entry.key
                         << "' fails its admitted checksum"
                         << (invalidated ? " — evicted for rebuild"
                                         : " (already gone)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.resident_checked;
  if (corrupt) ++stats_.resident_corruptions;
  if (invalidated) ++stats_.invalidations;
}

void Scrubber::ScrubDiskAt(std::size_t index) {
  const std::vector<std::string> dirs = store::ListArenaEntries(arena_dir_);
  if (dirs.empty()) return;
  const std::string& dir = dirs[index % dirs.size()];
  const Status verified = store::VerifyArena(dir);
  if (verified.code() == StatusCode::kNotFound) {
    // No manifest: either startup debris (the recovery sweep's job) or
    // a save that is mid-flight RIGHT NOW (payload committed, manifest
    // not yet) — never quarantine what the commit protocol can still
    // complete.
    return;
  }
  bool quarantined = false;
  if (!verified.ok()) {
    std::string moved_to;
    const Status moved = store::QuarantineEntry(arena_dir_, dir, &moved_to);
    quarantined = moved.ok();
    SOLDIST_LOG(Warning) << "scrubber: persisted arena '" << dir
                         << "' fails verification (" << verified.ToString()
                         << ") — "
                         << (quarantined ? "quarantined to " + moved_to
                                         : "quarantine failed: " +
                                               moved.ToString());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_checked;
  if (!verified.ok()) ++stats_.disk_corruptions;
  if (quarantined) ++stats_.quarantined;
}

ScrubStats Scrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace soldist
