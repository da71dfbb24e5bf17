#include "store/arena_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace soldist {
namespace store {
namespace {

// "SOLDARNA" as a native u64: written in host byte order, so a file
// produced on an opposite-endian machine reads back as a different value
// and the load fails cleanly instead of deserializing garbage.
constexpr std::uint64_t kPayloadMagic = 0x534F4C4441524E41ull;
// The payload header's kind tag is the ArenaKind value: part of the
// on-disk format, so the enum order is pinned here.
static_assert(static_cast<std::uint32_t>(ArenaKind::kRr) == 0 &&
              static_cast<std::uint32_t>(ArenaKind::kSnapshot) == 1);

constexpr char kManifestFile[] = "/manifest.txt";
constexpr char kPayloadFile[] = "/payload.bin";

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// fsyncs the directory containing `path` so a just-committed rename
/// survives a crash (the rename updates the directory entry; without
/// this the entry itself can be lost even though the inode is durable).
Status SyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open dir '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fsync of dir '" + dir + "' failed: " + err);
  }
  ::close(fd);
  return Status::OK();
}

/// Atomically publishes `tmp` as `path` (the COMMIT POINT of every
/// store/ file write) and makes the directory entry durable. A crash
/// before the rename leaves only `*.tmp` debris; after it, the complete
/// file — never a half-written file under its final name.
Status CommitFile(const std::string& tmp, const std::string& path) {
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kRename, path));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename '" + tmp + "' -> '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return SyncParentDir(path);
}

/// Writes then fsyncs `size` bytes into the open `fd` — the write and
/// sync fault boundaries of WriteFileDurably (a torn write persists only
/// a prefix and still reports success).
Status WriteAndSync(int fd, const std::string& tmp, const std::uint8_t* data,
                    std::size_t size, FaultInjector* inject) {
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kWrite, tmp));
    size = inject->MutilateWriteSize(size);
  }
  for (std::size_t written = 0; written < size;) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0 && errno != EINTR) {
      return Status::IoError("write to '" + tmp +
                             "' failed: " + std::strerror(errno));
    }
    if (n > 0) written += static_cast<std::size_t>(n);
  }
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kSync, tmp));
  }
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync of '" + tmp +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

/// Durably writes `size` bytes through the tmp + atomic-rename protocol:
/// open/write/fsync `path + ".tmp"` (each an injectable fault boundary;
/// a torn write persists a prefix of the TMP file and still commits it —
/// the read-side checksum guards are what must catch the damage), then
/// CommitFile renames it over `path`.
Status WriteFileDurably(const std::string& path, const std::uint8_t* data,
                        std::size_t size) {
  const std::string tmp = path + ".tmp";
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, tmp));
  }
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing: " +
                           std::strerror(errno));
  }
  const Status written = WriteAndSync(fd, tmp, data, size, inject);
  if (::close(fd) != 0 && written.ok()) {
    return Status::IoError("close of '" + tmp +
                           "' failed: " + std::strerror(errno));
  }
  SOLDIST_RETURN_IF_ERROR(written);
  return CommitFile(tmp, path);
}

/// Append-only payload writer: accumulates the byte stream in memory,
/// then flushes it with its checksum in one pass. Arenas at the recorded
/// bench scales are tens of MB, so the staging buffer is acceptable; a
/// streaming writer can replace this without a format change.
class PayloadWriter {
 public:
  void PutU32(std::uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(std::uint64_t v) { PutRaw(&v, sizeof(v)); }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  /// One sample's counters: the step between two running totals.
  void PutCounterDelta(const TraversalCounters& cum,
                       const TraversalCounters& prev) {
    PutU64(cum.vertices - prev.vertices);
    PutU64(cum.edges - prev.edges);
    PutU64(cum.sample_vertices - prev.sample_vertices);
    PutU64(cum.sample_edges - prev.sample_edges);
  }

  /// Durable tmp+rename write with an fsync BEFORE the caller writes
  /// the manifest: the "payload before manifest" crash ordering is only
  /// real once the payload bytes are durable (and committed under their
  /// final name) when the manifest names them. A torn write persists
  /// only a prefix but still REPORTS success (bytes/checksum below
  /// describe the full buffer): the read-side size/checksum guards are
  /// what must catch the damage.
  Status Flush(const std::string& path, std::uint64_t* bytes,
               std::uint64_t* checksum) const {
    SOLDIST_RETURN_IF_ERROR(
        WriteFileDurably(path, buffer_.data(), buffer_.size()));
    *bytes = buffer_.size();
    *checksum = Fnv1a(buffer_.data(), buffer_.size());
    return Status::OK();
  }

 private:
  void PutRaw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked payload reader: every Get returns false once the
/// cursor would run past the end, so a truncated file surfaces as a
/// Status from the caller, never an out-of-bounds read.
class PayloadReader {
 public:
  PayloadReader() = default;
  explicit PayloadReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  bool GetU32(std::uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(std::uint64_t* v) { return GetRaw(v, sizeof(*v)); }

  template <typename T>
  bool GetVector(std::uint64_t count, std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Reject counts the remaining bytes cannot possibly hold BEFORE
    // resizing, so a corrupt length cannot trigger a huge allocation.
    if (count > (bytes_.size() - pos_) / sizeof(T)) return false;
    v->resize(count);
    return count == 0 || GetRaw(v->data(), count * sizeof(T));
  }

  /// GetVector whose every element must lie below `bound`.
  template <typename T>
  bool GetBounded(std::uint64_t count, std::uint64_t bound,
                  std::vector<T>* v) {
    if (!GetVector(count, v)) return false;
    return std::all_of(v->begin(), v->end(),
                       [bound](T x) { return x < bound; });
  }

  /// A CSR section: `rows` + 1 offsets rising from 0, then that many
  /// targets, each below `bound`.
  template <typename Offset, typename Target>
  bool GetCsr(std::uint64_t rows, std::uint64_t bound,
              std::vector<Offset>* offsets, std::vector<Target>* targets) {
    // rows + 1 == 0 only on a wrapped count: reject it before front().
    return GetVector(rows + 1, offsets) && !offsets->empty() &&
           offsets->front() == 0 &&
           std::is_sorted(offsets->begin(), offsets->end()) &&
           GetBounded(offsets->back(), bound, targets);
  }

  bool GetCounters(TraversalCounters* c) {
    return GetU64(&c->vertices) && GetU64(&c->edges) &&
           GetU64(&c->sample_vertices) && GetU64(&c->sample_edges);
  }

  /// The per-world counter deltas that end every payload, then the end
  /// of the file.
  Status GetCounterTail(std::uint64_t capacity,
                        std::vector<TraversalCounters>* deltas) {
    // Bound the count by the bytes left BEFORE allocating for it.
    if (capacity > (bytes_.size() - pos_) / (4 * sizeof(std::uint64_t))) {
      return Status::IoError("arena payload truncated in counter deltas");
    }
    deltas->resize(capacity);
    for (TraversalCounters& delta : *deltas) {
      if (!GetCounters(&delta)) {
        return Status::IoError("arena payload truncated in counter deltas");
      }
    }
    if (pos_ != bytes_.size()) {
      return Status::IoError("arena payload has trailing bytes");
    }
    return Status::OK();
  }

 private:
  bool GetRaw(void* out, std::size_t size) {
    if (size > bytes_.size() - pos_) return false;
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

Status WriteManifest(const ArenaManifest& manifest, const std::string& dir) {
  const std::string path = dir + kManifestFile;
  std::string text;
  text += "format_version=" + std::to_string(manifest.version) + "\n";
  text += "kind=" + manifest.kind + "\n";
  text += "workload=" + manifest.workload + "\n";
  text += "seed=" + std::to_string(manifest.seed) + "\n";
  text += "stream=" + manifest.stream + "\n";
  text += "capacity=" + std::to_string(manifest.capacity) + "\n";
  text += "num_vertices=" + std::to_string(manifest.num_vertices) + "\n";
  text += "payload_bytes=" + std::to_string(manifest.payload_bytes) + "\n";
  text += "checksum=" + std::to_string(manifest.checksum) + "\n";
  // Same tmp+rename protocol as the payload: the manifest rename is the
  // commit point of the WHOLE save (a directory becomes a loadable hit
  // at exactly this instant and never before).
  return WriteFileDurably(path,
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size());
}

/// Checks the identity fields of a read manifest against the request.
/// Capacity is a >= check: a bigger saved arena serves any smaller τ as
/// a byte-identical prefix.
Status MatchManifest(const ArenaManifest& found,
                     const ArenaManifest& expected) {
  if (found.kind != expected.kind || found.workload != expected.workload ||
      found.seed != expected.seed || found.stream != expected.stream) {
    return Status::FailedPrecondition(
        "arena identity mismatch: saved (" + found.kind + ", " +
        found.workload + ", seed=" + std::to_string(found.seed) + ", " +
        found.stream + ") vs requested (" + expected.kind + ", " +
        expected.workload + ", seed=" + std::to_string(expected.seed) +
        ", " + expected.stream + ")");
  }
  if (found.capacity < expected.capacity) {
    return Status::FailedPrecondition(
        "saved arena capacity " + std::to_string(found.capacity) +
        " < requested " + std::to_string(expected.capacity));
  }
  if (expected.num_vertices != 0 &&
      found.num_vertices != expected.num_vertices) {
    return Status::FailedPrecondition(
        "saved arena has " + std::to_string(found.num_vertices) +
        " vertices, requested " + std::to_string(expected.num_vertices));
  }
  return Status::OK();
}

/// An entry's manifest and its verified, header-checked payload.
struct OpenedArena {
  ArenaManifest manifest;
  PayloadReader reader;
};

/// The shared front half of every read: the manifest (current version,
/// known kind, and — for a load — matching `expected`), then payload.bin
/// verified against it (size, checksum, and the binary header's magic /
/// version / kind / shape).
StatusOr<OpenedArena> OpenArena(const std::string& dir,
                                const ArenaManifest* expected) {
  StatusOr<ArenaManifest> read = ReadArenaManifest(dir);
  if (!read.ok()) return read.status();
  const ArenaManifest& manifest = read.value();
  if (manifest.version != kArenaFormatVersion) {
    return Status::FailedPrecondition(
        "arena format version " + std::to_string(manifest.version) +
        " != " + std::to_string(kArenaFormatVersion));
  }
  std::optional<ArenaKind> expected_kind;
  for (ArenaKind kind : {ArenaKind::kRr, ArenaKind::kSnapshot}) {
    if (manifest.kind == ArenaKindName(kind)) expected_kind = kind;
  }
  if (!expected_kind.has_value()) {
    return Status::FailedPrecondition("unknown arena kind '" +
                                      manifest.kind + "'");
  }
  if (expected != nullptr) {
    SOLDIST_RETURN_IF_ERROR(MatchManifest(manifest, *expected));
  }
  const std::string path = dir + kPayloadFile;
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, path));
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  // The manifest commits AFTER the payload, so a committed manifest
  // naming a missing payload is damage, never a save in flight — and not
  // the kNotFound that means "no entry here".
  if (!in) {
    return Status::FailedPrecondition("manifest names a missing payload '" +
                                      path + "'");
  }
  const std::streamoff size = in.tellg();
  if (static_cast<std::uint64_t>(size) != manifest.payload_bytes) {
    return Status::IoError(
        "arena payload '" + path + "' is " + std::to_string(size) +
        " bytes, manifest says " + std::to_string(manifest.payload_bytes) +
        " (truncated?)");
  }
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Status::IoError("short read from '" + path + "'");
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kRead, path));
    if (inject->MutilateReadSize(bytes.size()) < bytes.size()) {
      return Status::IoError("short read from '" + path + "' (injected)");
    }
  }
  if (Fnv1a(bytes.data(), bytes.size()) != manifest.checksum) {
    return Status::IoError("arena payload '" + path +
                           "' fails its checksum (corrupted)");
  }
  PayloadReader reader(std::move(bytes));
  std::uint64_t magic = 0;
  std::uint32_t version = 0, kind = 0, num_vertices = 0, reserved = 0;
  std::uint64_t capacity = 0;
  if (!reader.GetU64(&magic) || !reader.GetU32(&version) ||
      !reader.GetU32(&kind) || !reader.GetU32(&num_vertices) ||
      !reader.GetU32(&reserved) || !reader.GetU64(&capacity)) {
    return Status::IoError("arena payload '" + path + "' header truncated");
  }
  if (magic != kPayloadMagic) {
    return Status::FailedPrecondition(
        "arena payload '" + path +
        "' has a wrong magic (different endianness or not an arena file)");
  }
  if (version != kArenaFormatVersion) {
    return Status::FailedPrecondition("arena payload version " +
                                      std::to_string(version) +
                                      " != " +
                                      std::to_string(kArenaFormatVersion));
  }
  if (kind != static_cast<std::uint32_t>(*expected_kind) ||
      num_vertices != manifest.num_vertices ||
      capacity != manifest.capacity) {
    return Status::IoError("arena payload '" + path +
                           "' header disagrees with its manifest");
  }
  return OpenedArena{manifest, std::move(reader)};
}

/// The shared front half of every save: the manifest's shape fields and
/// the payload header, both taken from the arena itself.
void BeginPayload(const WorldArena& arena, ArenaManifest* manifest,
                  PayloadWriter* writer) {
  manifest->kind = ArenaKindName(arena.kind());
  manifest->capacity = arena.capacity();
  manifest->num_vertices = arena.num_vertices();
  writer->PutU64(kPayloadMagic);
  writer->PutU32(kArenaFormatVersion);
  writer->PutU32(static_cast<std::uint32_t>(arena.kind()));
  writer->PutU32(arena.num_vertices());
  writer->PutU32(0);  // reserved
  writer->PutU64(arena.capacity());
}

/// The shared back half of every save: the per-world counter deltas,
/// then the payload and manifest commits.
Status FinishSave(const WorldArena& arena, PayloadWriter* writer,
                  ArenaManifest* manifest, const std::string& dir) {
  for (std::uint64_t i = 1; i <= arena.capacity(); ++i) {
    writer->PutCounterDelta(arena.PrefixCounters(i),
                            arena.PrefixCounters(i - 1));
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create arena dir '" + dir +
                           "': " + ec.message());
  }
  manifest->version = kArenaFormatVersion;
  SOLDIST_RETURN_IF_ERROR(writer->Flush(dir + kPayloadFile,
                                        &manifest->payload_bytes,
                                        &manifest->checksum));
  // Manifest last: a crash mid-save leaves a manifest-less directory
  // that reads as kNotFound, not as a corrupt hit.
  return WriteManifest(*manifest, dir);
}

/// OpenArena for a load of `kind`: `expected` with its kind filled in.
StatusOr<OpenedArena> OpenForLoad(const std::string& dir, ArenaKind kind,
                                  ArenaManifest expected) {
  expected.kind = ArenaKindName(kind);
  return OpenArena(dir, &expected);
}

}  // namespace

StatusOr<ArenaManifest> ReadArenaManifest(const std::string& dir) {
  const std::string path = dir + kManifestFile;
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, path));
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("no arena manifest at '" + path + "'");
  ArenaManifest manifest;
  manifest.version = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::IoError("malformed manifest line '" + line + "' in '" +
                             path + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::uint64_t number = 0;
    if (key == "kind") {
      manifest.kind = value;
    } else if (key == "workload") {
      manifest.workload = value;
    } else if (key == "stream") {
      manifest.stream = value;
    } else if (ParseUint64(value, &number) &&
               (key != "format_version" ||
                number <= std::numeric_limits<std::uint32_t>::max())) {
      if (key == "format_version") {
        manifest.version = static_cast<std::uint32_t>(number);
      } else if (key == "seed") {
        manifest.seed = number;
      } else if (key == "capacity") {
        manifest.capacity = number;
      } else if (key == "num_vertices") {
        manifest.num_vertices = number;
      } else if (key == "payload_bytes") {
        manifest.payload_bytes = number;
      } else if (key == "checksum") {
        manifest.checksum = number;
      }  // unknown numeric keys: forward-compatible skip
    } else {
      return Status::IoError("malformed manifest value '" + line +
                             "' in '" + path + "'");
    }
  }
  if (manifest.kind.empty() || manifest.capacity == 0) {
    return Status::IoError("incomplete arena manifest at '" + path + "'");
  }
  return manifest;
}

Status VerifyArena(const std::string& dir) {
  // OpenArena verifies size, whole-file checksum, and the binary header
  // (magic / version / kind / shape vs manifest). Deeper structural
  // damage inside the sections is impossible past the checksum unless
  // the save itself was buggy — the loaders still validate structure.
  return OpenArena(dir, nullptr).status();
}

Status SaveRrArena(const RrArena& arena, ArenaManifest manifest,
                   const std::string& dir) {
  if (!arena.is_flat()) {
    return Status::FailedPrecondition(
        "SaveRrArena requires a flat arena (save before ConvertStorage)");
  }
  const store::RrFlatPayload* payload = arena.storage().flat_payload();
  SOLDIST_CHECK(payload != nullptr);
  PayloadWriter writer;
  BeginPayload(arena, &manifest, &writer);
  writer.PutVector(payload->set_offsets);
  writer.PutVector(payload->flat);
  // The inverted index is NOT persisted — the load rebuilds it with the
  // same counting sort, byte-identically, at half the file size.
  return FinishSave(arena, &writer, &manifest, dir);
}

StatusOr<std::shared_ptr<RrArena>> LoadRrArena(
    const std::string& dir, const ArenaManifest& expected) {
  StatusOr<OpenedArena> opened = OpenForLoad(dir, ArenaKind::kRr, expected);
  if (!opened.ok()) return opened.status();
  PayloadReader& reader = opened.value().reader;
  const std::uint64_t capacity = opened.value().manifest.capacity;
  const auto num_vertices =
      static_cast<VertexId>(opened.value().manifest.num_vertices);
  std::vector<std::uint64_t> set_offsets;
  std::vector<VertexId> flat;
  if (!reader.GetCsr(capacity, num_vertices, &set_offsets, &flat)) {
    return Status::IoError(
        "arena payload truncated or corrupt in the RR set array");
  }
  std::vector<TraversalCounters> per_set;
  SOLDIST_RETURN_IF_ERROR(reader.GetCounterTail(capacity, &per_set));
  return std::make_shared<RrArena>(RrArena::FromParts(
      num_vertices, std::move(flat), std::move(set_offsets), per_set));
}

Status SaveSnapshotArena(const SnapshotArena& arena, ArenaManifest manifest,
                         const std::string& dir) {
  PayloadWriter writer;
  BeginPayload(arena, &manifest, &writer);
  for (std::uint64_t i = 0; i < arena.capacity(); ++i) {
    const CondensedSnapshot& snap = arena.World(i);
    const SnapshotWarmth& warmth = arena.Warmth(i);
    const std::uint32_t num_components = snap.num_components();
    SOLDIST_CHECK(warmth.bound.size() == num_components);
    writer.PutU32(num_components);
    writer.PutVector(snap.comp_of);
    writer.PutVector(snap.comp_size);
    writer.PutVector(snap.dag.offsets);
    writer.PutVector(snap.dag.targets);
    writer.PutVector(snap.rev.offsets);
    writer.PutVector(snap.rev.targets);
    writer.PutVector(warmth.bound);
    writer.PutVector(warmth.is_exact);
  }
  return FinishSave(arena, &writer, &manifest, dir);
}

StatusOr<std::shared_ptr<SnapshotArena>> LoadSnapshotArena(
    const std::string& dir, const ArenaManifest& expected) {
  StatusOr<OpenedArena> opened =
      OpenForLoad(dir, ArenaKind::kSnapshot, expected);
  if (!opened.ok()) return opened.status();
  PayloadReader& reader = opened.value().reader;
  const std::uint64_t capacity = opened.value().manifest.capacity;
  const auto num_vertices =
      static_cast<VertexId>(opened.value().manifest.num_vertices);
  std::vector<CondensedSnapshot> snaps(capacity);
  std::vector<SnapshotWarmth> warmth(capacity);
  for (std::uint64_t i = 0; i < capacity; ++i) {
    std::uint32_t num_components = 0;
    CondensedSnapshot& snap = snaps[i];
    const bool ok =
        reader.GetU32(&num_components) && num_components >= 1 &&
        num_components <= num_vertices &&
        reader.GetBounded(num_vertices, num_components, &snap.comp_of) &&
        reader.GetVector(num_components, &snap.comp_size) &&
        reader.GetCsr(num_components, num_components, &snap.dag.offsets,
                      &snap.dag.targets) &&
        reader.GetCsr(num_components, num_components, &snap.rev.offsets,
                      &snap.rev.targets) &&
        reader.GetVector(num_components, &warmth[i].bound) &&
        reader.GetVector(num_components, &warmth[i].is_exact);
    if (!ok) {
      return Status::IoError("arena payload truncated or corrupt in world " +
                             std::to_string(i));
    }
  }
  std::vector<TraversalCounters> per_snapshot;
  SOLDIST_RETURN_IF_ERROR(reader.GetCounterTail(capacity, &per_snapshot));
  return std::make_shared<SnapshotArena>(SnapshotArena::Restore(
      num_vertices, std::move(snaps), std::move(warmth), per_snapshot));
}

}  // namespace store
}  // namespace soldist
