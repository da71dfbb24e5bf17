// Memory ablation (paper Section 7's space-reduction direction): the
// Snapshot estimator's residual vs condensed storage, and one sampled
// RrArena held through each store/ backend — flat vs delta+varint
// compressed vs mmap-spill resident bytes.

#include "bench_common.h"
#include "core/snapshot.h"
#include "sim/rr_arena.h"
#include "store/arena_storage.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("ablation_memory",
                 "Memory ablation: residual vs condensed Snapshot storage "
                 "and flat vs compressed RR arenas (paper Section 7 "
                 "future-work direction).");
  AddExperimentFlags(&args);
  args.AddInt64("snapshot-tau", 512,
                "snapshots per estimator in the Snapshot-storage section");
  args.AddInt64("arena-theta", 2048,
                "RR sets per arena in the storage-backend section (kept "
                "small: uc0.1 percolates the denser networks)");
  args.AddString("networks", "Karate,Physicians,ca-GrQc,Wiki-Vote,BA_d",
                 "networks to run");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "ablation_memory");
  PrintBanner("Memory ablation", options);

  ExperimentContext context(options);

  // Snapshot estimator storage: full live-edge CSRs + O(n·τ) removal
  // bitmap (residual) vs SCC DAGs with component-granular state
  // (condensed). Scratch is sized per mode, so the condensed column is
  // the real resident footprint of a greedy run.
  auto snapshot_tau =
      static_cast<std::uint64_t>(args.GetInt64("snapshot-tau"));
  TextTable snap_table({"network", "setting", "τ", "residual bytes",
                        "condensed bytes", "ratio"});
  // uc0.1 percolates the denser networks (BA_d): large live components
  // are the regime where dropping the CSRs beats paying the component
  // maps — the ratio column is the honest, regime-dependent answer.
  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      const InfluenceGraph& ig = context.Instance(network, model);
      std::uint64_t bytes[2] = {0, 0};
      const SnapshotEstimator::Mode modes[2] = {
          SnapshotEstimator::Mode::kResidual,
          SnapshotEstimator::Mode::kCondensed};
      for (int i = 0; i < 2; ++i) {
        SnapshotEstimator estimator(&ig, snapshot_tau, options.seed,
                                    modes[i]);
        estimator.Build();
        bytes[i] = estimator.MemoryBytes();
      }
      snap_table.AddRow(
          {network, ProbabilityModelName(model),
           FormatPowerOfTwo(snapshot_tau), WithThousands(bytes[0]),
           WithThousands(bytes[1]),
           FormatDouble(static_cast<double>(bytes[1]) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, bytes[0])),
                        3)});
    }
  }
  PrintTable("Snapshot estimator storage: residual (live-edge CSRs + n·τ "
             "removal bitmap) vs condensed (SCC DAGs, component-granular "
             "state)",
             snap_table);

  // Arena storage backends (store/): ONE sampled RrArena held through
  // each backend. The flat column is today's zero-copy layout; the
  // compressed column holds sets and index delta+varint coded behind the
  // same query API; the mmap column reports RESIDENT bytes (offsets +
  // hot chunks), the number the serve-layer cache budget actually
  // charges. Every backend answers byte-identically, so the columns are
  // a pure memory trade.
  auto arena_theta =
      static_cast<std::uint64_t>(args.GetInt64("arena-theta"));
  TextTable backend_table({"network", "setting", "θ", "flat bytes",
                           "compressed bytes", "ratio", "mmap resident"});
  CsvWriter csv({"network", "setting", "theta", "flat_bytes",
                 "compressed_bytes", "mmap_resident_bytes"});
  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      ModelInstance instance = context.Model(network, model);
      RrArena flat = RrArena::SampleFor(instance, options.seed, arena_theta,
                                        context.sampling());
      const std::uint64_t flat_bytes = flat.storage().MemoryBytes();
      RrArena compressed = flat;
      store::StorageOptions compress_options;
      compress_options.backend = store::ArenaBackend::kCompressed;
      SOLDIST_CHECK(compressed.ConvertStorage(compress_options).ok());
      RrArena mapped = flat;
      store::StorageOptions mmap_options;
      mmap_options.backend = store::ArenaBackend::kMmap;
      mmap_options.spill_dir = "/tmp/soldist-ablation-arena";
      SOLDIST_CHECK(mapped.ConvertStorage(mmap_options).ok());
      const std::uint64_t compressed_bytes =
          compressed.storage().MemoryBytes();
      backend_table.AddRow(
          {network, ProbabilityModelName(model),
           FormatPowerOfTwo(arena_theta),
           WithThousands(flat_bytes), WithThousands(compressed_bytes),
           FormatDouble(static_cast<double>(flat_bytes) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, compressed_bytes)),
                        3),
           WithThousands(mapped.ResidentBytes())});
      csv.Row()
          .Str(network)
          .Str(ProbabilityModelName(model))
          .UInt(arena_theta)
          .UInt(flat_bytes)
          .UInt(compressed_bytes)
          .UInt(mapped.ResidentBytes())
          .Done();
    }
  }
  PrintTable("Arena storage backends (store/): flat vs delta+varint "
             "compressed vs mmap-spill resident footprint, byte-identical "
             "answers",
             backend_table);
  MaybeWriteCsv(csv, options.out_csv);
  ReportPeakRss();
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
