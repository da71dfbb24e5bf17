// Tests for RR-set compression (paper Section 7's space-reduction
// direction): the store's LEB128 codec and the compressed arena backend
// built on it. Answer identity across backends is arena_store_test's
// ArenaStorageTest.BackendsAnswerIdentically.

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "sim/rr_arena.h"
#include "store/arena_storage.h"

namespace soldist {
namespace {

TEST(VarintTest, RoundTripValues) {
  std::vector<std::uint8_t> buffer;
  std::vector<std::uint64_t> values{0,    1,        127,        128,
                                    255,  16383,    16384,      1u << 20,
                                    ~0u,  1ULL << 40, ~0ULL};
  for (std::uint64_t v : values) store::PutVarint(v, &buffer);
  std::size_t pos = 0;
  for (std::uint64_t v : values) {
    EXPECT_EQ(store::GetVarint(buffer.data(), &pos), v);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buffer;
  store::PutVarint(127, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  store::PutVarint(128, &buffer);
  EXPECT_EQ(buffer.size(), 3u);  // 127 -> 1 byte, 128 -> 2 bytes
}

TEST(ArenaStorageTest, CompressedBackendCompresses) {
  // Karate ids fit one byte and sorted sets gap-code to ~1 byte/entry
  // against flat's 4 B set entry + 4 B index entry; the per-set length
  // byte and offsets keep the ratio well below 8. Same bound as the CI
  // bench_arena_store --check-ratio gate.
  InfluenceGraph ig = MakeInfluenceGraph(
      GraphBuilder::FromEdgeList(Datasets::Karate()),
      ProbabilityModel::kUc01);
  RrArena flat = RrArena::SampleIc(ig, /*seed=*/4, 1024, SamplingOptions{});
  RrArena compressed = flat;
  store::StorageOptions options;
  options.backend = store::ArenaBackend::kCompressed;
  ASSERT_TRUE(compressed.ConvertStorage(options).ok());
  const double ratio =
      static_cast<double>(flat.storage().MemoryBytes()) /
      static_cast<double>(compressed.storage().MemoryBytes());
  EXPECT_GE(ratio, 1.5) << "flat " << flat.storage().MemoryBytes()
                        << " B, compressed "
                        << compressed.storage().MemoryBytes() << " B";
}

}  // namespace
}  // namespace soldist
