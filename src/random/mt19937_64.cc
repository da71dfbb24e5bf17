#include "random/mt19937_64.h"

namespace soldist {

Mt19937_64::Mt19937_64(std::uint64_t seed) : pos_(kStateSize) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() { GenerateBlock(); }

}  // namespace soldist
