// Rng: the PRNG facade used throughout the library.
//
// The paper (Section 4.1) draws all randomness from the Mersenne Twister
// and initializes a fresh state per algorithm run; Rng reproduces that:
// one Rng per trial, seeded via DeriveSeed(master, trial). RIS uses two
// logical streams (vertex choice, edge coins), realized as two Rng
// instances with distinct derived seeds.
//
// The engine is the in-tree block-generated Mt19937_64
// (random/mt19937_64.h), whose output equals std::mt19937_64's for every
// seed; RngTest.StreamMatchesStdMt19937_64 pins NextBits, UnitReal,
// UniformInt and std::shuffle through engine() against the standard
// library. The IC kernels flip their coins as integer compares against
// CoinThreshold, which decides exactly as Bernoulli does.
//
// Parallel sampling keeps the same discipline one level down: the
// SamplingEngine (sim/sampling_engine.h) gives chunk c of a build its own
// stream family rooted at DeriveSeed(master, c), so results never depend
// on the thread schedule.

#ifndef SOLDIST_RANDOM_RNG_H_
#define SOLDIST_RANDOM_RNG_H_

#include <cmath>
#include <cstdint>

#include "random/mt19937_64.h"
#include "util/logging.h"

namespace soldist {

/// \brief Mersenne-Twister-backed random source with the operations the
/// samplers need: unit reals, bounded ints, Bernoulli coins.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Next 64 random bits.
  std::uint64_t NextBits() { return engine_(); }

  /// Uniform real in [0, 1) with 53-bit resolution.
  double UnitReal() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be positive.
  /// Lemire's multiply-with-rejection: unbiased and division-free on the
  /// hot path.
  std::uint64_t UniformInt(std::uint64_t bound) {
    SOLDIST_DCHECK(bound > 0);
    unsigned __int128 m =
        static_cast<unsigned __int128>(engine_()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      std::uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(engine_()) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Coin flip: true with probability p. Matches the paper's convention
  /// "generate random x in [0,1] ... alive if x < p(e)".
  bool Bernoulli(double p) { return UnitReal() < p; }

  /// Underlying engine, for std::shuffle and std:: distributions, and
  /// for the kernels' Mt19937_64::Cursor.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Integer coin threshold t(p) = ceil(p·2^53) for p in [0, 1]:
/// (bits >> 11) < t(p) holds exactly when Bernoulli(p) on the same bits
/// does. UnitReal is k·2^-53 with k = bits >> 11, and both k·2^-53 and
/// p·2^53 are exact, so k·2^-53 < p iff k < p·2^53 iff k < ceil(p·2^53).
inline std::uint64_t CoinThreshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

}  // namespace soldist

#endif  // SOLDIST_RANDOM_RNG_H_
