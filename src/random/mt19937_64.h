// Mt19937_64: the 64-bit Mersenne Twister (Matsumoto & Nishimura), the
// engine behind every draw of the paper's experiments (Section 4.1).
//
// The output is identical to std::mt19937_64 for every seed: the same
// seeding recurrence, twist and tempering constants. Only the schedule
// differs. A refill regenerates all 312 state words in one pass and
// tempers them into an output buffer, so a draw is one buffered load plus
// a refill check that is false 311 times in 312. RngTest.
// StreamMatchesStdMt19937_64 pins the stream against the standard library.

#ifndef SOLDIST_RANDOM_MT19937_64_H_
#define SOLDIST_RANDOM_MT19937_64_H_

#include <cstddef>
#include <cstdint>

namespace soldist {

/// \brief Block-generated MT19937-64; a UniformRandomBitGenerator with
/// std::mt19937_64's output, min() and max().
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateSize) [[unlikely]] Refill();
    return out_[pos_++];
  }

  class Cursor;

 private:
  // The std::mt19937_64 parameters ([rand.predef]).
  static constexpr std::size_t kShift = 156;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

  static std::uint64_t Twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpperMask) | (lo & ~kUpperMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  static std::uint64_t Temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Twists the next block into state_, tempers it into out_, rewinds.
  /// Inlined into the kernels' Cursor: an out-of-line call on the rare
  /// path would clobber the caller-saved registers, and gcc then spills
  /// the traversal's pointers and reloads them on every edge.
  [[gnu::always_inline]] void GenerateBlock() {
    constexpr std::size_t n = kStateSize;
    std::size_t k = 0;
    for (; k < n - kShift; ++k) {
      state_[k] = Twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < n - 1; ++k) {
      state_[k] = Twist(state_[k], state_[k + 1], state_[k + kShift - n]);
    }
    state_[n - 1] = Twist(state_[n - 1], state_[0], state_[kShift - 1]);
    for (k = 0; k < n; ++k) out_[k] = Temper(state_[k]);
    pos_ = 0;
  }

  /// GenerateBlock, out of line for the ordinary draw.
  void Refill();

  // 64-bit on purpose: a 32-bit int index may alias the uint32_t stamp
  // and queue stores of the sampling loops, forcing a reload per store.
  std::uint64_t pos_;
  std::uint64_t state_[kStateSize];
  std::uint64_t out_[kStateSize];
};

/// \brief Draws from an engine with the read position held in a local,
/// for the hot loops of the IC kernels: the position lives in a register
/// for the whole traversal and is stored back on destruction. Nothing else
/// may draw from the engine while a Cursor on it is alive.
class Mt19937_64::Cursor {
 public:
  explicit Cursor(Mt19937_64* engine) : engine_(engine), pos_(engine->pos_) {}
  ~Cursor() { engine_->pos_ = pos_; }
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  result_type operator()() {
    if (pos_ == kStateSize) [[unlikely]] {
      engine_->GenerateBlock();
      pos_ = 0;
    }
    return engine_->out_[pos_++];
  }

 private:
  Mt19937_64* engine_;
  std::uint64_t pos_;
};

}  // namespace soldist

#endif  // SOLDIST_RANDOM_MT19937_64_H_
