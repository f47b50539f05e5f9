// Deterministic random-number streams.
//
// Every stochastic component (mobility, MAC backoff, traffic, sensor noise,
// fault injection) draws from its own stream derived from the world seed, so
// a run is reproducible bit-for-bit and adding randomness to one component
// does not perturb the others.
//
// The stream is std::mt19937_64's, in a compact form. A 4,000-node world
// holds about 12,000 streams, and a 2.5 KB engine apiece was 30 MB to seed
// and to keep in cache. Draw k < 156 of the standard engine seeded with s is
// the tempered twist of seeding words x[k], x[k+1] and x[k+156], where
// x[0] = s and x[i] = 6364136223846793005 * (x[i-1] ^ (x[i-1] >> 62)) + i:
// two cursors over that recurrence make those draws. The 157th draw builds
// the standard engine, skips it past the draws already made and delegates
// to it from then on. The standard distributions read only operator(),
// min() and max(), so every helper below returns what it returned on
// std::mt19937_64 (tests/sim/rng_test.cpp checks both).
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "sim/vec2.hpp"

namespace icc::sim {

/// std::mt19937_64's output stream in 40 bytes for its first 156 draws.
/// Copies are deep; a moved-from stream rebuilds its engine on its next
/// draw and continues where it was.
class Mt64Stream {
 public:
  using result_type = std::uint64_t;

  explicit Mt64Stream(std::uint64_t seed) noexcept : seed_{seed}, lo_{seed}, hi_{seed} {
    for (std::uint64_t i = 1; i <= kCompactDraws; ++i) hi_ = seed_step(hi_, i);
  }
  Mt64Stream(const Mt64Stream& other)
      : seed_{other.seed_},
        lo_{other.lo_},
        hi_{other.hi_},
        drawn_{other.drawn_},
        full_{other.full_ ? std::make_unique<std::mt19937_64>(*other.full_) : nullptr} {}
  Mt64Stream& operator=(const Mt64Stream& other) { return *this = Mt64Stream{other}; }
  Mt64Stream(Mt64Stream&&) noexcept = default;
  Mt64Stream& operator=(Mt64Stream&&) noexcept = default;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() {
    if (drawn_ < kCompactDraws) return compact_draw();
    if (!full_) {
      full_ = std::make_unique<std::mt19937_64>(seed_);
      full_->discard(drawn_);
    }
    ++drawn_;
    return (*full_)();
  }

 private:
  static constexpr std::uint64_t kCompactDraws = 156;  // mt19937_64's shift size m
  static constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

  /// Seeding word x[i] from x[i-1].
  [[nodiscard]] static std::uint64_t seed_step(std::uint64_t prev, std::uint64_t i) noexcept {
    return kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }

  result_type compact_draw() noexcept {
    const std::uint64_t k = drawn_++;
    const std::uint64_t next = seed_step(lo_, k + 1);  // x[k+1]
    const std::uint64_t y = (lo_ & kUpperMask) | (next & ~kUpperMask);
    std::uint64_t z = hi_ ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
    lo_ = next;
    hi_ = seed_step(hi_, k + kCompactDraws + 1);  // x[k+157]
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  std::uint64_t seed_;
  std::uint64_t lo_;  ///< x[drawn_]
  std::uint64_t hi_;  ///< x[drawn_ + 156]
  std::uint64_t drawn_{0};
  std::unique_ptr<std::mt19937_64> full_;  ///< the standard engine, past draw 156
};

/// A seeded pseudo-random stream with the distribution helpers the
/// simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint32_t uniform_int(std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>{lo, hi}(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return std::bernoulli_distribution{p}(engine_); }

  /// Uniform point inside the rectangle [0,w] x [0,h].
  Vec2 point_in(double w, double h) { return {uniform(0.0, w), uniform(0.0, h)}; }

  /// Derive an independent child stream. Mixing constant from SplitMix64.
  Rng fork(std::uint64_t salt) {
    std::uint64_t z = engine_() + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng{z ^ (z >> 31)};
  }

 private:
  Mt64Stream engine_;
};

}  // namespace icc::sim
