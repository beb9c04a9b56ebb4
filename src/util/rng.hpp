// Deterministic, splittable random number streams.
//
// Every stochastic component of the library (topology draws, traffic
// matrices, flow arrival processes, weight initialization, shuffling) hangs
// off a named RngStream derived from a root seed.  Derivation is pure
// (splitmix64 over the parent state and a label hash), so results are
// reproducible regardless of evaluation order: two flows with different ids
// always see independent streams, and re-running with the same seed yields
// bit-identical datasets and models.
#pragma once

#include <cstdint>
#include <string_view>

namespace rnx::util {

/// xoshiro256** PRNG with splitmix64 seeding.  Satisfies
/// std::uniform_random_bit_generator, so it can drive <random>
/// distributions, but the common draws are provided as members for
/// cross-platform determinism (libstdc++ distribution algorithms are
/// implementation-defined; ours are not).
class RngStream {
 public:
  using result_type = std::uint64_t;

  /// Root stream from a numeric seed.
  explicit RngStream(std::uint64_t seed) noexcept;

  /// Derive an independent child stream, e.g. per flow / per sample.
  /// Children with different (label, index) pairs are statistically
  /// independent of each other and of the parent.
  [[nodiscard]] RngStream derive(std::string_view label,
                                 std::uint64_t index = 0) const noexcept;

  /// Raw 64 random bits (advances the stream).
  result_type operator()() noexcept { return next(); }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// Exponentially distributed draw with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;
  /// Standard normal via Box-Muller (no cached spare; deterministic).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;
  /// Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Pareto draw with shape alpha (>0) and scale xm (>0): xm / U^{1/alpha}.
  [[nodiscard]] double pareto(double alpha, double xm) noexcept;

 private:
  RngStream() = default;
  std::uint64_t next() noexcept;
  std::uint64_t s_[4]{};
};

/// splitmix64 step: the canonical 64-bit mixer used for seeding/derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a hash of a label, used to separate derived streams by name.
[[nodiscard]] std::uint64_t hash_label(std::string_view label) noexcept;

}  // namespace rnx::util
