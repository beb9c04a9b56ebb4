#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace rnx::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

RngStream::RngStream(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

RngStream RngStream::derive(std::string_view label,
                            std::uint64_t index) const noexcept {
  // Mix the parent state (without advancing it) with the label hash and
  // index through splitmix64 to obtain an independent child.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ s_[3];
  sm ^= hash_label(label);
  sm += 0x632be59bd9b4e019ULL * (index + 1);
  RngStream child;
  for (auto& s : child.s_) s = splitmix64(sm);
  return child;
}

std::uint64_t RngStream::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double RngStream::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double RngStream::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Lemire-style rejection-free-enough bounded draw (bias < 2^-64 * span).
  return lo + static_cast<std::int64_t>(next() % span);
}

double RngStream::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();  // avoid log(0)
  return -mean * std::log(u);
}

double RngStream::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

bool RngStream::bernoulli(double p) noexcept { return uniform() < p; }

double RngStream::pareto(double alpha, double xm) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

}  // namespace rnx::util
