// Constants and small helpers shared by the stages and the layer probes.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <span>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr std::size_t kLanes = 4;       ///< datagen and train lanes
inline constexpr std::size_t kServeLanes = 2;  ///< registry pool: 1 worker
inline constexpr std::size_t kBatchSamples = 8;
/// Enough samples for a p99 with at least 10 samples beyond it.
inline constexpr std::size_t kTailSamples = 1010;
/// Enough optimizer steps for a p90 with at least 10 samples beyond it.
inline constexpr std::size_t kMinTrainSteps = 100;
/// The max-rate criterion's latency limit on p99.
inline constexpr double kLatencyLimitMs = 25.0;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// An independent seed per purpose, derived from the run's seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::string_view label,
                                 std::uint64_t index = 0) {
  rnx::util::RngStream r = rnx::util::RngStream(seed).derive(label, index);
  return r();
}

/// The datagen stage's protocol: mixed policies and traffic processes
/// at 60k packets per sample.
inline rnx::data::GeneratorConfig datagen_config() {
  rnx::data::GeneratorConfig cfg;
  cfg.target_packets = 60'000;
  cfg.mixed_scenarios = true;
  return cfg;
}

/// The default ModelConfig (H=16, T=4) with a run-derived init seed.
inline rnx::core::ModelConfig train_model_config(std::uint64_t seed) {
  rnx::core::ModelConfig mc;
  mc.init_seed = derive_seed(seed, "train-model");
  return mc;
}

inline rnx::core::TrainConfig train_config() {
  rnx::core::TrainConfig tc;
  tc.batch_samples = kBatchSamples;
  tc.threads = kLanes;
  tc.verbose = false;
  return tc;
}

inline rnx::serve::SchedulerConfig scheduler_config() {
  rnx::serve::SchedulerConfig sc;
  sc.max_queue_depth = 1024;
  sc.max_batch_samples = 16;
  sc.max_linger = std::chrono::microseconds(100);
  return sc;
}

/// The serving mix: 75% NSFNET, 25% GEANT2 scenarios from a pool of
/// `per_topo` each (NSFNET first), model picked uniformly.
inline std::vector<Request> request_mix(std::size_t n, std::size_t per_topo,
                                        rnx::util::RngStream& rng) {
  std::vector<Request> mix(n);
  for (Request& r : mix) {
    const bool geant = rng.uniform() < 0.25;
    r.scenario = (geant ? per_topo : 0) +
                 static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(per_topo) - 1));
    r.model = rng.uniform() < 0.5 ? 0 : 1;
  }
  return mix;
}

inline bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

inline bool same_weights(const rnx::core::Model& a, const rnx::core::Model& b) {
  const rnx::nn::NamedParams pa = a.named_params(), pb = b.named_params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (pa[i].first != pb[i].first ||
        !bitwise_equal(pa[i].second.value().flat(),
                       pb[i].second.value().flat()))
      return false;
  return true;
}

/// Delete the files in `dir` whose names start with `prefix`; returns
/// their total size in bytes.
inline std::uintmax_t remove_files_with_prefix(const std::string& dir,
                                               std::string_view prefix) {
  std::uintmax_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.path().filename().string().starts_with(prefix)) continue;
    bytes += std::filesystem::file_size(e.path());
    std::filesystem::remove(e.path());
  }
  return bytes;
}

/// FNV-1a over a sequence of per-sample digests: the dataset digest.
inline std::uint64_t fold_digests(std::span<const std::uint64_t> digests) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t d : digests) h = (h ^ d) * 1099511628211ULL;
  return h;
}

}  // namespace perfbench
