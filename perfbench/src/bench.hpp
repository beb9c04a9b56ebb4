// Shared types of the benchmark program: options, the operation tally,
// the set-up fixture and the stage/probe entry points (stages.cpp,
// probes.cpp).  Every call into rnx goes through the library's public
// headers; spans are recorded here, around those calls.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/normalize.hpp"
#include "data/sample.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// The two input mixes.  Both run every stage; they differ in how much
/// work inputs share.  `replay` re-sends the same scenario objects, so
/// the address-keyed plan cache hits; `fresh` marks every scenario as
/// changed before it is sent (and trains one epoch per fit), so every
/// request and every training sample pays its plan build.
enum class Workload { kReplay, kFresh };

struct Options {
  Workload workload = Workload::kReplay;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string out_dir;  ///< scratch files and the trace (inside the checkout)
};

/// Operations attempted and failed over the whole run.  Every
/// correctness mismatch, shed or failed request counts as one failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first failure descriptions

  void op(bool ok, const char* what);
  /// Count n failures of operations already counted in `attempted`.
  void fail(std::uint64_t n, const char* what);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// Model slots in the registry and the reference table: kExt, then orig.
inline constexpr std::size_t kExt = 0;
inline constexpr std::array<const char*, 2> kModelNames{"ext", "orig"};

/// Everything set-up builds.  `pool` holds the serving scenarios
/// (kPoolPerTopo NSFNET, then kPoolPerTopo GEANT2); its addresses stay
/// fixed for the fixture's lifetime because the plan cache keys on them.
struct Fixture {
  rnx::data::Dataset train;  ///< GEANT2 training set
  rnx::data::Scaler scaler;
  std::vector<rnx::data::Sample> pool;
  std::unique_ptr<rnx::serve::ModelRegistry> registry;
  /// reference[model][j]: serial InferenceEngine::predict on pool[j].
  std::array<std::vector<std::vector<double>>, 2> reference;
  double bundle_load_ms = 0.0;  ///< both bundles, load + registration
};

inline constexpr std::size_t kPoolPerTopo = 16;

/// One serving request: a pool scenario and a model slot.
struct Request {
  std::size_t scenario = 0;
  std::size_t model = 0;
};

/// Build the fixture: datasets, bundles written to and loaded from disk,
/// serial reference predictions (which also warm every code path).
[[nodiscard]] std::unique_ptr<Fixture> build_fixture(const Options& opt);

/// The end-to-end figures of one pass over the stages, plus what the
/// traced run derives per-layer metrics from.
struct StageResults {
  double datagen_samples_per_s = 0.0;
  double train_samples_per_s = 0.0;
  double train_step_ms_p50 = 0.0, train_step_ms_p90 = 0.0;
  double query_ms_p50 = 0.0, query_ms_p99 = 0.0;
  double lo_p50_ms = 0.0, lo_p99_ms = 0.0;
  double hi_p50_ms = 0.0, hi_p99_ms = 0.0;
  double max_rps = 0.0;  ///< traced runs only
  /// Sample counts behind the figures above.
  std::size_t datagen_samples = 0, train_steps = 0, queries = 0,
              lo_requests_done = 0, hi_requests_done = 0, ladder_probes = 0;

  rnx::serve::ServeStats lo_stats, hi_stats;
  double gen_late_ms_max = 0.0;
  std::uint64_t serve_requests = 0, serve_shed = 0, serve_failed = 0;
  double plan_cache_hit_ratio = 0.0;
  std::vector<Request> lo_requests;  ///< the first round's lo requests
};

/// Run datagen, train and serve for about `seconds` in total.
[[nodiscard]] StageResults run_stages(const Options& opt, Fixture& fx,
                                      Tracer& tracer, Tally& tally,
                                      double seconds);

/// The end-to-end metrics in BENCHMARK.json order (setup_s excluded).
/// The query tail, the hi-rate phase, the serving tails and max rate are
/// per-layer metrics (probes.cpp).
[[nodiscard]] MetricList end_to_end_metrics(const StageResults& r);

/// Layer probes of the traced run: direct, serial calls into sim, data,
/// core, nn and serve on fixed inputs, plus the exact work counters
/// (each computed twice; a mismatch is a failed operation).
[[nodiscard]] MetricList layer_probes(const Options& opt, Fixture& fx,
                                      Tracer& tracer, Tally& tally,
                                      const StageResults& traced,
                                      const StageResults& untraced);

}  // namespace perfbench
