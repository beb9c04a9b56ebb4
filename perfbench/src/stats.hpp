// Statistics and load-generation primitives of the benchmark, kept free
// of rnx types so perfbench_selftest can pin them on synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(q/100 * N)-th smallest sample
/// (1-based, clamped to [1, N]); always an observed value.  q in (0, 100].
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double nearest_rank(std::span<const double> xs, double q);

/// Samples strictly above the nearest-rank q-th percentile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Median plus one tail percentile of a timing sample, with its count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;            ///< the requested tail percentile
  bool tail_supported = false;  ///< >= 10 samples beyond the tail's rank
};
[[nodiscard]] Summary summarize(std::span<const double> xs, double tail_q);

// -- open-loop load generation -------------------------------------------

/// Due times (seconds from phase start) of n Poisson arrivals at `rate`
/// per second, drawn from `uniform01` (one draw per arrival).
[[nodiscard]] std::vector<double> poisson_due_times(
    double rate, std::size_t n, const std::function<double()>& uniform01);

/// The generator's view of time and of the system under test.  `now`
/// and `sleep_until` are in seconds from phase start; `submit` sends
/// request i (due at `due`) and returns false to stop the phase early.
struct GeneratorHooks {
  std::function<double()> now;
  std::function<void(double)> sleep_until;
  std::function<bool(std::size_t i, double due)> submit;
};

struct GeneratorReport {
  std::size_t submitted = 0;
  double late_max_s = 0.0;  ///< worst submit time minus due time
  bool stopped_early = false;
};

/// Open-loop generator: sleeps until each request's due time and sends
/// it, never waiting for replies.  When it falls behind (a stall), it
/// sends the overdue requests back to back; their latency still counts
/// from the due time (see due_latencies), so a stall shows up in the
/// latency of every request queued behind it.
GeneratorReport run_open_loop(std::span<const double> due,
                              const GeneratorHooks& hooks);

/// Per-request latency measured from the due time: done[i] - due[i].
[[nodiscard]] std::vector<double> due_latencies(std::span<const double> due,
                                                std::span<const double> done);

// -- rate ladder ----------------------------------------------------------

/// rungs rates start, start*ratio, start*ratio^2, ...
[[nodiscard]] std::vector<double> geometric_ladder(double start, double ratio,
                                                   std::size_t rungs);

/// Highest rung index whose probe passes, by bisection, assuming a
/// passing rung implies every lower rung passes.  `known_pass` is a rung
/// already known to pass (-1 for none).  Returns -1 when no rung passes.
/// `probes` (optional) receives the number of probes run.
[[nodiscard]] std::ptrdiff_t bisect_ladder(
    std::size_t rungs, std::ptrdiff_t known_pass,
    const std::function<bool(std::size_t)>& passes,
    std::size_t* probes = nullptr);

}  // namespace perfbench
