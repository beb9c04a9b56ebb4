// perfbench_selftest — the benchmark's own tests: nearest-rank
// percentiles with at least 10 samples beyond the tail, due-time latency under a scripted generator stall, and the
// rate-ladder bisection.  Exits non-zero on the first failed check;
// perfbench/run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++failures;
  }
}

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  check(perfbench::nearest_rank(xs, 50) == 500, "p50 of 1..1000 is 500");
  check(perfbench::nearest_rank(xs, 99) == 990, "p99 of 1..1000 is 990");
  check(perfbench::nearest_rank(xs, 100) == 1000, "p100 is the maximum");
  const std::vector<double> small{5, 1, 4, 2, 3};
  check(perfbench::nearest_rank(small, 50) == 3, "p50 of 5 samples");
  check(perfbench::nearest_rank(small, 1) == 1, "p1 clamps to the minimum");
  // 10 samples beyond the rank: p99 needs N >= 1000, p90 needs N >= 100.
  check(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(perfbench::samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  check(perfbench::samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  check(perfbench::samples_beyond(99, 90) == 9, "99 samples: 9 beyond p90");
  check(perfbench::samples_beyond(0, 99) == 0, "no samples: none beyond");
  const perfbench::Summary s = perfbench::summarize(xs, 99);
  check(s.n == 1000 && s.p50 == 500 && s.tail == 990 && s.tail_supported,
        "summarize(1..1000, p99)");
  check(!perfbench::summarize(small, 99).tail_supported,
        "summarize flags an unsupported tail");
  std::vector<double> steps(xs.begin(), xs.begin() + 100);
  check(perfbench::summarize(steps, 90).tail_supported &&
            perfbench::summarize(steps, 90).tail == 90,
        "100 steps support p90");
  steps.pop_back();
  check(!perfbench::summarize(steps, 90).tail_supported,
        "99 steps do not support p90");
}

// A scripted generator stall must raise the latency of the requests
// behind it: with latency timed from the due time, requests sent late
// carry the stall; timed from the send time they would not.
void test_due_time_latency_under_stall() {
  const std::size_t n = 40, stall_at = 10;
  const double gap = 0.010, service = 0.001, stall = 0.050;
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) due[i] = gap * static_cast<double>(i + 1);

  double clock = 0.0, server_free = 0.0;
  std::size_t sleeps = 0;
  std::vector<double> done(n), sent(n);
  perfbench::GeneratorHooks hooks;
  hooks.now = [&] { return clock; };
  hooks.sleep_until = [&](double t) {
    clock = std::max(clock, t);
    if (sleeps++ == stall_at) clock += stall;  // the scripted stall
  };
  hooks.submit = [&](std::size_t i, double) {
    sent[i] = clock;
    server_free = std::max(server_free, clock) + service;
    done[i] = server_free;
    return true;
  };
  const perfbench::GeneratorReport rep = perfbench::run_open_loop(due, hooks);
  check(rep.submitted == n && !rep.stopped_early, "generator sends all");
  check(std::abs(rep.late_max_s - stall) < 1e-9,
        "generator lateness equals the stall");

  const std::vector<double> lat = perfbench::due_latencies(due, done);
  check(std::abs(lat[stall_at - 1] - service) < 1e-9,
        "request before the stall sees only its service time");
  check(lat[stall_at] >= stall, "stalled request carries the stall");
  check(lat[stall_at + 1] > lat[stall_at - 1] + 0.030,
        "request queued behind the stall is late too");
  for (std::size_t i = stall_at; i < stall_at + 4; ++i)
    check(done[i] - sent[i] < 0.01,
          "send-time latency would hide the stall (sanity of the script)");
  check(std::abs(lat[n - 1] - service) < 1e-9,
        "the generator catches up after the stall");
}

void test_ladder_bisection() {
  const std::vector<double> ladder = perfbench::geometric_ladder(100, 1.1, 32);
  check(ladder.size() == 32 && ladder[0] == 100 &&
            std::abs(ladder[1] - 110) < 1e-9,
        "ladder rungs are 10% apart");
  // Synthetic pass/fail curve: a rate passes iff it is <= 537 req/s.
  const auto passes_at = [&](double cap) {
    return [&ladder, cap](std::size_t k) { return ladder[k] <= cap; };
  };
  std::size_t expect = 0;
  for (std::size_t k = 0; k < ladder.size(); ++k)
    if (ladder[k] <= 537) expect = k;
  std::size_t probes = 0;
  const std::ptrdiff_t got =
      perfbench::bisect_ladder(ladder.size(), -1, passes_at(537), &probes);
  check(got == static_cast<std::ptrdiff_t>(expect) && ladder[expect] <= 537 &&
            ladder[expect + 1] > 537,
        "bisection picks the highest passing rung");
  check(probes <= 6, "bisection over 32 rungs takes at most 6 probes");
  check(perfbench::bisect_ladder(ladder.size(), 0, passes_at(537)) ==
            static_cast<std::ptrdiff_t>(expect),
        "a known-passing floor does not change the answer");
  check(perfbench::bisect_ladder(ladder.size(), -1, passes_at(50)) == -1,
        "no rung passes");
  check(perfbench::bisect_ladder(ladder.size(), -1, passes_at(1e9)) == 31,
        "every rung passes");
  std::size_t calls = 0;
  (void)perfbench::bisect_ladder(ladder.size(), -1, [&](std::size_t k) {
    ++calls;
    return ladder[k] <= 537;
  });
  check(calls <= 6, "the probe callback runs once per probe");
}

void test_poisson_schedule() {
  double u = 0.0;
  const std::vector<double> due =
      perfbench::poisson_due_times(100, 5000, [&] {
        u = std::fmod(u + 0.6180339887498949, 1.0);
        return u;
      });
  bool increasing = true;
  for (std::size_t i = 1; i < due.size(); ++i)
    increasing = increasing && due[i] > due[i - 1];
  check(increasing, "due times increase");
  check(std::abs(due.back() / 5000.0 - 0.01) < 0.001,
        "mean gap is 1/rate");
}

}  // namespace

int main() {
  test_percentiles();
  test_due_time_latency_under_stall();
  test_ladder_bisection();
  test_poisson_schedule();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
