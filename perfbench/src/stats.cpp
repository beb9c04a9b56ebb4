#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

double nearest_rank(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("nearest_rank: empty sample");
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t k = rank_of(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

Summary summarize(std::span<const double> xs, double tail_q) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.p50 = nearest_rank(xs, 50.0);
  s.tail = nearest_rank(xs, tail_q);
  s.tail_supported = samples_beyond(xs.size(), tail_q) >= 10;
  return s;
}

std::vector<double> poisson_due_times(double rate, std::size_t n,
                                      const std::function<double()>& uniform01) {
  std::vector<double> due;
  due.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-uniform01()) / rate;
    due.push_back(t);
  }
  return due;
}

GeneratorReport run_open_loop(std::span<const double> due,
                              const GeneratorHooks& hooks) {
  GeneratorReport rep;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (hooks.now() < due[i]) hooks.sleep_until(due[i]);
    rep.late_max_s = std::max(rep.late_max_s, hooks.now() - due[i]);
    ++rep.submitted;
    if (!hooks.submit(i, due[i])) {
      rep.stopped_early = i + 1 < due.size();
      break;
    }
  }
  return rep;
}

std::vector<double> due_latencies(std::span<const double> due,
                                  std::span<const double> done) {
  if (due.size() != done.size())
    throw std::invalid_argument("due_latencies: size mismatch");
  std::vector<double> lat(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) lat[i] = done[i] - due[i];
  return lat;
}

std::vector<double> geometric_ladder(double start, double ratio,
                                     std::size_t rungs) {
  std::vector<double> out;
  out.reserve(rungs);
  double r = start;
  for (std::size_t i = 0; i < rungs; ++i, r *= ratio) out.push_back(r);
  return out;
}

std::ptrdiff_t bisect_ladder(std::size_t rungs, std::ptrdiff_t known_pass,
                             const std::function<bool(std::size_t)>& passes,
                             std::size_t* probes) {
  // Invariant: every rung <= lo passes (lo = -1: none known), every
  // rung >= hi fails (hi = rungs: none known).
  std::ptrdiff_t lo = known_pass;
  std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(rungs);
  std::size_t n = 0;
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = lo + (hi - lo) / 2;
    ++n;
    if (passes(static_cast<std::size_t>(mid)))
      lo = mid;
    else
      hi = mid;
  }
  if (probes != nullptr) *probes = n;
  return lo;
}

}  // namespace perfbench
