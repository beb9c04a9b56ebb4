#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t Tracer::record(std::string name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return -1;
  Span s{std::move(name), ns(start), ns(end), parent, request};
  const std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::begin(std::string name, std::int64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  return record(std::move(name), now, now, parent, request);
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t t = ns(Clock::now());
  const std::lock_guard lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void Tracer::write_json(const std::string& path,
                        const std::string& header_json) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& [count, secs] = by_name[all[i].name];
    ++count;
    secs += static_cast<double>(self[i]) * 1e-9;
  }
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"run\": " << header_json << ",\n\"self_time_s\": {";
  bool first = true;
  for (const auto& [name, cs] : by_name) {
    f << (first ? "" : ", ") << '"' << name << "\": {\"spans\": " << cs.first
      << ", \"self_s\": " << cs.second << '}';
    first = false;
  }
  f << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << "[\"" << s.name << "\", " << s.start_ns << ", " << s.end_ns << ", "
      << s.parent << ", " << s.request << ']'
      << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
