// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark's own code around each call into an rnx layer (nothing is
// recorded inside the library), kept in memory, and written out once at
// exit.  A disabled tracer records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;  ///< shared by all spans of one request; 0 = none
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its id (-1 when disabled).
  std::int64_t record(std::string name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent = -1,
                      std::uint64_t request = 0);
  /// Open a span now; close it with end().  Returns -1 when disabled.
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Write every span plus the per-name self times as JSON, with
  /// `header_json` (an object) stored under "run".
  void write_json(const std::string& path,
                  const std::string& header_json) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span in `spans` (same order), in nanoseconds.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

}  // namespace perfbench
