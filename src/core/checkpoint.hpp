// Crash-safe training checkpoints: the .rnxc format (DESIGN.md §R).
//
// One file captures EVERYTHING the training loop's trajectory depends
// on: model parameters, Adam moments + step count, the fitted Scaler
// moments, the {epoch, samples_done} cursor, the in-epoch loss
// accumulators and the early-stopping state.  A pass's sample order is
// a pure function of the source and the epoch index
// (data::SampleSource::reset), so the cursor alone places the resumed
// run in the sample stream.  Restoring it and re-running therefore
// produces weights BITWISE-IDENTICAL to the uninterrupted run — pinned
// by the kill-at-every-batch-boundary sweep in tests/checkpoint_test.cpp.
//
// Framing matches every other rnx on-disk format: magic "RNXC", u32
// version, u64 body size, u64 FNV-1a-64 body checksum, body.  Writes go
// through data::io::atomic_write_stream, so a crash mid-checkpoint
// leaves the previous checkpoint intact — at any instant the checkpoint
// directory holds one valid .rnxc (or none, before the first boundary).
//
// Versioning rule (same as .rnxd/.rnxb): any layout change bumps
// kCheckpointVersion; readers reject versions outside
// [kMinCheckpointVersion, kCheckpointVersion] with a typed error.  A
// checkpoint additionally embeds a config digest (model + train config +
// dataset size + whether the order varies by pass); resuming under ANY
// changed hyperparameter is refused with a descriptive CheckpointError
// instead of silently diverging.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/normalize.hpp"
#include "nn/tensor.hpp"

namespace rnx::core {

inline constexpr char kCheckpointMagic[4] = {'R', 'N', 'X', 'C'};
// v2 is the {epoch, samples_done} cursor layout; a v1 cursor cannot
// place a resumed run, so v1 files are refused.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kMinCheckpointVersion = 2;

/// Anything wrong with a checkpoint file or a resume attempt: missing /
/// corrupt / truncated file, version or checksum mismatch, config or
/// scaler drift between the checkpointed run and the resuming one.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

struct TrainCheckpoint {
  std::uint64_t config_digest = 0;

  // -- trajectory cursor -----------------------------------------------
  std::uint64_t epoch = 0;         ///< epoch in progress (0-based)
  std::uint64_t samples_done = 0;  ///< samples of that epoch's pass trained
  double lr = 0.0;                 ///< optimizer lr currently in effect

  // -- in-epoch accumulators + early stopping --------------------------
  double loss_sum = 0.0;
  std::uint64_t loss_count = 0;
  double best_val = 0.0;
  std::uint64_t since_best = 0;

  // -- optimizer + model + scaler --------------------------------------
  std::uint64_t adam_t = 0;
  /// traffic, capacity, queue, log_delay, log_jitter — Scaler order.
  std::array<data::Moments, 5> scaler_moments{};
  struct ParamState {
    std::string name;
    nn::Tensor value;  ///< weights
    nn::Tensor m;      ///< Adam first moment
    nn::Tensor v;      ///< Adam second moment
  };
  std::vector<ParamState> params;  ///< Model::named_params() order
};

/// The single checkpoint file a directory holds.
[[nodiscard]] std::string checkpoint_file(const std::string& dir);

/// Atomically write `c` to `path` (previous checkpoint survives a crash
/// mid-write).  Throws std::runtime_error on I/O failure.
void save_checkpoint(const std::string& path, const TrainCheckpoint& c);

/// Load + verify a checkpoint.  Throws CheckpointError on a missing
/// file, bad magic/version, truncation, checksum mismatch or implausible
/// field values — never crashes, never allocates unbounded memory.
[[nodiscard]] TrainCheckpoint load_checkpoint(const std::string& path);

}  // namespace rnx::core
