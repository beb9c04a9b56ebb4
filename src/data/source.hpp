// Pull-based sample streams (DESIGN.md §D).
//
// SampleSource is the unit training/eval consume: a resettable,
// fixed-size pass over samples.  The in-memory Dataset adapts trivially
// (DatasetSource, optionally reshuffled every pass — the order
// Trainer::fit trains in); StreamingShardSource pulls a sharded on-disk
// store (data/shards.hpp) through a background prefetch thread and a
// util::BoundedQueue, so the consumer's peak residency is bounded by
// one shard plus the prefetch depth — datasets larger than RAM train
// fine.
//
// Ownership: next() hands out shared_ptr<const Sample>.  The streaming
// source allocates each sample once and forgets it (the consumer's
// reference is the only one); DatasetSource aliases the dataset's
// storage with a non-owning pointer, so no copies happen on the
// in-memory path.  stable_addresses() tells consumers whether those
// pointers outlive the pass AND stay bound to the same content — the
// gate for address-keyed plan caching (core::PlanCache): caching
// transient streaming addresses would serve stale plans once an
// allocator reuses a freed sample's address.
//
// Thread-safety (DESIGN.md §L): this type holds no mutex of its own —
// producer/consumer ordering lives entirely in the annotated
// util::BoundedQueue (whose lock discipline the static-analysis gate
// proves), the residency gauge is atomics, and `error_` is written by
// the producer strictly before queue_->close() and read by the
// consumer strictly after the closed queue drains, so the queue's
// internal mutex orders the handoff (see produce()/next()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "data/shards.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"

namespace rnx::data {

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Samples per pass (known up front for every source — the manifest
  /// records the total).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Begin pass `pass` (the trainer passes its epoch index).  Must be
  /// called before the first next() of every pass, including the first.
  /// The pass's order is a pure function of the source and `pass`: a
  /// source whose order varies by pass recomputes it from the index,
  /// every other source ignores it.  So a resumed run replays any pass
  /// without carrying iteration state.
  virtual void reset(std::size_t pass = 0) = 0;

  /// The next sample of the pass, nullptr once exhausted.  Rethrows a
  /// background I/O error (corrupt shard, missing file) at the point of
  /// consumption.
  [[nodiscard]] virtual std::shared_ptr<const Sample> next() = 0;

  /// True when returned pointers stay valid and content-stable for the
  /// source's whole lifetime (in-memory datasets).  False for streaming
  /// sources whose sample objects die after the consumer drops them —
  /// consumers must not key address-based caches on those.
  [[nodiscard]] virtual bool stable_addresses() const noexcept {
    return false;
  }

  /// True when the sample order differs between passes (a reshuffling
  /// source).  Part of a training run's identity: a checkpoint written
  /// over one kind of order cannot resume over the other.
  [[nodiscard]] virtual bool order_varies_by_pass() const noexcept {
    return false;
  }
};

/// In-memory adapter, zero-copy.  Unshuffled, every pass visits the
/// dataset in index order.  Shuffled, pass k visits the index array
/// after k+1 chained Fisher-Yates shuffles drawn from one
/// util::RngStream(seed): pass k shuffles pass k-1's array.
class DatasetSource final : public SampleSource {
 public:
  /// `ds` must outlive the source.
  explicit DatasetSource(const Dataset& ds) : ds_(&ds) {}
  /// Reshuffle every pass from `shuffle_seed`.
  DatasetSource(const Dataset& ds, std::uint64_t shuffle_seed);

  [[nodiscard]] std::size_t size() const override { return ds_->size(); }
  void reset(std::size_t pass = 0) override;
  [[nodiscard]] std::shared_ptr<const Sample> next() override {
    if (pos_ >= ds_->size()) return nullptr;
    const std::size_t i = order_.empty() ? pos_ : order_[pos_];
    ++pos_;
    // Non-owning alias into the dataset's storage (empty control block).
    return std::shared_ptr<const Sample>(std::shared_ptr<void>(),
                                         &(*ds_)[i]);
  }
  [[nodiscard]] bool stable_addresses() const noexcept override {
    return true;
  }
  [[nodiscard]] bool order_varies_by_pass() const noexcept override {
    return seed_.has_value();
  }

 private:
  const Dataset* ds_;
  std::size_t pos_ = 0;
  // Shuffled sources only: the index array after `shuffles_` links of
  // the chain drawn from `rng_`.  reset() extends the chain to the
  // asked pass, replaying it from the seed for an earlier one.
  std::optional<std::uint64_t> seed_;
  std::vector<std::size_t> order_;
  util::RngStream rng_{0};
  std::size_t shuffles_ = 0;
};

/// Streaming pull over a sharded store: a background producer loads
/// shards in order and feeds samples through a bounded queue of depth
/// `prefetch`.  Peak resident samples <= one shard + prefetch + what
/// the consumer currently holds (instrumented: peak_live_samples()).
class StreamingShardSource final : public SampleSource {
 public:
  explicit StreamingShardSource(std::string manifest_path,
                                std::size_t prefetch = 64);
  ~StreamingShardSource() override;
  StreamingShardSource(const StreamingShardSource&) = delete;
  StreamingShardSource& operator=(const StreamingShardSource&) = delete;

  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(reader_.total_samples());
  }
  /// Every pass streams the store in shard order; `pass` is ignored.
  void reset(std::size_t pass = 0) override;
  [[nodiscard]] std::shared_ptr<const Sample> next() override;

  [[nodiscard]] const ShardedReader& reader() const noexcept {
    return reader_;
  }
  /// High-water mark of simultaneously resident samples produced by
  /// this source (loaded-but-unconsumed + consumer-held).  The
  /// residency-bound test pins this against shard size + prefetch.
  [[nodiscard]] std::size_t peak_live_samples() const noexcept;

 private:
  // Survives the source so late-dropped samples can still decrement.
  struct Gauge {
    std::atomic<std::int64_t> live{0};
    std::atomic<std::int64_t> peak{0};
    void add(std::int64_t n) {
      const std::int64_t now = live.fetch_add(n) + n;
      std::int64_t prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
    }
  };

  void start();
  void stop();
  void produce();

  ShardedReader reader_;
  std::size_t prefetch_;
  std::shared_ptr<Gauge> gauge_ = std::make_shared<Gauge>();
  std::unique_ptr<util::BoundedQueue<std::shared_ptr<const Sample>>> queue_;
  std::thread producer_;
  std::exception_ptr error_;  ///< producer -> consumer, ordered by close()
};

}  // namespace rnx::data
