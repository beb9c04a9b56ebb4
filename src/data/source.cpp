#include "data/source.hpp"

#include <numeric>
#include <utility>

#include "util/fault.hpp"

namespace rnx::data {

DatasetSource::DatasetSource(const Dataset& ds, std::uint64_t shuffle_seed)
    : ds_(&ds), seed_(shuffle_seed), order_(ds.size()), rng_(shuffle_seed) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
}

void DatasetSource::reset(std::size_t pass) {
  pos_ = 0;
  if (!seed_) return;
  if (shuffles_ > pass + 1) {  // an earlier pass: replay from the seed
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    rng_ = util::RngStream(*seed_);
    shuffles_ = 0;
  }
  for (; shuffles_ <= pass; ++shuffles_)
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1],
                order_[static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
}

StreamingShardSource::StreamingShardSource(std::string manifest_path,
                                           std::size_t prefetch)
    : reader_(std::move(manifest_path)),
      prefetch_(prefetch == 0 ? 1 : prefetch) {}

StreamingShardSource::~StreamingShardSource() { stop(); }

std::size_t StreamingShardSource::peak_live_samples() const noexcept {
  const std::int64_t p = gauge_->peak.load();
  return p > 0 ? static_cast<std::size_t>(p) : 0;
}

void StreamingShardSource::stop() {
  if (queue_) queue_->close();  // producer's abandon signal
  if (producer_.joinable()) producer_.join();
  queue_.reset();
}

void StreamingShardSource::start() {
  queue_ = std::make_unique<
      util::BoundedQueue<std::shared_ptr<const Sample>>>(prefetch_);
  error_ = nullptr;
  producer_ = std::thread([this] { produce(); });
}

void StreamingShardSource::reset(std::size_t /*pass*/) {
  stop();
  start();
}

void StreamingShardSource::produce() {
  try {
    for (std::size_t i = 0; i < reader_.num_shards(); ++i) {
      // Injected producer crash (source.producer): throws on THIS
      // thread; the catch below parks it for the consumer — the same
      // ordering a real mid-stream shard failure takes.
      util::FaultInjector::instance().maybe_throw("source.producer");
      Dataset shard = reader_.load_shard(i);
      std::vector<Sample> samples = shard.release_samples();
      // The whole shard is resident from load until each sample's last
      // holder (queue or consumer) drops it; wrapping just transfers
      // ownership, so only the deleter decrements.
      const auto n = static_cast<std::int64_t>(samples.size());
      gauge_->add(n);
      std::int64_t handed = 0;
      bool abandoned = false;
      for (auto& s : samples) {
        auto gauge = gauge_;
        std::shared_ptr<const Sample> sp(
            new Sample(std::move(s)), [gauge](const Sample* p) {
              delete p;
              gauge->add(-1);
            });
        ++handed;
        if (!queue_->push(std::move(sp))) {  // consumer gone
          abandoned = true;
          break;
        }
      }
      // Samples never wrapped die with this vector — uncount them.
      if (handed < n) gauge_->add(-(n - handed));
      if (abandoned) return;
    }
  } catch (...) {
    // Park the error; close() below orders it before the consumer's
    // end-of-stream observation (both synchronize on the queue mutex).
    error_ = std::current_exception();
  }
  queue_->close();
}

std::shared_ptr<const Sample> StreamingShardSource::next() {
  if (!queue_)
    throw std::logic_error(
        "StreamingShardSource::next: reset() was never called");
  if (auto sp = queue_->pop()) return std::move(*sp);
  if (producer_.joinable()) producer_.join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  return nullptr;
}

}  // namespace rnx::data
