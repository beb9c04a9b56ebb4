// Crash-safe checkpoint/resume (DESIGN.md §R).  The central pin is the
// kill-at-every-batch-boundary sweep: for EVERY optimizer step k, a run
// interrupted after step k and resumed from its checkpoint must finish
// with weights BITWISE-IDENTICAL to the uninterrupted reference — for
// fit and fit_stream, and regardless of the resuming run's thread
// count.  Around it: .rnxc round-trip fidelity, corruption rejection,
// and the refusal paths (config drift, scaler drift, fit/fit_stream
// cross-resume).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/routenet_ext.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "data/shards.hpp"
#include "data/source.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;
namespace fs = std::filesystem;
using core::TrainCheckpoint;

class CheckpointTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSamples = 6;
  static constexpr std::size_t kBatch = 2;
  static constexpr std::size_t kEpochs = 3;
  // 6 samples / batch 2 => 3 optimizer steps per epoch, 9 total.
  static constexpr std::size_t kTotalSteps = kEpochs * (kSamples / kBatch);

  CheckpointTest() {
    util::set_log_level(util::LogLevel::kWarn);
    dir_ = fs::temp_directory_path() /
           ("rnx_checkpoint." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    data::GeneratorConfig cfg;
    cfg.target_packets = 5'000;
    ds_ = std::make_unique<data::Dataset>(
        data::generate_dataset(topo::ring(4), kSamples, cfg, 97));
    scaler_ =
        std::make_unique<data::Scaler>(data::Scaler::fit(ds_->samples(), 10));
  }
  ~CheckpointTest() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string ckpt_dir() const { return dir_.string(); }
  [[nodiscard]] std::string ckpt_path() const {
    return core::checkpoint_file(ckpt_dir());
  }

  [[nodiscard]] static std::unique_ptr<core::Model> fresh_model() {
    core::ModelConfig mc;
    mc.state_dim = 8;
    mc.readout_hidden = 12;
    mc.iterations = 2;
    mc.init_seed = 5;
    return std::make_unique<core::ExtendedRouteNet>(mc);
  }

  [[nodiscard]] static core::TrainConfig base_config(std::size_t threads = 1) {
    core::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.batch_samples = kBatch;
    tc.threads = threads;
    tc.verbose = false;
    return tc;
  }

  static void expect_identical_weights(const core::Model& a,
                                       const core::Model& b,
                                       const std::string& ctx) {
    const auto pa = a.named_params();
    const auto pb = b.named_params();
    ASSERT_EQ(pa.size(), pb.size()) << ctx;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      const auto& ta = pa[i].second.value();
      const auto& tb = pb[i].second.value();
      ASSERT_EQ(ta.size(), tb.size()) << ctx;
      for (std::size_t j = 0; j < ta.size(); ++j)
        ASSERT_EQ(ta.flat()[j], tb.flat()[j])
            << ctx << ": " << pa[i].first << "[" << j << "]";
    }
  }

  /// Reference weights from an uninterrupted run (no checkpointing).
  [[nodiscard]] std::unique_ptr<core::Model> reference_fit() const {
    auto model = fresh_model();
    core::Trainer trainer(*model, base_config());
    (void)trainer.fit(*ds_, *scaler_);
    return model;
  }
  [[nodiscard]] std::unique_ptr<core::Model> reference_fit_stream() const {
    auto model = fresh_model();
    core::Trainer trainer(*model, base_config());
    data::DatasetSource src(*ds_);
    (void)trainer.fit_stream(src, *scaler_);
    return model;
  }

  /// A sharded store of the first `n` samples of the fixture's protocol
  /// (3 per shard) — for sizes that are not a multiple of kBatch.
  [[nodiscard]] std::string write_store(std::size_t n) const {
    data::GeneratorConfig cfg;
    cfg.target_packets = 5'000;
    const std::string path =
        (dir_ / ("store" + std::to_string(n) + ".rnxm")).string();
    data::ShardWriter writer(path, 3, 97, data::config_digest(cfg));
    for (const auto& s : data::generate_dataset(topo::ring(4), n, cfg, 97))
      writer.add(s);
    (void)writer.finish();
    return path;
  }

  /// stop_requested hook that fires exactly at the k-th poll (polls
  /// happen once per optimizer step).
  [[nodiscard]] static std::function<bool()> stop_after(
      std::size_t k, std::shared_ptr<std::size_t> polled) {
    return [k, polled] { return ++*polled == k; };
  }

  std::filesystem::path dir_;
  std::unique_ptr<data::Dataset> ds_;
  std::unique_ptr<data::Scaler> scaler_;
};

// ---- .rnxc round trip + corruption ----------------------------------------

TEST_F(CheckpointTest, RoundTripIsBitwise) {
  TrainCheckpoint ck;
  ck.config_digest = 0xDEADBEEFCAFEF00Dull;
  ck.epoch = 3;
  ck.samples_done = 41;
  ck.lr = 1.25e-3;
  ck.loss_sum = -0.125;
  ck.loss_count = 11;
  ck.best_val = 0.75;
  ck.since_best = 2;
  ck.adam_t = 99;
  for (std::size_t i = 0; i < ck.scaler_moments.size(); ++i)
    ck.scaler_moments[i] = {0.5 * static_cast<double>(i) - 1.0,
                            1.0 + 0.25 * static_cast<double>(i)};
  for (int p = 0; p < 3; ++p) {
    TrainCheckpoint::ParamState st;
    st.name = "layer." + std::to_string(p) + ".w";
    st.value = nn::Tensor(2, 3);
    st.m = nn::Tensor(2, 3);
    st.v = nn::Tensor(2, 3);
    for (std::size_t j = 0; j < st.value.size(); ++j) {
      st.value.flat()[j] = -1.5 + 0.3 * static_cast<double>(j + p);
      st.m.flat()[j] = 1e-8 * static_cast<double>(j) - 2e-9;
      st.v.flat()[j] = 1e-16 * static_cast<double>(j + 1);
    }
    ck.params.push_back(std::move(st));
  }

  const std::string path = ckpt_path();
  core::save_checkpoint(path, ck);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const TrainCheckpoint got = core::load_checkpoint(path);

  EXPECT_EQ(got.config_digest, ck.config_digest);
  EXPECT_EQ(got.epoch, ck.epoch);
  EXPECT_EQ(got.samples_done, ck.samples_done);
  EXPECT_EQ(got.lr, ck.lr);
  EXPECT_EQ(got.loss_sum, ck.loss_sum);
  EXPECT_EQ(got.loss_count, ck.loss_count);
  EXPECT_EQ(got.best_val, ck.best_val);
  EXPECT_EQ(got.since_best, ck.since_best);
  EXPECT_EQ(got.adam_t, ck.adam_t);
  for (std::size_t i = 0; i < ck.scaler_moments.size(); ++i) {
    EXPECT_EQ(got.scaler_moments[i].mean, ck.scaler_moments[i].mean);
    EXPECT_EQ(got.scaler_moments[i].stddev, ck.scaler_moments[i].stddev);
  }
  ASSERT_EQ(got.params.size(), ck.params.size());
  for (std::size_t p = 0; p < ck.params.size(); ++p) {
    EXPECT_EQ(got.params[p].name, ck.params[p].name);
    for (std::size_t j = 0; j < ck.params[p].value.size(); ++j) {
      EXPECT_EQ(got.params[p].value.flat()[j], ck.params[p].value.flat()[j]);
      EXPECT_EQ(got.params[p].m.flat()[j], ck.params[p].m.flat()[j]);
      EXPECT_EQ(got.params[p].v.flat()[j], ck.params[p].v.flat()[j]);
    }
  }
}

TEST_F(CheckpointTest, CorruptionIsAlwaysATypedError) {
  TrainCheckpoint ck;
  ck.config_digest = 1;
  TrainCheckpoint::ParamState st;
  st.name = "w";
  st.value = nn::Tensor(2, 2);
  st.m = nn::Tensor(2, 2);
  st.v = nn::Tensor(2, 2);
  ck.params.push_back(std::move(st));
  const std::string path = ckpt_path();
  core::save_checkpoint(path, ck);

  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_GT(bytes.size(), 24u);
  const auto write_variant = [&](std::string b) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(b.data(), static_cast<std::streamsize>(b.size()));
  };

  // Missing file.
  fs::remove(path);
  EXPECT_THROW((void)core::load_checkpoint(path), core::CheckpointError);
  // Bad magic.
  {
    std::string b = bytes;
    b[0] = 'X';
    write_variant(b);
    EXPECT_THROW((void)core::load_checkpoint(path), core::CheckpointError);
  }
  // Unsupported version.
  {
    std::string b = bytes;
    b[4] = 99;
    write_variant(b);
    EXPECT_THROW((void)core::load_checkpoint(path), core::CheckpointError);
  }
  // Truncation at several depths (header, mid-body, last byte).
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{10}, bytes.size() / 2,
        bytes.size() - 1}) {
    write_variant(bytes.substr(0, keep));
    EXPECT_THROW((void)core::load_checkpoint(path), core::CheckpointError)
        << "kept " << keep << " of " << bytes.size();
  }
  // A single flipped body bit fails the checksum.
  {
    std::string b = bytes;
    b[bytes.size() - 3] ^= 0x10;
    write_variant(b);
    EXPECT_THROW((void)core::load_checkpoint(path), core::CheckpointError);
  }
  // And the pristine bytes still load.
  write_variant(bytes);
  EXPECT_NO_THROW((void)core::load_checkpoint(path));
}

// ---- kill-at-every-batch-boundary sweeps ----------------------------------

TEST_F(CheckpointTest, FitResumeIsBitwiseAtEveryBoundary) {
  const auto reference = reference_fit();
  for (std::size_t k = 1; k <= kTotalSteps; ++k) {
    fs::remove(ckpt_path());
    auto interrupted = fresh_model();
    {
      core::TrainConfig tc = base_config();
      tc.checkpoint_dir = ckpt_dir();
      tc.checkpoint_every = 1;
      auto polled = std::make_shared<std::size_t>(0);
      tc.stop_requested = stop_after(k, polled);
      core::Trainer trainer(*interrupted, tc);
      (void)trainer.fit(*ds_, *scaler_);
      ASSERT_TRUE(trainer.interrupted()) << "k=" << k;
      ASSERT_TRUE(fs::exists(ckpt_path())) << "k=" << k;
    }
    auto resumed = fresh_model();
    {
      core::TrainConfig tc = base_config();
      tc.checkpoint_dir = ckpt_dir();
      tc.checkpoint_every = 1;
      tc.resume = true;
      core::Trainer trainer(*resumed, tc);
      (void)trainer.fit(*ds_, *scaler_);
      EXPECT_FALSE(trainer.interrupted());
    }
    expect_identical_weights(*reference, *resumed,
                             "fit killed after step " + std::to_string(k));
  }
}

TEST_F(CheckpointTest, FitStreamResumeIsBitwiseAtEveryBoundary) {
  const auto reference = reference_fit_stream();
  for (std::size_t k = 1; k <= kTotalSteps; ++k) {
    fs::remove(ckpt_path());
    auto interrupted = fresh_model();
    {
      core::TrainConfig tc = base_config();
      tc.checkpoint_dir = ckpt_dir();
      tc.checkpoint_every = 1;
      auto polled = std::make_shared<std::size_t>(0);
      tc.stop_requested = stop_after(k, polled);
      core::Trainer trainer(*interrupted, tc);
      data::DatasetSource src(*ds_);
      (void)trainer.fit_stream(src, *scaler_);
      ASSERT_TRUE(trainer.interrupted()) << "k=" << k;
    }
    auto resumed = fresh_model();
    {
      core::TrainConfig tc = base_config();
      tc.checkpoint_dir = ckpt_dir();
      tc.checkpoint_every = 1;
      tc.resume = true;
      core::Trainer trainer(*resumed, tc);
      data::DatasetSource src(*ds_);
      (void)trainer.fit_stream(src, *scaler_);
      EXPECT_FALSE(trainer.interrupted());
    }
    expect_identical_weights(
        *reference, *resumed,
        "fit_stream killed after step " + std::to_string(k));
  }
}

TEST_F(CheckpointTest, ResumeWithDifferentThreadCountIsStillBitwise) {
  const auto reference = reference_fit();
  // Kill mid-epoch under serial training, resume with 4 lanes: the lane
  // count must not change the trajectory (DESIGN.md §T), checkpoint or
  // not.
  auto interrupted = fresh_model();
  {
    core::TrainConfig tc = base_config(/*threads=*/1);
    tc.checkpoint_dir = ckpt_dir();
    tc.checkpoint_every = 1;
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(4, polled);
    core::Trainer trainer(*interrupted, tc);
    (void)trainer.fit(*ds_, *scaler_);
    ASSERT_TRUE(trainer.interrupted());
  }
  auto resumed = fresh_model();
  {
    core::TrainConfig tc = base_config(/*threads=*/4);
    tc.checkpoint_dir = ckpt_dir();
    tc.resume = true;
    core::Trainer trainer(*resumed, tc);
    (void)trainer.fit(*ds_, *scaler_);
  }
  expect_identical_weights(*reference, *resumed, "cross-thread resume");
}

TEST_F(CheckpointTest, EpochOnlyCheckpointStillFinalizesOnStop) {
  // checkpoint_every=0 writes only at epoch ends — but a stop request
  // must still flush one final mid-epoch checkpoint, or the interrupt
  // would lose work.
  auto interrupted = fresh_model();
  {
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    tc.checkpoint_every = 0;
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(2, polled);
    core::Trainer trainer(*interrupted, tc);
    (void)trainer.fit(*ds_, *scaler_);
    ASSERT_TRUE(trainer.interrupted());
  }
  const TrainCheckpoint ck = core::load_checkpoint(ckpt_path());
  EXPECT_EQ(ck.epoch, 0u);
  EXPECT_EQ(ck.samples_done, 2 * kBatch);

  auto resumed = fresh_model();
  {
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    tc.checkpoint_every = 0;
    tc.resume = true;
    core::Trainer trainer(*resumed, tc);
    (void)trainer.fit(*ds_, *scaler_);
  }
  expect_identical_weights(*reference_fit(), *resumed, "epoch-only resume");
}

TEST_F(CheckpointTest, ResumingAFinishedRunRetrainsNothing) {
  auto model = fresh_model();
  core::TrainConfig tc = base_config();
  tc.checkpoint_dir = ckpt_dir();
  {
    core::Trainer trainer(*model, tc);
    const auto hist = trainer.fit(*ds_, *scaler_);
    ASSERT_EQ(hist.size(), kEpochs);
  }
  const TrainCheckpoint ck = core::load_checkpoint(ckpt_path());
  EXPECT_EQ(ck.epoch, kEpochs);  // cursor parked past the last epoch
  auto again = fresh_model();
  tc.resume = true;
  core::Trainer trainer(*again, tc);
  const auto hist = trainer.fit(*ds_, *scaler_);
  EXPECT_TRUE(hist.empty());  // no epochs re-run
  expect_identical_weights(*model, *again, "finished-run resume");
}

// ---- trailing partial batch -----------------------------------------------

// 7 samples in batches of 2: three full steps and one partial step per
// epoch.  The partial batch is an optimizer step like any other, so it
// is polled, and a stop there checkpoints and resumes bitwise.
constexpr std::size_t kOddSamples = 7;
constexpr std::size_t kOddEpochs = 2;

TEST_F(CheckpointTest, PartialBatchIsPolledInFitAndFitStream) {
  const std::string store = write_store(kOddSamples);
  data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  const data::Dataset odd(
      data::generate_dataset(topo::ring(4), kOddSamples, cfg, 97));
  core::TrainConfig tc = base_config();
  tc.epochs = kOddEpochs;
  auto polled = std::make_shared<std::size_t>(0);
  tc.stop_requested = [polled] {
    ++*polled;
    return false;
  };
  {
    auto model = fresh_model();
    core::Trainer trainer(*model, tc);
    (void)trainer.fit(odd, *scaler_);
  }
  EXPECT_EQ(*polled, 8u) << "fit";
  *polled = 0;
  {
    auto model = fresh_model();
    core::Trainer trainer(*model, tc);
    data::StreamingShardSource src(store, /*prefetch=*/2);
    (void)trainer.fit_stream(src, *scaler_);
  }
  EXPECT_EQ(*polled, 8u) << "fit_stream";
}

TEST_F(CheckpointTest, StreamResumeAtThePartialBatchIsBitwise) {
  const std::string store = write_store(kOddSamples);
  core::TrainConfig tc = base_config();
  tc.epochs = kOddEpochs;
  const auto reference = fresh_model();
  {
    core::Trainer trainer(*reference, tc);
    data::StreamingShardSource src(store, 2);
    (void)trainer.fit_stream(src, *scaler_);
  }
  // Polls 4 and 8 follow the two epochs' partial batches.
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    fs::remove(ckpt_path());
    {
      auto interrupted = fresh_model();
      core::TrainConfig ic = tc;
      ic.checkpoint_dir = ckpt_dir();
      auto polled = std::make_shared<std::size_t>(0);
      ic.stop_requested = stop_after(k, polled);
      core::Trainer trainer(*interrupted, ic);
      data::StreamingShardSource src(store, 2);
      (void)trainer.fit_stream(src, *scaler_);
      ASSERT_TRUE(trainer.interrupted()) << "k=" << k;
      const TrainCheckpoint ck = core::load_checkpoint(ckpt_path());
      EXPECT_EQ(ck.epoch, k / 4 - 1) << "k=" << k;
      EXPECT_EQ(ck.samples_done, kOddSamples) << "k=" << k;
    }
    auto resumed = fresh_model();
    {
      core::TrainConfig rc = tc;
      rc.checkpoint_dir = ckpt_dir();
      rc.resume = true;
      core::Trainer trainer(*resumed, rc);
      data::StreamingShardSource src(store, 2);
      (void)trainer.fit_stream(src, *scaler_);
      EXPECT_FALSE(trainer.interrupted());
    }
    expect_identical_weights(
        *reference, *resumed,
        "stream killed at partial step " + std::to_string(k));
  }
}

// ---- refusal paths --------------------------------------------------------

TEST_F(CheckpointTest, VersionOneCheckpointIsRefused) {
  TrainCheckpoint ck;
  TrainCheckpoint::ParamState st;
  st.name = "w";
  st.value = nn::Tensor(1, 1);
  st.m = nn::Tensor(1, 1);
  st.v = nn::Tensor(1, 1);
  ck.params.push_back(std::move(st));
  core::save_checkpoint(ckpt_path(), ck);
  std::string bytes;
  {
    std::ifstream f(ckpt_path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::uint32_t v1 = 1;
  bytes.replace(4, sizeof(v1), reinterpret_cast<const char*>(&v1),
                sizeof(v1));
  {
    std::ofstream f(ckpt_path(), std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)core::load_checkpoint(ckpt_path()),
               core::CheckpointError);
}

TEST_F(CheckpointTest, StreamResumeRefusesADifferentSizeStore) {
  const std::string small = write_store(kOddSamples);
  const std::string large = write_store(11);
  {
    auto model = fresh_model();
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(1, polled);
    core::Trainer trainer(*model, tc);
    data::StreamingShardSource src(small, 2);
    (void)trainer.fit_stream(src, *scaler_);
    ASSERT_TRUE(trainer.interrupted());
  }
  // Same config and scaler; only the stream's size differs.
  auto other = fresh_model();
  core::TrainConfig tc = base_config();
  tc.checkpoint_dir = ckpt_dir();
  tc.resume = true;
  core::Trainer trainer(*other, tc);
  data::StreamingShardSource src(large, 2);
  EXPECT_THROW((void)trainer.fit_stream(src, *scaler_), core::CheckpointError);
}

TEST_F(CheckpointTest, ResumeRefusesChangedHyperparameters) {
  auto model = fresh_model();
  {
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(1, polled);
    core::Trainer trainer(*model, tc);
    (void)trainer.fit(*ds_, *scaler_);
  }
  auto other = fresh_model();
  core::TrainConfig tc = base_config();
  tc.checkpoint_dir = ckpt_dir();
  tc.resume = true;
  tc.lr = tc.lr * 0.5;  // any trajectory-relevant knob refuses
  core::Trainer trainer(*other, tc);
  EXPECT_THROW((void)trainer.fit(*ds_, *scaler_), core::CheckpointError);
}

TEST_F(CheckpointTest, ResumeRefusesChangedScaler) {
  auto model = fresh_model();
  {
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(1, polled);
    core::Trainer trainer(*model, tc);
    (void)trainer.fit(*ds_, *scaler_);
  }
  // Same config digest (same dataset size/knobs), different scaler
  // moments: the checkpointed run would silently train a different
  // function, so resume must refuse.
  data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  const data::Dataset other_ds(
      data::generate_dataset(topo::ring(4), kSamples, cfg, 131));
  const data::Scaler other_scaler =
      data::Scaler::fit(other_ds.samples(), 10);
  auto other = fresh_model();
  core::TrainConfig tc = base_config();
  tc.checkpoint_dir = ckpt_dir();
  tc.resume = true;
  core::Trainer trainer(*other, tc);
  EXPECT_THROW((void)trainer.fit(*ds_, other_scaler), core::CheckpointError);
}

TEST_F(CheckpointTest, FitRefusesAStreamingCheckpointAndViceVersa) {
  auto model = fresh_model();
  {
    core::TrainConfig tc = base_config();
    tc.checkpoint_dir = ckpt_dir();
    auto polled = std::make_shared<std::size_t>(0);
    tc.stop_requested = stop_after(1, polled);
    core::Trainer trainer(*model, tc);
    (void)trainer.fit(*ds_, *scaler_);  // writes a non-streaming checkpoint
  }
  auto other = fresh_model();
  core::TrainConfig tc = base_config();
  tc.checkpoint_dir = ckpt_dir();
  tc.resume = true;
  core::Trainer trainer(*other, tc);
  data::DatasetSource src(*ds_);
  EXPECT_THROW((void)trainer.fit_stream(src, *scaler_),
               core::CheckpointError);

  fs::remove(ckpt_path());
  auto stream_model = fresh_model();
  {
    core::TrainConfig sc = base_config();
    sc.checkpoint_dir = ckpt_dir();
    auto polled = std::make_shared<std::size_t>(0);
    sc.stop_requested = stop_after(1, polled);
    core::Trainer trainer2(*stream_model, sc);
    data::DatasetSource src2(*ds_);
    (void)trainer2.fit_stream(src2, *scaler_);  // streaming checkpoint
  }
  auto other2 = fresh_model();
  core::Trainer trainer3(*other2, tc);
  EXPECT_THROW((void)trainer3.fit(*ds_, *scaler_), core::CheckpointError);
}

}  // namespace
