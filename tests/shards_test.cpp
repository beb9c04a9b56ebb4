// Sharded dataset pipeline (DESIGN.md §D): parallel ordered-commit
// generation determinism, shard store round-trips, manifest integrity
// (typed errors), streaming source residency bounds, and the mixed
// cross-topology sampler.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <vector>

#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "data/shards.hpp"
#include "data/source.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using data::Dataset;
using data::GeneratorConfig;
using data::Sample;

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  return cfg;
}

std::vector<std::uint64_t> digests(const std::vector<Sample>& samples) {
  std::vector<std::uint64_t> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(data::io::sample_digest(s));
  return out;
}

class TempDir {
 public:
  // PID-suffixed: ctest runs each test as its own process, potentially
  // in parallel — a fixed shared directory would let one process's
  // cleanup delete another's live store.
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// ---- parallel generation determinism ----------------------------------------

TEST(ParallelDatagen, BitwiseIdenticalForAnyThreadCount) {
  const auto cfg = fast_config();
  const auto serial =
      data::generate_dataset(topo::ring(4), 9, cfg, 71);
  const auto serial_digests = digests(serial);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto parallel =
        data::generate_dataset(topo::ring(4), 9, cfg, 71, threads);
    EXPECT_EQ(digests(parallel), serial_digests)
        << "threads=" << threads << " diverged from serial";
  }
}

TEST(ParallelDatagen, StreamCommitsInOrderWithMonotonicProgress) {
  const auto cfg = fast_config();
  std::vector<std::size_t> commit_order;
  std::size_t last_done = 0;
  bool monotonic = true;
  data::generate_dataset_stream(
      data::fixed_topology(topo::ring(4)), 7, cfg, 5, /*threads=*/4,
      [&](std::size_t i, Sample) { commit_order.push_back(i); },
      [&](std::size_t done, std::size_t total) {
        monotonic &= done == last_done + 1 && done <= total;
        last_done = done;
      });
  std::vector<std::size_t> expect(7);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(commit_order, expect);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last_done, 7u);
}

TEST(ParallelDatagen, WorkerExceptionPropagatesWithoutDeadlock) {
  GeneratorConfig cfg = fast_config();
  cfg.traffic = data::TrafficModel::kUniform;
  // A single-node topology draws a zero-total traffic matrix, which
  // generate_sample rejects — from a worker lane, mid-run.
  const topo::Topology one("one-node", topo::Graph(1));
  EXPECT_THROW((void)data::generate_dataset(one, 6, cfg, 3, 4),
               std::invalid_argument);
}

// ---- zero-demand guard (satellite bugfix) -----------------------------------

TEST(Generator, RejectsZeroTotalTrafficMatrix) {
  GeneratorConfig cfg = fast_config();
  cfg.traffic = data::TrafficModel::kUniform;
  const topo::Topology one("one-node", topo::Graph(1));
  util::RngStream rng(1);
  try {
    (void)data::generate_sample(one, cfg, rng);
    FAIL() << "zero-demand traffic matrix accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("traffic matrix total is zero"),
              std::string::npos)
        << e.what();
  }
}

// ---- shard store round trip -------------------------------------------------

TEST(ShardStore, RoundTripMatchesMonolithicSaveLoad) {
  const TempDir dir("rnx_shard_roundtrip");
  const auto cfg = fast_config();
  const auto samples = data::generate_dataset(topo::ring(4), 8, cfg, 13);

  // Monolithic reference.
  const std::string mono = dir.file("mono.rnxd");
  Dataset(samples).save(mono);
  const Dataset mono_loaded = Dataset::load(mono);

  // Sharded store, 3 samples per shard (trailing partial shard).
  const std::string manifest_path = dir.file("store.rnxm");
  data::ShardWriter writer(manifest_path, 3, 13, data::config_digest(cfg));
  for (const auto& s : samples) writer.add(s);
  const data::ShardManifest manifest = writer.finish();
  EXPECT_EQ(manifest.total_samples, 8u);
  EXPECT_EQ(manifest.shards.size(), 3u);
  EXPECT_EQ(manifest.shards[0].samples, 3u);
  EXPECT_EQ(manifest.shards[2].samples, 2u);
  EXPECT_EQ(manifest.seed, 13u);
  EXPECT_EQ(manifest.config_digest, data::config_digest(cfg));

  data::ShardedReader reader(manifest_path);
  EXPECT_EQ(reader.total_samples(), 8u);
  const Dataset sharded = reader.load_all();
  ASSERT_EQ(sharded.size(), mono_loaded.size());
  EXPECT_EQ(digests(sharded.samples()), digests(mono_loaded.samples()));

  // Every shard file is itself a valid .rnxd dataset.
  const Dataset shard0 = Dataset::load(reader.shard_path(0));
  EXPECT_EQ(shard0.size(), 3u);
  EXPECT_EQ(data::io::sample_digest(shard0[0]),
            data::io::sample_digest(mono_loaded[0]));
}

TEST(ShardStore, ManifestSniffDiscriminatesFormats) {
  const TempDir dir("rnx_shard_sniff");
  const auto samples = data::generate_dataset(topo::ring(4), 1,
                                              fast_config(), 3);
  const std::string mono = dir.file("a.rnxd");
  Dataset(samples).save(mono);
  data::ShardWriter writer(dir.file("b.rnxm"), 4, 3, 0);
  writer.add(samples[0]);
  (void)writer.finish();
  EXPECT_FALSE(data::is_manifest_file(mono));
  EXPECT_TRUE(data::is_manifest_file(dir.file("b.rnxm")));
  EXPECT_FALSE(data::is_manifest_file(dir.file("missing.rnxm")));
}

// ---- typed integrity errors -------------------------------------------------

class ShardErrorsTest : public ::testing::Test {
 protected:
  ShardErrorsTest() : dir_("rnx_shard_errors") {
    const auto samples =
        data::generate_dataset(topo::ring(4), 4, fast_config(), 17);
    data::ShardWriter writer(manifest(), 2, 17, 0);
    for (const auto& s : samples) writer.add(s);
    (void)writer.finish();
  }
  [[nodiscard]] std::string manifest() const {
    return dir_.file("store.rnxm");
  }
  TempDir dir_;
};

TEST_F(ShardErrorsTest, ChecksumMismatchIsTyped) {
  data::ShardedReader reader(manifest());
  // Flip one byte in the middle of shard 1's payload.
  const std::string shard = reader.shard_path(1);
  {
    std::fstream f(shard,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(200);
    char c = 0;
    f.seekg(200);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(200);
    f.write(&c, 1);
  }
  EXPECT_NO_THROW((void)reader.load_shard(0));  // untouched shard fine
  try {
    (void)reader.load_shard(1);
    FAIL() << "corrupt shard accepted";
  } catch (const data::ShardChecksumError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ShardErrorsTest, MissingShardIsTyped) {
  data::ShardedReader reader(manifest());
  std::filesystem::remove(reader.shard_path(0));
  try {
    (void)reader.load_shard(0);
    FAIL() << "missing shard accepted";
  } catch (const data::MissingShardError& e) {
    EXPECT_NE(std::string(e.what()).find("missing shard"),
              std::string::npos)
        << e.what();
  }
  // The typed errors share one catchable base.
  EXPECT_THROW((void)reader.load_shard(0), data::ShardError);
}

TEST_F(ShardErrorsTest, CorruptManifestIsTyped) {
  {
    std::fstream f(manifest(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);  // inside the body -> checksum mismatch
    const char c = 'X';
    f.write(&c, 1);
  }
  EXPECT_THROW(data::ShardedReader r(manifest()), data::ManifestError);
}

TEST(ShardErrors, GarbageAndMissingManifestAreTyped) {
  const TempDir dir("rnx_manifest_garbage");
  const std::string path = dir.file("junk.rnxm");
  {
    std::ofstream f(path, std::ios::binary);
    f << "definitely not a manifest";
  }
  EXPECT_THROW(data::ShardedReader r(path), data::ManifestError);
  EXPECT_THROW(data::ShardedReader r(dir.file("absent.rnxm")),
               data::ManifestError);
}

// ---- streaming source -------------------------------------------------------

TEST(StreamingSource, DeliversEverySampleInOrderAcrossPasses) {
  const TempDir dir("rnx_streaming_order");
  const auto samples =
      data::generate_dataset(topo::ring(4), 7, fast_config(), 23);
  data::ShardWriter writer(dir.file("s.rnxm"), 3, 23, 0);
  for (const auto& s : samples) writer.add(s);
  (void)writer.finish();

  data::StreamingShardSource src(dir.file("s.rnxm"), /*prefetch=*/2);
  EXPECT_FALSE(src.stable_addresses());
  EXPECT_EQ(src.size(), 7u);
  for (int pass = 0; pass < 2; ++pass) {
    src.reset();
    std::vector<std::uint64_t> seen;
    while (auto sp = src.next())
      seen.push_back(data::io::sample_digest(*sp));
    EXPECT_EQ(seen, digests(samples)) << "pass " << pass;
    EXPECT_EQ(src.next(), nullptr);  // stays exhausted until reset
  }
}

TEST(StreamingSource, ResidencyBoundedByShardPlusPrefetch) {
  const TempDir dir("rnx_streaming_residency");
  constexpr std::size_t kShard = 4, kPrefetch = 2, kCount = 16;
  const auto samples =
      data::generate_dataset(topo::ring(4), kCount, fast_config(), 29);
  data::ShardWriter writer(dir.file("s.rnxm"), kShard, 29, 0);
  for (const auto& s : samples) writer.add(s);
  (void)writer.finish();

  data::StreamingShardSource src(dir.file("s.rnxm"), kPrefetch);
  src.reset();
  std::size_t delivered = 0;
  while (auto sp = src.next()) {
    ++delivered;
    sp.reset();  // consumer holds at most one sample
  }
  EXPECT_EQ(delivered, kCount);
  // Never materialize the dataset: one loaded shard + the queue + the
  // consumer's single sample (+1 slack for the sample in flight inside
  // push/pop).
  EXPECT_LE(src.peak_live_samples(), kShard + kPrefetch + 2);
  EXPECT_LT(src.peak_live_samples(), kCount);
}

TEST(StreamingSource, BackgroundErrorSurfacesAtConsumption) {
  const TempDir dir("rnx_streaming_error");
  const auto samples =
      data::generate_dataset(topo::ring(4), 4, fast_config(), 31);
  data::ShardWriter writer(dir.file("s.rnxm"), 2, 31, 0);
  for (const auto& s : samples) writer.add(s);
  (void)writer.finish();
  {
    data::ShardedReader reader(dir.file("s.rnxm"));
    std::filesystem::remove(reader.shard_path(1));
  }
  data::StreamingShardSource src(dir.file("s.rnxm"), 8);
  src.reset();
  std::size_t got = 0;
  try {
    while (src.next()) ++got;
    FAIL() << "missing shard never surfaced";
  } catch (const data::MissingShardError&) {
    EXPECT_EQ(got, 2u);  // shard 0 drained before the error
  }
}

TEST(DatasetSource, AliasesInMemorySamples) {
  const Dataset ds(
      data::generate_dataset(topo::ring(4), 3, fast_config(), 37));
  data::DatasetSource src(ds);
  EXPECT_TRUE(src.stable_addresses());
  src.reset();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto sp = src.next();
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp.get(), &ds[i]);  // zero-copy: the dataset's own object
  }
  EXPECT_EQ(src.next(), nullptr);
}

TEST(DatasetSource, ShuffledPassOrderIsAPureFunctionOfSeedAndPass) {
  const Dataset ds(
      data::generate_dataset(topo::ring(4), 6, fast_config(), 37));
  const auto pass_order = [&ds](data::DatasetSource& src, std::size_t pass) {
    src.reset(pass);
    std::vector<std::size_t> order;
    while (const auto sp = src.next())
      order.push_back(static_cast<std::size_t>(sp.get() - &ds[0]));
    return order;
  };
  data::DatasetSource walked(ds, /*shuffle_seed=*/11);
  EXPECT_TRUE(walked.stable_addresses());
  EXPECT_TRUE(walked.order_varies_by_pass());
  EXPECT_FALSE(data::DatasetSource(ds).order_varies_by_pass());
  std::vector<std::vector<std::size_t>> orders;
  for (std::size_t pass = 0; pass < 4; ++pass)
    orders.push_back(pass_order(walked, pass));
  for (const auto& order : orders) {
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> all(ds.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    EXPECT_EQ(sorted, all);  // every pass is a permutation
  }
  EXPECT_NE(orders[0], orders[1]);
  // A fresh source jumping straight to a pass, a repeated pass and a
  // pass revisited after later ones all give the same order.
  data::DatasetSource jumped(ds, 11);
  EXPECT_EQ(pass_order(jumped, 2), orders[2]);
  EXPECT_EQ(pass_order(jumped, 2), orders[2]);
  EXPECT_EQ(pass_order(walked, 1), orders[1]);
  EXPECT_EQ(pass_order(walked, 3), orders[3]);
  EXPECT_EQ(pass_order(walked, 0), orders[0]);
}

// ---- mixed topology sampler -------------------------------------------------

TEST(MixedTopology, SpansFamiliesAndStaysValid) {
  GeneratorConfig cfg = fast_config();
  std::vector<Sample> samples(12);
  data::generate_dataset_stream(
      data::mixed_topology(), samples.size(), cfg, 41, /*threads=*/2,
      [&](std::size_t i, Sample s) { samples[i] = std::move(s); });
  std::set<std::string> names;
  for (const auto& s : samples) {
    EXPECT_NO_THROW(s.validate());
    EXPECT_GE(s.num_nodes, 8u);
    names.insert(s.topo_name);
  }
  // 12 draws over 4 families: at least three distinct names with
  // overwhelming probability (random topologies also encode their size).
  EXPECT_GE(names.size(), 3u);

  // And the mix is itself deterministic in (seed, threads).
  std::vector<Sample> again(12);
  data::generate_dataset_stream(
      data::mixed_topology(), again.size(), cfg, 41, /*threads=*/1,
      [&](std::size_t i, Sample s) { again[i] = std::move(s); });
  EXPECT_EQ(digests(samples), digests(again));
}

}  // namespace
