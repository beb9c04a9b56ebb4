#include "core/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/sample_io.hpp"

namespace rnx::core {

namespace {

// Bounds that keep a corrupt checkpoint from driving huge allocations:
// far above any real model, far below anything that could hurt.
constexpr std::uint64_t kMaxBodyBytes = 1ull << 32;
constexpr std::uint64_t kMaxParams = 1u << 16;
constexpr std::uint64_t kMaxNameLen = 1u << 12;
constexpr std::uint64_t kMaxTensorElems = 1ull << 28;

template <typename T>
void put(std::ostream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
void get(std::istream& f, T& v, const std::string& what) {
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f) throw CheckpointError(what + ": truncated checkpoint");
}

void put_tensor(std::ostream& f, const nn::Tensor& t) {
  put(f, static_cast<std::uint64_t>(t.rows()));
  put(f, static_cast<std::uint64_t>(t.cols()));
  const auto d = t.flat();
  f.write(reinterpret_cast<const char*>(d.data()),
          static_cast<std::streamsize>(d.size() * sizeof(double)));
}

nn::Tensor get_tensor(std::istream& f, const std::string& what) {
  std::uint64_t rows = 0, cols = 0;
  get(f, rows, what);
  get(f, cols, what);
  if (rows == 0 || cols == 0 || rows * cols > kMaxTensorElems)
    throw CheckpointError(what + ": implausible tensor shape " +
                          std::to_string(rows) + "x" + std::to_string(cols));
  nn::Tensor t(rows, cols);
  const auto d = t.flat();
  f.read(reinterpret_cast<char*>(d.data()),
         static_cast<std::streamsize>(d.size() * sizeof(double)));
  if (!f) throw CheckpointError(what + ": truncated tensor");
  return t;
}

void put_moments(std::ostream& f, const data::Moments& m) {
  put(f, m.mean);
  put(f, m.stddev);
}

data::Moments get_moments(std::istream& f, const std::string& what) {
  data::Moments m;
  get(f, m.mean, what);
  get(f, m.stddev, what);
  return m;
}

}  // namespace

std::string checkpoint_file(const std::string& dir) {
  return (std::filesystem::path(dir) / "train.rnxc").string();
}

void save_checkpoint(const std::string& path, const TrainCheckpoint& c) {
  std::ostringstream b(std::ios::binary);
  put(b, c.config_digest);
  put(b, c.epoch);
  put(b, c.samples_done);
  put(b, c.lr);
  put(b, c.loss_sum);
  put(b, c.loss_count);
  put(b, c.best_val);
  put(b, c.since_best);
  put(b, c.adam_t);
  for (const data::Moments& m : c.scaler_moments) put_moments(b, m);
  put(b, static_cast<std::uint64_t>(c.params.size()));
  for (const TrainCheckpoint::ParamState& p : c.params) {
    put(b, static_cast<std::uint32_t>(p.name.size()));
    b.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    put_tensor(b, p.value);
    put_tensor(b, p.m);
    put_tensor(b, p.v);
  }
  const std::string body = b.str();

  data::io::atomic_write_stream(path, [&](std::ostream& f) {
    f.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    put(f, kCheckpointVersion);
    put(f, static_cast<std::uint64_t>(body.size()));
    put(f, data::io::fnv1a64(body));
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
  });
}

TrainCheckpoint load_checkpoint(const std::string& path) {
  const std::string what = "load_checkpoint(" + path + ")";
  std::ifstream f(path, std::ios::binary);
  if (!f) throw CheckpointError(what + ": cannot open checkpoint");
  char magic[4];
  f.read(magic, sizeof(magic));
  if (!f || std::string_view(magic, 4) !=
                std::string_view(kCheckpointMagic, 4))
    throw CheckpointError(what + ": bad magic (not a .rnxc checkpoint)");
  std::uint32_t version = 0;
  get(f, version, what);
  if (version < kMinCheckpointVersion || version > kCheckpointVersion)
    throw CheckpointError(what + ": unsupported checkpoint version " +
                          std::to_string(version));
  std::uint64_t body_size = 0, checksum = 0;
  get(f, body_size, what);
  get(f, checksum, what);
  if (body_size == 0 || body_size > kMaxBodyBytes)
    throw CheckpointError(what + ": corrupt header (body size " +
                          std::to_string(body_size) + ")");
  std::string body(body_size, '\0');
  f.read(body.data(), static_cast<std::streamsize>(body_size));
  if (!f || f.gcount() != static_cast<std::streamsize>(body_size))
    throw CheckpointError(what + ": truncated checkpoint");
  if (data::io::fnv1a64(body) != checksum)
    throw CheckpointError(what + ": checksum mismatch (corrupt)");

  std::istringstream bs(body, std::ios::binary);
  TrainCheckpoint c;
  get(bs, c.config_digest, what);
  get(bs, c.epoch, what);
  get(bs, c.samples_done, what);
  get(bs, c.lr, what);
  get(bs, c.loss_sum, what);
  get(bs, c.loss_count, what);
  get(bs, c.best_val, what);
  get(bs, c.since_best, what);
  get(bs, c.adam_t, what);
  for (data::Moments& m : c.scaler_moments) m = get_moments(bs, what);
  std::uint64_t count = 0;
  get(bs, count, what);
  if (count > kMaxParams)
    throw CheckpointError(what + ": implausible parameter count " +
                          std::to_string(count));
  c.params.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TrainCheckpoint::ParamState p;
    std::uint32_t len = 0;
    get(bs, len, what);
    if (len == 0 || len > kMaxNameLen)
      throw CheckpointError(what + ": implausible parameter name length " +
                            std::to_string(len));
    p.name.resize(len);
    bs.read(p.name.data(), len);
    if (!bs) throw CheckpointError(what + ": truncated parameter name");
    p.value = get_tensor(bs, what);
    p.m = get_tensor(bs, what);
    p.v = get_tensor(bs, what);
    if (p.m.rows() != p.value.rows() || p.m.cols() != p.value.cols() ||
        p.v.rows() != p.value.rows() || p.v.cols() != p.value.cols())
      throw CheckpointError(what + ": moment shape mismatch for parameter '" +
                            p.name + "'");
    c.params.push_back(std::move(p));
  }
  return c;
}

}  // namespace rnx::core
