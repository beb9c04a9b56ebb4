#include "core/trainer.hpp"

#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/plan.hpp"
#include "data/sample_io.hpp"
#include "data/source.hpp"
#include "nn/ops.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace rnx::core {

namespace {
std::vector<nn::Var> trainable(const Model& model) {
  std::vector<nn::Var> out;
  for (auto& [name, var] : model.named_params()) out.push_back(var);
  return out;
}

// Lane replicas + the per-batch optimizer step.  See the header comment
// for the determinism argument: per-sample gradients land in per-sample
// slots and merge in sample order, so results do not depend on which
// lane computed what.
class BatchEngine {
 public:
  BatchEngine(Model& model, const TrainConfig& cfg, nn::Adam& opt,
              util::ThreadPool* pool, PlanCache* cache)
      : model_(model),
        cfg_(cfg),
        opt_(opt),
        pool_(pool),
        lanes_(pool ? pool->size() : 1),
        slots_(std::max<std::size_t>(cfg.batch_samples, 1)) {
    // Lane replicas: lane 0 drives the primary model; lanes 1.. get
    // deep copies whose weights are re-synced after every step.
    lane_models_.push_back(&model_);
    for (std::size_t l = 1; l < lanes_; ++l) {
      replicas_.push_back(model_.clone());
      if (cache != nullptr) replicas_.back()->set_plan_cache(cache);
      lane_models_.push_back(replicas_.back().get());
    }
    for (Model* m : lane_models_) lane_params_.push_back(trainable(*m));
  }

  void begin_epoch() {
    loss_sum_ = 0.0;
    loss_count_ = 0;
    opt_.zero_grad();
  }

  void process_batch(std::span<const data::Sample* const> batch,
                     const data::Scaler& scaler) {
    const std::size_t fill = batch.size();
    if (fill == 0) return;

    // Lane task: forward+backward each owned sample, then park the
    // gradients in the sample's slot and clear the lane's accumulators.
    // Every lane reads identical weights, so a slot's contents do not
    // depend on which lane filled it.
    const auto lane_task = [&](std::size_t lane) {
      const Model& m = *lane_models_[lane];
      std::vector<nn::Var>& params = lane_params_[lane];
      for (std::size_t i = lane; i < fill; i += lanes_) {
        SampleSlot& slot = slots_[i];
        slot.valid = false;
        slot.grads.clear();
        const nn::Var loss =
            Trainer::sample_loss(m, *batch[i], scaler, cfg_.min_delivered,
                                 cfg_.target);
        if (!loss.defined()) continue;
        loss.backward();
        slot.valid = true;
        slot.loss = loss.value().item();
        slot.grads.reserve(params.size());
        for (nn::Var& p : params) {
          slot.grads.push_back(p.grad());
          p.zero_grad();
        }
      }
    };
    if (lanes_ > 1 && fill > 1) {
      pool_->parallel_for(lanes_, lane_task);
    } else {
      lane_task(0);
    }

    // Merge in sample order (deterministic for any lane count), scale
    // by the actual batch fill — a trailing partial batch must not see
    // a silently shrunken step (the seed scaled by batch_samples).
    std::size_t valid_count = 0;
    for (std::size_t i = 0; i < fill; ++i)
      if (slots_[i].valid) ++valid_count;
    if (valid_count == 0) return;
    std::vector<nn::Var>& primary = lane_params_[0];
    for (std::size_t i = 0; i < fill; ++i) {
      if (!slots_[i].valid) continue;
      loss_sum_ += slots_[i].loss;
      ++loss_count_;
      for (std::size_t k = 0; k < primary.size(); ++k)
        primary[k].grad_ref().add_inplace(slots_[i].grads[k]);
    }
    const double inv = 1.0 / static_cast<double>(valid_count);
    for (nn::Var& p : primary) p.grad_ref().scale_inplace(inv);
    opt_.clip_global_norm(cfg_.clip_norm);
    opt_.step();
    opt_.zero_grad();
    for (auto& replica : replicas_) replica->copy_params_from(model_);
  }

  [[nodiscard]] double epoch_mean_loss() const {
    return loss_count_ ? loss_sum_ / static_cast<double>(loss_count_) : 0.0;
  }

  // In-epoch loss accumulators, exposed so a mid-epoch checkpoint can
  // carry them and a resume can put them back (begin_epoch zeroes them).
  [[nodiscard]] double epoch_loss_sum() const { return loss_sum_; }
  [[nodiscard]] std::uint64_t epoch_loss_count() const { return loss_count_; }
  void restore_epoch_loss(double sum, std::uint64_t count) {
    loss_sum_ = sum;
    loss_count_ = static_cast<std::size_t>(count);
  }

 private:
  // Per-sample gradient slots for one batch (reused across batches).
  struct SampleSlot {
    bool valid = false;
    double loss = 0.0;
    std::vector<nn::Tensor> grads;  ///< one per parameter
  };

  Model& model_;
  const TrainConfig& cfg_;
  nn::Adam& opt_;
  util::ThreadPool* pool_;
  std::size_t lanes_;
  std::vector<std::unique_ptr<Model>> replicas_;
  std::vector<Model*> lane_models_;
  std::vector<std::vector<nn::Var>> lane_params_;
  std::vector<SampleSlot> slots_;
  double loss_sum_ = 0.0;
  std::size_t loss_count_ = 0;
};

// ---- crash-safe checkpointing (DESIGN.md §R) ------------------------------

// Everything the training trajectory depends on, folded into one digest.
// Resuming under ANY changed hyperparameter, dataset size or kind of
// sample order is refused.  Deliberately EXCLUDED: epochs (extending a
// finished run is legitimate) and threads (the lane count never changes
// the weights — DESIGN.md §T).
std::uint64_t train_digest(const Model& model, const TrainConfig& cfg,
                           const data::SampleSource& train) {
  std::ostringstream b(std::ios::binary);
  const auto put = [&b](const auto& v) {
    b.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const ModelConfig& mc = model.config();
  put(static_cast<std::uint8_t>(model.kind()));
  put(static_cast<std::uint64_t>(mc.state_dim));
  put(static_cast<std::uint64_t>(mc.readout_hidden));
  put(static_cast<std::uint64_t>(mc.iterations));
  put(static_cast<std::uint8_t>(mc.node_rule));
  put(static_cast<std::uint8_t>(mc.node_mean_aggregation));
  put(static_cast<std::uint8_t>(mc.fused_gru));
  put(static_cast<std::uint8_t>(mc.scenario_features));
  put(mc.init_seed);
  put(static_cast<std::uint64_t>(cfg.batch_samples));
  put(cfg.lr);
  put(cfg.lr_decay);
  put(cfg.clip_norm);
  put(cfg.min_delivered);
  put(static_cast<std::uint8_t>(cfg.target));
  put(cfg.seed);
  put(static_cast<std::uint64_t>(cfg.patience));
  put(static_cast<std::uint8_t>(train.order_varies_by_pass()));
  put(static_cast<std::uint64_t>(train.size()));
  return data::io::fnv1a64(b.view());
}

// The scaler feeds every forward pass; a checkpointed run resumed under
// different moments would silently train a different function.  Bitwise
// equality, not tolerance — both runs fit the scaler from the same data.
void verify_scaler(const TrainCheckpoint& ck, const data::Scaler& scaler) {
  const std::array<data::Moments, 5> now = {
      scaler.traffic_moments(), scaler.capacity_moments(),
      scaler.queue_moments(), scaler.log_delay_moments(),
      scaler.log_jitter_moments()};
  static constexpr const char* kChannels[5] = {
      "traffic", "capacity", "queue", "log_delay", "log_jitter"};
  for (std::size_t i = 0; i < now.size(); ++i)
    if (now[i].mean != ck.scaler_moments[i].mean ||
        now[i].stddev != ck.scaler_moments[i].stddev)
      throw CheckpointError(
          std::string("resume refused: scaler ") + kChannels[i] +
          " moments differ from the checkpointed run (did the training "
          "set change?)");
}

// Snapshot the model + optimizer + scaler into `ck` (params in
// named_params() order, which is also the optimizer's params() order —
// trainable() builds one from the other).
void capture_train_state(const Model& model, const nn::Adam& opt,
                         const data::Scaler& scaler, TrainCheckpoint& ck) {
  ck.lr = opt.lr();
  ck.adam_t = opt.steps_taken();
  ck.scaler_moments = {scaler.traffic_moments(), scaler.capacity_moments(),
                       scaler.queue_moments(), scaler.log_delay_moments(),
                       scaler.log_jitter_moments()};
  const nn::NamedParams named = model.named_params();
  const std::vector<nn::Tensor>& m = opt.first_moments();
  const std::vector<nn::Tensor>& v = opt.second_moments();
  ck.params.reserve(named.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    TrainCheckpoint::ParamState p;
    p.name = named[i].first;
    p.value = named[i].second.value();
    p.m = m[i];
    p.v = v[i];
    ck.params.push_back(std::move(p));
  }
}

// Put a checkpoint's weights + optimizer state back, with strict
// positional name/shape matching (a digest match already guarantees the
// same architecture; this catches file-level corruption that survived
// the checksum odds).
void restore_train_state(Model& model, nn::Adam& opt,
                         const TrainCheckpoint& ck) {
  nn::NamedParams named = model.named_params();
  if (named.size() != ck.params.size())
    throw CheckpointError("resume refused: checkpoint holds " +
                          std::to_string(ck.params.size()) +
                          " parameters, model has " +
                          std::to_string(named.size()));
  std::vector<nn::Tensor> m, v;
  m.reserve(named.size());
  v.reserve(named.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    const TrainCheckpoint::ParamState& p = ck.params[i];
    if (p.name != named[i].first)
      throw CheckpointError("resume refused: parameter " +
                            std::to_string(i) + " is '" + p.name +
                            "' in the checkpoint, '" + named[i].first +
                            "' in the model");
    nn::Tensor& dst = named[i].second.mutable_value();
    if (p.value.rows() != dst.rows() || p.value.cols() != dst.cols())
      throw CheckpointError("resume refused: shape mismatch for '" +
                            p.name + "'");
    dst = p.value;
    m.push_back(p.m);
    v.push_back(p.v);
  }
  opt.restore_state(ck.adam_t, std::move(m), std::move(v));
  opt.set_lr(ck.lr);
}

}  // namespace

Trainer::Trainer(Model& model, TrainConfig cfg)
    : model_(model), cfg_(cfg), opt_(trainable(model), cfg.lr) {
  if (cfg_.threads > 1) pool_.emplace(cfg_.threads);
}

nn::Var Trainer::sample_loss(const Model& model, const data::Sample& sample,
                             const data::Scaler& scaler,
                             std::uint64_t min_delivered,
                             PredictionTarget target) {
  const std::vector<nn::Index> valid =
      valid_label_rows(sample, min_delivered, target);
  if (valid.empty()) return {};
  nn::Tensor labels(valid.size(), 1);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const auto& p = sample.paths[valid[i]];
    labels(i, 0) = target == PredictionTarget::kDelay
                       ? scaler.delay_to_target(p.mean_delay_s)
                       : scaler.jitter_to_target(p.jitter_s2);
  }
  const nn::Var pred = model.forward(sample, scaler);
  return nn::mse_loss(nn::gather_rows(pred, valid), labels);
}

std::vector<EpochRecord> Trainer::fit(const data::Dataset& train,
                                      const data::Scaler& scaler,
                                      const data::Dataset* val) {
  data::DatasetSource train_src(train, cfg_.seed);
  std::optional<data::DatasetSource> val_src;
  if (val) val_src.emplace(*val);
  return fit_stream(train_src, scaler, val_src ? &*val_src : nullptr);
}

std::vector<EpochRecord> Trainer::fit_stream(data::SampleSource& train,
                                             const data::Scaler& scaler,
                                             data::SampleSource* val) {
  const std::size_t batch = std::max<std::size_t>(cfg_.batch_samples, 1);

  // Plan memo: one build per (sample, variant) for the whole run, keyed
  // by sample address.  That is only sound when the source's samples
  // stay put for the run; a streaming source recycles addresses, so the
  // model runs cache-DETACHED there (a stale plan at a reused address
  // would be silently wrong).
  PlanCache plan_cache;
  PlanCache* const cache = train.stable_addresses() ? &plan_cache : nullptr;
  const PlanCacheScope cache_scope(model_);
  model_.set_plan_cache(cache);

  std::vector<EpochRecord> history;
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  // Keep-alive handles for the in-flight batch: residency is bounded by
  // the batch size plus whatever the source prefetches.
  std::vector<std::shared_ptr<const data::Sample>> hold;
  std::vector<const data::Sample*> batch_ptrs;
  hold.reserve(batch);
  batch_ptrs.reserve(batch);

  interrupted_ = false;
  const bool ckpt_on = !cfg_.checkpoint_dir.empty();
  const std::string ckpt_path =
      ckpt_on ? checkpoint_file(cfg_.checkpoint_dir) : std::string();
  const std::uint64_t digest = train_digest(model_, cfg_, train);

  std::size_t start_epoch = 0;
  std::uint64_t resume_samples = 0;
  double resume_loss_sum = 0.0;
  std::uint64_t resume_loss_count = 0;
  if (ckpt_on && cfg_.resume && std::filesystem::exists(ckpt_path)) {
    const TrainCheckpoint ck = load_checkpoint(ckpt_path);
    if (ck.config_digest != digest)
      throw CheckpointError(
          "resume refused: " + ckpt_path +
          " was written under a different model/train config, dataset "
          "size or sample order — delete the checkpoint to start over");
    verify_scaler(ck, scaler);
    restore_train_state(model_, opt_, ck);
    start_epoch = static_cast<std::size_t>(ck.epoch);
    resume_samples = ck.samples_done;
    resume_loss_sum = ck.loss_sum;
    resume_loss_count = ck.loss_count;
    best_val = ck.best_val;
    since_best = static_cast<std::size_t>(ck.since_best);
    if (cfg_.verbose)
      util::log_info(model_.name(), ": resumed from ", ckpt_path,
                     " at epoch ", start_epoch, ", sample ", resume_samples);
  }

  // Construct the engine AFTER any resume restore: lane replicas deep-copy
  // the model's weights at construction, so building it earlier would run
  // the first resumed batch with stale (initial) weights on lanes 1+.
  BatchEngine engine(model_, cfg_, opt_, pool_ ? &*pool_ : nullptr, cache);

  // The cursor says how far into pass `epoch` training got; the in-epoch
  // loss accumulators travel with it (zero at a pass start).
  const auto snapshot = [&](std::uint64_t epoch, std::uint64_t samples_done) {
    TrainCheckpoint ck;
    ck.config_digest = digest;
    ck.epoch = epoch;
    ck.samples_done = samples_done;
    if (samples_done != 0) {
      ck.loss_sum = engine.epoch_loss_sum();
      ck.loss_count = engine.epoch_loss_count();
    }
    ck.best_val = best_val;
    ck.since_best = since_best;
    capture_train_state(model_, opt_, scaler, ck);
    save_checkpoint(ckpt_path, ck);
  };

  for (std::size_t epoch = start_epoch; epoch < cfg_.epochs; ++epoch) {
    util::Stopwatch watch;
    train.reset(epoch);
    engine.begin_epoch();
    std::uint64_t samples_done = 0;
    if (epoch == start_epoch && resume_samples > 0) {
      // The pass replays the interrupted run's order, so the cursor is
      // just a count: pull and discard the prefix already trained on.
      for (; samples_done < resume_samples; ++samples_done)
        if (!train.next())
          throw CheckpointError(
              "resume refused: stream ended after " +
              std::to_string(samples_done) + " samples, checkpoint cursor "
              "is at " + std::to_string(resume_samples) +
              " (did the training store change?)");
      engine.restore_epoch_loss(resume_loss_sum, resume_loss_count);
    }
    // A cursor sits on a step boundary (a full batch, or the pass's end
    // after a trailing partial one), so it converts back to a step count.
    std::uint64_t steps = (samples_done + batch - 1) / batch;
    for (bool more = true; more;) {
      while (batch_ptrs.size() < batch) {
        auto sp = train.next();
        if (!sp) {
          more = false;
          break;
        }
        batch_ptrs.push_back(sp.get());
        hold.push_back(std::move(sp));
      }
      if (batch_ptrs.empty()) break;
      engine.process_batch(batch_ptrs, scaler);
      samples_done += batch_ptrs.size();
      batch_ptrs.clear();
      hold.clear();
      ++steps;
      // One poll per optimizer step, the trailing partial one included.
      const bool stop = cfg_.stop_requested && cfg_.stop_requested();
      if (ckpt_on && (stop || (cfg_.checkpoint_every != 0 &&
                               steps % cfg_.checkpoint_every == 0)))
        snapshot(epoch, samples_done);
      if (stop) {
        interrupted_ = true;
        if (cfg_.verbose)
          util::log_info(model_.name(), ": stop requested at epoch ", epoch,
                         ", sample ", samples_done,
                         ckpt_on ? " (checkpoint written)" : "");
        return history;
      }
    }
    opt_.set_lr(opt_.lr() * cfg_.lr_decay);

    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = engine.epoch_mean_loss();
    rec.val_loss = val ? evaluate_loss(*val, scaler)
                       : std::numeric_limits<double>::quiet_NaN();
    rec.seconds = watch.seconds();
    history.push_back(rec);
    if (cfg_.verbose)
      util::log_info(model_.name(), " epoch ", epoch, ": train_loss=",
                     rec.train_loss, val ? " val_loss=" : "",
                     val ? std::to_string(rec.val_loss) : std::string(),
                     " (", rec.seconds, "s)");

    bool early_stop = false;
    if (val && cfg_.patience > 0) {
      if (rec.val_loss < best_val - 1e-9) {
        best_val = rec.val_loss;
        since_best = 0;
      } else if (++since_best >= cfg_.patience) {
        if (cfg_.verbose)
          util::log_info(model_.name(), ": early stop at epoch ", epoch);
        early_stop = true;
      }
    }
    // End-of-epoch checkpoint: cursor at the NEXT pass's start (post-
    // decay lr, zeroed accumulators).  Early stop and natural completion
    // both park the cursor at cfg_.epochs, so resuming a finished run
    // retrains nothing.
    if (ckpt_on) snapshot(early_stop ? cfg_.epochs : epoch + 1, 0);
    if (early_stop) break;
  }
  return history;
}

double Trainer::evaluate_loss(const data::Dataset& ds,
                              const data::Scaler& scaler) const {
  data::DatasetSource src(ds);
  return evaluate_loss(src, scaler);
}

double Trainer::evaluate_loss(data::SampleSource& src,
                              const data::Scaler& scaler) const {
  // Transient samples run cache-detached so no address-keyed plan entry
  // can outlive its sample (see fit_stream).
  const PlanCacheScope cache_scope(model_);
  if (!src.stable_addresses()) model_.set_plan_cache(nullptr);

  // Inference is read-only on the weights, so the lanes share the
  // primary model.  A window of samples is evaluated at a time, so
  // residency stays bounded; per-sample losses land in slots and are
  // summed in sample order — the same result for any lane count and
  // any window.
  src.reset();
  const std::size_t lanes = pool_ ? pool_->size() : 1;
  const std::size_t window = std::max<std::size_t>(4 * lanes, 8);
  std::vector<std::shared_ptr<const data::Sample>> hold;
  hold.reserve(window);
  std::vector<double> losses(window, 0.0);
  std::vector<char> defined(window, 0);
  double sum = 0.0;
  std::size_t count = 0;

  const auto flush = [&] {
    const std::size_t n = hold.size();
    if (n == 0) return;
    std::fill(defined.begin(), defined.begin() + static_cast<std::ptrdiff_t>(n), 0);
    const auto eval_one = [&](std::size_t i) {
      const nn::NoGradGuard guard;
      const nn::Var loss = sample_loss(model_, *hold[i], scaler,
                                       cfg_.min_delivered, cfg_.target);
      if (!loss.defined()) return;
      losses[i] = loss.value().item();
      defined[i] = 1;
    };
    if (pool_ && n > 1) {
      pool_->parallel_for(n, eval_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) eval_one(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!defined[i]) continue;
      sum += losses[i];
      ++count;
    }
    hold.clear();
  };

  while (auto sp = src.next()) {
    hold.push_back(std::move(sp));
    if (hold.size() == window) flush();
  }
  flush();
  return count ? sum / static_cast<double>(count)
               : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace rnx::core
