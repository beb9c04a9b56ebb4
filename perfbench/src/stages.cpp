// The three stages every run goes through — datagen, train, serve — and
// the set-up fixture they share.  Sizes are fixed here; the stage budgets
// are shares of the run's --seconds.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "common.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "data/shards.hpp"
#include "serve/bundle.hpp"
#include "serve/scheduler.hpp"
#include "stats.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace rnx;

void Tally::op(bool ok, const char* what) {
  ++attempted;
  if (!ok) fail(1, what);
}

void Tally::fail(std::uint64_t n, const char* what) {
  failed += n;
  if (n > 0 && notes.size() < 8) notes.emplace_back(what);
}

namespace {

constexpr std::size_t kTrainSamples = 32;
constexpr std::uint64_t kPoolPackets = 20'000;
constexpr std::size_t kDatagenSamples = 64;  // per repetition
constexpr std::size_t kShardSamples = 16;
constexpr double kLoRate = 100.0;
constexpr double kHiRate = 250.0;
constexpr std::size_t kLadderRungs = 32;  // 100 .. 1920 req/s, 10% apart
constexpr std::size_t kProbeAbortInFlight = 100;

// The run goes through datagen, train, query, lo and hi in kRounds
// rounds and pools each metric's samples over them, so a slow spell of a
// shared host is spread over every metric instead of landing on one.
// Max rate runs once, at the end, and only in traced runs (see
// README.md: on a shared host its run-to-run spread reached the largest
// bound an end-to-end metric may have).
constexpr std::size_t kRounds = 5;
// Shares of the run's seconds per stage, summed over the rounds.  The
// query and open-loop phases also send at least kTailSamples requests
// in all, which at the lo rate takes 10 s whatever the share; datagen is
// one fixed-size repetition per round.  Max rate comes on top.
constexpr double kShareTrain = 0.1, kShareQuery = 0.14, kShareLo = 0.2,
                 kShareHi = 0.3, kShareMaxRate = 0.2;
// A ladder probe's verdict is pass/fail, not a reported percentile, so it
// needs fewer requests; the two rungs that decide the answer are probed
// twice and pooled.
constexpr std::size_t kProbeMinRequests = 600;

Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Requests for a phase at `rate` over `budget` seconds: at least
/// `floor`, so the pooled tail has 10 samples beyond p99.
std::size_t phase_requests(double rate, double budget,
                           std::size_t floor = kTailSamples) {
  return std::max(floor, static_cast<std::size_t>(std::ceil(rate * budget)));
}

/// ceil(total / kRounds): one round's share of a pooled floor.
constexpr std::size_t per_round(std::size_t total) {
  return (total + kRounds - 1) / kRounds;
}

// -- datagen -----------------------------------------------------------------

struct DatagenState {
  std::size_t reps = 0;
  std::uint64_t first_digest = 0;
  std::size_t samples = 0;
  double wall = 0.0;
};

/// One repetition: generate the mixed-topology dataset into a sharded
/// store (timed), then check it (untimed): read-back digests equal the
/// generated ones, and every repetition produces the same dataset.
void datagen_round(const Options& opt, Tracer& tr, Tally& tally,
                   DatagenState& st) {
  const data::GeneratorConfig cfg = datagen_config();
  const std::uint64_t seed = derive_seed(opt.seed, "datagen");
  const std::string path = opt.out_dir + "/datagen.rnxm";
  std::vector<std::uint64_t> digests;
  const std::int64_t span = tr.begin("data.generate_dataset_stream");
  const Clock::time_point t0 = Clock::now();
  data::ShardWriter writer(path, kShardSamples, seed, data::config_digest(cfg));
  data::generate_dataset_stream(
      data::mixed_topology(), kDatagenSamples, cfg, seed, kLanes,
      [&](std::size_t, data::Sample s) {
        digests.push_back(data::io::sample_digest(s));
        const Clock::time_point a = Clock::now();
        writer.add(s);
        tr.record("data.shard_add", a, Clock::now(), span);
      });
  const Clock::time_point f0 = Clock::now();
  (void)writer.finish();
  const Clock::time_point t1 = Clock::now();
  tr.record("data.shard_finish", f0, t1, span);
  tr.end(span);
  st.wall += seconds_between(t0, t1);
  st.samples += digests.size();

  const data::Dataset back = data::ShardedReader(path).load_all();
  tally.op(back.size() == digests.size(),
           "datagen: shard read-back sample count differs");
  for (std::size_t i = 0; i < digests.size() && i < back.size(); ++i)
    tally.op(data::io::sample_digest(back[i]) == digests[i],
             "datagen: shard read-back digest differs");
  const std::uint64_t digest = fold_digests(digests);
  if (st.reps++ == 0)
    st.first_digest = digest;
  else
    tally.op(digest == st.first_digest,
             "datagen: dataset digest differs between repetitions");
  (void)remove_files_with_prefix(opt.out_dir, "datagen");
}

// -- train -------------------------------------------------------------------

/// The DESIGN §T guarantee: the first optimizer step on 4 lanes leaves
/// the weights bitwise-equal to the same step on 1 lane.
void check_lane_parity(const Options& opt, const Fixture& fx, Tally& tally) {
  const core::ModelConfig mc = train_model_config(opt.seed);
  const auto init = core::make_model(core::ModelKind::kExtended, mc);
  const auto one = core::make_model(core::ModelKind::kExtended, mc);
  const auto four = core::make_model(core::ModelKind::kExtended, mc);
  for (const auto& [model, lanes] :
       {std::pair{one.get(), std::size_t{1}}, std::pair{four.get(), kLanes}}) {
    core::TrainConfig tc = train_config();
    tc.epochs = 1;
    tc.threads = lanes;
    tc.stop_requested = [] { return true; };  // stop after the first step
    core::Trainer trainer(*model, tc);
    (void)trainer.fit(fx.train, fx.scaler);
  }
  tally.op(!same_weights(*init, *one), "train: first step left weights unchanged");
  tally.op(same_weights(*one, *four),
           "train: first step on 4 lanes differs from 1 lane");
}

/// Trainer::fit on the GEANT2 set, a budget per round.  Step wall times
/// come from the stop_requested poll, which fit calls after every
/// optimizer step.  replay: one long fit per round, so epochs after the
/// first hit the fit's plan cache; fresh: one epoch per fit, so every
/// plan is built.  Not copyable: the poll captures `this`.
class TrainState {
 public:
  TrainState(const Options& opt, const Fixture& fx)
      : fx_(fx),
        fresh_(opt.workload == Workload::kFresh),
        model_(core::make_model(core::ModelKind::kExtended,
                                train_model_config(opt.seed))),
        trainer_(*model_, config()) {}
  TrainState(const TrainState&) = delete;
  TrainState& operator=(const TrainState&) = delete;

  void round(double budget, Tracer& tr, Tally& tally) {
    deadline_ = Clock::now() + as_duration(budget);
    round_steps_ = 0;
    for (;;) {
      polls_.clear();
      const std::int64_t span = tr.begin("core.fit");
      const Clock::time_point f0 = Clock::now();
      const std::vector<core::EpochRecord> history =
          trainer_.fit(fx_.train, fx_.scaler);
      tr.end(span);
      Clock::time_point prev = f0;
      for (const Clock::time_point t : polls_) {
        step_ms.push_back(seconds_between(prev, t) * 1e3);
        tr.record("train.step", prev, t, span);
        prev = t;
      }
      busy_s += seconds_between(f0, prev);
      for (const core::EpochRecord& rec : history)
        tally.op(std::isfinite(rec.train_loss), "train: non-finite epoch loss");
      if (trainer_.interrupted()) return;
      if (!fresh_) {
        tally.op(false, "train: fit ended before the budget was spent");
        return;
      }
    }
  }

  std::vector<double> step_ms;
  double busy_s = 0.0;

 private:
  core::TrainConfig config() {
    core::TrainConfig tc = train_config();
    tc.epochs = fresh_ ? 1 : 1'000'000;
    tc.stop_requested = [this] {
      const Clock::time_point t = Clock::now();
      polls_.push_back(t);
      ++round_steps_;
      return t >= deadline_ && round_steps_ >= per_round(kMinTrainSteps);
    };
    return tc;
  }

  const Fixture& fx_;
  const bool fresh_;
  std::vector<Clock::time_point> polls_;
  Clock::time_point deadline_{};
  std::size_t round_steps_ = 0;
  std::unique_ptr<core::Model> model_;
  core::Trainer trainer_;
};

// -- serve -------------------------------------------------------------------

/// One stretch of the query loop: at least `want` queries and `budget`
/// seconds.
void query_leg(const Options& opt, Fixture& fx, Tracer& tr, Tally& tally,
               double budget, std::size_t want, std::uint64_t& next_request,
               std::vector<double>& lat_ms) {
  const serve::InferenceEngine& ext = fx.registry->at(kModelNames[kExt]);
  const bool fresh = opt.workload == Workload::kFresh;
  const std::int64_t span = tr.begin("serve.query_phase");
  const Clock::time_point deadline = Clock::now() + as_duration(budget);
  want += lat_ms.size();
  for (std::size_t i = 0; lat_ms.size() < want || Clock::now() < deadline;
       ++i) {
    const std::size_t j = kPoolPerTopo + i % kPoolPerTopo;
    const data::Sample& s = fx.pool[j];
    if (fresh) fx.registry->invalidate(s);
    const Clock::time_point t0 = Clock::now();
    const std::vector<double> pred = ext.predict(s);
    const Clock::time_point t1 = Clock::now();
    lat_ms.push_back(seconds_between(t0, t1) * 1e3);
    tr.record("serve.predict", t0, t1, span, next_request++);
    tally.op(bitwise_equal(pred, fx.reference[kExt][j]),
             "serve: query prediction differs from the serial reference");
  }
  tr.end(span);
}

/// Pins the calling thread to one CPU while alive and restores its
/// previous CPU set on exit.  Without an affinity API it does nothing.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu) {
    pinned_ = pthread_getaffinity_np(pthread_self(), sizeof(prev_), &prev_) == 0;
    if (!pinned_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~PinToCpu() {
    if (pinned_) (void)pthread_setaffinity_np(pthread_self(), sizeof(prev_), &prev_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t prev_{};
  bool pinned_ = false;
};

/// The CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Closed loop, one caller, no scheduler: serial predict calls to the
/// ext bundle on the GEANT2 scenarios — the paper's query cost.  The
/// caller moves over every allowed CPU in turn, an equal share of the
/// round on each, so one slow core of a shared host cannot set the
/// figure.
void query_round(const Options& opt, Fixture& fx, Tracer& tr, Tally& tally,
                 double budget, std::uint64_t& next_request,
                 std::vector<double>& lat_ms) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t legs = std::max<std::size_t>(cpus.size(), 1);
  const std::size_t want = per_round(kTailSamples);
  for (std::size_t leg = 0; leg < legs; ++leg) {
    std::optional<PinToCpu> pin;
    if (!cpus.empty()) pin.emplace(cpus[leg]);
    query_leg(opt, fx, tr, tally, budget / static_cast<double>(legs),
              (want + legs - 1) / legs, next_request, lat_ms);
  }
}

struct PhaseOutcome {
  std::size_t requests = 0;
  std::vector<double> lat_ms;  ///< completed requests, timed from due
  std::size_t sent = 0, shed = 0, failed = 0, mismatched = 0;
  double late_max_s = 0.0;
  double drain_lag_s = std::numeric_limits<double>::infinity();
  bool stopped_early = false;
  serve::ServeStats stats;
  std::vector<Request> mix;

  [[nodiscard]] bool all_completed() const {
    return !stopped_early && lat_ms.size() == requests;
  }
  /// The max-rate criterion: every request completed correctly, p99
  /// within the limit, and no growing backlog (the last request finished
  /// within the limit of its due time).
  [[nodiscard]] bool meets_limit() const {
    return all_completed() && mismatched == 0 &&
           nearest_rank(lat_ms, 99.0) <= kLatencyLimitMs &&
           drain_lag_s * 1e3 <= kLatencyLimitMs;
  }
};

/// Pool a later round's outcome into `into`.
void merge(PhaseOutcome& into, const PhaseOutcome& p) {
  into.requests += p.requests;
  into.lat_ms.insert(into.lat_ms.end(), p.lat_ms.begin(), p.lat_ms.end());
  into.sent += p.sent;
  into.shed += p.shed;
  into.failed += p.failed;
  into.mismatched += p.mismatched;
  into.late_max_s = std::max(into.late_max_s, p.late_max_s);
  into.drain_lag_s = std::max(into.drain_lag_s, p.drain_lag_s);
  into.stopped_early = into.stopped_early || p.stopped_early;
  into.stats.batches += p.stats.batches;
  into.stats.batch_samples += p.stats.batch_samples;
  into.stats.peak_queue_depth =
      std::max(into.stats.peak_queue_depth, p.stats.peak_queue_depth);
}

/// Joins a thread on scope exit after running `close`, so an exception
/// in the generator cannot leave the collector running.
class JoinOnExit {
 public:
  JoinOnExit(std::thread& t, std::function<void()> close)
      : t_(t), close_(std::move(close)) {}
  ~JoinOnExit() {
    close_();
    if (t_.joinable()) t_.join();
  }
  JoinOnExit(const JoinOnExit&) = delete;
  JoinOnExit& operator=(const JoinOnExit&) = delete;

 private:
  std::thread& t_;
  std::function<void()> close_;
};

/// Open loop: Poisson arrivals at a fixed absolute rate into a
/// BatchScheduler.  Threads: this one generates (non-blocking submit),
/// one collector timestamps completions, plus the scheduler's drainer
/// and the registry pool's one worker — 4 in all.  `abort_in_flight`
/// (0 = never) stops the generator once that many requests are
/// outstanding, so an overloaded probe fails before the queue sheds.
PhaseOutcome open_loop(const Options& opt, Fixture& fx, Tracer& tr,
                       double rate, std::size_t n, std::uint64_t seed,
                       std::size_t abort_in_flight, std::uint64_t& next_request,
                       const char* phase) {
  util::RngStream rng(seed);
  const std::vector<double> due =
      poisson_due_times(rate, n, [&] { return rng.uniform(); });
  PhaseOutcome out;
  out.mix = request_mix(n, kPoolPerTopo, rng);
  const std::vector<Request>& mix = out.mix;
  const bool fresh = opt.workload == Workload::kFresh;
  const std::uint64_t id0 = next_request;
  next_request += n;

  serve::BatchScheduler sched(scheduler_config(), fx.registry->pool());
  struct Pending {
    std::size_t i = 0;
    serve::Submitted sub;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closed = false;        // guarded by mu
  std::atomic<std::size_t> collected{0};
  std::vector<double> done_s(n, std::numeric_limits<double>::quiet_NaN());
  out.requests = n;
  const std::int64_t span = tr.begin(phase);
  const Clock::time_point t0 = Clock::now();

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      if (!p.sub.admitted()) {
        ++out.shed;
      } else {
        try {
          const serve::PredictionSet r = p.sub.result.get();
          const Clock::time_point t = Clock::now();
          done_s[p.i] = seconds_between(t0, t);
          const Request& q = mix[p.i];
          if (r.size() != 1 ||
              !bitwise_equal(r[0], fx.reference[q.model][q.scenario]))
            ++out.mismatched;
          tr.record("serve.request", t0 + as_duration(due[p.i]), t, span,
                    id0 + p.i);
        } catch (const std::exception&) {
          ++out.failed;
        }
      }
      collected.fetch_add(1, std::memory_order_release);
    }
  });
  {
    const JoinOnExit join(collector, [&] {
      {
        const std::lock_guard lock(mu);
        closed = true;
      }
      cv.notify_one();
    });
    GeneratorHooks hooks;
    hooks.now = [&] { return seconds_between(t0, Clock::now()); };
    hooks.sleep_until = [&](double t) {
      std::this_thread::sleep_until(t0 + as_duration(t));
    };
    hooks.submit = [&](std::size_t i, double) {
      const data::Sample& s = fx.pool[mix[i].scenario];
      if (fresh) fx.registry->invalidate(s);
      const Clock::time_point a = Clock::now();
      serve::Submitted sub = sched.submit(*fx.registry,
                                          kModelNames[mix[i].model],
                                          std::span(&s, 1));
      tr.record("serve.submit", a, Clock::now(), span, id0 + i);
      {
        const std::lock_guard lock(mu);
        queue.push_back(Pending{i, std::move(sub)});
      }
      cv.notify_one();
      return abort_in_flight == 0 ||
             i + 1 - collected.load(std::memory_order_acquire) <=
                 abort_in_flight;
    };
    const GeneratorReport g = run_open_loop(due, hooks);
    out.sent = g.submitted;
    out.late_max_s = g.late_max_s;
    out.stopped_early = g.stopped_early;
  }
  tr.end(span);
  out.stats = sched.stats();
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isnan(done_s[i])) out.lat_ms.push_back((done_s[i] - due[i]) * 1e3);
  if (!std::isnan(done_s[n - 1])) out.drain_lag_s = done_s[n - 1] - due[n - 1];
  return out;
}

/// Count a phase's requests as operations: shed, failed and mismatched
/// requests are failures.
void tally_phase(const PhaseOutcome& p, Tally& tally, StageResults& r) {
  r.serve_requests += p.sent;
  r.serve_shed += p.shed;
  r.serve_failed += p.failed;
  r.gen_late_ms_max = std::max(r.gen_late_ms_max, p.late_max_s * 1e3);
  tally.attempted += p.sent;
  tally.fail(p.shed, "serve: request shed");
  tally.fail(p.failed, "serve: request failed");
  tally.fail(p.mismatched,
             "serve: prediction differs from the serial reference");
}

/// The p50/p99 pair of a latency sample; a tail with fewer than 10
/// samples beyond it is a failed operation.
std::pair<double, double> p50_p99(const std::vector<double>& lat, Tally& tally,
                                  const char* what) {
  const Summary s = summarize(lat, 99.0);
  tally.op(s.tail_supported, what);
  return {s.p50, s.tail};
}

/// Highest ladder rate meeting the latency limit.
double max_rate(const Options& opt, Fixture& fx, Tracer& tr, Tally& tally,
                double seconds, const PhaseOutcome& lo, const PhaseOutcome& hi,
                std::uint64_t& next_request, StageResults& r) {
  // Max rate: bisection over a fixed ladder (rung 0 is the lo rate),
  // starting above the highest rung the lo/hi phases already showed to
  // meet the limit.  A rung's verdict uses every probe of it so far; the
  // n-th probe of any rung replays arrival pattern n scaled to its rate
  // (common random numbers), so probes differ only in rate.  After the
  // bisection, the answer and the rung above it are probed once more with
  // a fresh pattern and decided on the pooled samples: one unlucky probe
  // near the knee then moves the answer by at most one rung.
  const std::vector<double> ladder =
      geometric_ladder(kLoRate, 1.1, kLadderRungs);
  // Known verdicts: lo passing means rung 0 passes; hi passing means
  // every rung up to 250 req/s passes, and hi failing means every rung
  // from 250 req/s up fails.
  std::ptrdiff_t known_pass = lo.meets_limit() ? 0 : -1;
  std::size_t rungs = ladder.size();
  const std::size_t first_above_hi = static_cast<std::size_t>(
      std::upper_bound(ladder.begin(), ladder.end(), kHiRate) - ladder.begin());
  if (hi.meets_limit())
    known_pass = std::max(known_pass,
                          static_cast<std::ptrdiff_t>(first_above_hi) - 1);
  else
    rungs = first_above_hi;
  const double probe_budget = kShareMaxRate * seconds / 5.0;
  std::vector<std::optional<PhaseOutcome>> probed(ladder.size());
  std::vector<std::uint64_t> visits(ladder.size(), 0);
  const auto passes = [&](std::size_t k) {
    ++r.ladder_probes;
    PhaseOutcome p = open_loop(
        opt, fx, tr, ladder[k],
        phase_requests(ladder[k], probe_budget, kProbeMinRequests),
        derive_seed(opt.seed, "serve-ladder", visits[k]++),
        kProbeAbortInFlight, next_request, "serve.ladder_probe");
    tally_phase(p, tally, r);
    if (probed[k])
      merge(*probed[k], p);
    else
      probed[k] = std::move(p);
    return probed[k]->meets_limit();
  };
  std::ptrdiff_t best = bisect_ladder(rungs, known_pass, passes);
  const auto rung = [](std::ptrdiff_t k) { return static_cast<std::size_t>(k); };
  if (rung(best + 1) < rungs && passes(rung(best + 1)))
    ++best;
  else if (best >= 0 && !passes(rung(best)))
    --best;
  tally.op(best >= 0, "serve: no ladder rate meets the latency limit");
  return best >= 0 ? ladder[rung(best)] : 0.0;
}

}  // namespace

std::unique_ptr<Fixture> build_fixture(const Options& opt) {
  auto fx = std::make_unique<Fixture>();
  data::GeneratorConfig gen;
  gen.target_packets = kPoolPackets;
  fx->train = data::Dataset(data::generate_dataset(
      topo::geant2(), kTrainSamples, gen, derive_seed(opt.seed, "train"),
      kLanes));
  fx->scaler = data::Scaler::fit(fx->train.samples());
  fx->pool = data::generate_dataset(topo::nsfnet(), kPoolPerTopo, gen,
                                    derive_seed(opt.seed, "pool-nsfnet"),
                                    kLanes);
  std::vector<data::Sample> geant = data::generate_dataset(
      topo::geant2(), kPoolPerTopo, gen, derive_seed(opt.seed, "pool-geant2"),
      kLanes);
  std::move(geant.begin(), geant.end(), std::back_inserter(fx->pool));

  std::array<std::string, 2> paths;
  for (std::size_t m = 0; m < 2; ++m) {
    core::ModelConfig mc;
    mc.init_seed = derive_seed(opt.seed, kModelNames[m]);
    const auto model = core::make_model(
        m == kExt ? core::ModelKind::kExtended : core::ModelKind::kOriginal, mc);
    paths[m] = opt.out_dir + "/" + kModelNames[m] + ".rnxb";
    serve::save_bundle(paths[m], *model, fx->scaler,
                       core::PredictionTarget::kDelay, 10);
  }
  fx->registry = std::make_unique<serve::ModelRegistry>(kServeLanes);
  const Clock::time_point l0 = Clock::now();
  for (std::size_t m = 0; m < 2; ++m) fx->registry->add(kModelNames[m], paths[m]);
  fx->bundle_load_ms = seconds_between(l0, Clock::now()) * 1e3;
  for (const std::string& p : paths) std::filesystem::remove(p);

  // Serial reference predictions; also the warm-up of every serve path.
  for (std::size_t m = 0; m < 2; ++m)
    for (const data::Sample& s : fx->pool)
      fx->reference[m].push_back(fx->registry->at(kModelNames[m]).predict(s));
  return fx;
}

StageResults run_stages(const Options& opt, Fixture& fx, Tracer& tr,
                        Tally& tally, double seconds) {
  StageResults r;
  const double round_s = seconds / static_cast<double>(kRounds);
  DatagenState datagen;
  check_lane_parity(opt, fx, tally);
  TrainState train(opt, fx);
  std::vector<double> query_ms;
  PhaseOutcome lo, hi;
  std::uint64_t next_request = 1;
  const core::PlanCache::Stats cache0 = fx.registry->plan_cache().stats();
  for (std::size_t round = 0; round < kRounds; ++round) {
    datagen_round(opt, tr, tally, datagen);
    train.round(kShareTrain * round_s, tr, tally);
    query_round(opt, fx, tr, tally, kShareQuery * round_s, next_request,
                query_ms);
    const PhaseOutcome lo_round = open_loop(
        opt, fx, tr, kLoRate,
        phase_requests(kLoRate, kShareLo * round_s, per_round(kTailSamples)),
        derive_seed(opt.seed, "serve-lo", round), 0, next_request,
        "serve.open_loop.lo");
    const PhaseOutcome hi_round = open_loop(
        opt, fx, tr, kHiRate,
        phase_requests(kHiRate, kShareHi * round_s, per_round(kTailSamples)),
        derive_seed(opt.seed, "serve-hi", round), 0, next_request,
        "serve.open_loop.hi");
    if (round == 0) {
      lo = lo_round;
      hi = hi_round;
    } else {
      merge(lo, lo_round);
      merge(hi, hi_round);
    }
  }

  r.datagen_samples = datagen.samples;
  r.train_steps = train.step_ms.size();
  r.queries = query_ms.size();
  r.lo_requests_done = lo.lat_ms.size();
  r.hi_requests_done = hi.lat_ms.size();
  r.datagen_samples_per_s =
      static_cast<double>(datagen.samples) / datagen.wall;
  r.train_samples_per_s =
      static_cast<double>(train.step_ms.size() * kBatchSamples) /
      train.busy_s;
  const Summary steps = summarize(train.step_ms, 90.0);
  tally.op(steps.tail_supported, "train: fewer than 10 steps beyond p90");
  r.train_step_ms_p50 = steps.p50;
  r.train_step_ms_p90 = steps.tail;
  std::tie(r.query_ms_p50, r.query_ms_p99) =
      p50_p99(query_ms, tally, "serve: fewer than 10 queries beyond p99");

  tally_phase(lo, tally, r);
  std::tie(r.lo_p50_ms, r.lo_p99_ms) =
      p50_p99(lo.lat_ms, tally, "serve: fewer than 10 lo requests beyond p99");
  r.lo_stats = lo.stats;
  r.lo_requests.assign(
      lo.mix.begin(),
      lo.mix.begin() + std::min<std::ptrdiff_t>(400, std::ssize(lo.mix)));
  tally_phase(hi, tally, r);
  std::tie(r.hi_p50_ms, r.hi_p99_ms) =
      p50_p99(hi.lat_ms, tally, "serve: fewer than 10 hi requests beyond p99");
  r.hi_stats = hi.stats;

  if (opt.trace) r.max_rps = max_rate(opt, fx, tr, tally, seconds, lo, hi,
                                      next_request, r);

  const core::PlanCache::Stats cache1 = fx.registry->plan_cache().stats();
  const std::uint64_t lookups = cache1.lookups - cache0.lookups;
  r.plan_cache_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache1.hits - cache0.hits) /
                         static_cast<double>(lookups);
  return r;
}

MetricList end_to_end_metrics(const StageResults& r) {
  return {
      {"datagen_samples_per_s", r.datagen_samples_per_s, "samples/s"},
      {"train_samples_per_s", r.train_samples_per_s, "samples/s"},
      {"train_step_ms_p50", r.train_step_ms_p50, "ms"},
      {"train_step_ms_p90", r.train_step_ms_p90, "ms"},
      {"query_ms_p50", r.query_ms_p50, "ms"},
      {"serve_lo_p50_ms", r.lo_p50_ms, "ms"},
  };
}

}  // namespace perfbench
