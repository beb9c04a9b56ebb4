// Layer probes of the traced run.  Each probe calls one layer directly
// and serially, inside a span, so its time is that layer's own.  The
// exact work counters use inputs from a fixed probe seed (not the run's
// seed), so they repeat bit-for-bit across runs; each is computed twice
// and a mismatch is a failed operation.
#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "bench.hpp"
#include "common.hpp"
#include "core/plan.hpp"
#include "data/shards.hpp"
#include "nn/autograd.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "serve/scheduler.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "topo/routing.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"

namespace perfbench {

using namespace rnx;

namespace {

constexpr std::uint64_t kProbeSeed = 20191209;
constexpr std::size_t kProbePerTopo = 4;  // probe samples: NSFNET, then GEANT2
constexpr std::size_t kGeantPaths = 552;  // GEANT2: 24 nodes, all pairs
constexpr std::size_t kStateDim = 16;     // default ModelConfig::state_dim
constexpr std::size_t kSerialDatagenSamples = 16;
// A burst well above capacity, so batches of several requests form.
constexpr std::size_t kScriptedRequests = 400;
constexpr double kScriptedRate = 2500.0;
constexpr double kScriptedTick = 0.002;

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

/// Time `fn` until at least `min_reps` calls and `min_seconds` have
/// passed; returns the median call time in ms.
template <class Fn>
double median_ms(Tracer& tr, const char* span, std::size_t min_reps,
                 double min_seconds, Fn&& fn) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < min_reps ||
         seconds_between(start, Clock::now()) < min_seconds) {
    const Clock::time_point t0 = Clock::now();
    fn(times.size());
    const Clock::time_point t1 = Clock::now();
    tr.record(span, t0, t1);
    times.push_back(seconds_between(t0, t1) * 1e3);
  }
  return nearest_rank(times, 50);
}

/// A fixed GEANT2 simulation case: random queue sizes, hop-count
/// routing, uniform traffic scaled to 80% peak link utilization.
struct SimCase {
  topo::Topology topo = topo::geant2();
  topo::RoutingScheme routing{1};
  topo::TrafficMatrix traffic{1};

  SimCase() {
    util::RngStream rng(kProbeSeed);
    topo::randomize_queue_sizes(topo, 0.5, rng);
    routing = topo::hop_count_routing(topo);
    traffic = topo::uniform_traffic(topo.num_nodes(), 0.5, 1.0, rng);
    topo::scale_to_max_utilization(traffic, topo, routing, 0.8);
  }

  /// One Simulator::run sized to about `packets` packets; returns events.
  std::uint64_t run(double packets, Tracer& tr, double* ms) const {
    sim::SimConfig cfg;
    cfg.window_s = packets / (traffic.total() / cfg.mean_packet_bits);
    cfg.warmup_s = 0.1 * cfg.window_s;
    cfg.seed = kProbeSeed;
    const Clock::time_point t0 = Clock::now();
    sim::Simulator simulator(topo, routing, traffic, cfg);
    const sim::SimResult res = simulator.run();
    tr.record("sim.run", t0, Clock::now());
    if (ms != nullptr) *ms = ms_since(t0);
    return res.total_events;
  }
};

/// Scheduler batches for a scripted arrival order: a manual-drain
/// scheduler on a scripted clock, fed a fixed Poisson script, drained
/// every kScriptedTick of scripted time (a drainer kept busy between
/// ticks).  Batch formation is then a pure function of the script.
serve::ServeStats scripted_scheduler(Fixture& fx, Tally& tally) {
  Clock::time_point now{};
  serve::SchedulerConfig sc = scheduler_config();
  sc.manual_drain = true;
  sc.now = [&now] { return now; };
  serve::BatchScheduler sched(sc, nullptr);
  util::RngStream rng(kProbeSeed);
  const std::vector<double> due = poisson_due_times(
      kScriptedRate, kScriptedRequests, [&] { return rng.uniform(); });
  const std::vector<Request> mix =
      request_mix(kScriptedRequests, kPoolPerTopo, rng);
  const auto at = [](double s) {
    return Clock::time_point{} + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(s));
  };
  std::vector<serve::Submitted> subs;
  double tick = kScriptedTick;
  for (std::size_t i = 0; i < due.size(); ++i) {
    for (; tick <= due[i]; tick += kScriptedTick) {
      now = at(tick);
      (void)sched.pump();
    }
    now = at(due[i]);
    const data::Sample& s = fx.pool[mix[i].scenario];
    subs.push_back(sched.submit(*fx.registry, kModelNames[mix[i].model],
                                std::span(&s, 1)));
  }
  (void)sched.flush();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    bool ok = subs[i].admitted();
    if (ok) {
      const serve::PredictionSet r = subs[i].result.get();
      ok = r.size() == 1 &&
           bitwise_equal(r[0], fx.reference[mix[i].model][mix[i].scenario]);
    }
    tally.op(ok, "serve: scripted request failed or mismatched");
  }
  return sched.stats();
}

}  // namespace

MetricList layer_probes(const Options& opt, Fixture& fx, Tracer& tr,
                        Tally& tally, const StageResults& traced,
                        const StageResults& untraced) {
  MetricList out;
  const auto add = [&](std::string name, double value, std::string unit) {
    out.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  // Fixed probe inputs.
  data::GeneratorConfig gen;
  gen.target_packets = 20'000;
  std::vector<data::Sample> probe = data::generate_dataset(
      topo::nsfnet(), kProbePerTopo, gen, kProbeSeed, kLanes);
  std::vector<data::Sample> geant = data::generate_dataset(
      topo::geant2(), kProbePerTopo, gen, kProbeSeed, kLanes);
  std::move(geant.begin(), geant.end(), std::back_inserter(probe));
  const data::Scaler scaler = data::Scaler::fit(probe);
  const std::span<const data::Sample> nsf(probe.data(), kProbePerTopo);
  const std::span<const data::Sample> gea(probe.data() + kProbePerTopo,
                                          kProbePerTopo);

  // -- sim ------------------------------------------------------------------
  {
    const SimCase sc;
    const std::uint64_t ev_a = sc.run(60'000, tr, nullptr);
    const std::uint64_t ev_b = sc.run(60'000, tr, nullptr);
    tally.op(ev_a == ev_b, "sim: event count differs between identical runs");
    std::vector<double> ms;
    std::uint64_t events = 0;
    for (int i = 0; i < 3; ++i) {
      double t = 0;
      events = sc.run(200'000, tr, &t);
      ms.push_back(t);
    }
    const double sim_ms = nearest_rank(ms, 50);
    add("sim.events_per_s", static_cast<double>(events) / (sim_ms * 1e-3), "1/s");
    add("sim.events_per_sample", static_cast<double>(ev_a), "count");
    add("query_vs_sim_speedup", sim_ms / untraced.query_ms_p50, "ratio");
  }

  // -- data -----------------------------------------------------------------
  {
    const data::GeneratorConfig cfg = datagen_config();
    const data::TopologySampler sampler = data::mixed_topology();
    const std::uint64_t seed = derive_seed(opt.seed, "datagen");
    const util::RngStream root(seed);
    std::vector<double> ms;
    for (std::size_t i = 0; i < kSerialDatagenSamples; ++i) {
      util::RngStream rng = root.derive("sample", i);
      const topo::Topology t = sampler(rng);
      const Clock::time_point t0 = Clock::now();
      (void)data::generate_sample(t, cfg, rng);
      tr.record("data.generate_sample", t0, Clock::now());
      ms.push_back(ms_since(t0));
    }
    double serial_ms = 0;
    for (const double m : ms) serial_ms += m;
    const Clock::time_point p0 = Clock::now();
    data::generate_dataset_stream(sampler, kSerialDatagenSamples, cfg, seed,
                                  kLanes, [](std::size_t, data::Sample) {});
    const double parallel_ms = ms_since(p0);
    tr.record("data.generate_dataset_stream", p0, Clock::now());
    add("data.generate_sample_ms_p50", nearest_rank(ms, 50), "ms");
    add("datagen.lane_efficiency",
        serial_ms / (static_cast<double>(kLanes) * parallel_ms), "ratio");

    std::vector<double> write_ms;
    std::uintmax_t bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const std::string path = opt.out_dir + "/probe.rnxm";
      const Clock::time_point t0 = Clock::now();
      data::ShardWriter w(path, probe.size(), kProbeSeed,
                          data::config_digest(gen));
      for (const data::Sample& s : probe) w.add(s);
      (void)w.finish();
      tr.record("data.shard_write", t0, Clock::now());
      write_ms.push_back(ms_since(t0));
      const std::uintmax_t b = remove_files_with_prefix(opt.out_dir, "probe");
      if (rep > 0) tally.op(b == bytes, "data: shard bytes differ between writes");
      bytes = b;
    }
    add("data.shard_write_ms", nearest_rank(write_ms, 50), "ms");
    add("data.shard_bytes", static_cast<double>(bytes), "bytes");
  }

  // -- core.plan ------------------------------------------------------------
  for (const auto& [topo_name, samples] :
       {std::pair{"geant2", gea}, std::pair{"nsfnet", nsf}}) {
    const std::size_t entries = core::build_plan(samples[0], true).total_entries();
    tally.op(core::build_plan(samples[0], true).total_entries() == entries,
             "core.plan: entry count differs between builds");
    const double ms = median_ms(tr, "core.build_plan", 30, 0.05, [&](std::size_t) {
      (void)core::build_plan(samples[0], true);
    });
    add(std::string("core.plan.build_us.") + topo_name + ".ext", ms * 1e3, "us");
    add(std::string("core.plan.entries.") + topo_name + ".ext",
        static_cast<double>(entries), "count");
  }
  add("serve.plan_cache.hit_ratio", traced.plan_cache_hit_ratio, "ratio");

  // -- core forward + nn ----------------------------------------------------
  {
    const nn::NoGradGuard no_grad;
    for (const core::ModelKind kind :
         {core::ModelKind::kExtended, core::ModelKind::kOriginal}) {
      core::ModelConfig mc;
      mc.init_seed = kProbeSeed;
      const auto model = core::make_model(kind, mc);
      for (const auto& [topo_name, samples] :
           {std::pair{"geant2", gea}, std::pair{"nsfnet", nsf}}) {
        const double ms = median_ms(tr, "core.forward", 12, 0.15,
                                    [&](std::size_t i) {
          (void)model->forward(samples[i % samples.size()], scaler);
        });
        add(std::string("core.forward_ms.") + std::string(core::to_string(kind)) +
                "." + topo_name,
            ms, "ms");
      }
    }

    util::RngStream rng(kProbeSeed);
    const nn::GRUCell cell(kStateDim, kStateDim, rng, "probe");
    const nn::Var x(nn::uniform_init(kGeantPaths, kStateDim, -1.0, 1.0, rng));
    const nn::Var h(nn::uniform_init(kGeantPaths, kStateDim, -1.0, 1.0, rng));
    const double gru_ms = median_ms(tr, "nn.gru_step", 200, 0.1,
                                    [&](std::size_t) { (void)cell.step(x, h); });
    add("nn.gru_step_us", gru_ms * 1e3, "us");

    const nn::Tensor a = nn::uniform_init(kGeantPaths, kStateDim, -1.0, 1.0, rng);
    const nn::Tensor b = nn::uniform_init(kStateDim, kStateDim, -1.0, 1.0, rng);
    nn::Tensor c = nn::Tensor::zeros(kGeantPaths, kStateDim);
    constexpr int kInner = 100;
    const double mm_ms = median_ms(tr, "nn.matmul", 30, 0.1, [&](std::size_t) {
      for (int i = 0; i < kInner; ++i) nn::matmul_acc(c, a, b);
    });
    const double flops = 2.0 * kGeantPaths * kStateDim * kStateDim * kInner;
    add("nn.matmul_gflops", flops / (mm_ms * 1e-3) * 1e-9, "GFLOP/s");
  }

  // -- train: serial forward / backward / optimizer step -------------------
  {
    const auto model = core::make_model(core::ModelKind::kExtended,
                                        train_model_config(opt.seed));
    std::vector<nn::Var> params;
    for (const auto& [name, var] : model->named_params()) params.push_back(var);
    nn::Adam adam(params, 1e-3);
    const core::TrainConfig tc = train_config();
    std::vector<double> fwd, bwd, step_ms, total_ms;
    for (std::size_t step = 0; step < 3; ++step) {
      const std::int64_t span = tr.begin("train.serial_step");
      double total = 0;
      for (std::size_t k = 0; k < kBatchSamples; ++k) {
        const data::Sample& s =
            fx.train[(step * kBatchSamples + k) % fx.train.size()];
        Clock::time_point t0 = Clock::now();
        const nn::Var loss = core::Trainer::sample_loss(*model, s, fx.scaler,
                                                        tc.min_delivered);
        tr.record("core.sample_loss", t0, Clock::now(), span);
        fwd.push_back(ms_since(t0));
        total += fwd.back();
        if (!loss.defined()) continue;
        t0 = Clock::now();
        loss.backward();
        tr.record("nn.backward", t0, Clock::now(), span);
        bwd.push_back(ms_since(t0));
        total += bwd.back();
      }
      const Clock::time_point t0 = Clock::now();
      adam.clip_global_norm(tc.clip_norm);
      adam.step();
      adam.zero_grad();
      tr.record("nn.adam_step", t0, Clock::now(), span);
      step_ms.push_back(ms_since(t0));
      total_ms.push_back(total + step_ms.back());
      tr.end(span);
    }
    add("train.forward_ms", nearest_rank(fwd, 50), "ms");
    add("train.backward_ms", bwd.empty() ? 0.0 : nearest_rank(bwd, 50), "ms");
    add("train.adam_ms", nearest_rank(step_ms, 50), "ms");
    add("train.lane_efficiency",
        nearest_rank(total_ms, 50) /
            (static_cast<double>(kLanes) * traced.train_step_ms_p50),
        "ratio");
  }

  // -- serve ----------------------------------------------------------------
  {
    add("serve.batch_samples_mean.lo", traced.lo_stats.mean_batch_samples(),
        "samples");
    add("serve.batch_samples_mean.hi", traced.hi_stats.mean_batch_samples(),
        "samples");
    add("serve.peak_queue_depth.lo",
        static_cast<double>(traced.lo_stats.peak_queue_depth), "count");
    add("serve.peak_queue_depth.hi",
        static_cast<double>(traced.hi_stats.peak_queue_depth), "count");

    // Serial predict over the lo phase's request mix: what the scheduler
    // adds on top of the forward passes at low load.
    const bool fresh = opt.workload == Workload::kFresh;
    std::vector<double> serial_ms;
    for (const Request& q : traced.lo_requests) {
      const data::Sample& s = fx.pool[q.scenario];
      if (fresh) fx.registry->invalidate(s);
      const Clock::time_point t0 = Clock::now();
      (void)fx.registry->at(kModelNames[q.model]).predict(s);
      tr.record("serve.predict", t0, Clock::now());
      serial_ms.push_back(ms_since(t0));
    }
    add("serve.sched_overhead_us",
        (traced.lo_p50_ms - nearest_rank(serial_ms, 50)) * 1e3, "us");
    add("serve.gen_late_ms_max", traced.gen_late_ms_max, "ms");
    const double requests = static_cast<double>(
        std::max<std::uint64_t>(traced.serve_requests, 1));
    add("serve.shed_frac", static_cast<double>(traced.serve_shed) / requests,
        "ratio");
    add("serve.failed_frac",
        static_cast<double>(traced.serve_failed) / requests, "ratio");
    add("serve.bundle_load_ms", fx.bundle_load_ms, "ms");
    add("serve.max_rps", untraced.max_rps, "req/s");
    add("serve.lo_p99_ms", untraced.lo_p99_ms, "ms");
    add("serve.query_ms_p99", untraced.query_ms_p99, "ms");
    add("serve.hi_p50_ms", untraced.hi_p50_ms, "ms");
    add("serve.hi_p99_ms", untraced.hi_p99_ms, "ms");

    const serve::ServeStats s1 = scripted_scheduler(fx, tally);
    const serve::ServeStats s2 = scripted_scheduler(fx, tally);
    tally.op(s1.batches == s2.batches && s1.batch_samples == s2.batch_samples,
             "serve: scripted batch count differs between identical scripts");
    add("serve.scripted_batches", static_cast<double>(s1.batches), "count");
  }

  // -- tracing overhead: traced minus untraced, per end-to-end metric -------
  const MetricList t = end_to_end_metrics(traced);
  const MetricList u = end_to_end_metrics(untraced);
  for (std::size_t i = 0; i < t.size(); ++i)
    add("trace.overhead." + t[i].name, t[i].value - u[i].value, t[i].unit);
  add("trace.overhead.serve_lo_p99_ms", traced.lo_p99_ms - untraced.lo_p99_ms,
      "ms");
  add("trace.overhead.query_ms_p99", traced.query_ms_p99 - untraced.query_ms_p99,
      "ms");
  add("trace.overhead.serve_hi_p50_ms", traced.hi_p50_ms - untraced.hi_p50_ms,
      "ms");
  add("trace.overhead.serve_hi_p99_ms", traced.hi_p99_ms - untraced.hi_p99_ms,
      "ms");
  add("trace.overhead.serve_max_rps", traced.max_rps - untraced.max_rps,
      "req/s");
  return out;
}

}  // namespace perfbench
