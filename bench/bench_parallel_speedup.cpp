// P2 — throughput of the data-parallel training engine.
//
// Measures training samples/sec for
//   * the serial path with the composed GRU,
//   * the serial path with the fused GRU,
//   * the parallel engine at 2/4/8 lanes (fused GRU),
// all with the training run's plan cache,
// plus batched-inference paths/sec at 1 and 8 lanes, and emits
// BENCH_parallel_speedup.json so CI tracks the trajectory across PRs.
//
// Note on lane scaling: the engine is bitwise-deterministic for any lane
// count, so the parallel numbers here are pure throughput — comparing
// them against the serial row is apples-to-apples on the same final
// weights.  Speedups are bounded by the machine's core count (reported
// as hardware_threads in the JSON).
#include <iostream>

#include "bench_common.hpp"
#include "core/plan_cache.hpp"
#include "core/routenet_ext.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "topo/zoo.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace rnx;

struct BenchSetup {
  data::Dataset train;
  data::Scaler scaler;
  std::size_t epochs = 5;
};

BenchSetup make_setup() {
  const bool quick = benchcfg::quick_mode();
  data::GeneratorConfig gen;
  gen.target_packets = quick ? 5'000 : 20'000;
  gen.util_lo = 0.6;
  gen.util_hi = 0.9;
  const std::size_t samples = benchcfg::scaled(quick ? 6 : 16);
  BenchSetup s;
  s.train = data::Dataset(
      data::generate_dataset(topo::nsfnet(), samples, gen, /*seed=*/417));
  s.scaler = data::Scaler::fit(s.train.samples());
  s.epochs = quick ? 2 : 5;
  return s;
}

double train_samples_per_sec(const BenchSetup& setup, std::size_t threads,
                             bool fused) {
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.readout_hidden = 24;
  mc.iterations = 3;
  mc.fused_gru = fused;
  core::ExtendedRouteNet model(mc);
  core::TrainConfig tc;
  tc.epochs = setup.epochs;
  tc.batch_samples = 4;
  tc.min_delivered = 1;
  tc.threads = threads;
  tc.verbose = false;
  core::Trainer trainer(model, tc);
  util::Stopwatch watch;
  (void)trainer.fit(setup.train, setup.scaler);
  const double secs = watch.seconds();
  return static_cast<double>(setup.epochs * setup.train.size()) / secs;
}

double inference_paths_per_sec(const BenchSetup& setup, std::size_t threads) {
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.readout_hidden = 24;
  mc.iterations = 3;
  core::ExtendedRouteNet model(mc);
  core::PlanCache cache;
  model.set_plan_cache(&cache);
  util::ThreadPool pool(threads);
  constexpr int kReps = 3;
  util::Stopwatch watch;
  for (int rep = 0; rep < kReps; ++rep)
    (void)model.forward_batch(setup.train.samples(), setup.scaler, &pool);
  const double secs = watch.seconds();
  return static_cast<double>(kReps * setup.train.total_paths()) / secs;
}

}  // namespace

int main() {
  benchcfg::print_banner("P2: data-parallel training engine throughput");
  benchcfg::BenchResult result("parallel_speedup");
  const BenchSetup setup = make_setup();
  result.set_config("nsfnet, samples=" + std::to_string(setup.train.size()) +
                    ", epochs=" + std::to_string(setup.epochs) +
                    ", state_dim=12, iterations=3, batch=4");

  const double baseline = train_samples_per_sec(setup, 1, /*fused=*/false);
  const double serial_opt = train_samples_per_sec(setup, 1, /*fused=*/true);

  util::Table table({"config", "samples/sec", "speedup vs composed"});
  table.add_row({"composed GRU", util::Table::cell(baseline, 2), "1.00"});
  table.add_row({"serial + fused GRU + plan cache",
                 util::Table::cell(serial_opt, 2),
                 util::Table::cell(serial_opt / baseline, 2)});
  result.add("hardware_threads",
             static_cast<double>(util::ThreadPool::hardware_threads()));
  result.add("train_samples_per_sec_composed_gru", baseline);
  result.add("train_samples_per_sec_serial_fused_cache", serial_opt);
  result.add("speedup_serial_fused_cache", serial_opt / baseline);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    const double sps = train_samples_per_sec(setup, threads, true);
    table.add_row({"parallel x" + std::to_string(threads) + " (fused+cache)",
                   util::Table::cell(sps, 2),
                   util::Table::cell(sps / baseline, 2)});
    const std::string key = "train_samples_per_sec_threads_" +
                            std::to_string(threads);
    result.add(key, sps);
    result.add("speedup_threads_" + std::to_string(threads), sps / baseline);
    result.add("speedup_vs_serial_opt_threads_" + std::to_string(threads),
               sps / serial_opt);
  }

  const double inf1 = inference_paths_per_sec(setup, 1);
  const double inf8 = inference_paths_per_sec(setup, 8);
  result.add("inference_paths_per_sec_threads_1", inf1);
  result.add("inference_paths_per_sec_threads_8", inf8);

  table.print(std::cout);
  std::cout << "inference: " << inf1 << " paths/sec x1, " << inf8
            << " paths/sec x8 (forward_batch)\n";
  result.write();
  return 0;
}
