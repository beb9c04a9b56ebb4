// rnx_perfbench — the repository's benchmark program.
//
//   rnx_perfbench --workload replay|fresh --seed N --seconds S --trace 0|1
//                 [--out DIR]
//
// Every run sets up three times (setup_s is the median), then runs the
// datagen, train and serve stages for about S seconds.  --trace 0 prints
// the end-to-end metrics; --trace 1 runs the stages twice (untraced,
// then traced, S/2 each), adds the layer probes, prints the per-layer
// metrics plus the tracing overhead, and writes every span to
// DIR/trace-<workload>-<seed>.json.  The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}.  See
// perfbench/README.md.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common.hpp"
#include "nn/kernels.hpp"
#include "stats.hpp"
#include "util/log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rnx_perfbench: " << why
            << "\nusage: rnx_perfbench --workload replay|fresh --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.out_dir = ".bench_build/perfbench-runs";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        have_workload = true;
        opt.workload_name = v;
        if (v == "replay")
          opt.workload = Workload::kReplay;
        else if (v == "fresh")
          opt.workload = Workload::kFresh;
        else
          usage("unknown workload '" + v + "'");
      } else if (flag == "--seed") {
        opt.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(v);
        if (!(opt.seconds > 0 && opt.seconds <= 600))
          usage("--seconds must be in (0, 600]");
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        opt.trace = v == "1";
      } else if (flag == "--out") {
        opt.out_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// What the numbers were measured on; printed and stored with every run.
std::string fingerprint(const Options& opt) {
  const char* simd = std::getenv("RNX_SIMD");
  std::ostringstream f;
  f << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"kernels\": \"" << rnx::nn::kernels::active().name
    << "\", \"dispatch_reason\": \""
    << json_escape(rnx::nn::kernels::dispatch_reason())
    << "\", \"RNX_SIMD\": \"" << json_escape(simd ? simd : "")
    << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"workload\": \"" << opt.workload_name
    << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
    << ", \"trace\": " << (opt.trace ? 1 : 0) << '}';
  return f.str();
}

/// Refuse to measure a build or an environment whose numbers would not
/// be comparable: assertions compiled in, or armed fault injection.
void guard_environment() {
#ifndef NDEBUG
  std::cerr << "rnx_perfbench: refusing to run: built without NDEBUG\n";
  std::exit(3);
#endif
  if (const char* spec = std::getenv("RNX_FAULT_SPEC"); spec && *spec) {
    std::cerr << "rnx_perfbench: refusing to run: RNX_FAULT_SPEC is set "
                 "(armed fault injection changes behaviour)\n";
    std::exit(3);
  }
}

/// The sample count behind each reported figure (one line, before the
/// result).
void print_sample_counts(const StageResults& r) {
  std::cout << "{\"samples\": {\"datagen_samples\": " << r.datagen_samples
            << ", \"train_steps\": " << r.train_steps
            << ", \"queries\": " << r.queries
            << ", \"serve_lo_requests\": " << r.lo_requests_done
            << ", \"serve_hi_requests\": " << r.hi_requests_done
            << ", \"ladder_probes\": " << r.ladder_probes << "}}"
            << std::endl;
}

void print_result(const Tally& tally, MetricList metrics) {
  std::ostringstream o;
  o.precision(17);
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  o << "{\"correct\": " << (tally.failed == 0 && finite ? "true" : "false")
    << ", \"attempted\": " << tally.attempted << ", \"failed\": "
    << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
      << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
      << m.unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  guard_environment();
  rnx::util::set_log_level(rnx::util::LogLevel::kWarn);
  try {
    std::filesystem::create_directories(opt.out_dir);
    const std::string fp = fingerprint(opt);
    std::cout << "{\"fingerprint\": " << fp << "}" << std::endl;

    // Set up several times; the median is setup_s, the last one is used.
    std::vector<double> setup_s, load_ms;
    std::unique_ptr<Fixture> fx;
    for (int i = 0; i < 3; ++i) {
      fx.reset();
      const Clock::time_point t0 = Clock::now();
      fx = build_fixture(opt);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      load_ms.push_back(fx->bundle_load_ms);
    }
    fx->bundle_load_ms = nearest_rank(load_ms, 50);

    Tally tally;
    MetricList metrics;
    if (!opt.trace) {
      Tracer off(false);
      const StageResults r = run_stages(opt, *fx, off, tally, opt.seconds);
      print_sample_counts(r);
      metrics = end_to_end_metrics(r);
      metrics.insert(metrics.begin(),
                     Metric{"setup_s", nearest_rank(setup_s, 50), "s"});
    } else {
      Tracer off(false);
      const StageResults untraced =
          run_stages(opt, *fx, off, tally, opt.seconds / 2);
      Tracer tracer(true);
      const StageResults traced =
          run_stages(opt, *fx, tracer, tally, opt.seconds / 2);
      print_sample_counts(traced);
      metrics = layer_probes(opt, *fx, tracer, tally, traced, untraced);
      const std::string path = opt.out_dir + "/trace-" + opt.workload_name +
                               "-" + std::to_string(opt.seed) + ".json";
      tracer.write_json(path, fp);
      std::cout << "{\"trace_file\": \"" << json_escape(path) << "\"}"
                << std::endl;
    }
    for (const std::string& note : tally.notes)
      std::cerr << "rnx_perfbench: failed operation: " << note << '\n';
    print_result(tally, std::move(metrics));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rnx_perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
