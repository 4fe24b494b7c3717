// fifl_perfbench: runs one benchmark workload and prints its report as one
// JSON line (metrics with unit, better-direction and statistic; output
// checks; budgets; environment notes). perfbench/run.py builds this binary,
// drives it, and turns the report into the benchmark's result line.
//
//   fifl_perfbench --workload lenet_train|assess_wide|cluster_tcp
//                  --seed N --seconds S --trace 0|1 [--smoke] [--out-dir D]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "tensor/kernels/kernels.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fifl_perfbench: %s\nusage: fifl_perfbench --workload "
               "lenet_train|assess_wide|cluster_tcp --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    perfbench::Report report;
    if (options.workload == "lenet_train") {
      report = perfbench::run_lenet_train(options);
    } else if (options.workload == "assess_wide") {
      report = perfbench::run_assess_wide(options);
    } else if (options.workload == "cluster_tcp") {
      report = perfbench::run_cluster_tcp(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    report.note("kernel_isa", fifl::tensor::kernels::active().name);
    report.note("compiler", PERFBENCH_COMPILER);
    report.note("build_type", PERFBENCH_BUILD_TYPE);
    report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.note("pool_threads",
                std::to_string(fifl::util::ThreadPool::global().size()));
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fifl_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
}
