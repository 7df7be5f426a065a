// perfbench_runner: runs one benchmark workload in this process and prints
// its run conditions and measurements as tab-separated records, which
// perfbench/run.py checks and turns into the benchmark's JSON result:
//
//   run     <key> <value>
//   metric  <end_to_end|per_layer> <name> <value> <unit> <samples> <note>
//   probe   <name> <value>
//
// Values carry all 17 significant digits.
//
//   perfbench_runner --workload <paper-narrow|frontier-wide|serve-mix>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>]
//   perfbench_runner --probe        host drift probes only
//
// Exit status: 0 when every operation succeeded and every output check
// passed, 1 on a failed check, 2 on bad arguments or an unusable host.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace dphyp::perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

/// Threads each workload keeps busy at once. serve-mix runs two clients;
/// its PlanService also owns one worker thread that stays idle (Serve runs
/// on the calling thread), for three threads in total.
int BusyThreads(const std::string& workload) {
  return workload == "serve-mix" ? 2 : 1;
}

void PrintMetrics(const char* section,
                  const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("metric\t%s\t%s\t%.17g\t%s\t%" PRIu64 "\t%s\n", section,
                name.c_str(), m.value, m.unit.c_str(), m.samples,
                m.note.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <paper-narrow|frontier-wide|"
               "serve-mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n"
               "       perfbench_runner --probe\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe") {
      probe = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0)) return Usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      config.trace = value[0] == '1';
    } else if (arg == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage();
    }
  }

  if (probe) {
    const double mem = MemoryProbeMs(0x7e57);
    const double alu = AluProbeMs();
    std::printf("probe\tmem_probe_ms\t%.17g\nprobe\talu_probe_ms\t%.17g\n",
                mem, alu);
    return 0;
  }

  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "paper-narrow") run = RunPaperNarrow;
  if (config.workload == "frontier-wide") run = RunFrontierWide;
  if (config.workload == "serve-mix") run = RunServeMix;
  if (run == nullptr) return Usage();

  const int cpus = AvailableCpus();
  if (BusyThreads(config.workload) > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %d threads busy but only %d CPUs are "
                 "available; refusing to run\n",
                 config.workload.c_str(), BusyThreads(config.workload), cpus);
    return 2;
  }

  RunResult result = run(config);
  result.end_to_end["peak_rss_mb"] = {PeakRssMiB(), "MiB", 1, "process peak"};

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("run\tnproc\t%d\nrun\tbusy_threads\t%d\n", cpus,
              BusyThreads(config.workload));
  std::printf("run\tbuild_type\t%s\nrun\tcompiler\t%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf("run\tattempted\t%" PRIu64 "\nrun\tfailed\t%" PRIu64
              "\nrun\tcheck_failures\t%" PRIu64 "\n",
              result.attempted, result.failed, result.check_failures);
  PrintMetrics("end_to_end", result.end_to_end);
  PrintMetrics("per_layer", result.per_layer);
  return result.failed == 0 && result.check_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dphyp::perfbench

int main(int argc, char** argv) { return dphyp::perfbench::Main(argc, argv); }
