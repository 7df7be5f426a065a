// Shared pieces of the repository benchmark: run configuration, order
// statistics, the in-memory span recorder of the traced mode, the host
// drift probes, and the result whose records main.cc prints.
//
// Every timing statistic is computed from fixed units of work repeated
// across the run (one pass over a query set, one client batch of served
// requests, one set-up), never from the whole run at once: a shared host
// drifts by 15-20% within a single run, and a low order statistic over
// repeated units repeats far better than a whole-run mean.
#ifndef DPHYP_PERFBENCH_COMMON_H_
#define DPHYP_PERFBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/timer.h"

namespace dphyp::perfbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to (inside the checkout).
  std::string trace_dir = ".bench_build/spans";
};

/// Within-run statistics, chosen by the steadiness runs recorded in
/// perfbench/README.md: the optimizer workloads report each query's
/// fastest pass (this quantile of its per-pass times); serve-mix reports
/// the fastest decile over its fixed-size batches.
inline constexpr double kOptimizerQuantile = 0.0;
inline constexpr double kBatchQuantile = 0.1;

/// Median of `v`, interpolated as QuantileMillis does (any unit).
inline double Median(std::vector<double> v) {
  return QuantileMillis(std::move(v), 0.5);
}
/// Geometric mean of positive values (0 for an empty input).
double GeoMean(const std::vector<double>& v);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  /// Number of samples the value was computed from (printed beside the
  /// value; 1 for counts and deterministic quantities).
  uint64_t samples = 1;
  std::string note;
};

/// What a workload run hands back to main.cc.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Mismatches against the reference, invalid plans, non-finite costs.
  uint64_t check_failures = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void Fail(const std::string& what) {
    ++check_failures;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// The traced mode's span store: name, start, end, parent and request id,
/// kept in memory and written out once at the end of the run.
class SpanRecorder {
 public:
  struct Span {
    int name = 0;  // index into names()
    int parent = -1;  // index of the parent span, -1 for roots
    uint64_t request = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  /// Milliseconds on the recorder's clock, for spans added with Add.
  double Now() const { return clock_.ElapsedMillis(); }
  /// Opens a span and returns its index; close it with End.
  int Begin(const char* name, uint64_t request, int parent = -1);
  void End(int span);
  /// Records an already-measured interval (times from Now()).
  int Add(const char* name, uint64_t request, double start_ms, double end_ms,
          int parent = -1);

  /// Durations (ms) of every span with this name, in recording order;
  /// `requests`, when given, receives each span's request id.
  std::vector<double> Durations(const char* name,
                                std::vector<uint64_t>* requests = nullptr) const;
  /// Writes the spans as TSV (id, parent, request, name, start_ms, end_ms);
  /// returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  int NameId(const char* name);

  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
  std::vector<Span> spans_;
  Timer clock_;
};

/// Repo-independent host drift probes (milliseconds): a dependent pointer
/// chase through 16 MiB and a pure ALU loop. Reported, never used to
/// normalize or discard anything.
double MemoryProbeMs(uint64_t seed);
double AluProbeMs();

/// Peak resident set size of the process, MiB.
double PeakRssMiB();
/// Online CPUs available to this process.
int AvailableCpus();

}  // namespace dphyp::perfbench

#endif  // DPHYP_PERFBENCH_COMMON_H_
