// The benchmark's three workloads, one entry point each (see README.md for
// why each exists and which layers it stresses), plus the measurement
// helpers the two optimizer workloads share.
#ifndef DPHYP_PERFBENCH_WORKLOADS_H_
#define DPHYP_PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <string>
#include <vector>

#include "common.h"
#include "core/optimizer.h"

namespace dphyp::perfbench {

/// Single-thread closed loop through the adaptive OptimizationSession on
/// the paper's figure families (one-word enumeration core).
RunResult RunPaperNarrow(const RunConfig& config);
/// Single-thread closed loop over > 64-relation graphs (W=2, through
/// OptimizeWideAdaptive) and narrow graphs past the exact frontier.
RunResult RunFrontierWide(const RunConfig& config);
/// Two-client closed loop through PlanService::Serve with periodic
/// ANALYZE-driven cache invalidation.
RunResult RunServeMix(const RunConfig& config);

/// Set-up repetitions per run; setup_s is the fastest of them, the same
/// low order statistic the other timings take (README.md, noise evidence).
inline constexpr int kSetupRepetitions = 7;

/// Runs `setup` kSetupRepetitions times, records setup_s (the fastest) and
/// returns the last state. Earlier states are destroyed, untimed, before
/// the next repetition starts, so peak memory is that of one set-up.
template <typename SetupFn>
auto RepeatSetup(SetupFn&& setup, RunResult& out) -> decltype(setup()) {
  std::vector<double> setup_s;
  for (int rep = 0; rep + 1 < kSetupRepetitions; ++rep) {
    const Timer timer;
    auto discarded = setup();
    setup_s.push_back(timer.ElapsedSeconds());
  }
  const Timer timer;
  auto state = setup();
  setup_s.push_back(timer.ElapsedSeconds());
  out.end_to_end["setup_s"] = {
      *std::min_element(setup_s.begin(), setup_s.end()), "s",
      static_cast<uint64_t>(setup_s.size()), "fastest set-up"};
  return state;
}

/// The optimizer workloads' end-to-end timings from interleaved passes:
/// each query's time is its fastest pass; opt_geomean_ms and opt_worst_ms
/// summarize those times, ops_per_s is queries per their sum. The latency
/// quantiles, serve-mix's own metrics, are reported here only because every
/// run prints every end-to-end metric: a closed loop over a fixed query set
/// requests each query equally often, so they are the plain quantiles of
/// the same per-query times.
void ReportOptimizerTimings(const std::vector<std::vector<double>>& query_ms,
                            const std::vector<double>& pass_ms,
                            RunResult& out);

/// True when `cost` matches `reference` to within floating-point
/// reassociation (the enumerators sum identical terms in different orders).
inline bool SameCost(double cost, double reference) {
  return std::isfinite(cost) && std::isfinite(reference) &&
         std::fabs(cost - reference) <= 1e-9 * std::fabs(reference);
}

/// Per-query durations (ms) of one span name from a traced optimizer run,
/// whose request ids count queries pass by pass (id % queries = query).
std::vector<std::vector<double>> SpansByQuery(const SpanRecorder& rec,
                                              const char* name,
                                              size_t queries);

/// Stores the per-layer timing of span `span` as metric `metric`: for each
/// query the median of its spans' durations, then the mean over queries,
/// in `scale` units per millisecond (1000 for us, 1 for ms).
void ReportSpanLayer(const SpanRecorder& rec, const char* span,
                     const char* metric, const char* unit, double scale,
                     size_t queries, RunResult& out);

/// The OptimizerStats counters of one pass (summed over its queries) and
/// the prune share derived from them.
void ReportOptimizerCounters(const std::vector<OptimizerStats>& stats,
                             RunResult& out);

/// trace.overhead of an optimizer workload: throughput of the fastest
/// traced pass over that of the fastest plain pass, minus one.
void ReportPassOverhead(const std::vector<double>& pass_ms,
                        const std::vector<double>& traced_pass_ms,
                        RunResult& out);

}  // namespace dphyp::perfbench

#endif  // DPHYP_PERFBENCH_WORKLOADS_H_
