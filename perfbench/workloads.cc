#include "workloads.h"

namespace dphyp::perfbench {

namespace {

double MeanOfQueryMedians(const std::vector<std::vector<double>>& per_query,
                          double scale) {
  double sum = 0.0;
  int counted = 0;
  for (const std::vector<double>& samples : per_query) {
    if (samples.empty()) continue;
    sum += Median(samples) * scale;
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / counted;
}

}  // namespace

void ReportOptimizerTimings(const std::vector<std::vector<double>>& query_ms,
                            const std::vector<double>& pass_ms,
                            RunResult& out) {
  std::vector<double> per_query;
  for (const std::vector<double>& samples : query_ms) {
    per_query.push_back(QuantileMillis(samples, kOptimizerQuantile));
  }
  const uint64_t passes = pass_ms.size();
  const uint64_t requests = passes * query_ms.size();
  out.end_to_end["opt_geomean_ms"] = {GeoMean(per_query), "ms", passes,
                                      "geomean of per-query fastest pass"};
  out.end_to_end["opt_worst_ms"] = {
      *std::max_element(per_query.begin(), per_query.end()), "ms", passes,
      "slowest query's fastest pass"};
  out.end_to_end["latency_p50_ms"] = {QuantileMillis(per_query, 0.5), "ms",
                                      requests,
                                      "median of per-query fastest pass"};
  out.end_to_end["latency_p99_ms"] = {QuantileMillis(per_query, 0.99), "ms",
                                      requests,
                                      "p99 of per-query fastest pass"};
  double sum_ms = 0.0;
  for (double ms : per_query) sum_ms += ms;
  out.end_to_end["ops_per_s"] = {
      1000.0 * static_cast<double>(per_query.size()) / sum_ms, "1/s", passes,
      "queries per summed per-query fastest times"};
}

std::vector<std::vector<double>> SpansByQuery(const SpanRecorder& rec,
                                              const char* name,
                                              size_t queries) {
  std::vector<std::vector<double>> out(queries);
  std::vector<uint64_t> requests;
  const std::vector<double> all = rec.Durations(name, &requests);
  for (size_t k = 0; k < all.size(); ++k) {
    out[requests[k] % queries].push_back(all[k]);
  }
  return out;
}

void ReportSpanLayer(const SpanRecorder& rec, const char* span,
                     const char* metric, const char* unit, double scale,
                     size_t queries, RunResult& out) {
  out.per_layer[metric] = {
      MeanOfQueryMedians(SpansByQuery(rec, span, queries), scale), unit,
      rec.Durations(span).size(), "mean over queries of the median span"};
}

void ReportOptimizerCounters(const std::vector<OptimizerStats>& stats,
                             RunResult& out) {
  uint64_t ccp = 0, evals = 0, pruned = 0, dominated = 0, entries = 0;
  for (const OptimizerStats& s : stats) {
    ccp += s.ccp_pairs;
    evals += s.cost_evaluations;
    pruned += s.pruned;
    dominated += s.dominated;
    entries += s.dp_entries;
  }
  const uint64_t n = stats.size();
  out.per_layer["core.ccp_pairs"] = {double(ccp), "count", n, "sum per pass"};
  out.per_layer["core.cost_evaluations"] = {double(evals), "count", n,
                                            "sum per pass"};
  out.per_layer["core.pruned_pairs"] = {double(pruned), "count", n,
                                        "sum per pass"};
  out.per_layer["core.dominated_pairs"] = {double(dominated), "count", n,
                                           "sum per pass"};
  out.per_layer["core.dp_entries"] = {double(entries), "count", n,
                                      "sum per pass"};
  out.per_layer["core.prune_share"] = {
      ccp + dominated == 0
          ? 0.0
          : double(pruned + dominated) / double(ccp + dominated),
      "ratio", n, "(pruned + dominated) / (ccp_pairs + dominated)"};
}

void ReportPassOverhead(const std::vector<double>& pass_ms,
                        const std::vector<double>& traced_pass_ms,
                        RunResult& out) {
  out.per_layer["trace.overhead"] = {
      QuantileMillis(pass_ms, kOptimizerQuantile) /
              QuantileMillis(traced_pass_ms, kOptimizerQuantile) -
          1.0,
      "ratio", traced_pass_ms.size(), "fastest traced vs plain pass"};
}

}  // namespace dphyp::perfbench
