// frontier-wide: graphs past the one-word, exact-DP frontier, one query
// after another on one thread.
//
// Two groups: 65-128-relation graphs at W=2 through OptimizeWideAdaptive
// (chains, cycles and degree-2 trees take exact DPccp; hubby shapes go to
// idp-k), and narrow graphs past the exact frontier through the adaptive
// OptimizationSession, plus "anneal" by name on two of them. Multi-word
// BasicNodeSet operations, the wide auction, idp-k windows and GOO do the
// work; the one-word combine loop does little.
#include <memory>
#include <string>
#include <vector>

#include "baselines/dpccp.h"
#include "baselines/goo.h"
#include "core/anneal.h"
#include "bench/harness.h"
#include "core/wide.h"
#include "hypergraph/builder.h"
#include "layer_probes.h"
#include "plan/validate.h"
#include "service/dispatch.h"
#include "service/session.h"
#include "workload/generators.h"
#include "workload/wide_gen.h"
#include "workloads.h"

namespace dphyp::perfbench {

namespace {

/// One query of either group. Wide queries own a W=2 graph; narrow ones a
/// one-word graph and, for the anneal entries, an enumerator name.
struct FrontierQuery {
  std::string name;
  bool wide = false;
  WideHypergraph wide_graph;
  Hypergraph graph;
  std::string enumerator;  // empty: adaptive routing
  std::unique_ptr<WideCardinalityEstimator> wide_est;
  std::unique_ptr<CardinalityEstimator> est;
  bool exact = false;
  /// GOO by name: every served cost must be at most this.
  double goo_cost = 0.0;
  /// The best of GOO and anneal by name: cost_ratio's reference. GOO alone
  /// is off by up to 1000x on some random graphs, which made a geomean
  /// against it swing by 20% from one seed to the next.
  double heuristic_cost = 0.0;
};

struct FrontierState {
  std::vector<FrontierQuery> queries;
  BasicOptimizerWorkspace<WideNodeSet> wide_ws;
  OptimizerWorkspace ws;
};

/// Bounded cardinality/selectivity ranges: the narrow defaults overflow
/// double past ~90 joined relations (same ranges as the wide test tier).
WorkloadOptions WideOpts(uint64_t seed) {
  WorkloadOptions opts;
  opts.seed = seed;
  opts.min_cardinality = 10.0;
  opts.max_cardinality = 1000.0;
  opts.min_selectivity = 1e-4;
  opts.max_selectivity = 1e-2;
  return opts;
}

DispatchPolicy Policy() {
  DispatchPolicy policy;
  policy.parallel_workers_hint = 1;
  return policy;
}

/// The entry points' default options with one worker and a pinned
/// anneal/idp-k seed. The wide entry runs unpruned by default, as its other
/// callers do; the narrow session turns pruning on from its policy.
OptimizerOptions Options() {
  OptimizerOptions options;
  options.parallel_threads = 1;
  options.random_seed = 0xd1ce;
  return options;
}

OptimizationRequest NarrowRequest(const FrontierQuery& q) {
  OptimizationRequest request;
  request.graph = &q.graph;
  request.estimator = q.est.get();
  request.cost_model = &DefaultCostModel();
  request.options = Options();
  request.policy = Policy();
  request.enumerator = q.enumerator;
  return request;
}

std::unique_ptr<FrontierState> Setup(uint64_t seed) {
  auto state = std::make_unique<FrontierState>();
  uint64_t index = 0;
  auto next_seed = [&] { return seed * 1000003ULL + 7919ULL * ++index; };
  auto add_wide = [&](std::string name, WideHypergraph g) {
    FrontierQuery q;
    q.name = std::move(name);
    q.wide = true;
    q.wide_graph = std::move(g);
    state->queries.push_back(std::move(q));
  };
  auto add_narrow = [&](std::string name, Hypergraph g, std::string algo) {
    FrontierQuery q;
    q.name = std::move(name);
    q.graph = std::move(g);
    q.enumerator = std::move(algo);
    state->queries.push_back(std::move(q));
  };
  uint64_t s = next_seed();
  add_wide("chain72", MakeWideChainGraph(72, WideOpts(s)));
  s = next_seed();
  add_wide("cycle66", MakeWideCycleGraph(66, WideOpts(s)));
  s = next_seed();
  add_wide("tree70-d2", MakeWideDegreeBoundedTree(70, 2, s, WideOpts(s)));
  s = next_seed();
  add_wide("tree100-d3", MakeWideDegreeBoundedTree(100, 3, s, WideOpts(s)));
  s = next_seed();
  add_wide("sparse80", MakeWideSparseGraph(80, 0.0005, s, WideOpts(s)));
  s = next_seed();
  add_wide("star72", MakeWideStarGraph(71, WideOpts(s)));

  WorkloadOptions narrow;
  narrow.seed = next_seed();
  Hypergraph clique = BuildHypergraphOrDie(MakeCliqueQuery(16, narrow));
  narrow.seed = next_seed();
  Hypergraph star = BuildHypergraphOrDie(MakeStarQuery(24, narrow));
  add_narrow("clique16", clique, "");
  add_narrow("star25", star, "");
  for (int n : {20, 24}) {
    narrow.seed = next_seed();
    add_narrow("clique" + std::to_string(n),
               BuildHypergraphOrDie(MakeCliqueQuery(n, narrow)), "");
  }
  narrow.seed = next_seed();
  add_narrow("star33", BuildHypergraphOrDie(MakeStarQuery(32, narrow)), "");
  for (int i = 0; i < 6; ++i) {
    const WorkloadOptions opts = WideOpts(next_seed());
    add_narrow("random40-" + std::to_string(i),
               BuildHypergraphOrDie(
                   MakeRandomGraphQuery(40, 0.08, opts.seed, opts)),
               "");
  }
  add_narrow("clique16-anneal", clique, "anneal");
  add_narrow("star25-anneal", star, "anneal");

  // Estimators bind to their graph's address: create them once the query
  // vector has stopped growing.
  for (FrontierQuery& q : state->queries) {
    if (q.wide) {
      q.wide_est = std::make_unique<WideCardinalityEstimator>(q.wide_graph);
      q.exact = ChooseWideRoute(q.wide_graph, Policy()).exact;
    } else {
      q.est = std::make_unique<CardinalityEstimator>(q.graph);
      q.exact = q.enumerator.empty() &&
                ChooseRoute(q.graph, Policy()).enumerator->Exact();
    }
  }
  // Warm-up pass.
  OptimizationSession session(&state->ws);
  for (FrontierQuery& q : state->queries) {
    if (q.wide) {
      (void)OptimizeWideAdaptive(q.wide_graph, *q.wide_est, DefaultCostModel(),
                                 Options(), &state->wide_ws, Policy());
    } else {
      (void)session.Optimize(NarrowRequest(q));
    }
  }
  return state;
}

/// One optimization through the workload's entry point; returns the cost
/// (NaN on failure).
double Optimize(FrontierState& state, OptimizationSession& session,
                const FrontierQuery& q) {
  if (q.wide) {
    WideOptimizeResult r =
        OptimizeWideAdaptive(q.wide_graph, *q.wide_est, DefaultCostModel(),
                             Options(), &state.wide_ws, Policy());
    return r.success ? r.cost : std::nan("");
  }
  Result<OptimizeResult> r = session.Optimize(NarrowRequest(q));
  return r.ok() && r.value().success ? r.value().cost : std::nan("");
}

/// The traced replay of one optimization: route, then the routed run
/// (enumeration = the entry point's time minus the route), then the GOO
/// reference by name.
void TracedOptimize(FrontierState& state, OptimizationSession& session,
                    const FrontierQuery& q, uint64_t request_id,
                    SpanRecorder& rec, OptimizerStats* stats_out) {
  const int root = rec.Begin("request", request_id);
  const double route_start = rec.Now();
  if (q.wide) {
    (void)ChooseWideRoute(q.wide_graph, Policy());
  } else if (q.enumerator.empty()) {
    (void)ChooseRoute(q.graph, Policy());
  }
  const double route_end = rec.Now();
  rec.Add(q.wide ? "core.wide_route" : "core.route", request_id, route_start,
          route_end, root);
  OptimizerStats stats;
  const double run_start = rec.Now();
  if (q.wide) {
    WideOptimizeResult r =
        OptimizeWideAdaptive(q.wide_graph, *q.wide_est, DefaultCostModel(),
                             Options(), &state.wide_ws, Policy());
    stats = r.stats;
  } else {
    Result<OptimizeResult> r = session.Optimize(NarrowRequest(q));
    if (r.ok()) stats = r.value().stats;
  }
  const double run_end = rec.Now();
  // The entry point re-runs the route internally; its enumeration share is
  // the run minus the separately timed route.
  const double enumerate_ms = (run_end - run_start) - (route_end - route_start);
  rec.Add("core.enumerate", request_id, run_start, run_start + enumerate_ms,
          root);
  const std::string algo = stats.algorithm;
  if (algo == "idp-k") {
    rec.Add("core.idp", request_id, run_start, run_start + enumerate_ms, root);
  } else if (algo == "anneal") {
    rec.Add("core.anneal", request_id, run_start, run_start + enumerate_ms,
            root);
  }
  const int goo = rec.Begin("baselines.goo", request_id, root);
  if (q.wide) {
    (void)OptimizeGoo(q.wide_graph, *q.wide_est, DefaultCostModel(), Options(),
                      &state.wide_ws);
  } else {
    (void)OptimizeGoo(q.graph, *q.est, DefaultCostModel(), Options(),
                      &state.ws);
  }
  rec.End(goo);
  rec.End(root);
  if (stats_out != nullptr) *stats_out = stats;
}

}  // namespace

RunResult RunFrontierWide(const RunConfig& config) {
  RunResult out;
  std::unique_ptr<FrontierState> state =
      RepeatSetup([&] { return Setup(config.seed); }, out);
  std::vector<FrontierQuery>& queries = state->queries;
  const size_t nq = queries.size();
  OptimizationSession session(&state->ws);

  // References, untimed: GOO by name bounds every served cost from above;
  // exact routes must also match DPccp by name; anneal by name completes
  // cost_ratio's reference.
  for (FrontierQuery& q : queries) {
    const double served = Optimize(*state, session, q);
    double dpccp = std::nan("");
    double anneal = std::nan("");
    if (q.wide) {
      q.goo_cost = OptimizeGoo(q.wide_graph, *q.wide_est, DefaultCostModel(),
                               Options())
                       .cost;
      anneal = OptimizeAnneal(q.wide_graph, *q.wide_est, DefaultCostModel(),
                              Options())
                   .cost;
      if (q.exact) {
        dpccp = OptimizeDpccp(q.wide_graph, *q.wide_est, DefaultCostModel())
                    .cost;
      }
    } else {
      q.goo_cost = OptimizeGoo(q.graph, *q.est, DefaultCostModel(), Options())
                       .cost;
      Result<OptimizeResult> r = OptimizeByName(
          "anneal", q.graph, *q.est, DefaultCostModel(), Options());
      if (r.ok()) anneal = r.value().cost;
      if (q.exact) {
        r = OptimizeByName("DPccp", q.graph, *q.est, DefaultCostModel());
        if (r.ok()) dpccp = r.value().cost;
      }
    }
    q.heuristic_cost = std::min(q.goo_cost, anneal);
    if (!std::isfinite(q.goo_cost) || !std::isfinite(anneal)) {
      out.Fail(q.name + ": GOO or anneal reference failed");
    }
    if (q.exact && !SameCost(served, dpccp)) {
      out.Fail(q.name + ": exact route differs from DPccp");
    }
  }

  SpanRecorder rec;
  std::vector<std::vector<double>> query_ms(nq);
  std::vector<double> pass_ms, traced_pass_ms;
  std::vector<OptimizerStats> stats(nq);
  std::vector<double> served_cost(nq, 0.0);
  uint64_t traced_requests = 0;
  const Timer run;
  for (int pass = 0; run.ElapsedSeconds() < config.seconds || pass < 2;
       ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    const Timer pass_timer;
    for (size_t i = 0; i < nq; ++i) {
      if (traced) {
        // The first traced pass records each query's counters.
        const uint64_t id = traced_requests++;
        TracedOptimize(*state, session, queries[i], id, rec,
                       id < nq ? &stats[i] : nullptr);
        continue;
      }
      ++out.attempted;
      const Timer timer;
      const double cost = Optimize(*state, session, queries[i]);
      query_ms[i].push_back(timer.ElapsedMillis());
      if (!std::isfinite(cost)) {
        ++out.failed;
      } else if (cost > queries[i].goo_cost * (1.0 + 1e-9)) {
        out.Fail(queries[i].name + ": served cost exceeds GOO");
      } else if (served_cost[i] != 0.0 && cost != served_cost[i]) {
        out.Fail(queries[i].name + ": served cost changed between passes");
      }
      served_cost[i] = cost;
    }
    (traced ? traced_pass_ms : pass_ms).push_back(pass_timer.ElapsedMillis());
  }

  // Untimed plan validation on one final pass.
  std::vector<double> ratios, query_ratio(nq, std::nan(""));
  for (size_t i = 0; i < nq; ++i) {
    const FrontierQuery& q = queries[i];
    Result<bool> valid = true;
    double cost = std::nan("");
    if (q.wide) {
      WideOptimizeResult r =
          OptimizeWideAdaptive(q.wide_graph, *q.wide_est, DefaultCostModel(),
                               Options(), &state->wide_ws, Policy());
      if (r.success) {
        cost = r.cost;
        valid = ValidatePlanTree(q.wide_graph, r.ExtractPlan(q.wide_graph));
      }
    } else {
      Result<OptimizeResult> r = session.Optimize(NarrowRequest(q));
      if (r.ok() && r.value().success) {
        cost = r.value().cost;
        valid = ValidatePlanTree(q.graph, r.value().ExtractPlan(q.graph));
      }
    }
    if (!std::isfinite(cost)) {
      out.Fail(q.name + ": final check optimization failed");
      continue;
    }
    if (!valid.ok()) out.Fail(q.name + ": invalid plan: " + valid.error().message);
    query_ratio[i] = cost / q.heuristic_cost;
    ratios.push_back(query_ratio[i]);
  }

  ReportOptimizerTimings(query_ms, pass_ms, out);
  out.end_to_end["cost_ratio"] = {GeoMean(ratios), "ratio", ratios.size(),
                                  "geomean served / min(GOO, anneal)"};

  std::printf("frontier-wide: %zu queries, %zu untraced passes\n", nq,
              pass_ms.size());
  bench::TablePrinter table(
      {"query", "nodes", "route", "fastest_ms", "median_ms", "vs_ref"});
  for (size_t i = 0; i < nq; ++i) {
    const FrontierQuery& q = queries[i];
    std::string route = q.enumerator;
    if (q.wide) route = WideRouteName(ChooseWideRoute(q.wide_graph, Policy()).route);
    if (route.empty()) route = ChooseRoute(q.graph, Policy()).Name();
    table.AddRow({q.name,
                  std::to_string(q.wide ? q.wide_graph.NumNodes()
                                        : q.graph.NumNodes()),
                  route, FormatDouble(QuantileMillis(query_ms[i], kOptimizerQuantile)),
                  FormatDouble(Median(query_ms[i])),
                  FormatDouble(query_ratio[i])});
  }
  table.Print();

  if (!config.trace) return out;

  ReportSpanLayer(rec, "core.wide_route", "core.wide_route_us", "us", 1000.0,
                  nq, out);
  ReportSpanLayer(rec, "core.enumerate", "core.enumerate_ms", "ms", 1.0, nq,
                  out);
  ReportSpanLayer(rec, "core.idp", "core.idp_ms", "ms", 1.0, nq, out);
  ReportSpanLayer(rec, "core.anneal", "core.anneal_ms", "ms", 1.0, nq, out);
  ReportSpanLayer(rec, "baselines.goo", "baselines.goo_ms", "ms", 1.0, nq,
                  out);
  ReportOptimizerCounters(stats, out);
  uint64_t wide_ccp = 0;
  double wide_enumerate_ms = 0.0;
  const std::vector<std::vector<double>> enumerate =
      SpansByQuery(rec, "core.enumerate", nq);
  for (size_t i = 0; i < nq; ++i) {
    if (!queries[i].wide) continue;
    wide_ccp += stats[i].ccp_pairs;
    wide_enumerate_ms += Median(enumerate[i]);
  }
  out.per_layer["core.ns_per_pair.w2"] = {
      wide_ccp == 0 ? 0.0 : wide_enumerate_ms * 1e6 / double(wide_ccp), "ns",
      nq, "wide group: summed enumerate medians / ccp_pairs"};
  std::vector<const WideHypergraph*> graphs;
  for (const FrontierQuery& q : queries) {
    if (q.wide) graphs.push_back(&q.wide_graph);
  }
  ProbePrimitives(graphs, config.seed, out);
  ReportPassOverhead(pass_ms, traced_pass_ms, out);
  if (!rec.WriteTsv(config.trace_dir + "/frontier-wide.tsv")) {
    std::fprintf(stderr, "perfbench: could not write the span file\n");
  }
  return out;
}

}  // namespace dphyp::perfbench
