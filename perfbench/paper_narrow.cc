// paper-narrow: the paper's figure families through the adaptive
// OptimizationSession, one query after another on one thread.
//
// Every query is sized to stay on an exact route (checked at set-up) and
// pruning is on, so the one-word enumeration core — EmitCsgCmp,
// neighborhoods, subset walks, DpTable — does nearly all the work and the
// serving tier is bypassed.
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/enumerator.h"
#include "core/workspace.h"
#include "hypergraph/builder.h"
#include "layer_probes.h"
#include "plan/validate.h"
#include "reorder/ses_tes.h"
#include "service/dispatch.h"
#include "service/session.h"
#include "workload/generators.h"
#include "workload/optree_gen.h"
#include "workloads.h"

namespace dphyp::perfbench {

namespace {

struct NarrowQuery {
  std::string name;
  Hypergraph graph;
  std::unique_ptr<CardinalityEstimator> est;
  double reference_cost = 0.0;
};

struct NarrowState {
  std::vector<NarrowQuery> queries;
  /// The Fig. 8 operator trees, kept for the traced DeriveQuery probe.
  std::vector<OperatorTree> trees;
  OptimizerWorkspace workspace;
};

WorkloadOptions QueryOpts(uint64_t seed, int index) {
  WorkloadOptions opts;
  opts.seed = seed * 1000003ULL + static_cast<uint64_t>(index) * 7919ULL + 1;
  return opts;
}

/// The request every path uses: product model, default cost model, one
/// worker, pruning on (DispatchPolicy default), adaptive routing.
OptimizationRequest MakeRequest(const NarrowQuery& q) {
  OptimizationRequest request;
  request.graph = &q.graph;
  request.estimator = q.est.get();
  request.cost_model = &DefaultCostModel();
  request.options.parallel_threads = 1;
  request.policy.parallel_workers_hint = 1;
  return request;
}

std::unique_ptr<NarrowState> Setup(uint64_t seed) {
  auto state = std::make_unique<NarrowState>();
  auto add = [&](std::string name, Hypergraph graph) {
    NarrowQuery q;
    q.name = std::move(name);
    q.graph = std::move(graph);
    state->queries.push_back(std::move(q));
  };
  // Three instances of every shape (independent draws from the seed), so
  // that one instance whose pruning works unusually well or badly moves
  // the statistics over queries less. Sizes put most queries at 1-6 ms.
  int index = 0;
  for (int instance = 0; instance < 3; ++instance) {
    const std::string tag = "#" + std::to_string(instance);
    // Fig. 5: cycles with hyperedge splits.
    add("cycle20-s0" + tag, BuildHypergraphOrDie(MakeCycleHypergraphQuery(
                                20, 0, QueryOpts(seed, index++))));
    for (int splits : {2, 3}) {
      add("cycle16-s" + std::to_string(splits) + tag,
          BuildHypergraphOrDie(
              MakeCycleHypergraphQuery(16, splits, QueryOpts(seed, index++))));
    }
    // Fig. 6: stars with hyperedge splits.
    for (int splits : {0, 2, 4}) {
      add("star12-s" + std::to_string(splits) + tag,
          BuildHypergraphOrDie(
              MakeStarHypergraphQuery(12, splits, QueryOpts(seed, index++))));
    }
    // Fig. 7: random hypergraphs.
    for (int i = 0; i < 3; ++i) {
      const WorkloadOptions opts = QueryOpts(seed, index++);
      add("randhyp12-" + std::to_string(i) + tag,
          BuildHypergraphOrDie(
              MakeRandomHypergraphQuery(12, 4, opts.seed, opts)));
    }
    // Fig. 8a/b: antijoin and outer-join operator trees through SES/TES.
    for (auto [satellites, anti] : {std::pair{10, 2}, std::pair{12, 6}}) {
      state->trees.push_back(
          MakeStarAntijoinTree(satellites, anti, QueryOpts(seed, index++)));
      add("antijoin" + std::to_string(satellites) + "-a" +
              std::to_string(anti) + tag,
          DeriveQuery(state->trees.back()).graph);
    }
    for (int outer : {2, 12}) {
      state->trees.push_back(
          MakeCycleOuterjoinTree(20, outer, QueryOpts(seed, index++)));
      add("outerjoin20-o" + std::to_string(outer) + tag,
          DeriveQuery(state->trees.back()).graph);
    }
    // Cliques.
    for (int n : {9, 10}) {
      add("clique" + std::to_string(n) + tag,
          BuildHypergraphOrDie(MakeCliqueQuery(n, QueryOpts(seed, index++))));
    }
  }
  // Estimators bind to their graph's address: create them once the query
  // vector has stopped growing.
  for (NarrowQuery& q : state->queries) {
    q.est = std::make_unique<CardinalityEstimator>(q.graph);
  }
  // Warm-up pass: fills the workspace's arenas and neighborhood memo.
  OptimizationSession session(&state->workspace);
  for (const NarrowQuery& q : state->queries) {
    (void)session.Optimize(MakeRequest(q));
  }
  return state;
}

/// Optimizes `q` once on `session` and checks the cost against the
/// reference; returns false on any failure.
bool OptimizeAndCheck(OptimizationSession& session, const NarrowQuery& q,
                      RunResult& out) {
  ++out.attempted;
  Result<OptimizeResult> r = session.Optimize(MakeRequest(q));
  if (!r.ok() || !r.value().success) {
    ++out.failed;
    return false;
  }
  if (!SameCost(r.value().cost, q.reference_cost)) {
    out.Fail(q.name + ": served cost differs from the reference");
    return false;
  }
  return true;
}

/// The traced replay of one optimization, stage by stage through the same
/// public functions the session calls: route, GOO pruning seed,
/// enumeration, plan extraction.
void TracedOptimize(const NarrowQuery& q, OptimizerWorkspace& ws,
                    uint64_t request_id, SpanRecorder& rec,
                    OptimizerStats* stats_out) {
  const int root = rec.Begin("request", request_id);
  OptimizationRequest request = MakeRequest(q);
  int span = rec.Begin("core.route", request_id, root);
  const DispatchDecision route = ChooseRoute(q.graph, request.policy);
  rec.End(span);
  request.options.enable_pruning = request.policy.enable_pruning;
  span = rec.Begin("baselines.goo_seed", request_id, root);
  request.options = ResolvePruningSeed(q.graph, *q.est, DefaultCostModel(),
                                       request.options, &ws);
  rec.End(span);
  span = rec.Begin("core.enumerate", request_id, root);
  OptimizeResult result = route.enumerator->Run(request, ws);
  rec.End(span);
  if (result.success) {
    span = rec.Begin("plan.extract", request_id, root);
    PlanTree plan = result.ExtractPlan(q.graph);
    rec.End(span);
    (void)plan;
  }
  rec.End(root);
  if (stats_out != nullptr) *stats_out = result.stats;
}

}  // namespace

RunResult RunPaperNarrow(const RunConfig& config) {
  RunResult out;
  std::unique_ptr<NarrowState> state =
      RepeatSetup([&] { return Setup(config.seed); }, out);
  std::vector<NarrowQuery>& queries = state->queries;
  const size_t nq = queries.size();

  // Every route must be exact: this workload measures exact enumeration.
  const DispatchPolicy policy = MakeRequest(queries[0]).policy;
  for (const NarrowQuery& q : queries) {
    const DispatchDecision d = ChooseRoute(q.graph, policy);
    if (d.enumerator == nullptr || !d.enumerator->Exact()) {
      out.Fail(q.name + ": routed to a non-exact enumerator");
    }
  }

  // Reference costs from a top-down exact enumerator (a different family
  // from every bottom-up route the auction picks), untimed.
  const Enumerator& reference = bench::EnumeratorOrDie("TDpartition");
  for (NarrowQuery& q : queries) {
    OptimizeResult ref = reference.Optimize(q.graph, *q.est, DefaultCostModel());
    if (!ref.success) out.Fail(q.name + ": TDpartition failed");
    q.reference_cost = ref.cost;
  }

  // Timed phase: interleaved passes; in the traced run every other pass is
  // the traced replay.
  SpanRecorder rec;
  OptimizationSession session(&state->workspace);
  std::vector<std::vector<double>> query_ms(nq);
  std::vector<double> pass_ms, traced_pass_ms;
  std::vector<OptimizerStats> stats(nq);
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
        TracedOptimize(queries[i], state->workspace, id, rec,
                       id < nq ? &stats[i] : nullptr);
        continue;
      }
      const Timer timer;
      OptimizeAndCheck(session, queries[i], out);
      query_ms[i].push_back(timer.ElapsedMillis());
    }
    (traced ? traced_pass_ms : pass_ms).push_back(pass_timer.ElapsedMillis());
  }

  // Untimed output checks: every plan validates and has a finite cost; the
  // cost ratio against the reference is taken from the same pass.
  std::vector<double> ratios;
  for (const NarrowQuery& q : queries) {
    Result<OptimizeResult> r = session.Optimize(MakeRequest(q));
    if (!r.ok() || !r.value().success || !std::isfinite(r.value().cost) ||
        !(q.reference_cost > 0.0)) {
      out.Fail(q.name + ": final check optimization failed");
      continue;
    }
    ratios.push_back(r.value().cost / q.reference_cost);
    Result<bool> valid =
        ValidatePlanTree(q.graph, r.value().ExtractPlan(q.graph));
    if (!valid.ok()) {
      out.Fail(q.name + ": invalid plan: " + valid.error().message);
    }
  }

  ReportOptimizerTimings(query_ms, pass_ms, out);
  out.end_to_end["cost_ratio"] = {GeoMean(ratios), "ratio", ratios.size(),
                                  "geomean served / TDpartition"};

  std::printf("paper-narrow: %zu queries, %zu untraced passes\n", nq,
              pass_ms.size());
  bench::TablePrinter table({"query", "nodes", "route", "fastest_ms", "median_ms"});
  for (size_t i = 0; i < nq; ++i) {
    table.AddRow({queries[i].name, std::to_string(queries[i].graph.NumNodes()),
                  ChooseRoute(queries[i].graph, policy).Name(),
                  FormatDouble(QuantileMillis(query_ms[i], kOptimizerQuantile)),
                  FormatDouble(Median(query_ms[i]))});
  }
  table.Print();

  if (!config.trace) return out;

  // Per-layer metrics from the traced passes.
  ReportSpanLayer(rec, "core.route", "core.route_us", "us", 1000.0, nq, out);
  ReportSpanLayer(rec, "baselines.goo_seed", "baselines.goo_seed_ms", "ms",
                  1.0, nq, out);
  ReportSpanLayer(rec, "core.enumerate", "core.enumerate_ms", "ms", 1.0, nq,
                  out);
  ReportSpanLayer(rec, "plan.extract", "plan.extract_us", "us", 1000.0, nq,
                  out);
  ReportOptimizerCounters(stats, out);
  uint64_t ccp = 0, table_bytes = 0;
  for (const OptimizerStats& s : stats) {
    ccp += s.ccp_pairs;
    table_bytes += s.table_bytes;
  }
  out.per_layer["plan.table_bytes"] = {double(table_bytes), "bytes", nq,
                                       "sum per pass"};
  {
    // Enumeration time per csg-cmp pair: the pass's summed per-query
    // enumerate medians over the pass's pairs.
    double enumerate_ms = 0.0;
    for (const auto& v : SpansByQuery(rec, "core.enumerate", nq)) {
      enumerate_ms += Median(v);
    }
    out.per_layer["core.ns_per_pair.w1"] = {
        ccp == 0 ? 0.0 : enumerate_ms * 1e6 / double(ccp), "ns", nq,
        "summed enumerate medians / ccp_pairs"};
  }
  {
    std::vector<double> derive_us;
    for (const OperatorTree& tree : state->trees) {
      std::vector<double> samples;
      for (int rep = 0; rep < 25; ++rep) {
        const Timer timer;
        DerivedQuery dq = DeriveQuery(tree);
        samples.push_back(timer.ElapsedMicros());
        (void)dq;
      }
      derive_us.push_back(Median(samples));
    }
    double sum = 0.0;
    for (double d : derive_us) sum += d;
    out.per_layer["reorder.derive_us"] = {sum / derive_us.size(), "us",
                                          derive_us.size() * 25, ""};
  }
  std::vector<const Hypergraph*> graphs;
  for (const NarrowQuery& q : queries) graphs.push_back(&q.graph);
  ProbePrimitives(graphs, config.seed, out);
  ReportPassOverhead(pass_ms, traced_pass_ms, out);
  if (!rec.WriteTsv(config.trace_dir + "/paper-narrow.tsv")) {
    std::fprintf(stderr, "perfbench: could not write the span file\n");
  }
  return out;
}

}  // namespace dphyp::perfbench
