// serve-mix: two closed-loop clients through PlanService::Serve.
//
// Clients draw seeded Zipf(1.1) sequences over a template pool larger than
// the plan cache. The pool mixes GenerateTrafficMix templates (served under
// "product") with JOB-style jobgen templates (served under "hist"), all
// over one shared catalog. Client 0 re-runs AnalyzeDataset on one pool
// table every kBatch of its requests: the data never changes, so reference
// costs stay fixed, but every run bumps stats_version and so invalidates
// the whole cache. Hits set latency_p50_ms; tail misses and the post-bump
// miss storms (with single-flight coalescing) set latency_p99_ms and most
// of ops_per_s; the writer contends with the readers on the Catalog mutex.
//
// Timings come from fixed-size batches of kBatch requests per client and
// are reported as the fastest decile over batches. A batch's latency
// quantiles are exact (sorted samples); its throughput is requests over the
// summed Serve latencies, so the untimed per-request output checks between
// Serve calls do not count against the service.
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/load_harness.h"
#include "cost/model_registry.h"
#include "hypergraph/builder.h"
#include "plan/validate.h"
#include "service/fingerprint.h"
#include "service/plan_service.h"
#include "service/session.h"
#include "stats/analyze.h"
#include "workload/generators.h"
#include "workload/jobgen.h"
#include "workloads.h"

namespace dphyp::perfbench {

namespace {

/// Requests per client batch, and client 0's requests between ANALYZE
/// runs. >= 1000 so each batch's p99 has >= 10 samples beyond it.
constexpr int kBatch = 2000;
constexpr int kClients = 2;
/// Pool: 9 sizes x 128 traffic-mix templates, and one jobgen template for
/// every three of them (every fourth Zipf rank).
constexpr int kTrafficTemplates = 9 * 128;
constexpr int kJobTemplates = kTrafficTemplates / 3;
/// opt_geomean_ms and opt_worst_ms are taken over the fresh misses of the
/// templates at the hottest Zipf ranks, a fixed set for each seed whose
/// work spreads like the pool's. Every ANALYZE bump empties the cache and
/// each of them is requested several times per batch, so each misses
/// after nearly every bump.
constexpr size_t kOptTemplates = 64;
/// Traced batches replay one request in this many stage by stage.
constexpr uint64_t kReplayEvery = 4;
/// Plan cache budget: holds about 40% of the pool's plans (626 of 1536
/// after the warm-up pass on seed 1).
constexpr size_t kCacheBytes = 480 << 10;

struct Template {
  const QuerySpec* spec = nullptr;
  std::string model;
  Hypergraph graph;  // for the output checks and the traced replay
  double reference_cost = 0.0;
  /// Csg-cmp pairs of the reference run: a deterministic work measure.
  uint64_t work = 0;
};

struct ServeState {
  std::vector<QuerySpec> traffic;
  JobWorkload job;
  std::shared_ptr<Catalog> catalog;  // job.full_catalog, shared with service
  AnalyzeOptions analyze;
  std::vector<RelationInfo> pool_infos;
  std::vector<Template> pool;  // seeded order: Zipf rank i -> pool[i]
  std::unique_ptr<PlanService> service;
};

ServiceOptions MakeServiceOptions(std::shared_ptr<Catalog> catalog) {
  ServiceOptions options;
  options.num_threads = 1;
  options.parallel_threads = 1;
  options.dispatch.parallel_workers_hint = 1;
  options.cache_byte_budget = kCacheBytes;
  options.catalog = std::move(catalog);
  return options;
}

/// Re-analyzes pool table `t` with the options the catalog was built with;
/// bumps stats_version without changing any statistic.
void AnalyzeTable(ServeState& s, int t) {
  AnalyzeDataset(Dataset::FromTables({s.job.pool[t]}), {s.pool_infos[t]},
                 s.analyze, s.catalog.get());
}

/// Computes the template's reference cost and work through a private
/// session with the service's route policy.
void ComputeReference(Template& t, const Catalog* catalog,
                      OptimizationSession& session) {
  t.graph = BuildHypergraphOrDie(*t.spec);
  CardinalityModelInputs inputs;
  inputs.graph = &t.graph;
  inputs.spec = t.spec;
  inputs.catalog = catalog;
  Result<std::unique_ptr<CardinalityModel>> model =
      CreateCardinalityModel(t.model, inputs);
  if (!model.ok()) return;  // reference stays 0: every serve mismatches
  OptimizationRequest request;
  request.graph = &t.graph;
  request.estimator = model.value().get();
  request.cost_model = &DefaultCostModel();
  request.options.parallel_threads = 1;
  request.policy.parallel_workers_hint = 1;
  Result<OptimizeResult> r = session.Optimize(request);
  if (!r.ok() || !r.value().success) return;
  t.reference_cost = r.value().cost;
  t.work = r.value().stats.ccp_pairs;
}

/// Returns `templates` sorted by work (ties keep the generator's seeded
/// order) and then permuted by bit reversal of the sorted position, so
/// that every prefix is an even sample of the whole range of work.
std::vector<Template> SpreadByWork(std::vector<Template> templates) {
  std::stable_sort(templates.begin(), templates.end(),
                   [](const Template& a, const Template& b) {
                     return a.work < b.work;
                   });
  int bits = 0;
  while ((size_t{1} << bits) < templates.size()) ++bits;
  std::vector<Template> out;
  for (size_t i = 0; i < (size_t{1} << bits); ++i) {
    size_t reversed = 0;
    for (int b = 0; b < bits; ++b) reversed |= ((i >> b) & 1) << (bits - 1 - b);
    if (reversed < templates.size()) out.push_back(std::move(templates[reversed]));
  }
  return out;
}

std::unique_ptr<ServeState> Setup(uint64_t seed) {
  auto s = std::make_unique<ServeState>();
  // The default traffic mix (35/25/25/15% chain/star/cycle/clique, 4-12
  // relations), drawn stratified: every size gets exactly the mix's share
  // of every shape, 128 templates per size. A free draw let the number of
  // 11- and 12-relation stars, which set the miss tail, vary by a third
  // from one seed to the next. Cliques stop at 8 relations, below the
  // mix's default clique_max_relations of 10: this pool leaves out the 9-
  // and 10-cliques, the mix's heaviest templates, because their DPsub time
  // swings 3x with the drawn statistics and moved the miss tail by seed.
  static_assert(kTrafficTemplates == 9 * (45 + 32 + 32 + 19));
  const std::pair<double TrafficMixOptions::*, int> kShapes[] = {
      {&TrafficMixOptions::chain_weight, 45},
      {&TrafficMixOptions::star_weight, 32},
      {&TrafficMixOptions::cycle_weight, 32},
      {&TrafficMixOptions::clique_weight, 19}};
  for (int n = 4; n <= 12; ++n) {
    for (const auto& [weight, count] : kShapes) {
      TrafficMixOptions traffic;
      traffic.seed = (seed * 1000003ULL + 11) * 131 + s->traffic.size();
      traffic.distinct_templates = 0;  // every template distinct
      // A clique stratum past the cap draws 8-cliques.
      traffic.min_relations = traffic.max_relations =
          weight == &TrafficMixOptions::clique_weight ? std::min(n, 8) : n;
      traffic.chain_weight = traffic.star_weight = traffic.cycle_weight =
          traffic.clique_weight = 0.0;
      traffic.*weight = 1.0;
      for (QuerySpec& spec : GenerateTrafficMix(count, traffic)) {
        s->traffic.push_back(std::move(spec));
      }
    }
  }

  JobGenOptions job;
  job.seed = seed * 1000003ULL + 29;
  job.num_tables = 8;
  job.num_queries = kJobTemplates;
  job.min_relations = 3;
  job.max_relations = 6;
  s->job = GenerateJobWorkload(job);
  s->catalog = s->job.full_catalog;
  // The options GenerateJobWorkload analyzed with: the sample covers every
  // row, so re-running ANALYZE reproduces the statistics exactly.
  s->analyze.sample_size = job.num_tables * job.rows_per_table * 2;
  s->analyze.seed = job.seed ^ 0xa7a1u;
  for (int t = 0; t < job.num_tables; ++t) {
    RelationInfo info;
    info.name = s->job.pool_names[t];
    info.cardinality = s->job.pool[t].NumRows();
    info.num_columns = s->job.pool[t].num_columns;
    s->pool_infos.push_back(info);
    AnalyzeTable(*s, t);
  }

  // Zipf rank i serves pool[i]. The seed draws the templates; the order
  // fixes their profile over ranks, so that every seed loads the service
  // alike: every fourth rank is a jobgen ("hist") template, and within each
  // family the templates, sorted by work, are dealt out in bit-reversed
  // order, so every prefix of hot ranks holds the same spread of work.
  // (A plain shuffle let the few hottest templates' model and size move
  // the hit-path median by 2x from one seed to the next.)
  OptimizationSession session;
  std::vector<Template> traffic_templates, job_templates;
  auto add = [&](std::vector<Template>& family, const QuerySpec& spec,
                 const char* model) {
    family.emplace_back();
    family.back().spec = &spec;
    family.back().model = model;
    ComputeReference(family.back(), s->catalog.get(), session);
  };
  for (const QuerySpec& spec : s->traffic) {
    add(traffic_templates, spec, "product");
  }
  for (const JobQuery& q : s->job.queries) add(job_templates, q.spec, "hist");
  traffic_templates = SpreadByWork(std::move(traffic_templates));
  job_templates = SpreadByWork(std::move(job_templates));
  size_t next_traffic = 0, next_job = 0;
  for (size_t rank = 0; rank < kTrafficTemplates + kJobTemplates; ++rank) {
    s->pool.push_back(rank % 4 == 3
                          ? std::move(job_templates[next_job++])
                          : std::move(traffic_templates[next_traffic++]));
  }

  // The service and one warm-up pass over the pool.
  s->service = std::make_unique<PlanService>(MakeServiceOptions(s->catalog));
  for (const Template& t : s->pool) {
    QueryRequest request;
    request.spec = t.spec;
    request.model = t.model;
    (void)s->service->Serve(request);
  }
  return s;
}

/// One client's fixed-size batch summary.
struct Batch {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double busy_ms = 0.0;  // summed Serve latencies
  bool traced = false;
};

/// Everything one client measured.
struct ClientLog {
  std::vector<Batch> batches;
  bench::LatencyHistogram latency;
  /// Fastest untraced fresh miss (ms) of each of the kOptTemplates hottest
  /// templates.
  std::vector<double> fastest_miss_ms;
  /// Sum over served requests of log(served cost / reference cost).
  double log_cost_ratio = 0.0;
  uint64_t served = 0;
  std::vector<double> miss_ms, coalesced_ms;  // traced batches only
  std::vector<double> unattributed_us;        // traced hits
  std::vector<double> analyze_ms;             // client 0 only
  uint64_t attempted = 0, failed = 0, hits = 0, misses = 0, coalesced = 0;
  uint64_t replay_lookups = 0, replay_hits = 0;
  uint64_t check_failures = 0;
  std::string first_error;
  SpanRecorder spans;
};

/// The traced replay of one served request, stage by stage through the
/// public functions Serve calls, on the service's own cache and workspace
/// pool. Hits replay the hit path; misses replay the miss path (the
/// re-insert stores the same plan under the same key). Returns the summed
/// duration (ms) of the replayed stages.
double Replay(PlanService& service, const Template& t, bool hit,
              uint64_t request_id, int parent, ClientLog& log) {
  SpanRecorder& rec = log.spans;
  const int root = rec.Begin("replay", request_id, parent);
  double stages_ms = 0.0;
  // Runs one stage under a span and adds its duration to stages_ms.
  auto stage = [&](const char* name, auto&& fn) {
    const double start = rec.Now();
    fn();
    const double end = rec.Now();
    rec.Add(name, request_id, start, end, root);
    stages_ms += end - start;
  };
  Result<Hypergraph> built = Err("not built");
  stage("hypergraph.build", [&] { built = BuildHypergraph(*t.spec); });
  if (!built.ok()) return stages_ms;
  const Hypergraph& graph = built.value();
  CardinalityModelInputs inputs;
  inputs.graph = &graph;
  inputs.spec = t.spec;
  inputs.catalog = service.options().catalog.get();
  Result<std::unique_ptr<CardinalityModel>> model = Err("not created");
  stage(t.model == "hist" ? "cost.model_create.hist"
                          : "cost.model_create.product",
        [&] { model = CreateCardinalityModel(t.model, inputs); });
  if (!model.ok()) return stages_ms;
  const CardinalityModel& est = *model.value();
  Fingerprint key;
  stage("service.fingerprint", [&] {
    key = SaltFingerprint(
        SaltFingerprint(FingerprintHypergraph(graph), est.Fingerprint()),
        service.stats_version());
  });
  if (hit) {
    CachedPlan cached;
    bool found = false;
    stage("service.cache_lookup",
          [&] { found = service.cache().Lookup(key, &cached); });
    ++log.replay_lookups;
    if (found) {
      ++log.replay_hits;
      bool consistent = false;
      stage("service.consistency_check",
            [&] { consistent = PlanConsistentWithGraph(cached, graph, est); });
      OptimizeResult materialized;
      stage("service.materialize",
            [&] { materialized = MaterializePlan(cached); });
      (void)consistent;
    }
    rec.End(root);
    return stages_ms;
  }
  std::optional<WorkspacePool::Lease> lease;
  stage("core.workspace_acquire",
        [&] { lease.emplace(service.workspaces().Acquire()); });
  OptimizationSession session(lease->get());
  OptimizationRequest request;
  request.graph = &graph;
  request.estimator = &est;
  request.cost_model = &DefaultCostModel();
  request.policy = service.options().dispatch;
  request.options.parallel_threads = service.options().parallel_threads;
  Result<OptimizeResult> optimized = Err("not optimized");
  stage("service.optimize", [&] { optimized = session.Optimize(request); });
  if (optimized.ok() && optimized.value().success) {
    CachedPlan serialized;
    stage("service.serialize",
          [&] { serialized = SerializePlan(optimized.value()); });
    stage("service.cache_insert",
          [&] { service.cache().Insert(key, std::move(serialized)); });
  }
  rec.End(root);
  return stages_ms;
}

/// One client's closed loop. Client 0 owns the ANALYZE writes and the
/// stop decision; both stop at a batch boundary once `stop` is set.
void RunClient(int client, ServeState& s, const RunConfig& config,
               const ZipfSampler& zipf, std::atomic<bool>& stop,
               ClientLog& log) {
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17 * (client + 1));
  PlanService& service = *s.service;
  std::vector<double> batch_ms;
  batch_ms.reserve(kBatch);
  log.fastest_miss_ms.assign(kOptTemplates,
                             std::numeric_limits<double>::infinity());
  const Timer run;
  int bumps = 0;
  for (uint64_t batch = 0; !stop.load(std::memory_order_relaxed); ++batch) {
    const bool traced = config.trace && batch % 2 == 1;
    batch_ms.clear();
    double busy = 0.0;
    for (int i = 0; i < kBatch; ++i) {
      if (client == 0 && i == 0 && batch > 0) {
        const Timer timer;
        AnalyzeTable(s, bumps++ % static_cast<int>(s.pool_infos.size()));
        log.analyze_ms.push_back(timer.ElapsedMillis());
      }
      const size_t rank = zipf.Sample(rng);
      const Template& t = s.pool[rank];
      QueryRequest request;
      request.spec = t.spec;
      request.model = t.model;
      // Timed on the span recorder's clock, so the traced "serve" span
      // and its replay share one time line.
      const double start = log.spans.Now();
      ServiceResult r = service.Serve(request);
      const double end = log.spans.Now();
      const double ms = end - start;
      batch_ms.push_back(ms);
      busy += ms;
      log.latency.Record(ms);
      ++log.attempted;
      if (!r.success) {
        ++log.failed;
        if (log.first_error.empty()) log.first_error = r.error;
        continue;
      }
      const bool fresh = !r.cache_hit && !r.coalesced;
      log.hits += r.cache_hit;
      log.coalesced += r.coalesced;
      log.misses += fresh;
      // Untimed output checks on every served plan.
      log.log_cost_ratio += std::log(r.cost / t.reference_cost);
      ++log.served;
      if (!SameCost(r.cost, t.reference_cost)) {
        ++log.check_failures;
        if (log.first_error.empty()) log.first_error = "cost != reference";
      } else if (!ValidatePlanTree(t.graph, r.result.ExtractPlan(t.graph))
                      .ok()) {
        ++log.check_failures;
        if (log.first_error.empty()) log.first_error = "invalid plan";
      }
      if (!traced) {
        if (fresh && rank < kOptTemplates) {
          log.fastest_miss_ms[rank] = std::min(log.fastest_miss_ms[rank], ms);
        }
        continue;
      }
      if (r.coalesced) log.coalesced_ms.push_back(ms);
      if (fresh) log.miss_ms.push_back(ms);
      // Every kReplayEvery-th request of a traced batch is replayed stage
      // by stage. Traced batches count the replay as service time too, so
      // the traced/untraced throughput ratio is the tracing overhead.
      if (log.attempted % kReplayEvery != 0 || r.coalesced) continue;
      const uint64_t id = (uint64_t(client) << 48) | log.attempted;
      const int serve_span = log.spans.Add("serve", id, start, end);
      const double replay_start = log.spans.Now();
      const double stages_ms =
          Replay(service, t, r.cache_hit, id, serve_span, log);
      if (r.cache_hit) log.unattributed_us.push_back((ms - stages_ms) * 1000.0);
      busy += log.spans.Now() - replay_start;
    }
    log.batches.push_back({QuantileMillis(batch_ms, 0.5),
                           QuantileMillis(batch_ms, 0.99),
                           busy, traced});
    if (client == 0 && run.ElapsedSeconds() >= config.seconds) stop.store(true);
  }
}

}  // namespace

RunResult RunServeMix(const RunConfig& config) {
  RunResult out;
  std::unique_ptr<ServeState> s =
      RepeatSetup([&] { return Setup(config.seed); }, out);
  for (const Template& t : s->pool) {
    if (!(t.reference_cost > 0.0)) out.Fail("template without reference cost");
  }
  const PlanCache::Stats cache_before = s->service->cache().GetStats();
  const ServiceStats lifetime_before = s->service->LifetimeStats();
  const uint64_t version_before = s->service->stats_version();

  const ZipfSampler zipf(static_cast<int>(s->pool.size()), 1.1);
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(kClients);
  std::thread second([&] { RunClient(1, *s, config, zipf, stop, logs[1]); });
  RunClient(0, *s, config, zipf, stop, logs[0]);
  second.join();

  // Batch statistics over both clients.
  std::vector<double> p50, p99, busy, traced_busy;
  bench::LatencyHistogram all;
  for (ClientLog& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (uint64_t i = 0; i < log.check_failures; ++i) out.Fail(log.first_error);
    if (log.failed > 0) out.errors.push_back("serve failed: " + log.first_error);
    all.Merge(log.latency);
    for (const Batch& b : log.batches) {
      if (b.traced) {
        traced_busy.push_back(b.busy_ms);
        continue;
      }
      p50.push_back(b.p50_ms);
      p99.push_back(b.p99_ms);
      busy.push_back(b.busy_ms);
    }
  }
  const uint64_t batches = p50.size();
  out.end_to_end["latency_p50_ms"] = {
      QuantileMillis(p50, kBatchQuantile), "ms", batches * kBatch,
      "fastest decile over batches of the batch p50"};
  out.end_to_end["latency_p99_ms"] = {
      QuantileMillis(p99, kBatchQuantile), "ms", batches * kBatch,
      "fastest decile over batches of the batch p99 (20 beyond each)"};
  out.end_to_end["ops_per_s"] = {
      kClients * kBatch * 1000.0 / QuantileMillis(busy, kBatchQuantile), "1/s",
      batches, "clients x batch / fastest-decile batch Serve time"};
  double log_cost_ratio = 0.0;
  uint64_t served = 0;
  for (const ClientLog& log : logs) {
    log_cost_ratio += log.log_cost_ratio;
    served += log.served;
  }
  out.end_to_end["cost_ratio"] = {
      served == 0 ? 0.0 : std::exp(log_cost_ratio / double(served)), "ratio",
      served, "geomean served / reference, every served request"};
  // Every run prints every end-to-end metric; the optimizer timings, the
  // optimizer workloads' own metrics, are here the hottest templates'
  // fastest fresh misses.
  std::vector<double> fastest_miss;
  double worst_miss = 0.0;
  for (size_t rank = 0; rank < kOptTemplates; ++rank) {
    const double ms = std::min(logs[0].fastest_miss_ms[rank],
                               logs[1].fastest_miss_ms[rank]);
    if (!std::isfinite(ms)) continue;  // no fresh miss (a very short run)
    fastest_miss.push_back(ms);
    worst_miss = std::max(worst_miss, ms);
  }
  out.end_to_end["opt_geomean_ms"] = {
      GeoMean(fastest_miss), "ms", fastest_miss.size(),
      "geomean over the hottest templates of the fastest fresh miss"};
  out.end_to_end["opt_worst_ms"] = {worst_miss, "ms", fastest_miss.size(),
                                    "slowest hot template's fastest fresh miss"};
  std::printf(
      "serve-mix: %zu templates, %llu requests in %llu batches; whole run "
      "p50 %.4f p99 %.4f p999 %.4f max %.3f ms (histogram, %llu samples)\n",
      s->pool.size(), static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(batches), all.Percentile(0.5),
      all.Percentile(0.99), all.Percentile(0.999), all.max_ms(),
      static_cast<unsigned long long>(all.count()));
  const uint64_t hits = logs[0].hits + logs[1].hits;
  const uint64_t misses = logs[0].misses + logs[1].misses;
  const uint64_t coalesced = logs[0].coalesced + logs[1].coalesced;
  std::printf("serve-mix: hits %llu misses %llu coalesced %llu\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(coalesced));

  if (!config.trace) return out;

  auto merged = [&](const char* name) {
    std::vector<double> v;
    for (const ClientLog& log : logs) {
      std::vector<double> d = log.spans.Durations(name);
      v.insert(v.end(), d.begin(), d.end());
    }
    return v;
  };
  auto layer = [&](const char* span, const char* metric, const char* unit,
                   double scale) {
    const std::vector<double> v = merged(span);
    out.per_layer[metric] = {Median(v) * scale, unit, v.size(), "median"};
  };
  layer("hypergraph.build", "hypergraph.build_us", "us", 1000.0);
  layer("cost.model_create.product", "cost.model_create_us.product", "us",
        1000.0);
  layer("cost.model_create.hist", "cost.model_create_us.hist", "us", 1000.0);
  layer("service.fingerprint", "service.fingerprint_us", "us", 1000.0);
  layer("service.cache_lookup", "service.cache_lookup_us", "us", 1000.0);
  layer("service.consistency_check", "service.consistency_check_us", "us",
        1000.0);
  layer("service.materialize", "service.materialize_us", "us", 1000.0);
  layer("service.serialize", "service.serialize_us", "us", 1000.0);
  layer("service.cache_insert", "service.cache_insert_us", "us", 1000.0);
  layer("core.workspace_acquire", "core.workspace_acquire_us", "us", 1000.0);
  std::vector<double> unattributed, miss_ms, coalesced_ms, analyze_ms;
  for (const ClientLog& log : logs) {
    unattributed.insert(unattributed.end(), log.unattributed_us.begin(),
                        log.unattributed_us.end());
    miss_ms.insert(miss_ms.end(), log.miss_ms.begin(), log.miss_ms.end());
    coalesced_ms.insert(coalesced_ms.end(), log.coalesced_ms.begin(),
                        log.coalesced_ms.end());
    analyze_ms.insert(analyze_ms.end(), log.analyze_ms.begin(),
                      log.analyze_ms.end());
  }
  out.per_layer["service.unattributed_us"] = {
      Median(unattributed), "us", unattributed.size(),
      "median of Serve hit latency minus its replayed stages"};
  out.per_layer["service.serve_miss_ms"] = {Median(miss_ms), "ms",
                                            miss_ms.size(), "median"};
  out.per_layer["service.serve_coalesced_ms"] = {
      Median(coalesced_ms), "ms", coalesced_ms.size(), "median"};
  out.per_layer["stats.analyze_ms"] = {Median(analyze_ms), "ms",
                                       analyze_ms.size(), "median"};
  out.per_layer["catalog.version_bumps"] = {
      double(s->service->stats_version() - version_before), "count", 1, ""};

  const PlanCache::Stats cache = s->service->cache().GetStats();
  uint64_t replay_lookups = 0, replay_hits = 0;
  for (const ClientLog& log : logs) {
    replay_lookups += log.replay_lookups;
    replay_hits += log.replay_hits;
  }
  const double lookups = double(cache.hits + cache.misses) -
                         double(cache_before.hits + cache_before.misses) -
                         double(replay_lookups);
  const double cache_hits =
      double(cache.hits - cache_before.hits) - double(replay_hits);
  out.per_layer["service.cache_hit_rate"] = {
      lookups > 0 ? cache_hits / lookups : 0.0, "ratio", uint64_t(lookups),
      "excluding replayed lookups"};
  out.per_layer["service.cache_evictions"] = {
      double(cache.evictions - cache_before.evictions), "count", 1, ""};
  const ServiceStats lifetime = s->service->LifetimeStats();
  const double queries = double(lifetime.queries - lifetime_before.queries);
  auto share = [&](uint64_t now, uint64_t before) {
    return queries > 0 ? double(now - before) / queries : 0.0;
  };
  out.per_layer["service.coalesced_share"] = {
      share(lifetime.coalesced_hits, lifetime_before.coalesced_hits), "ratio",
      uint64_t(queries), ""};
  out.per_layer["service.degraded_share"] = {
      share(lifetime.degraded, lifetime_before.degraded), "ratio",
      uint64_t(queries), ""};
  out.per_layer["service.rejected_share"] = {
      share(lifetime.rejected, lifetime_before.rejected), "ratio",
      uint64_t(queries), ""};
  const double untraced_ops = 1.0 / QuantileMillis(busy, kBatchQuantile);
  const double traced_ops = 1.0 / QuantileMillis(traced_busy, kBatchQuantile);
  out.per_layer["trace.overhead"] = {traced_ops / untraced_ops - 1.0, "ratio",
                                     traced_busy.size(), ""};
  for (int c = 0; c < kClients; ++c) {
    if (!logs[c].spans.WriteTsv(config.trace_dir + "/serve-mix-client" +
                                std::to_string(c) + ".tsv")) {
      std::fprintf(stderr, "perfbench: could not write the span file\n");
    }
  }
  return out;
}

}  // namespace dphyp::perfbench
