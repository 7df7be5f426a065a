// Primitive probes for the traced mode: Hypergraph::Neighborhood and the
// NonEmptySubsetsOf walk, timed on (S, X) pairs sampled from a workload's
// own graphs and replayed at node-set widths 1, 2 and 4 (WidenGraph keeps
// the graph identical, only its representation changes). These are the
// two enumeration-core primitives whose per-call cost moves with the
// node-set width.
#ifndef DPHYP_PERFBENCH_LAYER_PROBES_H_
#define DPHYP_PERFBENCH_LAYER_PROBES_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/wide.h"
#include "hypergraph/hypergraph.h"
#include "util/rng.h"
#include "util/subset.h"

namespace dphyp::perfbench {

/// A width-independent (S, X) sample: node indices of S and of X.
struct NodePair {
  std::vector<int> s;
  std::vector<int> x;
};

template <typename NS>
NS ToSet(const std::vector<int>& nodes) {
  NS out;
  for (int v : nodes) out |= NS::Single(v);
  return out;
}

template <typename NS>
std::vector<int> ToNodes(NS set) {
  std::vector<int> out;
  for (int v : set) out.push_back(v);
  return out;
}

/// Samples `count` pairs the way DPhyp produces them: S is a connected set
/// grown from a random start through its neighborhood, X excludes every
/// node below S's minimum plus S itself.
template <typename NS>
std::vector<NodePair> SampleNeighborhoodPairs(const BasicHypergraph<NS>& g,
                                              int count, Rng& rng) {
  std::vector<NodePair> out;
  const int n = g.NumNodes();
  for (int i = 0; i < count; ++i) {
    const int start = static_cast<int>(rng.Uniform(n));
    NS s = NS::Single(start);
    const int target = 1 + static_cast<int>(rng.Uniform(n < 8 ? n : 8));
    while (s.Count() < target) {
      const NS nbh = g.Neighborhood(s, NS::Below(s.Min()) | s);
      if (nbh.Empty()) break;
      const std::vector<int> cand = ToNodes(nbh);
      s |= NS::Single(cand[rng.Uniform(cand.size())]);
    }
    out.push_back({ToNodes(s), ToNodes(NS::Below(s.Min()) | s)});
  }
  return out;
}

/// Median over chunks of ns per Neighborhood call at width NS.
template <typename NS>
double NeighborhoodNs(const BasicHypergraph<NS>& g,
                      const std::vector<NodePair>& pairs) {
  std::vector<std::pair<NS, NS>> sets;
  for (const NodePair& p : pairs) sets.push_back({ToSet<NS>(p.s), ToSet<NS>(p.x)});
  std::vector<double> chunk_ns;
  size_t sink = 0;
  for (int chunk = 0; chunk < 15; ++chunk) {
    const Timer timer;
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& [s, x] : sets) sink += g.Neighborhood(s, x).Count();
    }
    chunk_ns.push_back(timer.ElapsedMillis() * 1e6 / (4.0 * sets.size()));
  }
  if (sink == size_t(-1)) std::printf("unreachable\n");
  return Median(chunk_ns);
}

/// Median over chunks of ns per subset-walk step at width NS, walking the
/// non-empty subsets of each sampled X restricted to at most 12 nodes.
template <typename NS>
double SubsetStepNs(const std::vector<NodePair>& pairs) {
  std::vector<NS> masks;
  uint64_t steps_per_round = 0;
  for (const NodePair& p : pairs) {
    std::vector<int> nodes = p.x;
    if (nodes.size() > 12) nodes.resize(12);
    if (nodes.empty()) continue;
    masks.push_back(ToSet<NS>(nodes));
    steps_per_round += (uint64_t{1} << nodes.size()) - 1;
  }
  if (steps_per_round == 0) return 0.0;
  std::vector<double> chunk_ns;
  uint64_t sink = 0;
  for (int chunk = 0; chunk < 15; ++chunk) {
    const Timer timer;
    for (const NS& mask : masks) {
      for (NS sub : NonEmptySubsetsOf(mask)) sink += sub.Empty() ? 0 : 1;
    }
    chunk_ns.push_back(timer.ElapsedMillis() * 1e6 /
                       static_cast<double>(steps_per_round));
  }
  if (sink == 0) std::printf("unreachable\n");
  return Median(chunk_ns);
}

/// Runs both probes at widths 1 (when the graph fits), 2 and 4 on pairs
/// sampled from `graphs` (all at width NS) and stores the six metrics.
template <typename NS>
void ProbePrimitives(const std::vector<const BasicHypergraph<NS>*>& graphs,
                     uint64_t seed, RunResult& out) {
  Rng rng(seed ^ 0x51ab5eedULL);
  double nb[3] = {0, 0, 0}, ss[3] = {0, 0, 0};
  int counted[3] = {0, 0, 0};
  for (const BasicHypergraph<NS>* g : graphs) {
    const std::vector<NodePair> pairs = SampleNeighborhoodPairs(*g, 256, rng);
    if constexpr (NS::kWords == 1) {
      nb[0] += NeighborhoodNs(*g, pairs);
      ss[0] += SubsetStepNs<NS>(pairs);
      ++counted[0];
      const auto g2 = WidenGraph<WideNodeSet>(*g);
      nb[1] += NeighborhoodNs(g2, pairs);
    } else {
      nb[1] += NeighborhoodNs(*g, pairs);
    }
    ss[1] += SubsetStepNs<WideNodeSet>(pairs);
    ++counted[1];
    const auto g4 = WidenGraph<HugeNodeSet>(*g);
    nb[2] += NeighborhoodNs(g4, pairs);
    ss[2] += SubsetStepNs<HugeNodeSet>(pairs);
    ++counted[2];
  }
  const char* widths[3] = {"w1", "w2", "w4"};
  for (int w = 0; w < 3; ++w) {
    if (counted[w] == 0) continue;
    out.per_layer[std::string("hypergraph.neighborhood_ns.") + widths[w]] = {
        nb[w] / counted[w], "ns", static_cast<uint64_t>(counted[w]) * 256, ""};
    out.per_layer[std::string("util.subset_step_ns.") + widths[w]] = {
        ss[w] / counted[w], "ns", static_cast<uint64_t>(counted[w]) * 256, ""};
  }
}

}  // namespace dphyp::perfbench

#endif  // DPHYP_PERFBENCH_LAYER_PROBES_H_
