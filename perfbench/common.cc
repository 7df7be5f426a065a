#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>

#include "util/rng.h"

namespace dphyp::perfbench {

namespace {

// A span recorder keeps at most this many spans (~10 MB); later spans are
// dropped, and the per-layer statistics come from the recorded prefix.
constexpr size_t kMaxSpans = size_t{1} << 18;

}  // namespace

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

int SpanRecorder::NameId(const char* name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

int SpanRecorder::Begin(const char* name, uint64_t request, int parent) {
  return Add(name, request, Now(), 0.0, parent);
}

void SpanRecorder::End(int span) {
  if (span >= 0) spans_[span].end_ms = Now();
}

int SpanRecorder::Add(const char* name, uint64_t request, double start_ms,
                      double end_ms, int parent) {
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back({NameId(name), parent, request, start_ms, end_ms});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::Durations(
    const char* name, std::vector<uint64_t>* requests) const {
  std::vector<double> out;
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name != it->second) continue;
    out.push_back(s.end_ms - s.start_ms);
    if (requests != nullptr) requests->push_back(s.request);
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tname\tstart_ms\tend_ms\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line), "%zu\t%d\t%llu\t%s\t%.6f\t%.6f\n", i,
                  s.parent, static_cast<unsigned long long>(s.request),
                  names_[s.name].c_str(), s.start_ms, s.end_ms);
    out << line;
  }
  return static_cast<bool>(out);
}

double MemoryProbeMs(uint64_t seed) {
  // One random cycle through 2M slots (16 MiB of uint64_t): every load
  // depends on the previous one, so the time is memory latency, not
  // bandwidth or ALU throughput.
  constexpr size_t kSlots = size_t{1} << 21;
  std::vector<uint64_t> next(kSlots);
  std::vector<uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), uint64_t{0});
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  for (size_t i = 0; i < kSlots; ++i) {
    next[order[i]] = order[(i + 1) % kSlots];
  }
  const Timer timer;
  uint64_t at = order[0];
  for (size_t step = 0; step < 2 * kSlots; ++step) at = next[at];
  const double elapsed = timer.ElapsedMillis();
  if (at == kSlots) std::printf("unreachable\n");  // keeps the chase live
  return elapsed;
}

double AluProbeMs() {
  const Timer timer;
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double elapsed = timer.ElapsedMillis();
  if (x == 0) std::printf("unreachable\n");
  return elapsed;
}

double PeakRssMiB() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss is not: Linux carries it across exec, so a runner started
  // from a larger parent (such as run.py) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace dphyp::perfbench
