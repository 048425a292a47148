#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Samples::PercentileUs(double p) const {
  if (ns_.empty()) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(ns_.size())));
  rank = std::clamp<size_t>(rank, 1, ns_.size());
  return static_cast<double>(ns_[rank - 1]) / 1000.0;
}

void Samples::Append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  sorted_ = false;
}

namespace {

// The vCPUs this process may run on, read before any pacer pins a thread.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE && c < 64; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// vCPUs held by a pacer, one bit each.
std::atomic<uint64_t> held_cpus{0};

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// A 16 KiB table walk with data-dependent branches: slowed by a busy
// sibling hyperthread as the program under test is. Returns ns.
int64_t MixedSpin() {
  static thread_local uint32_t table[4096];
  const int64_t t0 = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint32_t& slot = table[x & 4095];
    slot += static_cast<uint32_t>(x >> 32);
    acc = (slot & 1) ? acc + (x & 4095) : acc ^ x;
  }
  table[0] += static_cast<uint32_t>(acc);
  return NowNs() - t0;
}

// Dependent multiply-adds: latency-bound, so its time per step follows the
// core clock alone. Returns ns per step.
double ChainStepNs() {
  constexpr int kSteps = 40000;
  static thread_local uint64_t sink;
  const int64_t t0 = NowNs();
  uint64_t x = sink | 1;
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  sink = x;
  return static_cast<double>(NowNs() - t0) / kSteps;
}

}  // namespace

Pacer::Pacer() {
  AllowedCpus();
  Repick();
}

Pacer::~Pacer() {
  if (cpu_ >= 0) held_cpus.fetch_and(~(1ull << cpu_));
}

void Pacer::Between() {
  if (NowNs() < next_ns_) return;
  active_ns_ += static_cast<double>(NowNs() - mark_ns_) * factor_;
  Repick();
}

double Pacer::ActiveSeconds() {
  const int64_t now = NowNs();
  active_ns_ += static_cast<double>(now - mark_ns_) * factor_;
  mark_ns_ = now;
  return active_ns_ / 1e9;
}

void Pacer::Repick() {
  if (cpu_ >= 0) held_cpus.fetch_and(~(1ull << cpu_));
  cpu_ = -1;
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() > 1) {
    // Another pacer may take a vCPU between timing it and holding it; then
    // time the rest again.
    for (int attempt = 0; attempt < 4 && cpu_ < 0; ++attempt) {
      int best = -1;
      int64_t best_ns = INT64_MAX;
      for (int c : cpus) {
        if (held_cpus.load() & (1ull << c)) continue;
        if (!PinTo(c)) continue;
        const int64_t ns = std::min(MixedSpin(), MixedSpin());
        if (ns < best_ns) {
          best_ns = ns;
          best = c;
        }
      }
      if (best < 0) break;
      const uint64_t bit = 1ull << best;
      if ((held_cpus.fetch_or(bit) & bit) == 0) {
        cpu_ = best;
        PinTo(best);
      }
    }
  }
  factor_ = kRefStepNs / std::min(ChainStepNs(), ChainStepNs());
  mark_ns_ = NowNs();
  next_ns_ = mark_ns_ + kRepickNs;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng* rng) const {
  double u = rng->Uniform();
  size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

int Tracer::Begin(const char* name, uint64_t op) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, op});
  int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<Tracer>& tracers) {
  std::map<std::string, SpanStats> out;
  for (const Tracer& tracer : tracers) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanStats& stats = out[s.name];
      stats.total.Add(s.end_ns - s.start_ns);
      stats.self.Add(s.end_ns - s.start_ns - child_ns[i]);
    }
  }
  return out;
}

std::string DetailLine(const std::string& name, double value,
                       const std::string& unit, size_t samples) {
  char buf[256];
  if (samples > 0) {
    std::snprintf(buf, sizeof(buf), "%-34s %14.4f %-6s (n=%zu)", name.c_str(),
                  value, unit.c_str(), samples);
  } else {
    std::snprintf(buf, sizeof(buf), "%-34s %14.4f %s", name.c_str(), value,
                  unit.c_str());
  }
  return buf;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and would
  // report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double OverheadPct(double untraced, double traced) {
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0;
}

void AddEndToEnd(Report* report, double setup_s, double ops_per_s,
                 double primary_p50_us, double secondary_p50_us) {
  report->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"primary_p50_us", primary_p50_us, "us"},
      {"secondary_p50_us", secondary_p50_us, "us"},
  };
}

}  // namespace perfbench
