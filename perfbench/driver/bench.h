#ifndef LLL_PERFBENCH_BENCH_H_
#define LLL_PERFBENCH_BENCH_H_

// Shared pieces of the perfbench driver: exact timing, raw-sample
// percentiles, the seeded input generator, in-memory spans for the traced
// run, and the report every workload fills in.
//
// Everything here lives outside the program under test: the driver only
// calls the public APIs of src/ and wraps its own spans around those calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since an arbitrary process-wide epoch (steady_clock).
int64_t NowNs();

// Raw per-operation samples in nanoseconds. Percentiles are nearest-rank
// over all samples of the run -- no bucketing, no interpolation.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  size_t count() const { return ns_.size(); }
  // p in (0, 100]. Returns microseconds; 0 when there are no samples.
  double PercentileUs(double p) const;
  void Append(const Samples& other);

 private:
  mutable std::vector<int64_t> ns_;
  mutable bool sorted_ = false;
};

// Holds the host as still as it can for one measuring thread. On a shared
// host two things outside the program move wall times from run to run:
//   * the core clock (turbo), set by the whole host's load and the same on
//     every vCPU at a given moment (up to ~20%);
//   * contention from sibling hyperthreads, different on each vCPU and
//     changing every second or so (up to ~1.4x).
// Between operations, every kRepickNs, the pacer moves its thread to the
// allowed vCPU (not held by another pacer) that runs a memory-and-branch
// spin fastest, then times a dependent multiply-add chain there to read the
// clock. Scale() turns a wall time measured since then into time at the
// reference clock (one chain step = kRefStepNs). The pacer's own work never
// falls inside a timed operation, and ActiveSeconds() leaves it out.
// Contention for the shared last-level cache and memory is not corrected
// and still moves run medians by several percent.
class Pacer {
 public:
  static constexpr int64_t kRepickNs = 100'000'000;
  // A chain step is one 64-bit multiply plus one add (4 cycles); 1.4 ns is
  // that step at a 2.86 GHz clock.
  static constexpr double kRefStepNs = 1.4;

  Pacer();
  ~Pacer();
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  // Call between operations; re-places the thread when kRepickNs is up.
  void Between();
  // A wall-clock duration in ns at the reference clock.
  int64_t Scale(int64_t ns) const {
    return static_cast<int64_t>(static_cast<double>(ns) * factor_);
  }
  // Time since construction at the reference clock, without the pacer's own
  // placement work.
  double ActiveSeconds();

 private:
  void Repick();

  int cpu_ = -1;
  double factor_ = 1;
  int64_t mark_ns_ = 0;  // end of the last placement
  int64_t next_ns_ = 0;  // when to re-place
  double active_ns_ = 0;
};

// Deterministic input generator (splitmix64), independent of the program's
// own RNG so that a change under src/ never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // A child generator for an independent stream (per thread, per purpose).
  Rng Fork(uint64_t stream) {
    return Rng(Next() ^ (stream * 0xD1B54A32D192ED03ull));
  }
  // Fisher-Yates, in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }
  // 0..n-1 in a seeded order.
  std::vector<size_t> Permutation(size_t n) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    Shuffle(&order);
    return order;
  }

 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// One timed span: {name, start, end, parent, operation id}. Spans are kept
// in memory per thread and written out when the run ends.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same tracer, -1 for a root span
  uint64_t op;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int Begin(const char* name, uint64_t op);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer->on() ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Per span name: durations and self times (duration minus the time covered
// by direct children), in microseconds.
struct SpanStats {
  Samples total;
  Samples self;
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<Tracer>& tracers);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one workload run produces.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The BENCHMARK.json end-to-end names (trace off).
  std::vector<Metric> end_to_end;
  // The same measurements under their workload-specific names, each
  // percentile with its sample count; printed for humans.
  std::vector<std::string> detail;
  // Per-layer metrics by BENCHMARK.json name (trace on).
  std::map<std::string, double> per_layer;
  // Trace artifact: spans of the traced half plus the metrics registry.
  std::vector<Tracer> tracers;
  std::string registry_json;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
  std::string state_dir;  // scratch for serve_mixed's warm-boot state
};

// Percentile with its sample count, for the detail lines.
std::string DetailLine(const std::string& name, double value,
                       const std::string& unit, size_t samples = 0);

// Peak resident set size of this process, MiB.
double PeakRssMb();

// part / whole, or 0 when whole is 0.
double Ratio(uint64_t part, uint64_t whole);

// Reports a failed set-up on stderr and exits 1 (no result line).
[[noreturn]] void Die(const std::string& why);

// Median of a small vector of doubles (set-up repetitions).
double Median(std::vector<double> values);

// Traced-vs-untraced change of a median, in percent.
double OverheadPct(double untraced, double traced);

// Fills the BENCHMARK.json end-to-end set, which every workload reports:
// `primary` and `secondary` are the medians of the workload's two timed
// paths. Tail percentiles swing with the shared host's neighbours more than
// any bound the benchmark could hold, so they are detail lines only. Reads
// peak RSS, so call it last.
void AddEndToEnd(Report* report, double setup_s, double ops_per_s,
                 double primary_p50_us, double secondary_p50_us);

Report RunServeMixed(const Args& args);
Report RunDocgenReports(const Args& args);
Report RunAwbqlQueries(const Args& args);

}  // namespace perfbench

#endif  // LLL_PERFBENCH_BENCH_H_
