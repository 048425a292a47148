#ifndef LLL_CORE_METRICS_H_
#define LLL_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lll {

// The metrics layer: named counters, gauges, and histograms behind one
// registry, exportable as a JSON snapshot. This is the "one queryable
// surface" the paper's experience report was missing -- EvalStats, cache
// hit/miss counts, and docgen phase timings were previously per-call values
// that evaporated with their result structs; here the engines fold them into
// a registry a server (or a bench harness) can poll.
//
// Concurrency contract: instrument handles returned by the registry are
// stable for the registry's lifetime (instruments are never dropped) and
// all mutation paths are lock-free atomics, so hot paths pay one relaxed
// add per event. The registry itself serializes only name->instrument
// resolution (done once, by the owner of a hot path: see xq::ExecMetrics)
// and snapshotting.

class Counter {
 public:
  // Adding zero touches nothing, so a hot path can report counters that
  // rarely move without bouncing their cache lines between threads.
  void Increment(uint64_t n = 1) {
    if (n != 0) v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Exponential-bucket histogram: bucket k holds observations in [2^(k-1), 2^k)
// (bucket 0 holds zero). 40 buckets cover up to ~0.5e12 in whatever unit the
// caller observes -- microseconds, items, bytes. Percentiles interpolate
// inside the winning bucket, which is plenty for a hot-spot readout.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  // Approximate p-th percentile (p in [0,100]).
  uint64_t ApproxPercentile(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the named instrument. The returned reference stays
  // valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  // Histograms export count/sum/mean/max/p50/p95/p99. Keys are sorted, so
  // snapshots diff cleanly.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The process-wide registry the engines report into. Immortal.
MetricsRegistry& GlobalMetrics();

}  // namespace lll

#endif  // LLL_CORE_METRICS_H_
