#include "core/metrics.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace lll {

namespace {

// Bucket index for value v: 0 for 0, else 1 + floor(log2(v)), clamped.
size_t BucketFor(uint64_t v) {
  if (v == 0) return 0;
  size_t b = 1;
  while (v > 1 && b + 1 < Histogram::kBuckets) {
    v >>= 1;
    ++b;
  }
  return b;
}

// Upper bound (exclusive) of bucket b: 2^(b-1) for b>=1.
uint64_t BucketUpper(size_t b) {
  if (b == 0) return 1;
  return uint64_t{1} << b;
}

uint64_t BucketLower(size_t b) {
  if (b == 0) return 0;
  return uint64_t{1} << (b - 1);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Histogram::Observe(uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Racy max update is fine: worst case a concurrent smaller value wins a
  // store it shouldn't, and the CAS loop below prevents even that.
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::ApproxPercentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the target observation, 1-based.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate linearly inside the bucket.
      double frac = static_cast<double>(rank - seen) /
                    static_cast<double>(in_bucket);
      uint64_t lo = BucketLower(b);
      uint64_t hi = std::max(BucketUpper(b), lo + 1);
      uint64_t est =
          lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
      return std::min(est, max());
    }
    seen += in_bucket;
  }
  return max();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    out += ": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    out += ": " + std::to_string(g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %llu, \"sum\": %llu, \"mean\": %.2f, "
                  "\"max\": %llu, \"p50\": %llu, \"p95\": %llu, "
                  "\"p99\": %llu}",
                  static_cast<unsigned long long>(h->count()),
                  static_cast<unsigned long long>(h->sum()), h->mean(),
                  static_cast<unsigned long long>(h->max()),
                  static_cast<unsigned long long>(h->ApproxPercentile(50)),
                  static_cast<unsigned long long>(h->ApproxPercentile(95)),
                  static_cast<unsigned long long>(h->ApproxPercentile(99)));
    out += buf;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace lll
