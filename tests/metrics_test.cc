// The metrics layer: instrument semantics, registry behavior, the JSON
// snapshot, and the lock-free concurrency contract (run this binary under
// ThreadSanitizer via the `concurrency` ctest label).

#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace lll {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, CountSumMaxMean) {
  Histogram h;
  h.Observe(1);
  h.Observe(2);
  h.Observe(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(HistogramTest, ZeroLandsInBucketZero) {
  Histogram h;
  h.Observe(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.ApproxPercentile(50), 0u);
}

TEST(HistogramTest, PercentilesAreMonotoneAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  uint64_t p50 = h.ApproxPercentile(50);
  uint64_t p95 = h.ApproxPercentile(95);
  uint64_t p99 = h.ApproxPercentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Exponential buckets: the answer is approximate but must stay within the
  // observed range and the right order of magnitude.
  EXPECT_GE(p50, 256u);
  EXPECT_LE(p99, 1024u);
}

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_NE(&reg.counter("y"), &a);
  // Counter, gauge, and histogram namespaces are independent.
  reg.gauge("x").Set(5);
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(MetricsRegistryTest, ToJsonSnapshot) {
  MetricsRegistry reg;
  reg.counter("b.count").Increment(2);
  reg.counter("a.count").Increment();
  reg.gauge("cache.size").Set(3);
  reg.histogram("lat_us").Observe(100);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache.size\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  // Keys come out sorted, so snapshots diff cleanly.
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
}

// --- Execute's export -------------------------------------------------------

TEST(ExecMetricsTest, EveryInstrumentIsRegisteredWhenResolved) {
  MetricsRegistry reg;
  const xq::ExecMetrics handles(reg);
  const std::string json = reg.ToJson();
  for (const char* name :
       {"\"xq.executions\": 0", "\"xq.errors\": 0", "\"xq.execute_us\"",
        "\"xq.eval.steps\": 0", "\"xq.eval.probe_index_builds\": 0"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
  }
  EXPECT_EQ(&handles.steps, &reg.counter("xq.eval.steps"));
  // The old alias of xq.eval.nodeset_cache_partial_invalidations is gone.
  EXPECT_EQ(json.find("xq.nodeset."), std::string::npos) << json;
}

TEST(ExecMetricsTest, CountersEqualTheStatsOfEveryExecution) {
  auto doc = xml::Parse(
      "<r><a k=\"1\"><b/><b/></a><a k=\"2\"><b/></a><c><b/></c></r>");
  ASSERT_TRUE(doc.ok());
  auto query = xq::Compile("(/r/a[@k = \"1\"]/b, /r/c/b, /r/a/b)/..");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  MetricsRegistry reg;
  const xq::ExecMetrics handles(reg);
  xq::NodeSetCache nodesets;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &nodesets;
  opts.metrics = &handles;
  xq::EvalStats total;
  for (int run = 0; run < 2; ++run) {
    auto result = xq::Execute(*query, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
#define LLL_TEST_SUM(field) total.field += result->stats.field;
    LLL_XQ_EVAL_STATS(LLL_TEST_SUM)
#undef LLL_TEST_SUM
  }
  EXPECT_GT(total.steps, 0u);
  EXPECT_GT(total.nodes_pulled, 0u);
  EXPECT_GT(total.sorts_performed, 0u);
  EXPECT_GT(total.nodeset_cache_hits, 0u);
#define LLL_TEST_EXPORTED(field) \
  EXPECT_EQ(reg.counter("xq.eval." #field).value(), total.field) << #field;
  LLL_XQ_EVAL_STATS(LLL_TEST_EXPORTED)
#undef LLL_TEST_EXPORTED
  EXPECT_EQ(reg.counter("xq.executions").value(), 2u);
  EXPECT_EQ(reg.histogram("xq.execute_us").count(), 2u);
  EXPECT_EQ(reg.counter("xq.errors").value(), 0u);

  // A failed execution is an execution and an error.
  auto failing = xq::Compile("error()");
  ASSERT_TRUE(failing.ok());
  EXPECT_FALSE(xq::Execute(*failing, opts).ok());
  EXPECT_EQ(reg.counter("xq.executions").value(), 3u);
  EXPECT_EQ(reg.counter("xq.errors").value(), 1u);
}

// --- Concurrency (TSan target) ---------------------------------------------

TEST(MetricsConcurrencyTest, ParallelCounterIncrementsAllLand) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve through the registry every time: name lookup must be safe
      // against concurrent lookups and creations.
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("shared").Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrencyTest, ParallelMixedInstrumentsAndSnapshots) {
  MetricsRegistry reg;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      std::string mine = "t" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter(mine).Increment();
        reg.histogram("h").Observe(static_cast<uint64_t>(i));
        reg.gauge("g").Set(i);
        if (i % 1000 == 0) {
          // Snapshotting while writers run must be safe (values are torn-free
          // per instrument, not a consistent cut -- that is the contract).
          std::string json = reg.ToJson();
          EXPECT_FALSE(json.empty());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("t" + std::to_string(t)).value(),
              static_cast<uint64_t>(kPerThread));
  }
  EXPECT_EQ(reg.histogram("h").count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GlobalMetricsTest, IsSingleton) {
  EXPECT_EQ(&GlobalMetrics(), &GlobalMetrics());
}

}  // namespace
}  // namespace lll
