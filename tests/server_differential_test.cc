// Shared-snapshot differential fuzz: the seeded 495-query random path
// workload (tests/test_util.h: 440 paths plus 55 hash-probe shapes)
// executed from four concurrent server sessions against ONE shared snapshot
// must be byte-identical to a single-threaded library execution of the
// same queries against the same document.
//
// This extends the streamed-vs-materializing differential suite
// (xquery_streaming_test.cc) with the server's concurrency dimensions: a
// shared compiled-query cache, a shared per-snapshot node-set interning
// cache, and -- in the second test -- a publisher republishing concurrently
// while every session stays pinned to version 1.

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xquery/engine.h"

namespace lll::server {
namespace {

constexpr int kSessions = 4;
constexpr int kQueries = 440;  // path queries; the generator adds probes
constexpr uint32_t kSeed = 20260806;

// One baseline row: whether the library accepted the query, and what it
// serialized to. Rejections must match too -- a query that errors
// single-threaded must error identically on the server.
struct Expectation {
  bool ok = false;
  std::string text;  // serialized items, or the status string
};

std::vector<Expectation> SingleThreadedBaseline(
    const std::string& xml, const std::vector<std::string>& queries) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok());
  std::vector<Expectation> rows;
  rows.reserve(queries.size());
  for (const std::string& query : queries) {
    xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    auto result = xq::Run(query, opts);
    Expectation row;
    row.ok = result.ok();
    row.text = result.ok() ? result->SerializedItems()
                           : result.status().ToString();
    rows.push_back(std::move(row));
  }
  return rows;
}

// Runs every query once, starting at `offset` and wrapping around, so that
// sessions started at different offsets rarely meet a query for the first
// time together.
void RunSessionAgainstBaseline(QueryServer* server, const std::string& tenant,
                               const std::vector<std::string>& queries,
                               const std::vector<Expectation>& expected,
                               uint64_t expected_version, size_t offset = 0) {
  Session session = server->OpenSession(tenant);
  int mismatches = 0;
  for (size_t n = 0; n < queries.size() && mismatches < 5; ++n) {
    size_t i = (offset + n) % queries.size();
    QueryResponse resp = session.Query("shared", queries[i]);
    if (resp.status.ok() != expected[i].ok) {
      ++mismatches;
      ADD_FAILURE() << tenant << " query #" << i << ": " << queries[i]
                    << "\n  server ok=" << resp.status.ok()
                    << " baseline ok=" << expected[i].ok << "\n  server: "
                    << (resp.status.ok() ? resp.result
                                         : resp.status.ToString())
                    << "\n  baseline: " << expected[i].text;
      continue;
    }
    if (resp.status.ok() && resp.result != expected[i].text) {
      ++mismatches;
      ADD_FAILURE() << tenant << " diverged on query #" << i << ": "
                    << queries[i] << "\n  server:   " << resp.result
                    << "\n  baseline: " << expected[i].text;
    }
    if (resp.status.ok() && resp.snapshot_version != expected_version) {
      ++mismatches;
      ADD_FAILURE() << tenant << " drifted off its pinned snapshot on query #"
                    << i << ": version " << resp.snapshot_version
                    << " != " << expected_version;
    }
  }
}

TEST(ServerDifferential, FourSessionsMatchSingleThreadedExecution) {
  // Seeded contract: document first, then queries (test_util.h).
  std::mt19937 rng(kSeed);
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  std::vector<std::string> queries =
      testing::RandomPathWorkloadQueries(&rng, kQueries);
  std::vector<Expectation> expected = SingleThreadedBaseline(xml, queries);

  MetricsRegistry metrics;
  ServerOptions options;
  options.worker_threads = 2;
  // Big enough that the 495 distinct queries never evict each other -- the
  // cache-sharing assertion below must measure sharing, not LRU churn.
  options.query_cache_capacity = 1024;
  options.metrics = &metrics;
  QueryServer server(options);
  ASSERT_TRUE(server.AddDocumentXml("shared", xml).ok());

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      RunSessionAgainstBaseline(&server, "session" + std::to_string(s),
                                queries, expected, /*expected_version=*/1,
                                s * queries.size() / kSessions);
    });
  }
  for (std::thread& t : threads) t.join();

  // All four sessions ran the full suite through the shared caches.
  EXPECT_EQ(metrics.counter("server.queries").value(),
            static_cast<uint64_t>(kSessions) * queries.size());
  EXPECT_EQ(metrics.counter("server.queries_rejected").value(), 0u);
  // The four sessions share one compile cache. Concurrent first
  // encounters of the same query may each compile it (GetOrCompile
  // compiles outside the lock), so the exact hit count is scheduling
  // dependent -- the staggered starts keep such races rare, and the bulk
  // of the 4x495 lookups must be shared.
  EXPECT_GE(metrics.counter("server.query_cache_hits").value(),
            static_cast<uint64_t>(2 * queries.size()));
}

TEST(ServerDifferential, PinnedSessionsIgnoreConcurrentPublishes) {
  std::mt19937 rng(kSeed);
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  std::vector<std::string> queries =
      testing::RandomPathWorkloadQueries(&rng, kQueries);
  std::vector<Expectation> expected = SingleThreadedBaseline(xml, queries);

  MetricsRegistry metrics;
  ServerOptions options;
  options.worker_threads = 2;
  options.metrics = &metrics;
  QueryServer server(options);
  ASSERT_TRUE(server.AddDocumentXml("shared", xml).ok());

  // Pin every session to version 1 before the publisher starts.
  std::vector<Session> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(server.OpenSession("pinned" + std::to_string(s)));
    QueryResponse warm = sessions.back().Query("shared", "count(/r)");
    ASSERT_TRUE(warm.status.ok());
    ASSERT_EQ(warm.snapshot_version, 1u);
  }

  // The publisher replaces the document with a deliberately DIFFERENT one;
  // only a session that loses its pin could ever notice.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto version = server.PublishXml("shared", "<r><decoy/></r>");
      ASSERT_TRUE(version.ok());
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Session* session = &sessions[s];
    threads.emplace_back([&, session, s] {
      int mismatches = 0;
      for (size_t i = 0; i < queries.size() && mismatches < 5; ++i) {
        QueryResponse resp = session->Query("shared", queries[i]);
        if (resp.status.ok() != expected[i].ok ||
            (resp.status.ok() && resp.result != expected[i].text)) {
          ++mismatches;
          ADD_FAILURE() << "pinned" << s << " diverged on #" << i << ": "
                        << queries[i];
        }
        if (resp.status.ok() && resp.snapshot_version != 1u) {
          ++mismatches;
          ADD_FAILURE() << "pinned" << s << " lost its pin on #" << i;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  EXPECT_GT(server.snapshots_published(), 0u);
}

}  // namespace
}  // namespace lll::server
