// Unit tests for the multi-tenant query server: the copy-on-write publish
// protocol, session snapshot pinning, admission control, eval budgets /
// deadlines as graceful rejections, EXPLAIN provenance, async Submit, and
// snapshot-pinned batch docgen.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awb/xml_io.h"
#include "gtest/gtest.h"
#include "server/server.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/engine.h"

namespace lll::server {
namespace {

constexpr char kCatalog[] =
    "<catalog>"
    "<item id=\"1\"><name>lens</name></item>"
    "<item id=\"2\"><name>prism</name></item>"
    "<item id=\"3\"><name>mirror</name></item>"
    "</catalog>";

ServerOptions TestOptions(MetricsRegistry* metrics) {
  ServerOptions options;
  options.worker_threads = 2;
  options.metrics = metrics;
  return options;
}

TEST(SnapshotStore, PublishProtocolVersionsMonotonically) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());
  // Duplicate names are publishes, not installs.
  EXPECT_FALSE(server.AddDocumentXml("cat", kCatalog).ok());

  SnapshotPtr v1 = server.CurrentSnapshot("cat");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);

  auto v2 = server.PublishEdit("cat", [](xml::Document* doc, xml::Node* root) {
    xml::Node* element = root->children().front();
    element->AppendChild(doc->CreateElement("item"));
    return Status::Ok();
  });
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);

  auto v3 = server.PublishXml("cat", "<catalog><item id=\"9\"/></catalog>");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 3u);
  EXPECT_EQ(server.snapshots_published(), 2u);

  // The version-1 snapshot is untouched by both publishes: copy-on-write
  // means the old tree still serializes exactly as loaded.
  EXPECT_EQ(server.CurrentSnapshot("cat")->version(), 3u);
  EXPECT_EQ(xml::Serialize(v1->root()->children().front()), kCatalog);

  // A failing edit publishes nothing.
  auto failed = server.PublishEdit("cat", [](xml::Document*, xml::Node*) {
    return Status::Invalid("nope");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(server.CurrentSnapshot("cat")->version(), 3u);
}

TEST(Sessions, PinnedSnapshotsGiveRepeatableReads) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  Session session = server.OpenSession("acme");
  QueryResponse before = session.Query("cat", "count(//item)");
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();
  EXPECT_EQ(before.result, "3");
  EXPECT_EQ(before.snapshot_version, 1u);
  EXPECT_EQ(session.pinned_version("cat"), 1u);

  ASSERT_TRUE(server.PublishXml("cat", "<catalog/>").ok());

  // Same session: still the pinned version-1 snapshot.
  QueryResponse pinned = session.Query("cat", "count(//item)");
  EXPECT_EQ(pinned.result, "3");
  EXPECT_EQ(pinned.snapshot_version, 1u);

  // Unpinned Execute and a fresh session see the new version.
  QueryResponse current = server.Execute("acme", "cat", "count(//item)");
  EXPECT_EQ(current.result, "0");
  EXPECT_EQ(current.snapshot_version, 2u);

  session.Refresh();
  QueryResponse refreshed = session.Query("cat", "count(//item)");
  EXPECT_EQ(refreshed.result, "0");
  EXPECT_EQ(refreshed.snapshot_version, 2u);
}

TEST(Sessions, PerSnapshotNodeSetCacheIsSharedAcrossQueries) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  QueryResponse first = server.Execute("acme", "cat", "//item/name");
  ASSERT_TRUE(first.status.ok());
  EXPECT_GE(first.stats.nodeset_cache_misses, 1u);
  EXPECT_EQ(first.stats.nodeset_cache_hits, 0u);

  // A different tenant, same snapshot: the interned prefix is shared.
  QueryResponse second = server.Execute("globex", "cat", "//item/name");
  ASSERT_TRUE(second.status.ok());
  EXPECT_GE(second.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(first.result, second.result);

  // A publish installs a fresh snapshot with a fresh (empty) cache.
  ASSERT_TRUE(server.PublishXml("cat", kCatalog).ok());
  QueryResponse after = server.Execute("acme", "cat", "//item/name");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after.result, first.result);
}

TEST(Sessions, PinnedCacheSurvivesUnrelatedSubtreePublish) {
  // The clone-carried edit-version overlay at work across the publish path:
  // a pinned reader's warm, subtree-anchored cache entries keep validating
  // after a publish edits an UNRELATED subtree, because (a) the publish
  // edits a clone, never the pinned snapshot's document, and (b) the
  // clone carries the overlay, so the new snapshot's versions show exactly
  // which subtree the edit touched.
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  constexpr char kModels[] =
      "<library><models>"
      "<model id=\"m1\"><parts><part/><part/></parts></model>"
      "<model id=\"m2\"><parts><part/></parts></model>"
      "</models></library>";
  ASSERT_TRUE(server.AddDocumentXml("lib", kModels).ok());

  const char* query = "/library/models/model[@id = \"m1\"]/parts/part";
  Session session = server.OpenSession("acme");
  QueryResponse cold = session.Query("lib", query);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_GE(cold.stats.nodeset_cache_misses, 1u);

  QueryResponse warm = session.Query("lib", query);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GE(warm.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(warm.result, cold.result);

  // Publish an edit to model m2 -- a subtree the cached m1 chain does not
  // depend on.
  auto v2 = server.PublishEdit("lib", [](xml::Document* doc, xml::Node* root) {
    xml::Node* models = root->children().front()->children().front();
    xml::Node* m2_parts = models->children()[1]->children().front();
    return m2_parts->AppendChild(doc->CreateElement("part"));
  });
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // The pinned session still reads version 1 and still HITS its warm entry:
  // no invalidation reached the pinned snapshot.
  QueryResponse pinned = session.Query("lib", query);
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(pinned.snapshot_version, 1u);
  EXPECT_GE(pinned.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(pinned.stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(pinned.result, cold.result);

  // The published clone carried the overlay: its edit history extends the
  // pinned document's, and the m1 chain's answer is unchanged on the new
  // version too.
  SnapshotPtr current = server.CurrentSnapshot("lib");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version(), 2u);
  session.Refresh();
  QueryResponse refreshed = session.Query("lib", query);
  ASSERT_TRUE(refreshed.status.ok());
  EXPECT_EQ(refreshed.snapshot_version, 2u);
  EXPECT_EQ(refreshed.result, cold.result);
}

TEST(Admission, ZeroInflightQuotaDisablesATenant) {
  MetricsRegistry metrics;
  ServerOptions options = TestOptions(&metrics);
  QueryServer server(options);
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  TenantQuota disabled;
  disabled.max_inflight = 0;
  server.SetQuota("blocked", disabled);

  QueryResponse resp = server.Execute("blocked", "cat", "count(//item)");
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(resp.rejected);
  EXPECT_EQ(metrics.counter("server.queries_rejected").value(), 1u);
  EXPECT_EQ(metrics.counter("server.tenant.blocked.rejected").value(), 1u);

  // Other tenants are untouched by the blocked tenant's quota.
  QueryResponse ok = server.Execute("acme", "cat", "count(//item)");
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.result, "3");
  EXPECT_EQ(metrics.counter("server.queries_rejected").value(), 1u);
}

TEST(Admission, InflightCapRejectsConcurrentExcess) {
  MetricsRegistry metrics;
  ServerOptions options = TestOptions(&metrics);
  TenantQuota one;
  one.max_inflight = 1;
  options.default_quota = one;
  QueryServer server(options);
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  // Hold the single slot with a slow query on another thread, then knock.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::atomic<bool> release{false};
  std::thread holder([&] {
    // A deliberately slow query: repeated full scans. Signal once running.
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();
    while (!release.load()) {
      server.Execute("acme", "cat", "count(//*//*)");
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  // The holder loops executing; eventually we collide with an in-flight one.
  bool saw_rejection = false;
  for (int i = 0; i < 10000 && !saw_rejection; ++i) {
    QueryResponse resp = server.Execute("acme", "cat", "1");
    if (resp.rejected) saw_rejection = true;
  }
  release.store(true);
  holder.join();
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(metrics.counter("server.queries_rejected").value(), 1u);
}

// The budget satellite: a pathological deep // query under a tiny step
// budget returns a structured kResourceExhausted error (not a crash, not a
// timeout), increments server.queries_rejected, and leaves nothing partial
// in the snapshot's node-set cache -- an unrestricted re-run agrees with the
// cache-free materializing evaluator byte for byte.
TEST(Quotas, StepBudgetRejectsPathologicalQueryGracefully) {
  MetricsRegistry metrics;
  ServerOptions options = TestOptions(&metrics);
  QueryServer server(options);

  std::string deep;
  for (int i = 0; i < 60; ++i) deep += "<a k=\"" + std::to_string(i) + "\">";
  deep += "<b/>";
  for (int i = 0; i < 60; ++i) deep += "</a>";
  ASSERT_TRUE(server.AddDocumentXml("deep", deep).ok());

  TenantQuota tiny;
  tiny.max_eval_steps = 30;
  server.SetQuota("meek", tiny);

  const std::string pathological = "//a[.//b]//a[.//b]//b";
  QueryResponse resp = server.Execute("meek", "deep", pathological);
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(resp.rejected);
  EXPECT_NE(resp.status.message().find("budget"), std::string::npos);
  EXPECT_EQ(metrics.counter("server.queries_rejected").value(), 1u);
  EXPECT_EQ(metrics.counter("server.tenant.meek.rejected").value(), 1u);

  // Whatever the killed run left in the per-snapshot cache must not be a
  // truncated node set: an unlimited tenant re-running the same query gets
  // exactly the answer of a cache-free, non-streaming library evaluation.
  QueryResponse rerun = server.Execute("acme", "deep", pathological);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();

  auto doc = xml::Parse(deep, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions reference;
  reference.context_node = (*doc)->root();
  reference.eval.streaming = false;  // the differential baseline
  auto baseline = xq::Run(pathological, reference);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(rerun.result, baseline->SerializedItems());

  // The rejection did not poison the tenant: the meek tenant can still run
  // affordable queries.
  QueryResponse small = server.Execute("meek", "deep", "count(/a)");
  EXPECT_TRUE(small.status.ok()) << small.status.ToString();
}

TEST(Quotas, WallDeadlineAbandonsRunawayQueries) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  TenantQuota impatient;
  impatient.timeout_ms = 1;
  server.SetQuota("impatient", impatient);

  // Hundreds of thousands of evaluator steps -- far beyond 1ms of work.
  QueryResponse resp = server.Execute(
      "impatient", "cat", "count(for $i in 1 to 300000 return $i + 1)");
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(resp.rejected);
  EXPECT_NE(resp.status.message().find("deadline"), std::string::npos);
  EXPECT_GE(metrics.counter("server.queries_rejected").value(), 1u);
}

TEST(Quotas, ShutdownCancelsInFlightEvaluationGracefully) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  server.Shutdown();
  QueryResponse resp = server.Execute(
      "acme", "cat", "count(for $i in 1 to 300000 return $i + 1)");
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resp.status.message().find("cancelled"), std::string::npos);
}

TEST(Queries, ResourceErrorsAreNotCatchableByTryCatch) {
  // A tenant must not be able to mask the server's budget enforcement with
  // the language's own exception handling.
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());
  TenantQuota tiny;
  tiny.max_eval_steps = 50;
  server.SetQuota("meek", tiny);

  QueryResponse resp = server.Execute(
      "meek", "cat",
      "try { count(for $i in 1 to 100000 return $i) } catch { -1 }");
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(resp.rejected);
}

TEST(Queries, ErrorsAndRejectionsAreDistinguished) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  // Unknown document: an error, not a rejection.
  QueryResponse missing = server.Execute("acme", "nope", "1");
  EXPECT_FALSE(missing.status.ok());
  EXPECT_FALSE(missing.rejected);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);

  // Compile error: an error, not a rejection.
  QueryResponse bad = server.Execute("acme", "cat", "1 +");
  EXPECT_FALSE(bad.status.ok());
  EXPECT_FALSE(bad.rejected);
  EXPECT_EQ(metrics.counter("server.compile_errors").value(), 1u);

  // Dynamic error: an error, not a rejection.
  QueryResponse dynamic = server.Execute("acme", "cat", "error(\"boom\")");
  EXPECT_FALSE(dynamic.status.ok());
  EXPECT_FALSE(dynamic.rejected);
  EXPECT_EQ(metrics.counter("server.queries_rejected").value(), 0u);
  EXPECT_GE(metrics.counter("server.query_errors").value(), 2u);
}

TEST(Explain, CarriesSnapshotAndCacheProvenance) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());
  ASSERT_TRUE(server.PublishXml("cat", kCatalog).ok());

  auto cold = server.Explain("cat", "(//item)[1]");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->find("snapshot version 2"), std::string::npos);
  EXPECT_NE(cold->find("server plan: compiled"), std::string::npos);
  EXPECT_NE(cold->find("== plan =="), std::string::npos);

  auto warm = server.Explain("cat", "(//item)[1]");
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("server plan: memory-cache"), std::string::npos);
}

TEST(Submit, AsyncQueriesCompleteOnTheWorkerPool) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());

  constexpr int kJobs = 16;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::vector<std::string> results;
  for (int i = 0; i < kJobs; ++i) {
    server.Submit("acme", "cat", "count(//item)", [&](QueryResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(resp.status.ok() ? resp.result : "<error>");
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == kJobs; });
  for (const std::string& r : results) EXPECT_EQ(r, "3");
}

// --- Bounded nesting -------------------------------------------------------

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

TEST(Nesting, OverDeepQueriesAreRejectedNotCrashes) {
  // Both inputs used to segfault lll_serverd: one `query t d ...` line of
  // 1800 nested parentheses, and 2000 nested <x>{...}</x> constructors.
  // Each is now a located kInvalidArgument from the parser's nesting cap.
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("d", "<r/>").ok());
  Session session = server.OpenSession("t");
  const std::string inputs[] = {
      Repeat("(", 1800) + "1" + Repeat(")", 1800),
      Repeat("<x>{", 2000) + "1" + Repeat("}</x>", 2000),
      "1" + Repeat(" + 1", 5000),  // a left-deep tree, not parser recursion
  };
  for (const std::string& query : inputs) {
    QueryResponse resp = session.Query("d", query);
    ASSERT_FALSE(resp.status.ok()) << query.substr(0, 40);
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resp.status.message().find(
                  "nesting exceeds " + std::to_string(xq::kMaxExprNesting)),
              std::string::npos)
        << resp.status.ToString();
    EXPECT_NE(resp.status.message().find("at line 1, column "),
              std::string::npos)
        << resp.status.ToString();
  }
  // The daemon is still serving.
  EXPECT_EQ(session.Query("d", "count(/r)").result, "1");
}

TEST(Nesting, QueriesExactlyAtTheCapRunOnAWorkerThread) {
  // The deepest query of each shape the parser accepts must evaluate on a
  // Submit worker -- under the asan preset too, whose frames are larger.
  constexpr size_t kCap = xq::kMaxExprNesting;
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("d", "<r/>").ok());
  struct AtCap {
    std::string query;
    std::string over;  // one level deeper: rejected
    std::string expected;
  };
  const AtCap cases[] = {
      // Parser nesting: the outer expression plus one level per paren.
      {Repeat("(", kCap - 1) + "1" + Repeat(")", kCap - 1),
       Repeat("(", kCap) + "1" + Repeat(")", kCap), "1"},
      // Two levels per constructor: itself and its enclosed expression.
      {Repeat("<x>{", (kCap - 1) / 2) + "1" + Repeat("}</x>", (kCap - 1) / 2),
       Repeat("<x>{", (kCap + 1) / 2) + "1" + Repeat("}</x>", (kCap + 1) / 2),
       ""},
      {"count(" + Repeat("count(", kCap - 2) + "1" + Repeat(")", kCap - 1),
       "count(" + Repeat("count(", kCap - 1) + "1" + Repeat(")", kCap), "1"},
      {Repeat("-", kCap - 1) + "1", Repeat("-", kCap) + "1",
       kCap % 2 == 0 ? "-1" : "1"},
      // Tree depth: a left-deep sum whose deepest literal sits at the cap.
      {"1" + Repeat("+1", kCap), "1" + Repeat("+1", kCap + 1),
       std::to_string(kCap + 1)},
  };
  for (const AtCap& c : cases) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResponse got;
    server.Submit("t", "d", c.query, [&](QueryResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      got = std::move(resp);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    if (!c.expected.empty()) {
      EXPECT_EQ(got.result, c.expected);
    }
    QueryResponse over = server.Execute("t", "d", c.over);
    EXPECT_EQ(over.status.code(), StatusCode::kInvalidArgument)
        << over.status.ToString();
  }
}

TEST(Docgen, BatchGenerationPinsOneModelSnapshot) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));

  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::GeneratorConfig config;
  config.seed = 7;
  config.users = 3;
  config.programs = 2;
  awb::Model model = awb::GenerateItModel(&mm, config);
  ASSERT_TRUE(
      server.AddDocumentXml("model", awb::ExportModelXml(model)).ok());

  const std::vector<std::string> templates = {
      "<html><for nodes=\"from type:User\"><p><label/></p></for></html>",
      "<html><h1>Users: <for nodes=\"from type:User\"><label/>; "
      "</for></h1></html>",
  };
  auto reports = server.GenerateReports("acme", "model", &mm, templates);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_NE((*reports)[0].find("<p>"), std::string::npos);

  // Publishing an EMPTY model afterwards does not disturb what the pinned
  // run produced, and a new batch sees the new state.
  awb::Model empty_model(&mm);
  ASSERT_TRUE(
      server.PublishXml("model", awb::ExportModelXml(empty_model)).ok());
  auto after = server.GenerateReports("acme", "model", &mm, templates);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)[0].find("<p>"), std::string::npos);
  EXPECT_EQ(metrics.counter("server.reports_generated").value(), 4u);
}

TEST(Metrics, ServerCountersAndLatencyHistogramsAreExported) {
  MetricsRegistry metrics;
  QueryServer server(TestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("cat", kCatalog).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Execute("acme", "cat", "count(//item)").status.ok());
  }
  EXPECT_EQ(metrics.counter("server.queries").value(), 5u);
  EXPECT_EQ(metrics.counter("server.queries_ok").value(), 5u);
  EXPECT_EQ(metrics.counter("server.tenant.acme.queries").value(), 5u);
  EXPECT_EQ(metrics.histogram("server.query_us").count(), 5u);
  EXPECT_EQ(metrics.histogram("server.tenant.acme.query_us").count(), 5u);
  // The compiled query was cached after the first execution.
  EXPECT_EQ(metrics.counter("server.query_cache_hits").value(), 4u);

  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("server.queries"), std::string::npos);
  EXPECT_NE(json.find("server.query_us"), std::string::npos);
  EXPECT_NE(json.find("server.query_cache.lookups"), std::string::npos);
}

}  // namespace
}  // namespace lll::server
