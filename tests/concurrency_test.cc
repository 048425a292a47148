// Concurrency stress tests, labeled `concurrency` so they can be run under
// ThreadSanitizer (-DLLL_SANITIZE=thread) in isolation. The common pattern:
// compute a single-threaded oracle first, hammer the same work from many
// threads, and require byte-for-byte identical answers.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "core/thread_pool.h"
#include "docgen/native_engine.h"
#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/query_cache.h"

namespace lll {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ZeroThreadPoolRunsInline) {
  ThreadPool pool(0);
  std::vector<int> order;  // no atomics needed: everything is inline
  for (int i = 0; i < 5; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
    EXPECT_EQ(order.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 50);
}

// --- Shared CompiledQuery, many executors -----------------------------------

// The engine.h concurrency contract, enforced: one CompiledQuery, many
// threads calling Execute, every result identical to the single-threaded one.
TEST(SharedCompiledQueryTest, ManyThreadsManyExecutionsMatchOracle) {
  // A query with real moving parts: construction, FLWOR, sorting, and a
  // recursive user function -- enough to touch most evaluator state.
  const char* kQuery = R"XQ(
declare function local:fib($n) {
  if ($n < 2) then $n else local:fib($n - 1) + local:fib($n - 2)
};
let $items := for $i in 1 to 8 order by -$i return <n v="{$i}">{local:fib($i)}</n>
return <out>{$items}</out>
)XQ";
  auto compiled_result = xq::Compile(kQuery);
  ASSERT_TRUE(compiled_result.ok()) << compiled_result.status().ToString();
  const xq::CompiledQuery compiled = std::move(*compiled_result);

  auto oracle_result = xq::Execute(compiled);
  ASSERT_TRUE(oracle_result.ok());
  const std::string oracle = oracle_result->SerializedItems();
  ASSERT_FALSE(oracle.empty());

  constexpr int kThreads = 8;
  constexpr int kExecutionsPerThread = 25;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&compiled, &oracle, &failures, t] {
      for (int i = 0; i < kExecutionsPerThread; ++i) {
        auto r = xq::Execute(compiled);
        if (!r.ok()) {
          failures[t] = r.status().ToString();
          return;
        }
        if (r->SerializedItems() != oracle) {
          failures[t] = "result diverged from oracle";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
}

// --- QueryCache under contention --------------------------------------------

// Tiny capacity + more distinct queries than slots: every thread keeps
// forcing evictions while the others hold live handles to evicted entries.
TEST(QueryCacheConcurrencyTest, TinyCacheManyThreadsStaysCoherent) {
  xq::QueryCache cache(/*capacity=*/4);
  constexpr int kDistinctQueries = 16;
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 100;

  // Query i must evaluate to i; precompute the texts.
  std::vector<std::string> queries;
  for (int i = 0; i < kDistinctQueries; ++i) {
    queries.push_back("sum(1 to " + std::to_string(i) + ")");
  }
  std::vector<std::string> expected;
  for (int i = 0; i < kDistinctQueries; ++i) {
    expected.push_back(std::to_string(i * (i + 1) / 2));
  }

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the query list at its own stride, so threads are
      // always asking for different entries at the same instant.
      for (int i = 0; i < kLookupsPerThread; ++i) {
        int q = (i * (t + 1) + t) % kDistinctQueries;
        auto compiled = cache.GetOrCompile(queries[q]);
        if (!compiled.ok()) {
          failures[t] = compiled.status().ToString();
          return;
        }
        auto result = xq::Execute(**compiled);
        if (!result.ok()) {
          failures[t] = result.status().ToString();
          return;
        }
        if (result->SerializedItems() != expected[q]) {
          failures[t] = "query " + queries[q] + " produced " +
                        result->SerializedItems() + ", want " + expected[q];
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }

  CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, uint64_t{kThreads} * kLookupsPerThread);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(s.evictions, 0u);  // 16 queries through 4 slots must evict
}

// --- Shared document-order index ---------------------------------------------

// Many threads share one input document whose order-key index starts STALE;
// every `//` query forces document-order sorts, so the threads race to
// (re)build the index. The mutex-guarded rebuild plus release/acquire version
// publication must make this TSan-clean and the answers identical.
TEST(SharedDocumentOrderIndexTest, ConcurrentQueriesRebuildOnce) {
  // A bushy document: enough nodes that sorts actually compare things.
  std::string text = "<root>";
  for (int i = 0; i < 40; ++i) {
    text += "<group id='" + std::to_string(i) + "'>";
    for (int j = 0; j < 5; ++j) text += "<leaf/>";
    text += "</group>";
  }
  text += "</root>";
  auto doc = xml::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // Parsing mutates structure, so the index is stale at this point.
  ASSERT_FALSE((*doc)->order_index_fresh());

  auto compiled = xq::Compile("count(//leaf) + count(//group)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        xq::ExecuteOptions opts;
        opts.context_node = (*doc)->root();
        auto r = xq::Execute(*compiled, opts);
        if (!r.ok()) {
          failures[t] = r.status().ToString();
          return;
        }
        if (r->SerializedItems() != "240") {
          failures[t] = "got " + r->SerializedItems() + ", want 240";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
  EXPECT_TRUE((*doc)->order_index_fresh());
}

// Raw comparator hammering: threads compare random-ish node pairs directly
// while the index is initially stale. Checksums must match a single-threaded
// oracle pass.
TEST(SharedDocumentOrderIndexTest, ConcurrentDirectComparesMatchOracle) {
  xml::Document doc;
  xml::Node* root = doc.CreateElement("r");
  ASSERT_TRUE(doc.root()->AppendChild(root).ok());
  std::vector<xml::Node*> nodes;
  std::vector<xml::Node*> elems;
  for (int i = 0; i < 64; ++i) {
    xml::Node* e = doc.CreateElement("e");
    xml::Node* parent =
        (i % 3 == 0 || elems.empty()) ? root : elems[static_cast<size_t>(i / 2)];
    ASSERT_TRUE(parent->AppendChild(e).ok());
    e->SetAttribute("k", std::to_string(i));
    elems.push_back(e);
    nodes.push_back(e);
    nodes.push_back(e->AttributeNode("k"));
  }

  auto checksum = [&nodes] {
    long sum = 0;
    for (size_t a = 0; a < nodes.size(); ++a) {
      for (size_t b = a + 1; b < nodes.size(); ++b) {
        sum += xml::CompareDocumentOrder(nodes[a], nodes[b]);
      }
    }
    return sum;
  };
  const long oracle = checksum();

  // Invalidate the index without disturbing the relative order of `nodes`:
  // creating a (detached) node bumps the structure version but only shifts
  // existing keys uniformly. The threads below race to rebuild.
  doc.CreateElement("spare");
  ASSERT_FALSE(doc.order_index_fresh());

  constexpr int kThreads = 8;
  std::vector<long> sums(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { sums[static_cast<size_t>(t)] = checksum(); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[static_cast<size_t>(t)], oracle) << "thread " << t;
  }
}

// --- Concurrent native docgen ----------------------------------------------

// A template with one of everything the walk and the patch phase touch: a
// table of contents *before* the sections it lists, a placeholder defined
// before its use, nested <for>s, a table and a table of omissions. Its
// queries are `nodes` text, so every render goes through the shared query
// parse cache.
const char kDocgenTemplate[] = R"(<doc>
<table-of-contents/>
<placeholder name="SERVER-TABLE"><table rows="from type:Server; sort label"
  cols="from type:Program; sort label" relation="runs" corner="server\prog"/></placeholder>
<section heading="Users"><p>SERVER-TABLE-GOES-HERE</p></section>
<for nodes="from type:User; sort label">
  <section heading="About {label}"><label/>
    <for nodes="from focus; follow likes>; sort label"><p>likes <label/></p></for>
  </section>
</for>
<section heading="Programs">
  <for nodes="from type:Program; sort label"><p><value-of property="language" default="?"/></p></for>
</section>
<table-of-omissions types="Document"/>
</doc>)";

// GenerateNative from several threads over one shared Model: every render
// byte-equals the single-threaded one.
void ExpectConcurrentRendersMatch(const awb::Model& model,
                                  const std::string& template_xml,
                                  const docgen::GenerateOptions& options) {
  auto doc = docgen::ParseTemplate(template_xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const xml::Node* root = (*doc)->DocumentElement();
  auto oracle = docgen::GenerateNative(root, model, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const std::string want = oracle->Serialized(2);
  ASSERT_FALSE(want.empty());

  constexpr size_t kThreads = 4;
  constexpr size_t kRendersPerThread = 20;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRendersPerThread; ++i) {
        auto r = docgen::GenerateNative(root, model, options);
        got[t].push_back(r.ok() ? r->Serialized(2) : r.status().ToString());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (const std::string& out : got[t]) {
      EXPECT_EQ(out, want) << "thread " << t;
    }
  }
}

TEST(ConcurrentDocgenTest, SharedModelRendersMatchSingleThreaded) {
  const awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::GeneratorConfig config;
  config.seed = 20260806;
  config.users = 8;
  config.servers = 3;
  config.subsystems = 4;
  config.programs = 10;
  config.requirements = 6;
  config.documents = 4;
  const awb::Model model = awb::GenerateItModel(&mm, config);

  ExpectConcurrentRendersMatch(model, kDocgenTemplate, {});

  // Some Documents lack a `version` (omission_rate > 0) and the directive
  // has no default, so kEmbed puts <error> elements in the output.
  const std::string embed_template =
      "<doc><for nodes=\"from type:Document; sort label\">"
      "<p><value-of property=\"version\"/></p></for></doc>";
  docgen::GenerateOptions embed;
  embed.error_policy = docgen::GenerateOptions::ErrorPolicy::kEmbed;
  auto single = docgen::GenerateNativeFromText(embed_template, model, embed);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_GT(single->stats.errors_embedded, 0u);
  ExpectConcurrentRendersMatch(model, embed_template, embed);
}

}  // namespace
}  // namespace lll
