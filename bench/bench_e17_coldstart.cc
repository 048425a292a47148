// E17: fleet cold start -- persisted artifacts vs rebuilding from source.
//
// Paper connection: AWB shipped its XQuery template interpreter to every
// user, and every process paid the same startup tax -- recompile the five
// phase programs, re-parse the model documents -- before answering its first
// query. The persistence subsystem makes that state a build artifact:
// documents persist to *.llld (the SoA arenas, loaded without touching the
// XML parser) and plans to *.lllp (the query cache's keys, each compiled
// again while the artifact loads -- a warm boot recovers the working set,
// not the compile time).
//
// Measured here, cold vs warm at matched inputs:
//   * the five docgen phase programs: compile from source vs load from a
//     plan-cache artifact (which compiles the same five sources);
//   * a document corpus: parse the XML text vs load the binary snapshot
//     (from bytes, and from a file through the mmap path);
//   * the query server's time-to-ready: boot with AddDocumentXml and compile
//     the first-burst query set (EXPLAIN, which compiles but does not
//     evaluate -- steady-state execution cost is identical on both sides and
//     would only drown the boot tax) vs warm boot with LoadState.
//
// Results go to stdout AND BENCH_e17.json (JSON reporter).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "docgen/xq_programs.h"
#include "persist/doc_snapshot.h"
#include "persist/plan_serde.h"
#include "server/server.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xquery/query_cache.h"

namespace {

using lll::persist::LoadDocumentSnapshot;
using lll::persist::LoadDocumentSnapshotFromBytes;
using lll::persist::LoadPlanCacheFromBytes;
using lll::persist::SerializeDocumentSnapshot;
using lll::persist::SerializePlanCache;

std::vector<const std::string*> PhasePrograms() {
  return {&lll::docgen::Phase1InterpretProgram(),
          &lll::docgen::Phase2OmissionsProgram(),
          &lll::docgen::Phase3TocProgram(),
          &lll::docgen::Phase4PlaceholdersProgram(),
          &lll::docgen::Phase5StripProgram()};
}

// The E15/E16 corpus shape: `shelves` shelf elements, each with an id
// attribute and four book children holding a text title.
constexpr int kBooksPerShelf = 4;

int TreeNodes(int shelves) {
  return 2 + shelves * (2 + kBooksPerShelf * 2);
}

std::string CorpusXml(int shelves) {
  std::string xml = "<lib>";
  for (int i = 0; i < shelves; ++i) {
    xml += "<shelf id=\"" + std::to_string(i) + "\">";
    for (int j = 0; j < kBooksPerShelf; ++j) {
      xml += "<book>title-" + std::to_string(j) + "</book>";
    }
    xml += "</shelf>";
  }
  xml += "</lib>";
  return xml;
}

// The first-query burst a freshly booted server answers: enough variety that
// the compile cost is a real fraction of cold boot.
std::vector<std::string> BootQueries() {
  std::vector<std::string> queries;
  for (int i = 0; i < 8; ++i) {
    const std::string id = std::to_string(i * 7);
    queries.push_back("count(//shelf[@id=\"" + id + "\"]/book)");
    queries.push_back("//shelf[@id=\"" + id + "\"]/book[1]/text()");
    queries.push_back("exists(//shelf[@id=\"" + id + "\"])");
  }
  queries.push_back("count(//book)");
  queries.push_back("for $s in //shelf where $s/@id = \"7\" return count($s/book)");
  return queries;
}

// --- Plans: compile vs load -------------------------------------------------

void BM_PhasePlansCompileCold(benchmark::State& state) {
  const auto programs = PhasePrograms();
  for (auto _ : state) {
    lll::xq::QueryCache cache(8);
    for (const std::string* program : programs) {
      auto compiled = cache.GetOrCompile(*program);
      if (!compiled.ok()) {
        state.SkipWithError("compile failed");
        return;
      }
      benchmark::DoNotOptimize(compiled);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(programs.size()));
}
BENCHMARK(BM_PhasePlansCompileCold)->Repetitions(5)->ReportAggregatesOnly(true);

void BM_PhasePlansLoadArtifact(benchmark::State& state) {
  lll::xq::QueryCache source(8);
  for (const std::string* program : PhasePrograms()) {
    if (!source.GetOrCompile(*program).ok()) {
      state.SkipWithError("compile failed");
      return;
    }
  }
  const std::string image = SerializePlanCache(source);
  state.counters["artifact_bytes"] = static_cast<double>(image.size());
  for (auto _ : state) {
    lll::xq::QueryCache cache(8);
    auto count = LoadPlanCacheFromBytes(image, &cache);
    if (!count.ok() || *count != 5) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_PhasePlansLoadArtifact)->Repetitions(5)->ReportAggregatesOnly(true);

// --- Documents: parse vs snapshot -------------------------------------------

void BM_DocumentParseXml(benchmark::State& state) {
  const std::string xml = CorpusXml(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto doc = lll::xml::Parse(xml, {.strip_insignificant_whitespace = true});
    if (!doc.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize(doc);
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_DocumentParseXml)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_DocumentLoadSnapshotBytes(benchmark::State& state) {
  auto doc = lll::xml::Parse(CorpusXml(static_cast<int>(state.range(0))),
                             {.strip_insignificant_whitespace = true});
  if (!doc.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  const std::string image = SerializeDocumentSnapshot(**doc, "lib");
  state.counters["artifact_bytes"] = static_cast<double>(image.size());
  for (auto _ : state) {
    auto loaded = LoadDocumentSnapshotFromBytes(image);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_DocumentLoadSnapshotBytes)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_DocumentLoadSnapshotFile(benchmark::State& state) {
  namespace fs = std::filesystem;
  auto doc = lll::xml::Parse(CorpusXml(static_cast<int>(state.range(0))),
                             {.strip_insignificant_whitespace = true});
  if (!doc.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  const std::string path =
      (fs::temp_directory_path() / "lll_bench_e17_doc.llld").string();
  if (!lll::persist::SaveDocumentSnapshot(**doc, "lib", path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto loaded = LoadDocumentSnapshot(path);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  fs::remove(path);
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_DocumentLoadSnapshotFile)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// --- Server boot end to end -------------------------------------------------

// Compiles the whole first-burst query set through the server front door.
// EXPLAIN pays parse + optimize + plan render but never touches the
// document, so the measured delta is the boot tax and nothing else.
void RunBootBurst(lll::server::QueryServer* server,
                  const std::vector<std::string>& queries,
                  benchmark::State* state) {
  for (const std::string& q : queries) {
    auto plan = server->Explain("lib", q);
    if (!plan.ok()) {
      state->SkipWithError("explain failed");
      return;
    }
    benchmark::DoNotOptimize(*plan);
  }
}

void BM_ServerColdBoot(benchmark::State& state) {
  const std::string xml = CorpusXml(static_cast<int>(state.range(0)));
  const std::vector<std::string> queries = BootQueries();
  for (auto _ : state) {
    lll::server::ServerOptions options;
    options.worker_threads = 0;
    lll::server::QueryServer server(options);
    if (!server.AddDocumentXml("lib", xml).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    RunBootBurst(&server, queries, &state);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_ServerColdBoot)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ServerWarmBoot(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "lll_bench_e17_state").string();
  const std::vector<std::string> queries = BootQueries();
  {
    // One saver process stands in for the fleet's artifact builder.
    lll::server::ServerOptions options;
    options.worker_threads = 0;
    lll::server::QueryServer saver(options);
    if (!saver.AddDocumentXml("lib", CorpusXml(static_cast<int>(state.range(0))))
             .ok()) {
      state.SkipWithError("install failed");
      return;
    }
    for (const std::string& q : queries) {
      if (!saver.Explain("lib", q).ok()) {
        state.SkipWithError("explain failed");
        return;
      }
    }
    if (!saver.SaveState(dir).ok()) {
      state.SkipWithError("save failed");
      return;
    }
  }
  for (auto _ : state) {
    lll::server::ServerOptions options;
    options.worker_threads = 0;
    lll::server::QueryServer server(options);
    if (!server.LoadState(dir).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    RunBootBurst(&server, queries, &state);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_ServerWarmBoot)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

}  // namespace

LLL_BENCH_MAIN("e17")
