// E19: the update sublanguage driving name-guarded invalidation through
// the server's publish path.
//
// Paper connection: the interactive loop E18 measured in-process (edit a
// little, regenerate, look) reaches production through the query server --
// writers publish update STATEMENTS, readers keep querying warm snapshots.
// Each publish is a copy-on-write clone, and the clone starts with the
// previous snapshot's node-set cache migrated onto it, guard versions and
// all. Whether the E18-class incremental win survives that round trip
// depends on the update pipeline stamping name versions precisely:
// statements must bump only the names they move or rename, so only the
// chains that test those names re-evaluate after the publish.
//
// Shapes measured, at library sizes M in {64, 256}, one update publish per
// iteration followed by the full anchored read workload (<=128 [@id] chains
// plus two shared scans):
//
//   * MixedSubtree/M    the default server: the publish's insert+delete
//                       moves one <part>, so only chains that test `part`
//                       miss; every other chain re-validates its migrated
//                       guards and hits.
//   * WriteHeavy/M      the same server, max(1, M/64) publishes per iteration:
//                       the blend where write amplification (one clone per
//                       publish) starts to dominate the read-side savings.
//   * CompileScript     parse + compile of a representative two-statement
//                       script, no application: the added latency a daemon
//                       `update` verb pays before touching any snapshot.
//
// Counters: sub_hits / sub_partial / sub_full aggregate the read bursts'
// EvalStats across the run (MixedSubtree must show partial > 0, full == 0),
// migrated counts cache entries carried across publishes. Results go to
// stdout AND BENCH_e19.json; engine counters land in BENCH_e19.metrics.json.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "server/server.h"
#include "xml/serializer.h"
#include "xquery/update_eval.h"

namespace {

using lll::server::QueryServer;
using lll::server::ServerOptions;

constexpr int kPartsPerModel = 10;

// Same library shape as E18: <library><models> M x <model id="mI"><name/>
// <parts>10 x <part/></parts><desc/></model> </models></library>, but as
// text -- the server owns the document.
std::string MakeLibraryXml(int models) {
  std::string xml = "<library><models>";
  for (int m = 0; m < models; ++m) {
    xml += "<model id=\"m" + std::to_string(m) + "\"><name>model " +
           std::to_string(m) + "</name><parts>";
    for (int p = 0; p < kPartsPerModel; ++p) {
      xml += "<part n=\"" + std::to_string(p) + "\"/>";
    }
    xml += "</parts><desc>desc " + std::to_string(m) + "</desc></model>";
  }
  xml += "</models></library>";
  return xml;
}

std::vector<std::string> MakeWorkload(int models) {
  std::vector<std::string> queries;
  const int sampled = models < 128 ? models : 128;
  const int stride = models / sampled;
  for (int i = 0; i < sampled; ++i) {
    queries.push_back("/library/models/model[@id = \"m" +
                      std::to_string(i * stride) + "\"]/parts/part");
  }
  queries.push_back("/library/models/model");
  queries.push_back("count(/library/models/model/parts/part)");
  return queries;
}

// The per-iteration write: append a part to model `m` and delete its first
// part, one two-statement script. Content-neutral in the steady state
// (every part count stays at kPartsPerModel), structural every time (both
// statements charge the model's parts list).
std::string EditScript(int m) {
  const std::string parts =
      "/library/models/model[@id = \"m" + std::to_string(m) + "\"]/parts";
  return "insert <part/> into " + parts + "; delete " + parts + "/part[1]";
}

void RunMixedLoop(benchmark::State& state, int models, int writes_per_iter) {
  lll::MetricsRegistry metrics;
  ServerOptions options;
  options.worker_threads = 0;  // everything on the bench thread
  options.nodeset_cache_capacity = 512;
  options.metrics = &metrics;
  QueryServer server(options);
  if (!server.AddDocumentXml("lib", MakeLibraryXml(models)).ok()) {
    state.SkipWithError("library install failed");
    return;
  }
  const std::vector<std::string> queries = MakeWorkload(models);

  // Warm pass: the first timed iteration starts from a fully interned
  // steady state, exactly what the migration carries across publishes.
  for (const std::string& q : queries) {
    if (!server.Execute("bench", "lib", q).status.ok()) {
      state.SkipWithError("warm-up query failed");
      return;
    }
  }

  int next_edit = 0;
  uint64_t hits = 0, partial = 0, full = 0;
  for (auto _ : state) {
    for (int w = 0; w < writes_per_iter; ++w) {
      auto version = server.PublishUpdate("lib", EditScript(next_edit));
      if (!version.ok()) {
        state.SkipWithError("publish failed");
        return;
      }
      next_edit = (next_edit + 1) % models;
    }
    for (const std::string& q : queries) {
      lll::server::QueryResponse r = server.Execute("bench", "lib", q);
      if (!r.status.ok()) {
        state.SkipWithError("query failed");
        return;
      }
      hits += r.stats.nodeset_cache_hits;
      partial += r.stats.nodeset_cache_partial_invalidations;
      full += r.stats.nodeset_cache_invalidations -
              r.stats.nodeset_cache_partial_invalidations;
      benchmark::DoNotOptimize(r.result);
    }
  }
  state.counters["queries"] = static_cast<double>(queries.size());
  state.counters["sub_hits"] = static_cast<double>(hits);
  state.counters["sub_partial"] = static_cast<double>(partial);
  state.counters["sub_full"] = static_cast<double>(full);
  state.counters["migrated"] =
      static_cast<double>(server.cache_entries_migrated());
}

void BM_E19_MixedSubtree(benchmark::State& state) {
  RunMixedLoop(state, static_cast<int>(state.range(0)),
               /*writes_per_iter=*/1);
}
BENCHMARK(BM_E19_MixedSubtree)->Arg(64)->Arg(256);

void BM_E19_WriteHeavy(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  const int writes = models / 64 > 0 ? models / 64 : 1;
  RunMixedLoop(state, models, writes);
}
BENCHMARK(BM_E19_WriteHeavy)->Arg(64)->Arg(256);

void BM_E19_CompileScript(benchmark::State& state) {
  const std::string script = EditScript(17);
  for (auto _ : state) {
    auto compiled = lll::xq::CompileUpdateText(script);
    if (!compiled.ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_E19_CompileScript);

}  // namespace

LLL_BENCH_MAIN("e19")
