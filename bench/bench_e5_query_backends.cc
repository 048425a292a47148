// E5: the rewrite ("Why Java, in the end?").
//
// Paper claim: "Calling XQuery from Java to evaluate queries was
// preposterously inefficient, and would have made the workbench unusably
// slow" -- and the Java reimplementation "in a few weeks ... pretty much
// reproduced the power of the XQuery code".
//
// Measured: the same AWB-QL queries evaluated by the native backend
// (adjacency lists) and by the compile-to-XQuery backend (the original
// architecture), across model sizes. Equal answers, wildly unequal cost;
// the ratio is the paper's "preposterous" factor.
//
// This file also measures the mitigation this repo adds on top of the
// paper's architecture: the compiled-query cache (Uncached vs Cached: the
// repeated-query workload every interactive AWB session is made of -- the
// same handful of queries evaluated over and over).
//
// Results go to stdout AND to BENCH_e5.json (JSON reporter).

#include <string>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "bench_util.h"
#include "awb/generator.h"
#include "awbql/native.h"
#include "awbql/query.h"
#include "awbql/xquery_backend.h"
#include "benchmark/benchmark.h"
#include "xquery/query_cache.h"

namespace {

using lll::awb::Metamodel;
using lll::awb::Model;

const std::vector<lll::awbql::Query>& QuerySet() {
  static auto& queries = *new std::vector<lll::awbql::Query>([] {
    std::vector<lll::awbql::Query> out;
    for (const char* text : {
             "from type:User\nfollow likes>\nsort label\n",
             "from type:Document\nfilter missing:version\nsort label\n",
             "from type:SystemBeingDesigned\nfollow has>\nfilter type:Program\n",
             "from type:Person\nfollow uses> to:Program\nsort label\n",
         }) {
      auto query = lll::awbql::ParseQuery(text);
      if (query.ok()) out.push_back(std::move(*query));
    }
    return out;
  }());
  return queries;
}

Model MakeModel(const Metamodel* mm, int scale) {
  lll::awb::GeneratorConfig config;
  config.seed = 4242;
  config.users = static_cast<size_t>(4 * scale);
  config.programs = static_cast<size_t>(4 * scale);
  config.documents = static_cast<size_t>(2 * scale);
  config.servers = static_cast<size_t>(scale);
  config.subsystems = static_cast<size_t>(scale);
  return lll::awb::GenerateItModel(mm, config);
}

const Metamodel& SharedMetamodel() {
  static const Metamodel& mm =
      *new Metamodel(lll::awb::MakeItArchitectureMetamodel());
  return mm;
}

void BM_E5_NativeBackend(benchmark::State& state) {
  Model model = MakeModel(&SharedMetamodel(), static_cast<int>(state.range(0)));
  size_t results = 0;
  for (auto _ : state) {
    results = 0;
    for (const auto& query : QuerySet()) {
      auto r = lll::awbql::EvalNative(query, model);
      if (!r.ok()) state.SkipWithError("native eval failed");
      results += r->size();
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["nodes"] = static_cast<double>(model.node_count());
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_E5_NativeBackend)->ArgName("scale")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The repeated-query workload through the XQuery backend. cache=0 is the
// paper's architecture verbatim (every Eval re-parses and re-optimizes the
// generated program); cache=64 reuses the compiled programs after the first
// round. Same model, same queries, same answers.
void XQueryBackendWorkload(benchmark::State& state, size_t cache_capacity) {
  Model model = MakeModel(&SharedMetamodel(), static_cast<int>(state.range(0)));
  lll::awbql::XQueryBackend backend(&model, cache_capacity);
  size_t results = 0;
  for (auto _ : state) {
    results = 0;
    for (const auto& query : QuerySet()) {
      auto r = backend.Eval(query);
      if (!r.ok()) state.SkipWithError("xquery eval failed");
      results += r->size();
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["nodes"] = static_cast<double>(model.node_count());
  state.counters["results"] = static_cast<double>(results);
  state.counters["cache_hits"] =
      static_cast<double>(backend.cache_stats().hits);
}

void BM_E5_XQueryBackend(benchmark::State& state) {
  XQueryBackendWorkload(state, /*cache_capacity=*/0);
}
BENCHMARK(BM_E5_XQueryBackend)->ArgName("scale")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_E5_XQueryBackendCached(benchmark::State& state) {
  XQueryBackendWorkload(state, /*cache_capacity=*/64);
}
BENCHMARK(BM_E5_XQueryBackendCached)
    ->ArgName("scale")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The compile step in isolation -- what the cache actually removes. Uncached
// parses + optimizes each generated program every time; Cached is a hit in
// the LRU map after the first iteration. The ratio here is the headline
// speedup for any workload that re-runs its queries.
void BM_E5_CompileUncached(benchmark::State& state) {
  Model model = MakeModel(&SharedMetamodel(), 2);
  lll::awbql::XQueryBackend backend(&model, /*compile_cache_capacity=*/0);
  std::vector<std::string> programs;
  for (const auto& query : QuerySet()) {
    programs.push_back(backend.CompileToXQuery(query));
  }
  for (auto _ : state) {
    for (const std::string& program : programs) {
      auto compiled = lll::xq::Compile(program);
      if (!compiled.ok()) state.SkipWithError("compile failed");
      benchmark::DoNotOptimize(compiled);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(programs.size()));
}
BENCHMARK(BM_E5_CompileUncached);

void BM_E5_CompileCached(benchmark::State& state) {
  Model model = MakeModel(&SharedMetamodel(), 2);
  lll::awbql::XQueryBackend backend(&model, /*compile_cache_capacity=*/0);
  std::vector<std::string> programs;
  for (const auto& query : QuerySet()) {
    programs.push_back(backend.CompileToXQuery(query));
  }
  lll::xq::QueryCache cache(64);
  for (auto _ : state) {
    for (const std::string& program : programs) {
      auto compiled = cache.GetOrCompile(program);
      if (!compiled.ok()) state.SkipWithError("compile failed");
      benchmark::DoNotOptimize(compiled);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(programs.size()));
  state.counters["hit_rate"] =
      static_cast<double>(cache.stats().hits) /
      static_cast<double>(cache.stats().lookups ? cache.stats().lookups : 1);
}
BENCHMARK(BM_E5_CompileCached);

}  // namespace

LLL_BENCH_MAIN("e5")
