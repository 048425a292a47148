// E18: name-guarded invalidation and incremental regeneration.
//
// Paper connection: AWB's document generation is an interactive loop --
// edit a little, regenerate, look, edit again. With whole-document
// structure-version invalidation, ONE edit anywhere evicted every interned
// node set, so each regeneration after a small edit re-paid the cold-start
// cost of the whole query workload. Name guards scope invalidation to the
// chains that test a name the edit touched. The anchored
// `model[@id = "mK"]` queries share one interned entry, the models with an
// index of their @id values, and an edit inside a model leaves it valid.
//
// Shapes measured, at library sizes M in {64, 256, 1024}:
//
//   * FullRebuild/M      the old world: the per-model query workload with
//                        the cache cleared every iteration (what a
//                        whole-document invalidation did to it), after the
//                        same per-iteration edits.
//   * Incremental1/M     1 model edited per iteration, persistent cache:
//                        only the chains the edit dirtied re-evaluate.
//   * Incremental1pct/M  max(1, M/100) models edited per iteration.
//   * Incremental10pct/M M/10 models edited per iteration -- the blend
//                        where incremental wins shrink toward rebuild cost.
//   * NoCacheBaseline/M  the same workload with no cache wired at all: the
//                        floor the incremental arms must beat, and the
//                        no-regression guard for cold evaluation.
//                        FullRebuild sits far below it: within one
//                        iteration the first anchored query builds the
//                        shared index and the rest look their keys up.
//   * ColdFirstMatch     `(//part)[1]` streamed on a fresh document, no
//                        cache: the E13 early-exit shape, guarding that
//                        name versions add nothing to cold streaming
//                        queries.
//
// Results go to stdout AND BENCH_e18.json; engine counters land in
// BENCH_e18.metrics.json.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "xml/node.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace {

using lll::xml::Document;
using lll::xml::Node;

constexpr int kPartsPerModel = 10;

// <library><models> M x <model id="mI"><name/><parts>10 x <part/></parts>
// <desc/></model> </models></library>
std::unique_ptr<Document> MakeLibrary(int models) {
  auto doc = std::make_unique<Document>();
  Node* library = doc->CreateElement("library");
  (void)doc->root()->AppendChild(library);
  Node* container = doc->CreateElement("models");
  (void)library->AppendChild(container);
  for (int m = 0; m < models; ++m) {
    Node* model = doc->CreateElement("model");
    model->SetAttribute("id", "m" + std::to_string(m));
    Node* name = doc->CreateElement("name");
    (void)name->AppendChild(doc->CreateText("model " + std::to_string(m)));
    (void)model->AppendChild(name);
    Node* parts = doc->CreateElement("parts");
    for (int p = 0; p < kPartsPerModel; ++p) {
      Node* part = doc->CreateElement("part");
      part->SetAttribute("n", std::to_string(p));
      (void)parts->AppendChild(part);
    }
    (void)model->AppendChild(parts);
    Node* desc = doc->CreateElement("desc");
    (void)desc->AppendChild(doc->CreateText("desc " + std::to_string(m)));
    (void)model->AppendChild(desc);
    (void)container->AppendChild(model);
  }
  doc->EnsureOrderIndex();
  return doc;
}

// The per-model anchored workload: one [@id=...] chain per sampled model
// (at most 128, evenly spread), plus two shared scans.
std::vector<lll::xq::CompiledQuery> MakeWorkload(int models) {
  std::vector<lll::xq::CompiledQuery> queries;
  const int sampled = models < 128 ? models : 128;
  const int stride = models / sampled;
  for (int i = 0; i < sampled; ++i) {
    std::string id = "m" + std::to_string(i * stride);
    auto q = lll::xq::Compile("/library/models/model[@id = \"" + id +
                              "\"]/parts/part");
    if (q.ok()) queries.push_back(std::move(*q));
  }
  for (const char* text :
       {"/library/models/model", "count(/library/models/model/parts/part)"}) {
    auto q = lll::xq::Compile(text);
    if (q.ok()) queries.push_back(std::move(*q));
  }
  return queries;
}

// Detach-and-reattach the first <part> of model `m`: two structural edits
// that bump the names `part` and `n` without growing the arena, leaving
// the document's content (and every query's answer) unchanged between
// iterations.
void EditModel(Document* doc, int m) {
  Node* model = doc->DocumentElement()->children()[0]->children()[m];
  Node* parts = model->children()[1];
  Node* part = parts->children().front();
  (void)parts->RemoveChild(part);
  (void)parts->AppendChild(part);
}

// One iteration of the edit-regenerate loop: apply `edits` model edits
// (rotating through the library), then run the whole workload.
void RunLoop(benchmark::State& state, int models, int edits_per_iter,
             bool use_cache, bool clear_each_iter) {
  auto doc = MakeLibrary(models);
  std::vector<lll::xq::CompiledQuery> queries = MakeWorkload(models);
  lll::xq::NodeSetCache cache(/*capacity=*/512);
  lll::xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  if (use_cache) opts.eval.nodeset_cache = &cache;
  // The cache's outcomes, summed over every execution's EvalStats.
  uint64_t hits = 0, invalidations = 0, partial_invalidations = 0;
  auto tally = [&](const lll::xq::QueryResult& r) {
    hits += r.stats.nodeset_cache_hits;
    invalidations += r.stats.nodeset_cache_invalidations;
    partial_invalidations += r.stats.nodeset_cache_partial_invalidations;
  };

  // Warm pass so the first timed iteration measures the steady state.
  for (const auto& q : queries) {
    auto r = lll::xq::Execute(q, opts);
    if (!r.ok()) {
      state.SkipWithError("warm-up execute failed");
      return;
    }
    tally(*r);
  }

  int next_edit = 0;
  size_t items = 0;
  for (auto _ : state) {
    for (int e = 0; e < edits_per_iter; ++e) {
      EditModel(doc.get(), next_edit);
      next_edit = (next_edit + 1) % models;
    }
    if (clear_each_iter) cache.Clear();
    for (const auto& q : queries) {
      auto r = lll::xq::Execute(q, opts);
      if (!r.ok()) {
        state.SkipWithError("execute failed");
        return;
      }
      items += r->sequence.size();
      tally(*r);
      benchmark::DoNotOptimize(r->sequence);
    }
  }
  benchmark::DoNotOptimize(items);
  state.counters["queries"] = static_cast<double>(queries.size());
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_invalidations"] = static_cast<double>(invalidations);
  state.counters["cache_partial_invalidations"] =
      static_cast<double>(partial_invalidations);
}

void BM_E18_FullRebuild(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  RunLoop(state, models, /*edits_per_iter=*/1, /*use_cache=*/true,
          /*clear_each_iter=*/true);
}
BENCHMARK(BM_E18_FullRebuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_E18_Incremental1(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  RunLoop(state, models, /*edits_per_iter=*/1, /*use_cache=*/true,
          /*clear_each_iter=*/false);
}
BENCHMARK(BM_E18_Incremental1)->Arg(64)->Arg(256)->Arg(1024);

void BM_E18_Incremental1pct(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  const int edits = models / 100 > 0 ? models / 100 : 1;
  RunLoop(state, models, edits, /*use_cache=*/true, /*clear_each_iter=*/false);
}
BENCHMARK(BM_E18_Incremental1pct)->Arg(64)->Arg(256)->Arg(1024);

void BM_E18_Incremental10pct(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  const int edits = models / 10 > 0 ? models / 10 : 1;
  RunLoop(state, models, edits, /*use_cache=*/true, /*clear_each_iter=*/false);
}
BENCHMARK(BM_E18_Incremental10pct)->Arg(64)->Arg(256)->Arg(1024);

void BM_E18_NoCacheBaseline(benchmark::State& state) {
  const int models = static_cast<int>(state.range(0));
  RunLoop(state, models, /*edits_per_iter=*/1, /*use_cache=*/false,
          /*clear_each_iter=*/false);
}
BENCHMARK(BM_E18_NoCacheBaseline)->Arg(64)->Arg(256)->Arg(1024);

// No-regression guard for cold streaming shapes: name versions must cost
// nothing when nobody caches (same shape as E13's first-match).
void BM_E18_ColdFirstMatch(benchmark::State& state) {
  auto doc = MakeLibrary(1024);
  auto compiled = lll::xq::Compile("(//part)[1]");
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  lll::xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  for (auto _ : state) {
    auto r = lll::xq::Execute(*compiled, opts);
    if (!r.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(r->sequence);
  }
}
BENCHMARK(BM_E18_ColdFirstMatch);

}  // namespace

LLL_BENCH_MAIN("e18")
