// E13: streaming path pipelines and the node-set interning cache.
//
// Paper connection: the AWB templates are full of queries that want only a
// sliver of what a path expression denotes -- "the first matching node",
// "is there any such node" -- and of directives that re-evaluate the same
// document-rooted chains over and over. The eager evaluator materializes
// (and sorts) every intermediate node set anyway. This bench quantifies the
// two escapes added for that:
//
//   * the pull-based step pipeline with early exit: `(//x)[1]` and
//     `exists(//x)` stop pulling the moment the answer is decided, so they
//     run in O(answer) instead of O(document). Each shape is measured with
//     the pipeline on (default) and off (EvalOptions::streaming = false,
//     the retained materializing evaluator).
//   * the versioned node-set interning cache: a repeated-directive docgen
//     shape (the same rooted chains evaluated many times against one
//     document) with and without a NodeSetCache wired in.
//
// Results go to stdout AND BENCH_e13.json (JSON reporter); engine counters
// land in BENCH_e13.metrics.json.

#include <memory>
#include <string>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "xml/node.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace {

using lll::xml::Document;
using lll::xml::Node;

// `groups` <g> elements each holding `per_group` <x> leaves: the wide, flat
// shape where materializing `//x` touches everything and first-match wants
// almost nothing.
std::unique_ptr<Document> MakeWideDoc(int groups, int per_group) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("root");
  (void)doc->root()->AppendChild(root);
  for (int g = 0; g < groups; ++g) {
    Node* group = doc->CreateElement("g");
    (void)root->AppendChild(group);
    for (int i = 0; i < per_group; ++i) {
      Node* x = doc->CreateElement("x");
      x->SetAttribute("n", std::to_string(g * per_group + i));
      (void)group->AppendChild(x);
    }
  }
  doc->EnsureOrderIndex();
  return doc;
}

// Runs one compiled query per iteration; `streaming` toggles the pipeline.
void RunQuery(benchmark::State& state, Document* doc, const std::string& text,
              bool streaming) {
  auto compiled = lll::xq::Compile(text);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  lll::xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  opts.eval.streaming = streaming;
  lll::xq::EvalStats stats;
  for (auto _ : state) {
    auto r = lll::xq::Execute(*compiled, opts);
    if (!r.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r->sequence);
  }
  state.counters["nodes_pulled"] = static_cast<double>(stats.nodes_pulled);
  state.counters["nodes_skipped"] =
      static_cast<double>(stats.nodes_skipped_early_exit);
}

constexpr int kGroups = 200;
constexpr int kPerGroup = 50;  // 10k <x> leaves

void BM_E13_FirstMatchStreamed(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "(//x)[1]", /*streaming=*/true);
}
BENCHMARK(BM_E13_FirstMatchStreamed);

void BM_E13_FirstMatchMaterializing(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "(//x)[1]", /*streaming=*/false);
}
BENCHMARK(BM_E13_FirstMatchMaterializing);

void BM_E13_ExistsStreamed(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "exists(//x)", /*streaming=*/true);
}
BENCHMARK(BM_E13_ExistsStreamed);

void BM_E13_ExistsMaterializing(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "exists(//x)", /*streaming=*/false);
}
BENCHMARK(BM_E13_ExistsMaterializing);

// //x[1] is per-parent (one node per group): early exit applies within each
// group's run, so the win is bounded by fanout, not document size.
void BM_E13_PerGroupFirstStreamed(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "//x[1]", /*streaming=*/true);
}
BENCHMARK(BM_E13_PerGroupFirstStreamed);

void BM_E13_PerGroupFirstMaterializing(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "//x[1]", /*streaming=*/false);
}
BENCHMARK(BM_E13_PerGroupFirstMaterializing);

// Sanity shape: a full scan, where streaming can't skip anything. Guards
// against the pipeline taxing the queries it cannot help.
void BM_E13_FullScanStreamed(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "count(//x)", /*streaming=*/true);
}
BENCHMARK(BM_E13_FullScanStreamed);

void BM_E13_FullScanMaterializing(benchmark::State& state) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  RunQuery(state, doc.get(), "count(//x)", /*streaming=*/false);
}
BENCHMARK(BM_E13_FullScanMaterializing);

// --- The repeated-directive docgen shape ----------------------------------
//
// A docgen generation evaluates a handful of rooted chains once per
// directive site -- dozens of times against the same (unchanging) document.
// One iteration below = one "generation": the same three queries, 25 sites
// each. The interned arm shares a NodeSetCache across the generation, the
// way docgen's XQuery engine wires one per GenerateXQuery call.
void RunDirectives(benchmark::State& state, bool interned) {
  auto doc = MakeWideDoc(kGroups, kPerGroup);
  const char* directives[] = {"count(//x)", "count(//g/x)", "count(//x/@n)"};
  constexpr int kSites = 25;
  std::vector<lll::xq::CompiledQuery> compiled;
  for (const char* d : directives) {
    auto c = lll::xq::Compile(d);
    if (!c.ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    compiled.push_back(std::move(*c));
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    lll::xq::NodeSetCache cache(64);  // fresh per generation, like docgen
    lll::xq::ExecuteOptions opts;
    opts.context_node = doc->root();
    if (interned) opts.eval.nodeset_cache = &cache;
    hits = 0;
    for (int site = 0; site < kSites; ++site) {
      for (const auto& q : compiled) {
        auto r = lll::xq::Execute(q, opts);
        if (!r.ok()) {
          state.SkipWithError("execute failed");
          return;
        }
        hits += r->stats.nodeset_cache_hits;
        benchmark::DoNotOptimize(r->sequence);
      }
    }
  }
  state.counters["cache_hits"] = static_cast<double>(hits);
}

void BM_E13_RepeatedDirectivesInterned(benchmark::State& state) {
  RunDirectives(state, /*interned=*/true);
}
BENCHMARK(BM_E13_RepeatedDirectivesInterned);

void BM_E13_RepeatedDirectivesUncached(benchmark::State& state) {
  RunDirectives(state, /*interned=*/false);
}
BENCHMARK(BM_E13_RepeatedDirectivesUncached);

}  // namespace

LLL_BENCH_MAIN("e13")
