// E14: streamed reverse axes and limit hints.
//
// Paper connection: the AWB templates navigate UP as often as down --
// "the section this directive sits in" is an ancestor:: query -- and they
// overwhelmingly want the NEAREST ancestor, not all of them. The
// materializing evaluator walks every chain to the root, collects the full
// multiset, and sorts it back into document order. This bench quantifies
// the two escapes added for that:
//
//   * the reverse-axis merge stage: per-context ancestor /
//     preceding-sibling runs are enumerated natively in reverse document
//     order and k-way-merged over the order-key index, so no normalizing
//     sort happens and a per-run [1] stops each chain at its first hit.
//     The headline shape `//x/ancestor::y[1]` (nearest matching ancestor)
//     is where deep trees pay the most under materialization.
//   * limit hints: `fn:head(//x)` stops the pipeline after the first node
//     instead of materializing 2000 to keep one. `subsequence(//x, 1, 3)`
//     and the positional-for spelling get no hint from the plan and scan
//     in full; their arms stay as the measure of that.
//
// Full-scan arms (count over the same shapes) guard against the new stages
// taxing queries they cannot help, mirroring E13's no-tax check.
//
// Results go to stdout AND BENCH_e14.json (JSON reporter); engine counters
// land in BENCH_e14.metrics.json.

#include <memory>
#include <string>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "xml/node.h"
#include "xquery/engine.h"

namespace {

using lll::xml::Document;
using lll::xml::Node;

// `groups` chains, each `depth` nested <y> elements whose innermost holds
// `leaves` <x/> children. Every <x> has `depth` <y> ancestors, so the
// materializing `//x/ancestor::y` collects groups*leaves*depth nodes and
// sorts them; the nearest-ancestor query wants exactly one per chain.
std::unique_ptr<Document> MakeChainDoc(int groups, int depth, int leaves) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("root");
  (void)doc->root()->AppendChild(root);
  for (int g = 0; g < groups; ++g) {
    Node* cursor = root;
    for (int d = 0; d < depth; ++d) {
      Node* y = doc->CreateElement("y");
      (void)cursor->AppendChild(y);
      cursor = y;
    }
    for (int i = 0; i < leaves; ++i) {
      Node* x = doc->CreateElement("x");
      x->SetAttribute("n", std::to_string(g * leaves + i));
      (void)cursor->AppendChild(x);
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
  state.counters["reverse_runs"] =
      static_cast<double>(stats.reverse_runs_merged);
  state.counters["limit_pushdowns"] =
      static_cast<double>(stats.limit_pushdowns);
  state.counters["sorts"] = static_cast<double>(stats.sorts_performed);
}

constexpr int kGroups = 100;
constexpr int kDepth = 100;
constexpr int kLeaves = 20;  // 2000 <x>, each with 100 <y> ancestors

// --- Nearest matching ancestor: the headline shape ------------------------
// Materializing: 1000 chains x 60 ancestors collected, sorted, then
// positionally filtered per context. Streamed: each run exhausts after its
// first (nearest) candidate.
void BM_E14_NearestAncestorStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "//x/ancestor::y[1]", /*streaming=*/true);
}
BENCHMARK(BM_E14_NearestAncestorStreamed);

void BM_E14_NearestAncestorMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "//x/ancestor::y[1]", /*streaming=*/false);
}
BENCHMARK(BM_E14_NearestAncestorMaterializing);

// --- Global first ancestor: sort avoidance + early exit -------------------
void BM_E14_FirstAncestorStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "(//x/ancestor::y)[1]", /*streaming=*/true);
}
BENCHMARK(BM_E14_FirstAncestorStreamed);

void BM_E14_FirstAncestorMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "(//x/ancestor::y)[1]", /*streaming=*/false);
}
BENCHMARK(BM_E14_FirstAncestorMaterializing);

void BM_E14_ExistsAncestorStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "exists(//x/ancestor::y)", /*streaming=*/true);
}
BENCHMARK(BM_E14_ExistsAncestorStreamed);

void BM_E14_ExistsAncestorMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "exists(//x/ancestor::y)", /*streaming=*/false);
}
BENCHMARK(BM_E14_ExistsAncestorMaterializing);

// --- Nearest preceding sibling --------------------------------------------
void BM_E14_PrecedingSiblingStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "//x/preceding-sibling::x[1]",
           /*streaming=*/true);
}
BENCHMARK(BM_E14_PrecedingSiblingStreamed);

void BM_E14_PrecedingSiblingMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "//x/preceding-sibling::x[1]",
           /*streaming=*/false);
}
BENCHMARK(BM_E14_PrecedingSiblingMaterializing);

// --- Reverse full scan: the merge must not tax what it cannot help --------
// Every ancestor is kept (after dedup): the streamed win reduces to sort
// avoidance; the guard is that it never LOSES to the materializing arm.
void BM_E14_AncestorFullScanStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "count(//x/ancestor::y)", /*streaming=*/true);
}
BENCHMARK(BM_E14_AncestorFullScanStreamed);

void BM_E14_AncestorFullScanMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "count(//x/ancestor::y)", /*streaming=*/false);
}
BENCHMARK(BM_E14_AncestorFullScanMaterializing);

// Forward no-tax guard from E13, re-run against this tree shape: the axis
// split must not slow the forward pipeline.
void BM_E14_ForwardFullScanStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "count(//x)", /*streaming=*/true);
}
BENCHMARK(BM_E14_ForwardFullScanStreamed);

void BM_E14_ForwardFullScanMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "count(//x)", /*streaming=*/false);
}
BENCHMARK(BM_E14_ForwardFullScanMaterializing);

// --- Limit hints ----------------------------------------------------------
void BM_E14_SubsequenceStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "subsequence(//x, 1, 3)", /*streaming=*/true);
}
BENCHMARK(BM_E14_SubsequenceStreamed);

void BM_E14_SubsequenceMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "subsequence(//x, 1, 3)", /*streaming=*/false);
}
BENCHMARK(BM_E14_SubsequenceMaterializing);

void BM_E14_HeadStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "fn:head(//x)", /*streaming=*/true);
}
BENCHMARK(BM_E14_HeadStreamed);

void BM_E14_HeadMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(), "fn:head(//x)", /*streaming=*/false);
}
BENCHMARK(BM_E14_HeadMaterializing);

void BM_E14_PositionalForStreamed(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(),
           "for $v at $p in //x where $p le 3 return $v", /*streaming=*/true);
}
BENCHMARK(BM_E14_PositionalForStreamed);

void BM_E14_PositionalForMaterializing(benchmark::State& state) {
  auto doc = MakeChainDoc(kGroups, kDepth, kLeaves);
  RunQuery(state, doc.get(),
           "for $v at $p in //x where $p le 3 return $v",
           /*streaming=*/false);
}
BENCHMARK(BM_E14_PositionalForMaterializing);

}  // namespace

LLL_BENCH_MAIN("e14")
