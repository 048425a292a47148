// E12: document order, the flat data model's hidden tax.
//
// Paper connection: XQuery semantics force node sequences back into document
// order (with duplicates removed) after essentially every path step and set
// operator. With a structural comparator -- walk both ancestor paths, then
// scan the common parent's child/attribute slots -- each comparison costs
// O(depth * fanout), and the sort-heavy `//` queries the AWB templates lean
// on turn quadratic-ish on deep trees.
//
// Measured here:
//   * the comparator itself: sorting the shuffled descendant set of a deep
//     and a wide tree with the order-key index (CompareDocumentOrder) vs the
//     retained structural baseline (CompareDocumentOrderStructural). The
//     deep-tree pair is the headline: keys are O(1) per compare regardless
//     of depth.
//   * `//` queries end to end through the engine, deep and wide.
//   * a union chain (//a | //b | //c), whose every | re-normalizes.
//   * a rooted child chain (sorts_skipped vs sorts_performed).
//
// Results go to stdout AND BENCH_e12.json (JSON reporter).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "core/rng.h"
#include "xml/node.h"
#include "xquery/engine.h"

namespace {

using lll::Rng;
using lll::xml::Document;
using lll::xml::Node;

// A spine of `depth` elements; each spine node carries `leaves` leaf
// children. Every node in the result set sits at a different depth, which is
// exactly the structural comparator's worst case.
std::unique_ptr<Document> MakeDeepTree(int depth, int leaves) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("root");
  (void)doc->root()->AppendChild(root);
  Node* spine = root;
  for (int d = 0; d < depth; ++d) {
    Node* next = doc->CreateElement("spine");
    (void)spine->AppendChild(next);
    for (int l = 0; l < leaves; ++l) {
      (void)next->AppendChild(doc->CreateElement("leaf"));
    }
    spine = next;
  }
  return doc;
}

// One root with `branches` children of `leaves` leaves each: shallow but
// high fanout, the common-parent slot scan's worst case.
std::unique_ptr<Document> MakeWideTree(int branches, int leaves) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("root");
  (void)doc->root()->AppendChild(root);
  for (int b = 0; b < branches; ++b) {
    Node* branch = doc->CreateElement("branch");
    (void)root->AppendChild(branch);
    for (int l = 0; l < leaves; ++l) {
      Node* leaf = doc->CreateElement(l % 3 == 0   ? "a"
                                      : l % 3 == 1 ? "b"
                                                   : "c");
      (void)branch->AppendChild(leaf);
    }
  }
  return doc;
}

void CollectSubtree(Node* n, std::vector<const Node*>* out) {
  out->push_back(n);
  for (Node* c : n->children()) CollectSubtree(c, out);
}

std::vector<const Node*> ShuffledNodes(Document* doc, uint64_t seed) {
  std::vector<const Node*> nodes;
  CollectSubtree(doc->DocumentElement(), &nodes);
  Rng rng(seed);
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.Below(i)]);
  }
  return nodes;
}

// --- The comparator itself -------------------------------------------------

void SortShuffled(benchmark::State& state, Document* doc, bool keyed) {
  const std::vector<const Node*> shuffled = ShuffledNodes(doc, 12345);
  doc->EnsureOrderIndex();  // rebuilds are amortized; measure steady state
  size_t compares = 0;
  for (auto _ : state) {
    std::vector<const Node*> work = shuffled;
    std::sort(work.begin(), work.end(),
              [keyed, &compares](const Node* a, const Node* b) {
                ++compares;
                return (keyed ? lll::xml::CompareDocumentOrder(a, b)
                              : lll::xml::CompareDocumentOrderStructural(
                                    a, b)) < 0;
              });
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(compares));
  state.counters["nodes"] = static_cast<double>(shuffled.size());
}

void BM_E12_SortDeepTreeKeyed(benchmark::State& state) {
  auto doc = MakeDeepTree(static_cast<int>(state.range(0)), 2);
  SortShuffled(state, doc.get(), /*keyed=*/true);
}
BENCHMARK(BM_E12_SortDeepTreeKeyed)->ArgName("depth")->Arg(100)->Arg(400);

void BM_E12_SortDeepTreeStructural(benchmark::State& state) {
  auto doc = MakeDeepTree(static_cast<int>(state.range(0)), 2);
  SortShuffled(state, doc.get(), /*keyed=*/false);
}
BENCHMARK(BM_E12_SortDeepTreeStructural)->ArgName("depth")->Arg(100)->Arg(400);

void BM_E12_SortWideTreeKeyed(benchmark::State& state) {
  auto doc = MakeWideTree(static_cast<int>(state.range(0)), 20);
  SortShuffled(state, doc.get(), /*keyed=*/true);
}
BENCHMARK(BM_E12_SortWideTreeKeyed)->ArgName("branches")->Arg(20)->Arg(60);

void BM_E12_SortWideTreeStructural(benchmark::State& state) {
  auto doc = MakeWideTree(static_cast<int>(state.range(0)), 20);
  SortShuffled(state, doc.get(), /*keyed=*/false);
}
BENCHMARK(BM_E12_SortWideTreeStructural)->ArgName("branches")->Arg(20)->Arg(60);

// One cold rebuild per iteration: what a mutation costs the next compare.
void BM_E12_IndexRebuild(benchmark::State& state) {
  auto doc = MakeDeepTree(static_cast<int>(state.range(0)), 2);
  Node* root = doc->DocumentElement();
  for (auto _ : state) {
    // Structural no-op pair that still invalidates: detach + re-attach.
    Node* first = root->children()[0];
    first->Detach();
    (void)root->InsertChildAt(0, first);
    doc->EnsureOrderIndex();
  }
  state.counters["nodes"] = static_cast<double>(doc->node_count());
}
BENCHMARK(BM_E12_IndexRebuild)->ArgName("depth")->Arg(100)->Arg(400);

// --- `//` queries end to end ----------------------------------------------

void RunQuery(benchmark::State& state, Document* doc,
              const std::string& text) {
  auto compiled = lll::xq::Compile(text);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  lll::xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  size_t results = 0;
  lll::xq::EvalStats stats;
  for (auto _ : state) {
    auto r = lll::xq::Execute(*compiled, opts);
    if (!r.ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    results = r->sequence.size();
    stats = r->stats;
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["sorts_performed"] = static_cast<double>(stats.sorts_performed);
  state.counters["sorts_skipped"] = static_cast<double>(stats.sorts_skipped);
  state.counters["order_compares"] = static_cast<double>(stats.order_compares);
}

void BM_E12_DescendantQueryDeep(benchmark::State& state) {
  auto doc = MakeDeepTree(static_cast<int>(state.range(0)), 2);
  RunQuery(state, doc.get(), "//leaf");
}
BENCHMARK(BM_E12_DescendantQueryDeep)->ArgName("depth")->Arg(100)->Arg(400);

void BM_E12_DescendantQueryWide(benchmark::State& state) {
  auto doc = MakeWideTree(static_cast<int>(state.range(0)), 20);
  RunQuery(state, doc.get(), "//a");
}
BENCHMARK(BM_E12_DescendantQueryWide)->ArgName("branches")->Arg(20)->Arg(60);

void BM_E12_UnionChain(benchmark::State& state) {
  auto doc = MakeWideTree(static_cast<int>(state.range(0)), 20);
  RunQuery(state, doc.get(), "(//a | //b | //c)");
}
BENCHMARK(BM_E12_UnionChain)->ArgName("branches")->Arg(20)->Arg(60);

// --- A rooted child chain ------------------------------------------------
//
// The child chain root/branch/a from the document node, under the default
// (streaming) evaluator: the pipeline emits in document order, so
// sorts_performed is 0 and sorts_skipped counts the skipped normalizations.

void BM_E12_ChildChain(benchmark::State& state) {
  auto doc = MakeWideTree(60, 20);
  RunQuery(state, doc.get(), "/root/branch/a");
}
BENCHMARK(BM_E12_ChildChain);

}  // namespace

LLL_BENCH_MAIN("e12")
