// E16: compact document storage -- the arena-backed structure-of-arrays
// node layout vs the representation it replaced.
//
// Paper connection: the AWB experience report's document generator copies
// whole documents between phases and the query server clones on every
// publish, so the per-node cost of the XML data model is a first-order
// engine constant. The old layout was one heap object per node holding
// std::string name + value and two std::vector index lists -- several
// mallocs and a few hundred bytes per node. The SoA arena stores a node as
// one row across parallel arrays with interned names and arena-backed
// values, and clones with one preorder array-to-array pass instead of a
// recursive rebuild.
//
// Measured here, old vs new at matched tree shapes:
//   * bytes per node: live-heap delta of building the tree (a bench-local
//     LegacyNode replicates the old pointer representation) plus the
//     arena's own storage_stats accounting;
//   * build time for the same construction sequence;
//   * full-scan `//x`: DescendantElements over both layouts, and the real
//     engine query end to end on the arena;
//   * clone/publish: CloneDocument (its one path: a preorder walk that
//     renumbers, fills the arrays and writes the order keys) vs the
//     recursive deep copy the old implementation performed, and the
//     server's PublishEdit path.
//
// Results go to stdout AND BENCH_e16.json (JSON reporter).

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "server/server.h"
#include "xml/node.h"
#include "xquery/engine.h"

// --- Live-heap accounting ---------------------------------------------------
// Counts bytes currently allocated through global operator new/new[], using
// malloc_usable_size so scalar and array deallocations (which may reach the
// unsized deletes) decrement by exactly what was charged, and so allocator
// rounding is visible to both layouts.

namespace {
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    *static_cast<char*>(p) = 0;  // touch so the page is resident
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace {

using lll::xml::Document;
using lll::xml::Node;
using lll::xml::NodeKind;

// The old representation, reconstructed field-for-field from the replaced
// Node: a document pointer, std::strings for name and value, a parent
// pointer, non-owning child/attribute pointer vectors, and an order key.
// Ownership sat on the document as a vector of unique_ptrs, exactly as the
// old Document kept it.
struct LegacyDoc;
struct LegacyNode {
  LegacyDoc* document = nullptr;
  NodeKind kind = NodeKind::kElement;
  std::string name;
  std::string value;
  LegacyNode* parent = nullptr;
  std::vector<LegacyNode*> children;
  std::vector<LegacyNode*> attributes;
  uint64_t order_key = 0;
};

struct LegacyDoc {
  std::vector<std::unique_ptr<LegacyNode>> nodes;
  LegacyNode* root = nullptr;

  LegacyNode* New(NodeKind kind, std::string name, std::string value) {
    nodes.push_back(std::make_unique<LegacyNode>());
    LegacyNode* n = nodes.back().get();
    n->document = this;
    n->kind = kind;
    n->name = std::move(name);
    n->value = std::move(value);
    return n;
  }
};

// Both builders produce the same shape: `shelves` shelf elements under one
// root, each with an id attribute and `books` book children holding one text
// node -- the E15 server corpus shape, scaled.
constexpr int kBooksPerShelf = 4;

int TreeNodes(int shelves) {
  // document + root + shelves * (shelf + id + books * (book + text))
  return 2 + shelves * (2 + kBooksPerShelf * 2);
}

std::unique_ptr<Document> BuildArena(int shelves) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("lib");
  (void)doc->root()->AppendChild(root);
  for (int i = 0; i < shelves; ++i) {
    Node* shelf = doc->CreateElement("shelf");
    shelf->SetAttribute("id", std::to_string(i));
    (void)root->AppendChild(shelf);
    for (int j = 0; j < kBooksPerShelf; ++j) {
      Node* book = doc->CreateElement("book");
      (void)book->AppendChild(doc->CreateText("title-" + std::to_string(j)));
      (void)shelf->AppendChild(book);
    }
  }
  doc->CompactStorage();
  return doc;
}

std::unique_ptr<LegacyDoc> BuildLegacy(int shelves) {
  auto doc = std::make_unique<LegacyDoc>();
  LegacyNode* docnode = doc->New(NodeKind::kDocument, "", "");
  doc->root = docnode;
  LegacyNode* root = doc->New(NodeKind::kElement, "lib", "");
  root->parent = docnode;
  docnode->children.push_back(root);
  for (int i = 0; i < shelves; ++i) {
    LegacyNode* shelf = doc->New(NodeKind::kElement, "shelf", "");
    shelf->parent = root;
    LegacyNode* id = doc->New(NodeKind::kAttribute, "id", std::to_string(i));
    id->parent = shelf;
    shelf->attributes.push_back(id);
    for (int j = 0; j < kBooksPerShelf; ++j) {
      LegacyNode* book = doc->New(NodeKind::kElement, "book", "");
      book->parent = shelf;
      LegacyNode* text =
          doc->New(NodeKind::kText, "", "title-" + std::to_string(j));
      text->parent = book;
      book->children.push_back(text);
      shelf->children.push_back(book);
    }
    root->children.push_back(shelf);
  }
  return doc;
}

LegacyNode* LegacyCopyInto(LegacyDoc* doc, const LegacyNode& n,
                           LegacyNode* parent) {
  LegacyNode* copy = doc->New(n.kind, n.name, n.value);
  copy->parent = parent;
  copy->attributes.reserve(n.attributes.size());
  for (const LegacyNode* a : n.attributes) {
    copy->attributes.push_back(LegacyCopyInto(doc, *a, copy));
  }
  copy->children.reserve(n.children.size());
  for (const LegacyNode* c : n.children) {
    copy->children.push_back(LegacyCopyInto(doc, *c, copy));
  }
  return copy;
}

std::unique_ptr<LegacyDoc> LegacyDeepCopy(const LegacyDoc& src) {
  // No reserve: the old CloneDocument grew the ownership vector node by
  // node through ImportNode, exactly as replayed here.
  auto doc = std::make_unique<LegacyDoc>();
  doc->root = LegacyCopyInto(doc.get(), *src.root, nullptr);
  return doc;
}

size_t LegacyScan(const LegacyNode& n, const std::string& name,
                  std::vector<const LegacyNode*>* out) {
  for (const LegacyNode* c : n.children) {
    if (c->kind == NodeKind::kElement) {
      if (c->name == name) out->push_back(c);
      LegacyScan(*c, name, out);
    }
  }
  return out->size();
}

// --- Bytes per node and build time ------------------------------------------

void BM_BuildArena(benchmark::State& state) {
  const int shelves = static_cast<int>(state.range(0));
  int64_t heap_per_node = 0;
  size_t stats_per_node = 0;
  for (auto _ : state) {
    const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    auto doc = BuildArena(shelves);
    benchmark::DoNotOptimize(doc);
    const int64_t after = g_live_bytes.load(std::memory_order_relaxed);
    const auto stats = doc->storage_stats();
    heap_per_node = (after - before) / static_cast<int64_t>(stats.node_count);
    stats_per_node = stats.total_bytes / stats.node_count;
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(shelves));
  state.counters["bytes_per_node"] = static_cast<double>(heap_per_node);
  state.counters["stats_bytes_per_node"] = static_cast<double>(stats_per_node);
}
BENCHMARK(BM_BuildArena)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_BuildLegacy(benchmark::State& state) {
  const int shelves = static_cast<int>(state.range(0));
  int64_t heap_per_node = 0;
  for (auto _ : state) {
    const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    auto doc = BuildLegacy(shelves);
    benchmark::DoNotOptimize(doc);
    const int64_t after = g_live_bytes.load(std::memory_order_relaxed);
    heap_per_node = (after - before) / TreeNodes(shelves);
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(shelves));
  state.counters["bytes_per_node"] = static_cast<double>(heap_per_node);
}
BENCHMARK(BM_BuildLegacy)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// --- Full scan (//book) -----------------------------------------------------

void BM_FullScanArena(benchmark::State& state) {
  auto doc = BuildArena(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<Node*> hits = doc->root()->DescendantElements("book");
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kBooksPerShelf);
}
BENCHMARK(BM_FullScanArena)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_FullScanLegacy(benchmark::State& state) {
  auto doc = BuildLegacy(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<const LegacyNode*> hits;
    LegacyScan(*doc->root, "book", &hits);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kBooksPerShelf);
}
BENCHMARK(BM_FullScanLegacy)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_FullScanEngine(benchmark::State& state) {
  auto doc = BuildArena(static_cast<int>(state.range(0)));
  auto compiled = lll::xq::Compile("//book");
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  lll::xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  for (auto _ : state) {
    auto result = lll::xq::Execute(*compiled, opts);
    if (!result.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(result->sequence);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kBooksPerShelf);
}
BENCHMARK(BM_FullScanEngine)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// --- Clone / publish --------------------------------------------------------

void BM_CloneArena(benchmark::State& state) {
  auto doc = BuildArena(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<Document> clone = lll::xml::CloneDocument(*doc);
    benchmark::DoNotOptimize(clone);
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_CloneArena)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_CloneLegacy(benchmark::State& state) {
  auto doc = BuildLegacy(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<LegacyDoc> clone = LegacyDeepCopy(*doc);
    benchmark::DoNotOptimize(clone);
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_CloneLegacy)->Arg(100)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// The server's publish path end to end: clone the current snapshot, apply a
// one-attribute edit, install the new version (E15's writer side).
void BM_ServerPublishEdit(benchmark::State& state) {
  lll::server::QueryServer server;
  auto st = server.AddDocument("lib", BuildArena(static_cast<int>(state.range(0))));
  if (!st.ok()) {
    state.SkipWithError("install failed");
    return;
  }
  uint64_t stamp = 0;
  for (auto _ : state) {
    auto version = server.PublishEdit(
        "lib", [&stamp](Document* doc, Node*) {
          doc->DocumentElement()->SetAttribute("stamp",
                                               std::to_string(++stamp));
          return lll::Status::Ok();
        });
    if (!version.ok()) {
      state.SkipWithError("publish failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * TreeNodes(state.range(0)));
}
BENCHMARK(BM_ServerPublishEdit)->Arg(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

}  // namespace

LLL_BENCH_MAIN("e16")
