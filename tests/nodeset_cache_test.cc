// Tests for the versioned node-set interning cache: unit behavior of
// NodeSetCache itself (guard validation against the document's name
// versions), end-to-end interning through the evaluator, name-guarded
// invalidation under document mutation, probe-extended entries, and
// shared-cache concurrency tests (run under ThreadSanitizer via the
// "concurrency" ctest label).

#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace lll {
namespace {

constexpr char kDoc[] =
    "<lib><shelf><book id=\"1\"/><book id=\"2\"/></shelf>"
    "<shelf><book id=\"3\"/></shelf></lib>";

// The anchored-subtree workload shape: singleton chains down to per-model
// subtrees, distinguishable by @id.
constexpr char kLibrary[] =
    "<library><models>"
    "<model id=\"m1\"><parts><part n=\"1\"/><part n=\"2\"/></parts></model>"
    "<model id=\"m2\"><parts><part n=\"3\"/></parts></model>"
    "</models></library>";

TEST(NodeSetCache, HitMissAndStaleOutcomes) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache(8);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "child::*/");

  xq::NodeSetCache::Outcome outcome;
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kMiss);

  // A chain that tests no name (child::*): the document version guards it.
  xdm::Sequence nodes(xdm::Item::NodeRef(d->DocumentElement()));
  cache.Put(key, *d, xq::ChainNames{.any = true}, std::move(nodes));

  auto entry = cache.Get(d, key, &outcome);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(entry->nodes.size(), 1u);
  EXPECT_TRUE(entry->document_wide);

  // Mutate the document: the entry is still stored, but the document
  // version moved past the guard's, so the lookup reports a full
  // invalidation.
  ASSERT_TRUE(
      d->DocumentElement()->AppendChild(d->CreateElement("shelf")).ok());
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStale);
}

TEST(NodeSetCache, NameGuardsScopeInvalidation) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xml::Node* lib = d->DocumentElement();
  xml::Node* shelf2 = lib->children()[1];

  // The entry of /lib/shelf/book: guarded by the three names it tests.
  xq::NodeSetCache cache(8);
  std::string key =
      xq::NodeSetCache::MakeKey(d->root(), "child::lib/child::shelf/book");
  cache.Put(key, *d, xq::ChainNames{.elements = {"lib", "shelf", "book"}},
            xdm::Sequence(xdm::Item::NodeRef(shelf2->children()[0])));

  // An edit that moves and renames no node of those names keeps it.
  xq::NodeSetCache::Outcome outcome;
  ASSERT_TRUE(shelf2->AppendChild(d->CreateElement("note")).ok());
  shelf2->children()[0]->SetAttribute("id", "33");
  EXPECT_NE(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);

  // Attaching a book fails the guard -- and because no document-wide
  // version was involved, it reports a PARTIAL invalidation.
  ASSERT_TRUE(shelf2->AppendChild(d->CreateElement("book")).ok());
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStalePartial);
}

TEST(NodeSetCache, IndexedAttributeWriteInvalidates) {
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xml::Node* models = d->DocumentElement()->children()[0];
  xml::Node* m2 = models->children()[1];

  // The guard of a probe-extended model[@id = K] entry: the chain's names
  // plus the probed attribute, which its index reads.
  xq::NodeSetCache cache(8);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "model-by-id");
  cache.Put(key, *d,
            xq::ChainNames{.elements = {"library", "models", "model"},
                           .attributes = {"id"}},
            xdm::Sequence(xdm::Item::NodeRef(models->children()[0])));

  // Deep edits inside a model touch none of those names.
  xml::Node* m2_parts = m2->children()[0];
  ASSERT_TRUE(m2_parts->AppendChild(d->CreateElement("part")).ok());
  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);

  // Writing a SIBLING model's @id fails the guard: the index could now
  // answer differently.
  m2->SetAttribute("id", "m1");
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStalePartial);
}

TEST(NodeSetCache, PutRecordsTheCurrentVersions) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  d->WantEditVersions();
  ASSERT_TRUE(
      d->DocumentElement()->AppendChild(d->CreateElement("shelf")).ok());

  xq::NodeSetCache cache(8);
  auto entry = cache.Put("k", *d,
                         xq::ChainNames{.elements = {"shelf"},
                                        .attributes = {"id"},
                                        .any = true},
                         xdm::Sequence());
  const uint32_t shelf = xml::NameTable::Intern("shelf");
  const uint32_t id = xml::NameTable::Intern("id");
  ASSERT_EQ(entry->guards.size(), 2u);
  EXPECT_EQ(entry->guards[0].name, shelf);
  EXPECT_FALSE(entry->guards[0].attribute);
  EXPECT_EQ(entry->guards[0].version, d->element_version(shelf));
  EXPECT_GT(entry->guards[0].version, 0u);
  EXPECT_EQ(entry->guards[1].name, id);
  EXPECT_TRUE(entry->guards[1].attribute);
  EXPECT_EQ(entry->guards[1].version, 0u);
  EXPECT_EQ(entry->document_version, d->document_version());
  EXPECT_EQ(entry->names_interned, 0u);
}

TEST(NodeSetCache, UninternedNamesAreGuardedByTheNameTable) {
  // A name no document has ever used is not interned to guard an entry:
  // query text is untrusted and the table is never reclaimed. The entry
  // records the table's size instead, and holds while no name is added.
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  const std::string unseen = "never-interned-by-put";
  ASSERT_FALSE(xml::NameTable::Find(unseen).has_value());

  xq::NodeSetCache cache(8);
  const uint64_t before = xml::NameTable::interned_count();
  auto entry = cache.Put("k", *d, xq::ChainNames{.elements = {"lib", unseen}},
                         xdm::Sequence());
  EXPECT_EQ(xml::NameTable::interned_count(), before);
  EXPECT_EQ(entry->names_interned, before);
  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(cache.Get(d, "k", &outcome), nullptr);

  xml::NameTable::Intern(unseen);
  EXPECT_EQ(cache.Get(d, "k", &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStalePartial);
}

TEST(NodeSetCache, ZeroCapacityIsPassthrough) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache(0);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "x");
  cache.Put(key, *d, xq::ChainNames{.any = true}, xdm::Sequence());
  xq::NodeSetCache::Outcome outcome;
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kMiss);
}

TEST(NodeSetCache, ForeignDocIdReportsStaleNotHit) {
  // An entry stamped with another document's id must never validate, even
  // when the versions happen to agree. This is the guard against allocator
  // address reuse: the key embeds the base node's doc_id + index, so a new
  // Document reusing an id-free key scheme could otherwise serve a dead
  // document's pointers.
  auto doc1 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  auto doc2 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  xml::Document* d1 = doc1->get();
  xml::Document* d2 = doc2->get();
  ASSERT_NE(d1->doc_id(), d2->doc_id());

  xq::NodeSetCache cache(8);
  std::string key = "recycled|child::*/";
  cache.Put(key, *d1, xq::ChainNames{.any = true},
            xdm::Sequence(xdm::Item::NodeRef(d1->DocumentElement())));

  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(cache.Get(d1, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(d2, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStale);
}

TEST(NodeSetCache, DistinctBaseNodesInternSeparately) {
  auto doc1 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  auto doc2 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  EXPECT_NE(xq::NodeSetCache::MakeKey((*doc1)->root(), "child::lib/"),
            xq::NodeSetCache::MakeKey((*doc2)->root(), "child::lib/"));
}

TEST(ValueIndex, HashMatchesAreCheckedAgainstTheNodes) {
  // Two values whose hashes collide share a run of postings; a lookup
  // checks each match against its node's attribute, so neither value finds
  // the other's nodes.
  std::unordered_map<uint32_t, std::string> seen;
  std::string x, y;
  for (int i = 0; x.empty() && i < (1 << 20); ++i) {
    std::string v = "v" + std::to_string(i);
    auto [it, fresh] = seen.emplace(xq::ValueIndex::Hash(v), v);
    if (!fresh) {
      x = it->second;
      y = v;
    }
  }
  ASSERT_FALSE(x.empty()) << "no hash collision among 2^20 values";
  auto doc = xml::Parse("<r><a id=\"" + x + "\"/><a id=\"" + y +
                        "\"/><a/><a id=\"" + x + "\"/></r>");
  ASSERT_TRUE(doc.ok());
  std::vector<const xml::Node*> nodes;
  for (xml::Node* a : (*doc)->DocumentElement()->children()) {
    nodes.push_back(a);
  }
  const xq::ValueIndex index(nodes, "id");
  auto look_up = [&](const std::string& value) {
    std::vector<uint32_t> hits;
    index.LookUp(nodes, value, &hits);
    return hits;
  };
  EXPECT_EQ(look_up(x), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(look_up(y), (std::vector<uint32_t>{1}));
  EXPECT_EQ(look_up("w"), std::vector<uint32_t>{});
}

// End-to-end: repeated evaluations of the same rooted, predicate-free step
// chain through one shared cache hit on the second run.
TEST(NodeSetCacheIntegration, RepeatedQueriesHit) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  auto query = xq::Compile("//book");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->sequence.size(), 3u);
  EXPECT_GT(r1->stats.nodeset_cache_misses, 0u);
  EXPECT_EQ(r1->stats.nodeset_cache_hits, 0u);

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(r2->SerializedItems(), r1->SerializedItems());

  // A different chain over the same document is its own entry.
  auto other = xq::Compile("//shelf");
  ASSERT_TRUE(other.ok());
  auto r3 = xq::Execute(*other, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_GT(r3->stats.nodeset_cache_misses, 0u);
  EXPECT_EQ(r3->sequence.size(), 2u);
}

TEST(NodeSetCacheIntegration, MutationInvalidatesAndRecomputes) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  auto query = xq::Compile("count(//book)");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = d->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->SerializedItems(), "3");
  auto warm = xq::Execute(*query, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->stats.nodeset_cache_hits, 0u);

  // Grow the document: the warm entry must NOT be served again.
  xml::Node* shelf = d->DocumentElement()->children().front();
  xml::Node* book = d->CreateElement("book");
  book->SetAttribute("id", "4");
  ASSERT_TRUE(shelf->AppendChild(book).ok());

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->SerializedItems(), "4");
  EXPECT_GT(r2->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(r2->stats.nodeset_cache_hits, 0u);

  // And the recomputed entry is served at the new version.
  auto r3 = xq::Execute(*query, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->SerializedItems(), "4");
  EXPECT_GT(r3->stats.nodeset_cache_hits, 0u);
}

TEST(NodeSetCacheIntegration, LiteralKeysShareOneIndexedEntry) {
  // A literal key is a probe: model[@id = "..."] chains intern the `model`
  // candidates once, with an index of their @id values, and every literal
  // looks its key up in that one entry.
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  auto query = xq::Compile("/library/models/model[@id = \"m1\"]/parts/part");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->sequence.size(), 2u);
  EXPECT_EQ(r1->stats.nodeset_cache_misses, 1u);

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(r2->SerializedItems(), r1->SerializedItems());

  // A different literal is a hit on the same entry, which answers it with
  // its own nodes, not the m1 result.
  auto other = xq::Compile("/library/models/model[@id = \"m2\"]/parts/part");
  ASSERT_TRUE(other.ok());
  auto r3 = xq::Execute(*other, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->sequence.size(), 1u);
  EXPECT_EQ(r3->stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(r3->stats.nodeset_cache_misses, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeSetCacheIntegration, LiteralsCannotSpellAnotherChainsKey) {
  // No literal enters an intern key. Literals that would spell the rest of
  // another chain's key -- if predicates were rendered into keys as
  // `[(/attribute::id = "literal")]` or as `[@id="literal"]` without
  // doubling their quotes -- are keys looked up in one shared entry, and
  // each query answers as the cache-free materializing evaluator does.
  auto doc = xml::Parse("<r><a id=\"k\"><b id=\"m\"/></a><a id=\"z\"/></r>");
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;
  xq::ExecuteOptions oracle;
  oracle.context_node = (*doc)->root();
  oracle.eval.streaming = false;
  const char* queries[] = {
      "count(/r/a[@id = \"k\"]/b[@id = \"m\"])",
      "count(/r/a[@id = 'k\")]/child::b[(/attribute::id = \"m'])",
      "count(/r/a[@id = 'k\"]/child::b[@id=\"m'])",
  };
  const char* answers[] = {"1", "0", "0"};
  for (size_t i = 0; i < std::size(queries); ++i) {
    auto compiled = xq::Compile(queries[i]);
    ASSERT_TRUE(compiled.ok()) << queries[i];
    auto r = xq::Execute(*compiled, opts);
    ASSERT_TRUE(r.ok()) << queries[i];
    EXPECT_EQ(r->SerializedItems(), answers[i]) << queries[i];
    auto fresh = xq::Execute(*compiled, oracle);
    ASSERT_TRUE(fresh.ok()) << queries[i];
    EXPECT_EQ(r->SerializedItems(), fresh->SerializedItems()) << queries[i];
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get((*doc).get(),
                      xq::NodeSetCache::MakeKey((*doc)->root(),
                                                "child::r/child::a/@id")),
            nullptr);
}

TEST(NodeSetCacheIntegration, EditOutsideAnchoredSubtreeKeepsEntries) {
  // An anchored chain's cached result survives edits that touch none of
  // its names, and an edit its entry depends on invalidates it as a
  // PARTIAL invalidation. The model[@id = ...] entry holds the models
  // under /library/models with their @id index: it depends on the names
  // library, models, model and @id, not on what lies inside a model.
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  auto query = xq::Compile("/library/models/model[@id = \"m1\"]/parts/part");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = d->root();
  opts.eval.nodeset_cache = &cache;

  auto cold = xq::Execute(*query, opts);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->sequence.size(), 2u);

  // Edit model m2's subtree: m1's cached chain must still be served.
  xml::Node* models = d->DocumentElement()->children()[0];
  xml::Node* m2_parts = models->children()[1]->children()[0];
  ASSERT_TRUE(m2_parts->AppendChild(d->CreateElement("part")).ok());

  auto warm = xq::Execute(*query, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->SerializedItems(), cold->SerializedItems());
  EXPECT_GT(warm->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(warm->stats.nodeset_cache_invalidations, 0u);

  // Edit m1's own subtree: the entry still holds, and the steps past it
  // see the new part.
  xml::Node* m1 = models->children()[0];
  ASSERT_TRUE(m1->children()[0]->AppendChild(d->CreateElement("part")).ok());
  auto inside = xq::Execute(*query, opts);
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->sequence.size(), 3u);
  EXPECT_GT(inside->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(inside->stats.nodeset_cache_invalidations, 0u);

  // Edit a candidate's indexed attribute: the entry goes stale, and the
  // stats call it a partial invalidation, not a whole-document one.
  m1->SetAttribute("id", "m0");
  auto after = xq::Execute(*query, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->sequence.size(), 0u);
  EXPECT_GT(after->stats.nodeset_cache_invalidations, 0u);
  EXPECT_GT(after->stats.nodeset_cache_partial_invalidations, 0u);
}

// Runs `query` over `doc` through `cache` and checks it against a fresh,
// cache-free evaluation; returns the cached run.
xq::QueryResult RunCached(xml::Document* doc, xq::NodeSetCache* cache,
                          const std::string& query) {
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query;
  xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  opts.eval.nodeset_cache = cache;
  auto cached = xq::Execute(*compiled, opts);
  EXPECT_TRUE(cached.ok()) << query;
  opts.eval.nodeset_cache = nullptr;
  auto fresh = xq::Execute(*compiled, opts);
  EXPECT_TRUE(fresh.ok()) << query;
  EXPECT_EQ(cached->SerializedItems(), fresh->SerializedItems()) << query;
  return std::move(*cached);
}

TEST(NodeSetCacheIntegration, RenameIntoATestedNameInvalidates) {
  // Renaming c to b adds a node to /a/b's set without touching b's former
  // parent list or any b: the entry must not answer from before.
  auto doc = xml::Parse("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  EXPECT_EQ(RunCached(d, &cache, "/a/b").SerializedItems(), "<b/>");
  EXPECT_GT(RunCached(d, &cache, "/a/b").stats.nodeset_cache_hits, 0u);

  ASSERT_TRUE(d->DocumentElement()->children()[1]->Rename("b").ok());
  xq::QueryResult after = RunCached(d, &cache, "/a/b");
  EXPECT_EQ(after.SerializedItems(), "<b/><b/>");
  EXPECT_EQ(after.stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after.stats.nodeset_cache_invalidations, 1u);
  EXPECT_EQ(after.stats.nodeset_cache_partial_invalidations, 1u);
}

TEST(NodeSetCacheIntegration, DetachingASubtreeOfTestedNamesInvalidates) {
  // The detached <x> is no name //b tests, but the subtree under it holds
  // a b: every name in a moved subtree is bumped.
  auto doc = xml::Parse("<r><x><y><b/></y></x><b/></r>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  EXPECT_EQ(RunCached(d, &cache, "count(//b)").SerializedItems(), "2");

  d->DocumentElement()->children()[0]->Detach();
  xq::QueryResult after = RunCached(d, &cache, "count(//b)");
  EXPECT_EQ(after.SerializedItems(), "1");
  EXPECT_EQ(after.stats.nodeset_cache_invalidations, 1u);
}

TEST(NodeSetCacheIntegration, ANameNoNodeHadYetIsStillGuarded) {
  // The chain selects nothing: no node anywhere has ever had its last
  // name, so that name is not interned to guard the entry. Attaching a
  // node of that name must still invalidate it.
  const std::string name = "zz-attached-later";
  ASSERT_FALSE(xml::NameTable::Find(name).has_value());
  auto doc = xml::Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  const std::string query = "count(/a/" + name + ")";
  EXPECT_EQ(RunCached(d, &cache, query).SerializedItems(), "0");
  EXPECT_GT(RunCached(d, &cache, query).stats.nodeset_cache_hits, 0u);
  EXPECT_FALSE(xml::NameTable::Find(name).has_value());

  ASSERT_TRUE(d->DocumentElement()->AppendChild(d->CreateElement(name)).ok());
  xq::QueryResult after = RunCached(d, &cache, query);
  EXPECT_EQ(after.SerializedItems(), "1");
  EXPECT_EQ(after.stats.nodeset_cache_invalidations, 1u);
}

TEST(NodeSetCacheIntegration, WritingTheProbedAttributeInvalidates) {
  auto doc = xml::Parse("<r><x id=\"k\"/><x id=\"m\"/></r>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  const std::string query = "count(/r/x[@id = \"k\"])";
  EXPECT_EQ(RunCached(d, &cache, query).SerializedItems(), "1");
  EXPECT_GT(RunCached(d, &cache, query).stats.nodeset_cache_hits, 0u);

  d->DocumentElement()->children()[1]->SetAttribute("id", "k");
  xq::QueryResult after = RunCached(d, &cache, query);
  EXPECT_EQ(after.SerializedItems(), "2");
  EXPECT_EQ(after.stats.nodeset_cache_invalidations, 1u);
  EXPECT_EQ(after.stats.nodeset_cache_partial_invalidations, 1u);
}

TEST(NodeSetCacheIntegration, EditsToUntestedNamesKeepTheHit) {
  // Inserting, renaming and rewriting nodes of names /r/a/b does not test
  // -- the document's structure changes under the chain -- keeps the entry.
  auto doc = xml::Parse("<r><a><b k=\"1\"/></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  EXPECT_EQ(RunCached(d, &cache, "/r/a/b").SerializedItems(), "<b k=\"1\"/>");

  xml::Node* a = d->DocumentElement()->children()[0];
  ASSERT_TRUE(a->AppendChild(d->CreateElement("c")).ok());
  ASSERT_TRUE(d->DocumentElement()->children()[1]->Rename("e").ok());
  a->children()[0]->SetAttribute("k", "2");
  xq::QueryResult after = RunCached(d, &cache, "/r/a/b");
  EXPECT_EQ(after.SerializedItems(), "<b k=\"2\"/>");
  EXPECT_GT(after.stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after.stats.nodeset_cache_invalidations, 0u);
}

TEST(NodeSetCacheIntegration, ChainsThatTestNoNameCountFullInvalidations) {
  // `*` and node() match nodes whatever their names: only the document
  // version guards such a chain, and its invalidation is a full one.
  auto doc = xml::Parse("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  for (const char* query : {"count(/r/*)", "count(/r/node())"}) {
    EXPECT_EQ(RunCached(d, &cache, query).SerializedItems(), "1") << query;
  }
  ASSERT_TRUE(d->DocumentElement()->AppendChild(d->CreateElement("z")).ok());
  for (const char* query : {"count(/r/*)", "count(/r/node())"}) {
    xq::QueryResult after = RunCached(d, &cache, query);
    EXPECT_EQ(after.SerializedItems(), "2") << query;
    EXPECT_EQ(after.stats.nodeset_cache_invalidations, 1u) << query;
    EXPECT_EQ(after.stats.nodeset_cache_partial_invalidations, 0u) << query;
  }
}

TEST(NodeSetCacheIntegration, CompilingUnusedNamesInternsNothing) {
  // Query text is untrusted and the NameTable is never reclaimed: neither
  // compiling a chain nor storing its entry interns the names it tests.
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  const uint64_t before = xml::NameTable::interned_count();
  auto compiled = xq::Compile(
      "count(/lib/unused-element-name/@unused-attribute-name), "
      "count(//unused-probed-name[@unused-key = \"k\"])");
  ASSERT_TRUE(compiled.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "0 0");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(xml::NameTable::interned_count(), before);
}

TEST(NodeSetCacheIntegration, ConstructedDocumentsAreNotInterned) {
  // Regression: a session-scoped cache outlives each query's construction
  // arena (QueryResult.arena is per-query). Interning a set rooted at an
  // arena document would leave raw pointers into a freed arena behind; a
  // re-run whose identically-built arena lands at the recycled address
  // would then be served garbage. Arena-rooted paths must bypass the cache
  // entirely.
  xq::NodeSetCache cache;
  auto query = xq::Compile("let $d := document { <a><b/></a> } return $d/a");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.eval.nodeset_cache = &cache;

  for (int run = 0; run < 3; ++run) {
    auto r = xq::Execute(*query, opts);
    ASSERT_TRUE(r.ok()) << run;
    EXPECT_EQ(r->SerializedItems(), "<a><b/></a>") << run;
    EXPECT_EQ(r->stats.nodeset_cache_hits, 0u) << run;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NodeSetCacheIntegration, LimitedProbesAreNotInterned) {
  // exists() probes pull a 1-item prefix; interning that truncated set
  // would poison later full evaluations. Verify the full query still sees
  // everything after a probe primed (or rather, did not prime) the cache.
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto probe = xq::Compile("exists(//book)");
  ASSERT_TRUE(probe.ok());
  auto p = xq::Execute(*probe, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->SerializedItems(), "true");

  auto full = xq::Compile("count(//book)");
  ASSERT_TRUE(full.ok());
  auto f = xq::Execute(*full, opts);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->SerializedItems(), "3");
}

// The mutate-between-runs differential: grow a random document, run the
// shared 440-query path workload with a persistent cache, apply a random
// edit, and re-run -- every cached evaluation must agree byte-for-byte with
// a fresh, cache-free one after every edit. 32 seeds x 24 rounds: renames
// into a tested name (seed 24, round 17: `rename /r[1] as c`, then `/c`)
// take that many to turn up.
TEST(NodeSetCacheIntegration, DifferentialMutateBetweenRuns) {
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    std::mt19937 rng(20260807 + seed);
    std::string xml = testing::RandomPathWorkloadDocument(&rng);
    auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
    ASSERT_TRUE(doc.ok()) << "seed " << seed;
    std::vector<std::string> query_texts =
        testing::RandomPathWorkloadQueries(&rng, 40);

    std::vector<xq::CompiledQuery> queries;
    for (const std::string& q : query_texts) {
      auto compiled = xq::Compile(q);
      ASSERT_TRUE(compiled.ok()) << q;
      queries.push_back(std::move(*compiled));
    }

    xq::NodeSetCache cache(64);
    for (int round = 0; round < 24; ++round) {
      std::string edit;
      if (round > 0) edit = testing::ApplyRandomEdit(doc->get(), &rng);
      for (size_t i = 0; i < queries.size(); ++i) {
        xq::ExecuteOptions cached_opts;
        cached_opts.context_node = (*doc)->root();
        cached_opts.eval.nodeset_cache = &cache;
        auto cached = xq::Execute(queries[i], cached_opts);

        xq::ExecuteOptions fresh_opts;
        fresh_opts.context_node = (*doc)->root();
        auto fresh = xq::Execute(queries[i], fresh_opts);

        ASSERT_EQ(cached.ok(), fresh.ok())
            << "seed " << seed << " round " << round << " query "
            << query_texts[i] << " edit: " << edit;
        if (!cached.ok()) continue;
        EXPECT_EQ(cached->SerializedItems(), fresh->SerializedItems())
            << "seed " << seed << " round " << round << " query "
            << query_texts[i] << " edit: " << edit;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Many threads evaluating through ONE shared cache over ONE read-only
// document. Carries the "concurrency" ctest label so the TSan preset
// exercises the Get/Put paths under contention.
TEST(NodeSetCacheConcurrency, SharedCacheParallelEvaluations) {
  std::string xml = "<r>";
  for (int i = 0; i < 50; ++i) {
    xml += "<s><book id=\"" + std::to_string(i) + "\"/></s>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  (*doc)->EnsureOrderIndex();  // pre-build: mutations are off the table now

  xq::NodeSetCache cache(32);
  auto by_books = xq::Compile("count(//book)");
  auto by_shelves = xq::Compile("count(//s)");
  ASSERT_TRUE(by_books.ok() && by_shelves.ok());

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  std::vector<uint64_t> hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const xq::CompiledQuery& q =
            (i + t) % 2 == 0 ? *by_books : *by_shelves;
        const char* want = (i + t) % 2 == 0 ? "50" : "50";
        xq::ExecuteOptions opts;
        opts.context_node = (*doc)->root();
        opts.eval.nodeset_cache = &cache;
        auto r = xq::Execute(q, opts);
        if (!r.ok() || r->SerializedItems() != want) {
          ++failures[t];
        } else {
          hits[t] += r->stats.nodeset_cache_hits;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  // Everyone after the first computation should have hit.
  uint64_t total_hits = 0;
  for (uint64_t h : hits) total_hits += h;
  EXPECT_GT(total_hits, 0u);
}

// Mutate-between-PHASES under threads: parallel readers share one cache
// over one document; between phases (all readers joined), the main thread
// applies a random edit. TSan audits that guard validation against the
// name versions is race-free with concurrent Get/Put, and every phase's results
// stay byte-identical to a fresh evaluation after the edit.
TEST(NodeSetCacheConcurrency, MutateBetweenParallelPhases) {
  std::mt19937 rng(20260807);
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());

  const char* query_texts[] = {"count(//a)", "count(//b/c)", "//d[@k]",
                               "count(//*[@k = \"1\"])"};
  std::vector<xq::CompiledQuery> queries;
  for (const char* q : query_texts) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    queries.push_back(std::move(*compiled));
  }

  xq::NodeSetCache cache(32);
  constexpr int kThreads = 4;
  constexpr int kPhases = 6;
  for (int phase = 0; phase < kPhases; ++phase) {
    if (phase > 0) {
      testing::ApplyRandomEdit(doc->get(), &rng);
      // Rebuild the order index before readers come back: lazy index
      // (re)builds are not part of the read-only contract.
      (*doc)->EnsureOrderIndex();
    }
    // Fresh reference results for this phase, computed without the cache.
    std::vector<std::string> want;
    for (auto& q : queries) {
      xq::ExecuteOptions opts;
      opts.context_node = (*doc)->root();
      auto r = xq::Execute(q, opts);
      ASSERT_TRUE(r.ok());
      want.push_back(r->SerializedItems());
    }

    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 10; ++i) {
          size_t qi = static_cast<size_t>(t + i) % queries.size();
          xq::ExecuteOptions opts;
          opts.context_node = (*doc)->root();
          opts.eval.nodeset_cache = &cache;
          auto r = xq::Execute(queries[qi], opts);
          if (!r.ok() || r->SerializedItems() != want[qi]) ++failures[t];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "phase " << phase << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace lll
