// The FLUX-style update sublanguage: grammar, snapshot semantics (targets
// bind pre-update), conflict rejection, mutation routing through the
// name versions, EXPLAIN for update plans, and the server's publish-path
// integration (name-scoped invalidation of the migrated node-set cache).

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/update_eval.h"
#include "xquery/update_parser.h"

namespace lll::xq {
namespace {

std::unique_ptr<xml::Document> ParseDoc(const std::string& xml) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? std::move(*doc) : nullptr;
}

std::string Apply(const std::string& xml, const std::string& script,
                  UpdateStats* stats = nullptr) {
  auto doc = ParseDoc(xml);
  if (doc == nullptr) return "<PARSE ERROR>";
  auto compiled = CompileUpdateText(script);
  if (!compiled.ok()) return "<COMPILE: " + compiled.status().ToString() + ">";
  auto result = ApplyUpdate(*compiled, doc.get());
  if (!result.ok()) return "<APPLY: " + result.status().ToString() + ">";
  if (stats != nullptr) *stats = *result;
  return xml::Serialize(doc->DocumentElement());
}

std::string ApplyError(const std::string& xml, const std::string& script) {
  auto doc = ParseDoc(xml);
  if (doc == nullptr) return "<PARSE ERROR>";
  const std::string before = xml::Serialize(doc->DocumentElement());
  auto compiled = CompileUpdateText(script);
  if (!compiled.ok()) return compiled.status().ToString();
  auto result = ApplyUpdate(*compiled, doc.get());
  EXPECT_FALSE(result.ok()) << "script unexpectedly applied: " << script;
  // Error means untouched: validation runs before the first mutation.
  EXPECT_EQ(xml::Serialize(doc->DocumentElement()), before) << script;
  return result.ok() ? "" : result.status().ToString();
}

// --- Grammar ----------------------------------------------------------------

TEST(UpdateParser, AllFourStatementForms) {
  auto script = ParseUpdateScript(
      "insert <x a=\"1\"/> into /r; delete /r/a; "
      "replace /r/b with <y>t</y>; rename /r/c as d");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->statements.size(), 4u);
  EXPECT_EQ(script->statements[0].op, UpdateOp::kInsert);
  EXPECT_EQ(script->statements[0].position, InsertPosition::kInto);
  EXPECT_EQ(script->statements[0].node_xml, "<x a=\"1\"/>");
  EXPECT_EQ(script->statements[0].target_path, "/r");
  EXPECT_EQ(script->statements[1].op, UpdateOp::kDelete);
  EXPECT_EQ(script->statements[1].target_path, "/r/a");
  EXPECT_EQ(script->statements[2].op, UpdateOp::kReplace);
  EXPECT_EQ(script->statements[2].node_xml, "<y>t</y>");
  EXPECT_EQ(script->statements[3].op, UpdateOp::kRename);
  EXPECT_EQ(script->statements[3].qname, "d");
}

TEST(UpdateParser, InsertPositions) {
  for (const char* pos : {"into", "before", "after"}) {
    auto script =
        ParseUpdateScript(std::string("insert <x/> ") + pos + " /r/a");
    ASSERT_TRUE(script.ok()) << pos;
    EXPECT_STREQ(InsertPositionName(script->statements[0].position), pos);
  }
}

TEST(UpdateParser, QuotedTextPayload) {
  auto script = ParseUpdateScript("insert \"hello world\" into /r/a");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_TRUE(script->statements[0].node_is_text);
  EXPECT_EQ(script->statements[0].node_xml, "hello world");
}

TEST(UpdateParser, KeywordsInsidePredicatesAndTagsStayOpaque) {
  // "with", "as", ';' and '<' inside predicates, strings, or the payload
  // fragment must not be mistaken for top-level grammar.
  auto script = ParseUpdateScript(
      "replace /r/a[@k = \"x with y; z\"] with <m note=\"as is\"><n/></m>");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->statements.size(), 1u);
  EXPECT_EQ(script->statements[0].target_path, "/r/a[@k = \"x with y; z\"]");
  EXPECT_EQ(script->statements[0].node_xml, "<m note=\"as is\"><n/></m>");

  // '<' as the comparison operator inside a predicate is not a tag start.
  auto cmp = ParseUpdateScript("delete /r/a[position() < 3]");
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp->statements[0].target_path, "/r/a[position() < 3]");
}

TEST(UpdateParser, MalformedScriptsAreParseErrors) {
  for (const char* bad : {
           "",                              // empty
           "   ;  ; ",                      // statements all empty
           "upsert <x/> into /r",           // unknown verb
           "insert <x/> /r",                // missing position keyword
           "insert into /r",                // missing payload
           "delete",                        // missing path
           "replace /r/a",                  // missing "with"
           "replace /r/a with",             // missing payload
           "rename /r/a",                   // missing "as"
           "rename /r/a as 1bad",           // malformed QName
           "rename /r/a as a b",            // QName with trailing junk
           "insert <x/> sideways /r",       // bad position keyword
           "insert \"unterminated into /r", // unterminated quote
       }) {
    auto script = ParseUpdateScript(bad);
    EXPECT_FALSE(script.ok()) << "parsed unexpectedly: '" << bad << "'";
  }
}

TEST(UpdateParser, IsUpdateScriptDispatch) {
  EXPECT_TRUE(IsUpdateScript("insert <x/> into /r"));
  EXPECT_TRUE(IsUpdateScript("  delete /r/a"));
  EXPECT_TRUE(IsUpdateScript("replace /r/a with <y/>"));
  EXPECT_TRUE(IsUpdateScript("rename /r/a as b"));
  // Queries that merely mention the verbs are not update scripts.
  EXPECT_FALSE(IsUpdateScript("//delete"));
  EXPECT_FALSE(IsUpdateScript("count(//item)"));
  EXPECT_FALSE(IsUpdateScript("/log/insert"));
  EXPECT_FALSE(IsUpdateScript("\"delete /r\""));
}

// --- Application ------------------------------------------------------------

TEST(UpdateApply, InsertIntoBeforeAfter) {
  EXPECT_EQ(Apply("<r><a/><b/></r>", "insert <x/> into /r"),
            "<r><a/><b/><x/></r>");
  EXPECT_EQ(Apply("<r><a/><b/></r>", "insert <x/> before /r/b"),
            "<r><a/><x/><b/></r>");
  EXPECT_EQ(Apply("<r><a/><b/></r>", "insert <x/> after /r/a"),
            "<r><a/><x/><b/></r>");
  EXPECT_EQ(Apply("<r><a/></r>", "insert \"hi\" into /r/a"),
            "<r><a>hi</a></r>");
}

TEST(UpdateApply, DeleteReplaceRename) {
  EXPECT_EQ(Apply("<r><a/><b/></r>", "delete /r/a"), "<r><b/></r>");
  EXPECT_EQ(Apply("<r><a><c/></a></r>", "replace /r/a with <z k=\"1\"/>"),
            "<r><z k=\"1\"/></r>");
  EXPECT_EQ(Apply("<r><a><c/></a></r>", "rename /r/a as q"),
            "<r><q><c/></q></r>");
}

TEST(UpdateApply, MultiNodeTargetsAndEmptyTargetsAreLegal) {
  UpdateStats stats;
  EXPECT_EQ(Apply("<r><a/><a/><a/></r>", "rename /r/a as b", &stats),
            "<r><b/><b/><b/></r>");
  EXPECT_EQ(stats.statements, 1u);
  EXPECT_EQ(stats.target_nodes, 3u);

  // An empty target set is a no-op, not an error.
  EXPECT_EQ(Apply("<r><a/></r>", "delete /r/nothing", &stats), "<r><a/></r>");
  EXPECT_EQ(stats.target_nodes, 0u);
}

TEST(UpdateApply, TargetsBindAgainstThePreUpdateSnapshot) {
  // FLUX snapshot semantics: the second statement's path is evaluated
  // before the first statement's insert exists, so it selects nothing.
  EXPECT_EQ(Apply("<r><a/></r>", "insert <x/> into /r/a; delete /r/a/x"),
            "<r><a><x/></a></r>");
  // Symmetrically: a statement targeting a node another statement deletes
  // still binds (the node existed in the snapshot); the insert lands in the
  // detached subtree and is invisible in the published tree.
  EXPECT_EQ(Apply("<r><a/><b/></r>", "delete /r/a; insert <x/> into /r/a"),
            "<r><b/></r>");
}

TEST(UpdateApply, ScriptOrderIsDeterministicWithinOneStatementSet) {
  // Two inserts anchored at the same position land in script order.
  EXPECT_EQ(
      Apply("<r><m/></r>", "insert <x/> before /r/m; insert <y/> before /r/m"),
      "<r><x/><y/><m/></r>");
}

TEST(UpdateApply, InvalidTargetsRejectBeforeAnyMutation) {
  // Deleting the document node, renaming a text node, replacing an
  // attribute: each is rejected with the document untouched -- including
  // when an earlier statement in the same script was applicable.
  EXPECT_NE(ApplyError("<r><a/></r>", "delete /"), "");
  EXPECT_NE(ApplyError("<r>txt</r>", "rename /r/text() as x"), "");
  EXPECT_NE(ApplyError("<r><a k=\"1\"/></r>",
                       "insert <x/> into /r/a; replace /r/a/@k with <y/>"),
            "");
}

// --- Conflicts --------------------------------------------------------------

TEST(UpdateConflicts, ExclusiveClaimsReject) {
  MetricsRegistry metrics;
  auto doc = ParseDoc("<r><a/><b/></r>");
  ASSERT_NE(doc, nullptr);
  auto compiled = CompileUpdateText("delete /r/a; rename /r/a as z");
  ASSERT_TRUE(compiled.ok());
  UpdateOptions uo;
  uo.metrics = &metrics;
  auto result = ApplyUpdate(*compiled, doc.get(), uo);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.counter("xq.update.conflicts_rejected").value(), 1u);
  // Neither statement applied.
  EXPECT_EQ(xml::Serialize(doc->DocumentElement()), "<r><a/><b/></r>");
}

TEST(UpdateConflicts, RulesMatchTheDesign) {
  // delete+delete of one node agree; the other exclusive pairs contradict.
  EXPECT_EQ(Apply("<r><a/><b/></r>", "delete /r/a; delete /r/a"),
            "<r><b/></r>");
  EXPECT_NE(ApplyError("<r><a/></r>", "delete /r/a; replace /r/a with <x/>"),
            "");
  EXPECT_NE(ApplyError("<r><a/></r>",
                       "rename /r/a as x; replace /r/a with <y/>"),
            "");
  // An insert before/after needs its anchor to survive: delete and replace
  // of the anchor conflict, a rename of the anchor does not.
  EXPECT_NE(ApplyError("<r><a/></r>", "delete /r/a; insert <x/> before /r/a"),
            "");
  EXPECT_NE(ApplyError("<r><a/></r>",
                       "replace /r/a with <y/>; insert <x/> after /r/a"),
            "");
  EXPECT_EQ(Apply("<r><a/></r>", "rename /r/a as z; insert <x/> before /r/a"),
            "<r><x/><z/></r>");
  // insert INTO a deleted node is not a conflict: it lands in the detached
  // subtree (snapshot semantics), invisible in the published tree.
  EXPECT_EQ(Apply("<r><a/><b/></r>", "delete /r/a; insert <x/> into /r/a"),
            "<r><b/></r>");
}

// --- EXPLAIN ----------------------------------------------------------------

TEST(UpdateExplain, ShowsStatementsAndTheNamesTheyBump) {
  auto compiled = CompileUpdateText(
      "delete /r/a/b; rename /r/c as z; insert <p q=\"1\"><s/></p> into /r");
  ASSERT_TRUE(compiled.ok());

  std::string plain = ExplainUpdate(*compiled);
  EXPECT_NE(plain.find("update script: 3 statements"), std::string::npos);
  EXPECT_NE(plain.find("[1] delete /r/a/b"), std::string::npos);
  EXPECT_NE(plain.find("[2] rename /r/c as z"), std::string::npos);
  EXPECT_EQ(plain.find("targets:"), std::string::npos);  // no doc, no counts

  auto doc = ParseDoc("<r><a><b/><b><x k=\"1\"/></b></a><c/></r>");
  ASSERT_NE(doc, nullptr);
  std::string with_doc = ExplainUpdate(*compiled, doc.get());
  // A delete bumps every name in the subtrees it detaches, and moves the
  // document version.
  EXPECT_NE(with_doc.find("[1] delete /r/a/b\n"
                          "    targets: 2 nodes\n"
                          "      /r[1]/a[1]/b[1]\n"
                          "      /r[1]/a[1]/b[2]\n"
                          "    bumps: elements b, x; attributes k; "
                          "the document version\n"),
            std::string::npos)
      << with_doc;
  // A rename bumps the old and the new name, and moves nothing.
  EXPECT_NE(with_doc.find("      /r[1]/c[1]\n"
                          "    bumps: elements c, z\n"),
            std::string::npos)
      << with_doc;
  // An insert bumps the names in its payload.
  EXPECT_NE(with_doc.find("    bumps: elements p, s; attributes q; "
                          "the document version\n"),
            std::string::npos)
      << with_doc;
}

// --- Server integration -----------------------------------------------------

constexpr char kLibrary[] =
    "<library><models>"
    "<model id=\"m1\"><parts><part/><part/></parts></model>"
    "<model id=\"m2\"><parts><part/></parts></model>"
    "<model id=\"m3\"><parts><part/></parts></model>"
    "</models></library>";

server::ServerOptions UpdateTestOptions(MetricsRegistry* metrics) {
  server::ServerOptions options;
  options.worker_threads = 2;
  options.metrics = metrics;
  return options;
}

TEST(UpdateServer, PublishUpdateAppliesThroughCopyOnWrite) {
  MetricsRegistry metrics;
  server::QueryServer server(UpdateTestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("lib", kLibrary).ok());

  server::Session pinned = server.OpenSession("acme");
  server::QueryResponse before = pinned.Query("lib", "count(//part)");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.result, "4");

  UpdateStats stats;
  auto v2 = server.PublishUpdate(
      "lib", "insert <part/> into /library/models/model[@id = \"m2\"]/parts",
      &stats);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(stats.statements, 1u);
  EXPECT_EQ(stats.target_nodes, 1u);
  EXPECT_EQ(metrics.counter("server.updates").value(), 1u);
  EXPECT_EQ(metrics.counter("xq.update.statements").value(), 1u);

  // Snapshot isolation: the pinned session still reads version 1.
  server::QueryResponse still = pinned.Query("lib", "count(//part)");
  EXPECT_EQ(still.result, "4");
  EXPECT_EQ(still.snapshot_version, 1u);
  pinned.Refresh();
  EXPECT_EQ(pinned.Query("lib", "count(//part)").result, "5");

  // A rejected script publishes nothing and leaves the version alone.
  auto bad = server.PublishUpdate(
      "lib", "delete //model[@id = \"m3\"]; rename //model[@id = \"m3\"] as x");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(server.CurrentSnapshot("lib")->version(), 2u);
  auto parse_fail = server.PublishUpdate("lib", "frobnicate /library");
  EXPECT_FALSE(parse_fail.ok());
  EXPECT_EQ(server.CurrentSnapshot("lib")->version(), 2u);
}

TEST(UpdateServer, PartialInvalidationAcrossPublishUpdate) {
  // THE acceptance criterion: server-verb update statements trigger only
  // partial invalidations for anchored cached queries. The m1 and m2
  // chains share one entry: the models under /library/models with their
  // @id index. An update inside a model keeps that entry, with no
  // invalidation, on the migrated snapshot; one that edits a model's @id,
  // or the models' child list, invalidates it as PARTIAL (a fine-grained
  // guard failed), never full; and every answer is the post-edit one.
  MetricsRegistry metrics;
  server::QueryServer server(UpdateTestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("lib", kLibrary).ok());

  const std::string q_m1 = "/library/models/model[@id = \"m1\"]/parts/part";
  const std::string q_m2 = "/library/models/model[@id = \"m2\"]/parts/part";
  server::Session session = server.OpenSession("acme");
  ASSERT_TRUE(session.Query("lib", q_m1).status.ok());
  // Warm: the m2 chain hits the entry the m1 read stored.
  server::QueryResponse warm = session.Query("lib", q_m2);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GE(warm.stats.nodeset_cache_hits, 1u);

  auto v2 = server.PublishUpdate(
      "lib", "insert <part/> into /library/models/model[@id = \"m2\"]/parts");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_GT(server.cache_entries_migrated(), 0u)
      << "warm entries should migrate onto the identity clone";

  session.Refresh();
  // Both chains re-validate the migrated entry's guards on the new
  // snapshot: HIT, no invalidation, and m2 sees its new part.
  server::QueryResponse m1 = session.Query("lib", q_m1);
  ASSERT_TRUE(m1.status.ok());
  EXPECT_EQ(m1.snapshot_version, 2u);
  EXPECT_GE(m1.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(m1.stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(m1.result, "<part/><part/>");
  server::QueryResponse m2 = session.Query("lib", q_m2);
  ASSERT_TRUE(m2.status.ok());
  EXPECT_GE(m2.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(m2.stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(m2.result, "<part/><part/>");

  // An edit to a candidate's indexed attribute fails the entry's guard on
  // @id -- and because the entry has no document-wide guard, the failure
  // counts as PARTIAL, never full.
  ASSERT_TRUE(server
                  .PublishUpdate("lib",
                                 "rename /library/models/model[@id = "
                                 "\"m2\"]/@id as key")
                  .ok());
  session.Refresh();
  m2 = session.Query("lib", q_m2);
  ASSERT_TRUE(m2.status.ok());
  EXPECT_GE(m2.stats.nodeset_cache_invalidations, 1u);
  EXPECT_EQ(m2.stats.nodeset_cache_invalidations,
            m2.stats.nodeset_cache_partial_invalidations)
      << "every invalidation from the scoped update must be partial";
  EXPECT_EQ(m2.result, "");

  // So does an edit to the anchor's child list.
  ASSERT_TRUE(server
                  .PublishUpdate("lib",
                                 "insert <model id=\"m2\"><parts><part/>"
                                 "</parts></model> into /library/models")
                  .ok());
  session.Refresh();
  m2 = session.Query("lib", q_m2);
  ASSERT_TRUE(m2.status.ok());
  EXPECT_GE(m2.stats.nodeset_cache_invalidations, 1u);
  EXPECT_EQ(m2.stats.nodeset_cache_invalidations,
            m2.stats.nodeset_cache_partial_invalidations);
  EXPECT_EQ(m2.result, "<part/>");
  m1 = session.Query("lib", q_m1);
  ASSERT_TRUE(m1.status.ok());
  EXPECT_GE(m1.stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(m1.result, "<part/><part/>");
}

TEST(UpdateServer, PublishBindsItsTargetsOnTheBaseSnapshotsCache) {
  // A publish binds its targets on the base snapshot with that snapshot's
  // node-set cache, and its Execute exports the xq.eval counters: after a
  // read warmed the model[@id = ...] entry, binding a target through the
  // same chain is a hit, not a miss.
  MetricsRegistry metrics;
  server::QueryServer server(UpdateTestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("lib", kLibrary).ok());
  server::Session session = server.OpenSession("acme");
  ASSERT_TRUE(session
                  .Query("lib",
                         "/library/models/model[@id = \"m1\"]/parts/part")
                  .status.ok());
  const Counter& hits = metrics.counter("xq.eval.nodeset_cache_hits");
  const Counter& misses = metrics.counter("xq.eval.nodeset_cache_misses");
  const uint64_t hits_before = hits.value();
  const uint64_t misses_before = misses.value();
  const uint64_t base_entries =
      server.CurrentSnapshot("lib")->nodeset_cache()->size();
  ASSERT_TRUE(server
                  .PublishUpdate("lib",
                                 "insert <part/> into /library/models/"
                                 "model[@id = \"m2\"]/parts")
                  .ok());
  EXPECT_EQ(hits.value(), hits_before + 1);
  EXPECT_EQ(misses.value(), misses_before);
  EXPECT_EQ(server.cache_entries_migrated(), base_entries);
  EXPECT_EQ(session.Query("lib", "count(//part)").result, "4");
  session.Refresh();
  EXPECT_EQ(session.Query("lib", "count(//part)").result, "5");
}

// A random script of one to three statements against the live tree `doc`:
// targets are canonical paths (NodePathOf), which bind without the cache,
// or probe-keyed paths, which bind through the indexed chains the reads
// warm; some statements have invalid targets, and some pairs claim one
// node.
std::string RandomScript(xml::Document* doc, std::mt19937* rng) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  const char* names[] = {"a", "b", "c", "d"};
  auto name = [&] { return std::string(names[pick(4)]); };
  auto key = [&] { return "[@k = \"" + std::to_string(pick(4)) + "\"]"; };
  // The document element stays: every target is below it.
  std::vector<xml::Node*> elements = lll::testing::AllElements(doc);
  auto target = [&]() -> std::string {
    switch (pick(4)) {
      case 0:
        return "/r/" + name() + key();
      case 1:
        return "//" + name() + key();
      default:
        if (elements.size() < 2) return "/r/" + name() + key();
        return NodePathOf(elements[1 + pick(elements.size() - 1)]);
    }
  };
  const char* positions[] = {"into", "before", "after"};
  const char* invalid[] = {"delete /", "replace //@k with <e/>",
                           "insert <e/> into //@k", "rename / as e"};
  std::string script;
  const size_t statements = 1 + pick(3);
  for (size_t i = 0; i < statements; ++i) {
    if (i > 0) script += "; ";
    const std::string path = target();
    switch (pick(8)) {
      case 0:
        script += "rename " + path + " as " + name();
        break;
      case 1:
        script += "delete " + path;
        break;
      case 2:
        script += "replace " + path + " with <" + name() + " k=\"" +
                  std::to_string(pick(4)) + "\"/>";
        break;
      case 3:
        script += "replace " + path + "/text() with \"t" +
                  std::to_string(pick(9)) + "\"";
        break;
      case 4:
      case 5:
        script += "insert <" + name() + " k=\"" + std::to_string(pick(4)) +
                  "\"/> " + positions[pick(3)] + " " + path;
        break;
      case 6:
        script += invalid[pick(4)];
        break;
      default:
        script += "delete " + path + "; rename " + path + " as " + name();
        break;
    }
  }
  return script;
}

TEST(UpdateServer, BindOnBaseMatchesApplyUpdateOnAnIndependentCopy) {
  // The bind-on-base differential: the same random scripts go through
  // PublishUpdate, which binds on the base snapshot with its cache (warmed
  // by reads through the chains the targets bind on) and applies to the
  // clone, and through ApplyUpdate on an independent copy. Every
  // serialization, every read and every Status text agree, and a rejected
  // script publishes nothing. 8 seeds.
  size_t rejected = 0, applied = 0;
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(20261020 + seed);
    const std::string xml = lll::testing::RandomPathWorkloadDocument(&rng);
    MetricsRegistry metrics;
    server::QueryServer server(UpdateTestOptions(&metrics));
    ASSERT_TRUE(server.AddDocumentXml("d", xml).ok());
    std::unique_ptr<xml::Document> copy = ParseDoc(xml);
    ASSERT_NE(copy, nullptr);
    server::Session session = server.OpenSession("acme");
    std::vector<std::string> reads;
    for (const char* n : {"a", "b", "c", "d"}) {
      reads.push_back("/r/" + std::string(n) + "[@k = \"1\"]");
      reads.push_back("//" + std::string(n) + "[@k = \"2\"]");
    }
    for (int round = 0; round < 12; ++round) {
      session.Refresh();
      for (const std::string& q : reads) {
        server::QueryResponse got = session.Query("d", q);
        ExecuteOptions fresh_opts;
        fresh_opts.context_node = copy->root();
        auto fresh = xq::Run(q, fresh_opts);
        ASSERT_TRUE(got.status.ok() && fresh.ok()) << q;
        ASSERT_EQ(got.result, fresh->SerializedItems())
            << "seed " << seed << " round " << round << " " << q;
      }
      const std::string script = RandomScript(copy.get(), &rng);
      const uint64_t published = server.snapshots_published();
      auto version = server.PublishUpdate("d", script);
      auto compiled = CompileUpdateText(script);
      ASSERT_TRUE(compiled.ok()) << script;
      auto direct = ApplyUpdate(*compiled, copy.get());
      ASSERT_EQ(version.ok(), direct.ok())
          << "seed " << seed << " " << script << "\n"
          << (version.ok() ? direct.status() : version.status()).ToString();
      if (direct.ok()) {
        ++applied;
        EXPECT_EQ(server.snapshots_published(), published + 1);
      } else {
        ++rejected;
        Status want = direct.status();
        want.AddContext("while binding a publish of 'd'");
        EXPECT_EQ(version.status().ToString(), want.ToString()) << script;
        EXPECT_EQ(server.snapshots_published(), published) << script;
      }
      ASSERT_EQ(xml::Serialize(server.CurrentSnapshot("d")->root()),
                xml::Serialize(copy->root()))
          << "seed " << seed << " round " << round << " " << script;
    }
  }
  // Both outcomes occur, so neither half of the comparison is vacuous.
  EXPECT_GT(applied, 20u);
  EXPECT_GT(rejected, 5u);
}

TEST(UpdateServer, PublishCloneHasRoomForTheNodesItsEditCreates) {
  // The publish binds before it clones, so the clone reserves room for the
  // nodes its edit creates: a replace grows the new snapshot by no more
  // than its new node needs, where regrowing the per-node arrays would add
  // tens of bytes for every node of the document.
  std::string xml = "<r>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<x id=\"k" + std::to_string(i) + "\"><y/></x>";
  }
  xml += "</r>";
  MetricsRegistry metrics;
  server::QueryServer server(UpdateTestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("d", xml).ok());
  // The first publish makes the document a publish clone with stamped name
  // versions; every later publish clones a clone.
  ASSERT_TRUE(
      server.PublishUpdate("d", "replace /r/x[@id = \"k0\"]/y with <y/>").ok());
  // A node's slot in every per-node array, its handle and its order key
  // come to well under this. The name versions hold one entry per name
  // edits stamped, and each of these publishes stamps the same name.
  constexpr size_t kBytesPerNode = 128;
  for (int i = 1; i <= 3; ++i) {
    const xml::DocumentStorageStats before =
        server.CurrentSnapshot("d")->document().storage_stats();
    UpdateStats stats;
    ASSERT_TRUE(server
                    .PublishUpdate("d",
                                   "replace /r/x[@id = \"k" +
                                       std::to_string(i) + "\"]/y with <y/>",
                                   &stats)
                    .ok());
    ASSERT_EQ(stats.target_nodes, 1u);
    const xml::DocumentStorageStats after =
        server.CurrentSnapshot("d")->document().storage_stats();
    EXPECT_LE(after.total_bytes,
              before.total_bytes + stats.target_nodes * kBytesPerNode)
        << i;
  }
}

// The mutate-between-runs differential, driven ENTIRELY by update-language
// scripts (the raw-mutator half lives in nodeset_cache_test): after every
// script, cached evaluations agree byte-for-byte with fresh ones. 8 seeds.
TEST(UpdateDifferential, ScriptedMutateBetweenRuns) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(20260807 + seed);
    std::string xml = lll::testing::RandomPathWorkloadDocument(&rng);
    auto doc = ParseDoc(xml);
    ASSERT_NE(doc, nullptr) << "seed " << seed;
    std::vector<std::string> query_texts =
        lll::testing::RandomPathWorkloadQueries(&rng, 30);
    std::vector<CompiledQuery> queries;
    for (const std::string& q : query_texts) {
      auto compiled = Compile(q);
      ASSERT_TRUE(compiled.ok()) << q;
      queries.push_back(std::move(*compiled));
    }

    NodeSetCache cache(64);
    for (int round = 0; round < 4; ++round) {
      std::string edit = "(none)";
      if (round > 0) {
        // Compose a script from the live tree: rename one element, insert
        // before another. Paths are canonical NodePathOf forms, so this is
        // the update pipeline end-to-end, parser included.
        std::vector<xml::Node*> elements =
            lll::testing::AllElements(doc.get());
        ASSERT_GT(elements.size(), 2u);
        xml::Node* rename_at = elements[rng() % elements.size()];
        xml::Node* insert_at = elements[1 + rng() % (elements.size() - 1)];
        std::string script = "rename " + NodePathOf(rename_at) + " as e";
        if (insert_at != doc->DocumentElement()) {
          script += "; insert <f/> before " + NodePathOf(insert_at);
        }
        auto compiled = CompileUpdateText(script);
        ASSERT_TRUE(compiled.ok())
            << "seed " << seed << " script: " << script;
        auto applied = ApplyUpdate(*compiled, doc.get());
        ASSERT_TRUE(applied.ok())
            << "seed " << seed << " script: " << script << "\n"
            << applied.status().ToString();
        edit = script;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        ExecuteOptions cached_opts;
        cached_opts.context_node = doc->root();
        cached_opts.eval.nodeset_cache = &cache;
        auto cached = Execute(queries[i], cached_opts);
        ExecuteOptions fresh_opts;
        fresh_opts.context_node = doc->root();
        auto fresh = Execute(queries[i], fresh_opts);
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

// Concurrent updates vs. readers, for the TSan preset (the "concurrency"
// ctest label): one writer publishing update scripts while reader threads
// query through pinned sessions. Readers must always see a consistent
// part-count (every publish adds exactly one part, so any count in
// [initial, initial + publishes] is a legal snapshot read).
TEST(UpdateConcurrency, ReadersStayConsistentUnderPublishedUpdates) {
  MetricsRegistry metrics;
  server::QueryServer server(UpdateTestOptions(&metrics));
  ASSERT_TRUE(server.AddDocumentXml("lib", kLibrary).ok());

  constexpr int kPublishes = 12;
  constexpr int kReaders = 4;
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&server, &bad_reads, t] {
      server::Session session =
          server.OpenSession("tenant" + std::to_string(t));
      // Besides the whole-document count, the readers probe literal keys
      // on the chain the writer's targets bind through, whose indexed
      // entry the writer reads on the base snapshot and migrates.
      struct Read {
        const char* query;
        int low, high;
      };
      const Read reads[] = {
          {"count(//part)", 4, 4 + kPublishes},
          {"count(/library/models/model[@id = \"m1\"]/parts/part)", 2,
           2 + kPublishes},
          {"count(/library/models/model[@id = \"m3\"]/parts/part)", 1, 1},
      };
      for (int i = 0; i < 30; ++i) {
        const Read& read = reads[(i + t) % std::size(reads)];
        server::QueryResponse r = session.Query("lib", read.query);
        if (!r.status.ok()) {
          ++bad_reads;
          continue;
        }
        int count = std::stoi(r.result);
        if (count < read.low || count > read.high) ++bad_reads;
        if (i % 5 == 4) session.Refresh();
      }
    });
  }
  std::thread writer([&server] {
    for (int i = 0; i < kPublishes; ++i) {
      auto v = server.PublishUpdate(
          "lib",
          "insert <part/> into /library/models/model[@id = \"m1\"]/parts");
      ASSERT_TRUE(v.ok()) << v.status().ToString();
    }
  });
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_EQ(bad_reads.load(), 0);
  server::Session check = server.OpenSession("final");
  EXPECT_EQ(check.Query("lib", "count(//part)").result,
            std::to_string(4 + kPublishes));
}

}  // namespace
}  // namespace lll::xq
