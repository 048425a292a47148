// Tests for the streaming path pipeline: differential agreement with the
// materializing evaluator (hash probes included), early-exit accounting,
// and the deep-tree regression for the iterative descendant collector.

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace lll {
namespace {

// A document with enough shape variety to exercise every streamable axis:
// repeated names at several depths, attributes, text, and siblings.
constexpr char kDoc[] =
    "<r id=\"root\">"
    "  <a k=\"1\"><b><c>one</c><d/></b><b w=\"x\"><c>two</c></b></a>"
    "  <a><c>three</c><b><d p=\"q\"/><c>four</c></b></a>"
    "  <d><a><b><c>five</c></b></a><c>six</c></d>"
    "  <b/><a k=\"2\"/>"
    "</r>";

// Runs `query` against `xml` twice -- streaming pipeline on (the default)
// and off -- and expects identical serialized results. Returns the shared
// serialization for further assertions.
std::string EvalBothModes(const std::string& query, const std::string& xml) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return "<PARSE ERROR>";
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << "\n" << compiled.status().ToString();
  if (!compiled.ok()) return "<COMPILE ERROR>";

  xq::ExecuteOptions streamed_opts;
  streamed_opts.context_node = (*doc)->root();
  xq::ExecuteOptions materializing_opts = streamed_opts;
  materializing_opts.eval.streaming = false;

  auto streamed = xq::Execute(*compiled, streamed_opts);
  auto materialized = xq::Execute(*compiled, materializing_opts);
  EXPECT_EQ(streamed.ok(), materialized.ok()) << query;
  if (!streamed.ok() || !materialized.ok()) return "<ERROR>";
  EXPECT_EQ(streamed->SerializedItems(), materialized->SerializedItems())
      << "streamed and materializing evaluators diverge on: " << query;
  // The materializing arm never pulls through the pipeline.
  EXPECT_EQ(materialized->stats.nodes_pulled, 0u) << query;
  return streamed->SerializedItems();
}

TEST(Streaming, AgreesOnCorePathShapes) {
  const char* queries[] = {
      "//c",
      "//c/text()",
      "/r/a/b/c",
      "//b[1]",
      "//b[2]",
      "(//b)[1]",
      "(//c)[3]",
      "//a[@k]",
      "//a[@k=\"2\"]",
      "//b[c]",
      "//b[c][1]",
      "//*[@w]",
      "/r/a//c",
      "//a/b/following-sibling::b",
      "//d/ancestor::a",          // reverse axis: streamed reverse merge
      "//c/ancestor::b",
      "//c/ancestor-or-self::*",
      "//c/parent::b",
      "//d/parent::*",
      "//b/preceding-sibling::b",
      "//c/preceding-sibling::*",
      "(//d/ancestor::a)[1]",
      "//c/ancestor::a[1]",       // per-context nearest matching ancestor
      "//c/ancestor::*[2]",
      "//d/ancestor-or-self::d",
      "exists(//c/ancestor::d)",
      "count(//c/ancestor::a)",
      "//d/ancestor::a/c",        // reverse then forward again
      "//@p/ancestor::b",         // attribute context: slotted after owner
      "//@k/parent::a",
      "//a/@k/ancestor-or-self::*",
      "//c[last()]",              // last(): streaming disqualified
      "(//c)[last()]",
      "count(//c)",
      "exists(//b/d)",
      "empty(//nosuch)",
      "exists(//nosuch)",
      "//a[b/c]",
      "string(//c[1])",
  };
  for (const char* q : queries) EvalBothModes(q, kDoc);
}

// The property test: a few hundred randomly composed path expressions,
// evaluated in both modes over a randomly grown document. Any divergence
// between the streamed pipeline and the reference evaluator fails with the
// offending query text.
TEST(Streaming, DifferentialRandomPaths) {
  // The generators live in test_util.h so the server differential test can
  // run the exact same 495-query workload (440 paths, 55 hash-probe shapes)
  // through sessions. Reverse axes appear as explicit prefixes; attribute
  // steps as "@k" (the only attribute name the generator emits), so
  // ancestor-from-attribute exercises the "slotted after owner" order keys.
  std::mt19937 rng(20260806);  // fixed seed: failures must reproduce
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  std::vector<std::string> queries =
      testing::RandomPathWorkloadQueries(&rng, 440);

  int checked = 0;
  for (const std::string& query : queries) {
    EvalBothModes(query, xml);
    ++checked;
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  EXPECT_GE(checked, 495);
}

TEST(Streaming, EarlyExitSkipsWorkOnFirstMatch) {
  // A wide document: one thousand <x> leaves under one root.
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) {
    xml += "<x n=\"" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  auto first = xq::Compile("(//x)[1]");
  ASSERT_TRUE(first.ok());
  auto r = xq::Execute(*first, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "<x n=\"0\"/>");
  // The pipeline stopped after the first match: nearly the whole candidate
  // space was abandoned unvisited, and only a handful of nodes were pulled.
  EXPECT_GT(r->stats.nodes_skipped_early_exit, 900u);
  EXPECT_LT(r->stats.nodes_pulled, 100u);

  auto probe = xq::Compile("exists(//x)");
  ASSERT_TRUE(probe.ok());
  auto e = xq::Execute(*probe, opts);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->SerializedItems(), "true");
  EXPECT_LT(e->stats.nodes_pulled, 100u);

  // The prefixed spellings take the same limit-1 probe (EvalFunctionCall
  // strips "fn:" before the name check).
  for (const char* q : {"fn:exists(//x)", "fn:empty(//x)"}) {
    auto prefixed = xq::Compile(q);
    ASSERT_TRUE(prefixed.ok()) << q;
    auto p = xq::Execute(*prefixed, opts);
    ASSERT_TRUE(p.ok()) << q;
    EXPECT_EQ(p->SerializedItems(),
              std::string(q).find("empty") != std::string::npos ? "false"
                                                                : "true")
        << q;
    EXPECT_LT(p->stats.nodes_pulled, 100u) << q;
  }

  // With streaming off the same queries visit everything and pull nothing
  // through the (absent) pipeline.
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto m = xq::Execute(*first, materializing);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->SerializedItems(), "<x n=\"0\"/>");
  EXPECT_EQ(m->stats.nodes_pulled, 0u);
  EXPECT_EQ(m->stats.nodes_skipped_early_exit, 0u);
}

TEST(Streaming, PerStepPositionalPredicateStopsPerRun) {
  // //item[1] is per-parent: the first item of EVERY group. Early exit
  // applies within each group's run, not to the whole result.
  const std::string xml =
      "<r><g><item>1</item><item>2</item><item>3</item></g>"
      "<g><item>4</item><item>5</item></g></r>";
  // Adjacent text nodes serialize with no separator: "1" then "4".
  EXPECT_EQ(testing::EvalWithContext("//item[1]/text()", xml), "14");
  EXPECT_EQ(EvalBothModes("//item[1]/text()", xml), "14");
  EXPECT_EQ(EvalBothModes("(//item)[1]/text()", xml), "1");
  EXPECT_EQ(EvalBothModes("//item[2]/text()", xml), "25");
  EXPECT_EQ(EvalBothModes("string((//item)[2])", xml), "2");
}

TEST(Streaming, ReverseAxisMergesRunsWithoutSorting) {
  // 40 groups, each a 5-deep <y> chain holding two <x/> leaves: 80 ancestor
  // runs of depth ~6 feed the k-way merge.
  std::string xml = "<r>";
  for (int g = 0; g < 40; ++g) {
    for (int d = 0; d < 5; ++d) xml += "<y>";
    xml += "<x/><x/>";
    for (int d = 0; d < 5; ++d) xml += "</y>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  // Differential agreement on the merge + dedup itself.
  EvalBothModes("count(//x/ancestor::y)", xml);      // 200 after dedup
  EvalBothModes("//x/ancestor::y[1]", xml);          // nearest per context
  EvalBothModes("(//x/ancestor::y)[1]", xml);        // global first
  EvalBothModes("//x/ancestor-or-self::*[2]", xml);
  EvalBothModes("//x/preceding-sibling::x", xml);

  // Every <x> context contributes one non-empty ancestor run to the merge.
  auto compiled = xq::Compile("count(//x/ancestor::y)");
  ASSERT_TRUE(compiled.ok());
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "200");
  EXPECT_EQ(r->stats.reverse_runs_merged, 80u);
  // The merge emits document order directly; no normalizing sort of the
  // 80*5-candidate multiset happens downstream.
  EXPECT_EQ(r->stats.sorts_performed, 0u);

  // The materializing arm never builds runs.
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto m = xq::Execute(*compiled, materializing);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->SerializedItems(), "200");
  EXPECT_EQ(m->stats.reverse_runs_merged, 0u);

  // A per-run [1] predicate keeps only the nearest ancestor and exhausts
  // each run after its first candidate.
  auto nearest = xq::Compile("count(//x/ancestor::y[1])");
  ASSERT_TRUE(nearest.ok());
  auto n = xq::Execute(*nearest, opts);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->SerializedItems(), "40");  // 80 runs, 40 distinct nearest <y>
}

TEST(Streaming, TraceInPredicateKeepsEventParity) {
  // fn:trace inside a step predicate disqualifies streaming for that step
  // (trace-parity rule): the streamed plan must fall back so that BOTH the
  // result bytes and the trace event stream are identical to the
  // materializing evaluator -- even under early-exit probes that would
  // otherwise skip predicate evaluations entirely.
  const std::string xml =
      "<r><x n=\"1\"/><x n=\"2\"/><x n=\"3\"/><x n=\"4\"/></r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "exists(//x[trace(@n, \"probe\")])",
      "(//x[trace(@n, \"first\")])[1]",
      "//x[trace(position()) < 3]",  // trace returns its last argument
      "count(//x[trace(@n, \"all\")])",
  };
  for (const char* q : queries) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    xq::ExecuteOptions materializing = opts;
    materializing.eval.streaming = false;
    auto streamed = xq::Execute(*compiled, opts);
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(streamed.ok() && reference.ok()) << q;
    EXPECT_EQ(streamed->SerializedItems(), reference->SerializedItems()) << q;
    EXPECT_EQ(streamed->trace_output, reference->trace_output)
        << "trace event streams diverge on: " << q;
    EXPECT_FALSE(streamed->trace_output.empty()) << q;
  }
}

TEST(Streaming, NestedProbeSkipsAreNotDoubleCounted) {
  // Each [y] probe early-exits after finding <y/> and abandons the sibling
  // <z/>. Those probe abandons must NOT be charged to
  // nodes_skipped_early_exit: the <z/> candidates are pulled (and charged)
  // by the outer walk afterwards. A full drain therefore skips exactly 0.
  std::string xml = "<r>";
  for (int i = 0; i < 10; ++i) xml += "<x><y/><z/></x>";
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  auto full = xq::Compile("count(//x[y])");
  ASSERT_TRUE(full.ok());
  auto r = xq::Execute(*full, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "10");
  EXPECT_EQ(r->stats.nodes_skipped_early_exit, 0u);

  // Under an outer early exit the charge must be identical whether the
  // nested probe itself early-exited ([y] abandons <z/>) or ran dry ([z]
  // scans past <y/>): only the outer pipeline's unvisited candidates count.
  auto probe_y = xq::Compile("(//x[y])[1]");
  auto probe_z = xq::Compile("(//x[z])[1]");
  ASSERT_TRUE(probe_y.ok() && probe_z.ok());
  auto ry = xq::Execute(*probe_y, opts);
  auto rz = xq::Execute(*probe_z, opts);
  ASSERT_TRUE(ry.ok() && rz.ok());
  EXPECT_EQ(ry->stats.nodes_skipped_early_exit,
            rz->stats.nodes_skipped_early_exit);
  // //x is one descendant::x run, which stops holding the second <x/> as its
  // next front: the floor is the 8 children of <r> it never reached plus
  // the 2 unvisited children of that held <x/>.
  EXPECT_EQ(ry->stats.nodes_skipped_early_exit, 10u);
}

TEST(Streaming, LimitHintStopsPullingEarly) {
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) {
    xml += "<x n=\"" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;

  struct PushedCase {
    const char* query;
    const char* expected;
  };
  const PushedCase cases[] = {
      {"subsequence(//x, 1, 2)", "<x n=\"0\"/><x n=\"1\"/>"},
      {"subsequence(//x, 2, 2)", "<x n=\"1\"/><x n=\"2\"/>"},
      {"fn:head(//x)", "<x n=\"0\"/>"},
      {"for $v at $p in //x where $p le 2 return $v",
       "<x n=\"0\"/><x n=\"1\"/>"},
      {"let $s := //x return head($s)", "<x n=\"0\"/>"},
  };
  for (const PushedCase& c : cases) {
    auto compiled = xq::Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << c.query;
    auto streamed = xq::Execute(*compiled, opts);
    ASSERT_TRUE(streamed.ok()) << c.query;
    EXPECT_EQ(streamed->SerializedItems(), c.expected) << c.query;
    EXPECT_EQ(streamed->stats.limit_pushdowns, 1u) << c.query;
    // The pipeline stopped pulling after the demanded prefix.
    EXPECT_LT(streamed->stats.nodes_pulled, 100u) << c.query;
    EXPECT_GT(streamed->stats.nodes_skipped_early_exit, 900u) << c.query;
    // streaming=false ignores the hint and stays byte-identical.
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(reference.ok()) << c.query;
    EXPECT_EQ(reference->SerializedItems(), c.expected) << c.query;
    EXPECT_EQ(reference->stats.limit_pushdowns, 0u) << c.query;
  }

  // Non-literal bounds, multiple uses, and intervening clauses are not
  // pushed -- the full scan must still produce correct results.
  const char* unpushed[] = {
      "subsequence(//x, 1, count(//x))",
      "let $s := //x return (head($s), count($s))",
      "for $v at $p in //x let $n := $v where $p le 2 return $n",
  };
  for (const char* q : unpushed) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    auto streamed = xq::Execute(*compiled, opts);
    ASSERT_TRUE(streamed.ok()) << q;
    EXPECT_EQ(streamed->stats.limit_pushdowns, 0u) << q;
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(reference.ok()) << q;
    EXPECT_EQ(streamed->SerializedItems(), reference->SerializedItems()) << q;
  }
}

// --- Hash probes vs the scan oracle ----------------------------------------
//
// Marked `@a = K` predicates are answered from a per-query attribute index
// when streaming is on and by the per-candidate loop when it is off. Every
// shape below must give byte-identical results, trace streams and statuses
// in both modes; `probes` says whether the streamed run answers any
// predicate from an index (false = a dynamic condition sends it back to the
// loop).

constexpr char kProbeDoc[] =
    "<r>"
    "<g><x k=\"1\" n=\"3.0\" b=\"true\">a</x><x k=\"2\" n=\"4\">b</x>"
    "<x>c</x><x k=\"1\" b=\"false\">d</x></g>"
    "<g><x k=\"3\">e</x><x k=\"1\" n=\"3\" b=\"1\">f</x><y k=\"1\"/></g>"
    "<x k=\"2\">g</x>"
    "</r>";

struct ProbeOutcome {
  xq::EvalStats stats;
  std::string text;  // serialized result, or the status
};

// Runs `query` streamed twice against one node-set cache (cold, then warm
// interned entries) and once with streaming off, and expects the three to
// agree on result bytes, trace events and status.
ProbeOutcome ExpectProbeMatchesScan(const std::string& query) {
  auto doc = xml::Parse(kProbeDoc, {.strip_insignificant_whitespace = true});
  auto other = xml::Parse("<r><x k=\"1\">h</x><x k=\"2\">i</x></r>");
  EXPECT_TRUE(doc.ok() && other.ok());
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << "\n" << compiled.status().ToString();
  if (!doc.ok() || !other.ok() || !compiled.ok()) return {};
  xq::NodeSetCache streamed_cache(64);
  xq::NodeSetCache scanned_cache(64);
  xq::ExecuteOptions streamed;
  streamed.context_node = (*doc)->root();
  streamed.documents["a"] = (*doc)->root();
  streamed.documents["b"] = (*other)->root();
  streamed.eval.nodeset_cache = &streamed_cache;
  xq::ExecuteOptions scanned = streamed;
  scanned.eval.nodeset_cache = &scanned_cache;
  scanned.eval.streaming = false;

  auto render = [](const Result<xq::QueryResult>& r) {
    if (!r.ok()) return "error: " + r.status().ToString();
    std::string out = r->SerializedItems();
    for (const std::string& line : r->trace_output) out += "\ntrace: " + line;
    return out;
  };
  auto cold = xq::Execute(*compiled, streamed);
  auto warm = xq::Execute(*compiled, streamed);
  auto scan = xq::Execute(*compiled, scanned);
  EXPECT_EQ(render(cold), render(scan)) << "probe diverges: " << query;
  EXPECT_EQ(render(warm), render(scan)) << "warm probe diverges: " << query;
  if (scan.ok()) {
    EXPECT_EQ(scan->stats.probe_filters, 0u) << "streaming=false probed";
  }
  return {cold.ok() ? cold->stats : xq::EvalStats{}, render(scan)};
}

TEST(Streaming, ProbeAgreesWithScanOnEveryShape) {
  struct Case {
    const char* query;
    bool probes;
    const char* expected;  // result bytes, or nullptr to skip the check
  };
  const Case cases[] = {
      // A filter on a let-bound path.
      {"let $s := //x return for $v in (\"1\", \"3\") return $s[@k = $v]",
       true, "<x k=\"1\" n=\"3.0\" b=\"true\">a</x><x k=\"1\" b=\"false\">d</x>"
             "<x k=\"1\" n=\"3\" b=\"1\">f</x><x k=\"3\">e</x>"},
      // An axis step after an interned prefix, and its flipped form.
      {"for $v in (\"2\", \"1\") return //x[@k = $v]/text()", true, "bgadf"},
      {"for $v in (\"2\", \"1\") return //x[$v = @k]/text()", true, "bgadf"},
      {"for $v in //y/@k return /r/g/x[@k = $v]/text()", true, "adf"},
      // A multi-valued key, and a node-valued one.
      {"for $v in \"3\" return //x[@k = ($v, \"2\")]/text()", true, "beg"},
      {"let $s := //x return $s[@k = doc(\"a\")//y/@k]/text()", true, "adf"},
      // Numeric and boolean keys fall back: @n = 3 matches "3.0".
      {"let $s := //x for $v in 3 return $s[@n = $v]/text()", false, "af"},
      {"for $v in 3 return //x[@n = $v]/text()", false, "af"},
      {"let $s := //x for $v in \"t\" return $s[@b = ($v eq \"t\")]/text()",
       false, "af"},
      // An empty key.
      {"let $s := //x let $none := () return count($s[@k = $none])", true,
       "0"},
      {"count(for $v in () return //x[@k = $v])", false, "0"},
      // Candidates that lack @a (most <x> have no @n).
      {"let $s := //x return $s[@n = \"4\"]/text()", true, "b"},
      // Duplicate candidates keep both copies.
      {"let $x := (//x)[1] return count(($x, $x)[@k = \"1\"])", true, "2"},
      {"let $s := //x return count(($s, $s)[@k = \"1\"])", true, "6"},
      // Candidates from two documents fall back.
      {"(doc(\"a\")//x, doc(\"b\")//x)[@k = \"1\"]/text()", false, nullptr},
      // Candidates constructed in the arena.
      {"let $c := (<e k=\"1\">p</e>, <e k=\"2\">q</e>, <e k=\"1\">r</e>) "
       "for $v in \"1\" return $c[@k = $v]/text()",
       true, "pr"},
      // A probe followed by [1] / [2] on a child step with several parents.
      {"for $v in \"1\" return //x[@k = $v][1]/text()", true, "af"},
      {"for $v in \"1\" return //x[@k = $v][2]/text()", true, "d"},
      {"for $v in \"1\" return //x[@k = $v][last()]/text()", true, "df"},
      {"for $v in \"1\" return /r/g/*[@k = $v][2]/text()", true, "d"},
      // Later probes on the hits of an earlier one.
      {"for $v in \"1\" return //x[@k = $v][@b = \"false\"]/text()", true,
       "d"},
      // A probe that is not the step's only predicate on another axis.
      {"for $v in \"1\" return //g/descendant::x[@k = $v][1]/text()", false,
       "af"},
      {"for $v in \"1\" return //g/descendant::x[@k = $v]/text()", true,
       "adf"},
      // Positions of a filter step count across the whole sequence.
      {"let $s := //x for $v in \"1\" return $s[@k = $v][2]/text()", true,
       "d"},
  };
  for (const Case& c : cases) {
    ProbeOutcome out = ExpectProbeMatchesScan(c.query);
    if (c.expected != nullptr) {
      EXPECT_EQ(out.text, c.expected) << c.query;
    }
    if (c.probes) {
      EXPECT_GT(out.stats.probe_filters, 0u) << c.query;
    } else {
      EXPECT_EQ(out.stats.probe_filters, 0u) << c.query;
    }
  }
}

TEST(Streaming, ProbeKeysThatTraceOrFailKeepParity) {
  // A key that calls trace() is never marked: the trace stream must not
  // lose the per-candidate events.
  const char* traced =
      "for $v in \"1\" return //x[@k = trace($v, \"key\")]/text()";
  ProbeOutcome out = ExpectProbeMatchesScan(traced);
  EXPECT_EQ(out.stats.probe_filters, 0u);
  EXPECT_NE(out.text.find("trace: "), std::string::npos) << out.text;

  // A key that raises an error: the same Status in both modes, whether the
  // probe runs on a filter or after an interned prefix -- and no error at
  // all when there are no candidates to test.
  const char* failing[] = {
      "let $s := //x return $s[@k = (\"zz\" cast as xs:integer)]",
      "for $v in \"zz\" return //x[@k = ($v cast as xs:integer)]",
      "for $v in \"1\" return //x[@k = $v][@n = (\"zz\" cast as xs:integer)]",
      "let $s := (//x)[1] return $s[@k = (\"zz\" cast as xs:integer)]",
  };
  for (const char* q : failing) {
    out = ExpectProbeMatchesScan(q);
    EXPECT_EQ(out.text.rfind("error: ", 0), 0u) << q << " -> " << out.text;
  }
  const char* empty[] = {
      "let $s := //nosuch return $s[@k = (\"zz\" cast as xs:integer)]",
      "for $v in \"zz\" return //nosuch[@k = ($v cast as xs:integer)]",
  };
  for (const char* q : empty) {
    out = ExpectProbeMatchesScan(q);
    EXPECT_EQ(out.text, "") << q;
  }
}

TEST(Streaming, ProbeIndexIsBuiltOncePerCandidateList) {
  // 200 keys probing one 200-candidate list: one index, 200 lookups.
  std::string xml = "<r>";
  for (int i = 0; i < 200; ++i) {
    xml += "<x id=\"n" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  auto compiled = xq::Compile(
      "let $s := //x return count(for $i in 0 to 199 "
      "return $s[@id = concat(\"n\", string($i))])");
  ASSERT_TRUE(compiled.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "200");
  EXPECT_EQ(r->stats.probe_filters, 200u);
  EXPECT_EQ(r->stats.probe_index_builds, 1u);
}

TEST(Streaming, DeepTreeDoesNotOverflowTheStack) {
  // A 100k-deep element chain. Built programmatically (the parser is not
  // under test here); both the streamed descendant walk and the
  // materializing CollectDescendants must traverse it iteratively.
  constexpr size_t kDepth = 100000;
  xml::Document doc;
  xml::Node* cursor = doc.root();
  for (size_t i = 0; i < kDepth; ++i) {
    xml::Node* child = doc.CreateElement(i + 1 == kDepth ? "leaf" : "n");
    ASSERT_TRUE(cursor->AppendChild(child).ok());
    cursor = child;
  }

  auto count = xq::Compile("count(//n)");
  ASSERT_TRUE(count.ok());
  xq::ExecuteOptions opts;
  opts.context_node = doc.root();
  auto streamed = xq::Execute(*count, opts);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->SerializedItems(), std::to_string(kDepth - 1));

  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto reference = xq::Execute(*count, materializing);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->SerializedItems(), std::to_string(kDepth - 1));

  // Early exit deep in the chain must unwind iteratively too.
  auto probe = xq::Compile("exists(//leaf)");
  ASSERT_TRUE(probe.ok());
  auto e = xq::Execute(*probe, opts);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->SerializedItems(), "true");
}

}  // namespace
}  // namespace lll
