// Tests for the streaming path pipeline: differential agreement with the
// materializing evaluator (hash probes and the call memo included),
// early-exit accounting, and the deep-tree regression for the iterative
// descendant collector.

#include <cstddef>
#include <cstdio>
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

TEST(Streaming, UnoptimizedPlansStillStream) {
  // Streamability is resolved for every plan, not only optimized ones: an
  // optimize=false compile of /r/a still runs through the pipeline.
  auto doc = xml::Parse("<r><a/><b/><a/></r>");
  ASSERT_TRUE(doc.ok());
  xq::CompileOptions plain;
  plain.optimize = false;
  auto compiled = xq::Compile("/r/a", plain);
  ASSERT_TRUE(compiled.ok());
  for (const xq::PathStep& step : compiled->module().body->steps) {
    EXPECT_TRUE(step.streamable);
  }
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence.size(), 2u);
  EXPECT_GT(r->stats.nodes_pulled, 0u);
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

  // The prefixed spellings take the same limit-1 probe (the binder strips
  // "fn:" before the plan's limit rule reads the call).
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

TEST(Streaming, AccountingIsExactPerShape) {
  // Exact counters for shapes spanning every streamable axis: forward
  // chains from many contexts, nearest and second ancestors over shared
  // chains, reverse steps from attribute contexts, forward -> reverse ->
  // forward chains, early exits through limits and literal [N], and a
  // nested exists() inside a streamed predicate (whose own skips the outer
  // pipeline charges). The last shape falls back to materializing.
  constexpr char kPinDoc[] =
      "<r>"
      "<y k=\"1\"><y><x/><x k=\"2\"/><z/><x/></y><x/></y>"
      "<y><x k=\"3\"><y><x/></y></x></y>"
      "<a><b><c/><d/></b><b><c k=\"4\"/></b><c/></a>"
      "<x/>"
      "</r>";
  struct Pin {
    const char* query;
    size_t items, pulled, skipped, reverse_runs, sorts, pushdowns;
  };
  const Pin pins[] = {
      {"//b/c", 2, 23, 0, 0, 0, 0},
      {"(//y//x)[3]", 1, 19, 3, 0, 0, 1},
      {"//x/following-sibling::*[1]", 2, 22, 3, 0, 0, 0},
      {"count(//y/descendant-or-self::y)", 1, 38, 0, 0, 0, 0},
      {"//x/@k", 2, 22, 0, 0, 0, 0},
      {"//x/ancestor::y[1]", 4, 28, 6, 6, 0, 0},
      {"//x/ancestor::y[2]", 2, 37, 4, 4, 0, 0},
      {"//x/preceding-sibling::x[1]", 2, 27, 1, 2, 0, 0},
      {"//x/parent::*", 5, 27, 0, 7, 0, 0},
      {"//@k/ancestor-or-self::*", 9, 46, 0, 4, 0, 0},
      {"//@k/parent::*", 4, 29, 0, 4, 0, 0},
      {"//@k/preceding-sibling::*", 0, 25, 0, 0, 0, 0},
      {"//x[@k]/ancestor::y/x", 5, 36, 0, 2, 0, 7},
      {"(//c/parent::b/following-sibling::*)[1]", 1, 26, 0, 2, 0, 1},
      {"exists(//x/ancestor::y)", 1, 45, 0, 6, 0, 1},
      {"fn:head(//x/preceding-sibling::*)", 1, 28, 0, 4, 0, 1},
      {"//y[exists(.//x[@k])]/x", 5, 44, 0, 0, 0, 14},
      {"(//y[exists(x/following-sibling::z)])[1]", 1, 32, 0, 0, 0, 5},
      {"//x/ancestor::y[last()]/x", 2, 0, 0, 0, 2, 0},
  };
  auto doc = xml::Parse(kPinDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  for (const Pin& pin : pins) {
    EvalBothModes(pin.query, kPinDoc);
    auto compiled = xq::Compile(pin.query);
    ASSERT_TRUE(compiled.ok()) << pin.query;
    auto r = xq::Execute(*compiled, opts);
    ASSERT_TRUE(r.ok()) << pin.query;
    EXPECT_EQ(r->sequence.size(), pin.items) << pin.query;
    EXPECT_EQ(r->stats.nodes_pulled, pin.pulled) << pin.query;
    EXPECT_EQ(r->stats.nodes_skipped_early_exit, pin.skipped) << pin.query;
    EXPECT_EQ(r->stats.reverse_runs_merged, pin.reverse_runs) << pin.query;
    EXPECT_EQ(r->stats.sorts_performed, pin.sorts) << pin.query;
    EXPECT_EQ(r->stats.limit_pushdowns, pin.pushdowns) << pin.query;
  }
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

  struct LimitedCase {
    const char* query;
    const char* expected;
    // The floor on abandoned candidates. A predicate's probe leaves its
    // abandons for the outer pipeline to charge (see
    // NestedProbeSkipsAreNotDoubleCounted), and the outer /r abandons none.
    size_t min_skipped;
  };
  const LimitedCase cases[] = {
      {"fn:head(//x)", "<x n=\"0\"/>", 900},
      {"exists(//x)", "true", 900},
      {"(//x)[2]", "<x n=\"1\"/>", 900},
      {"count(/r[x])", "1", 0},
  };
  for (const LimitedCase& c : cases) {
    auto compiled = xq::Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << c.query;
    auto streamed = xq::Execute(*compiled, opts);
    ASSERT_TRUE(streamed.ok()) << c.query;
    EXPECT_EQ(streamed->SerializedItems(), c.expected) << c.query;
    // One streamed pipeline ran under the plan's hint, and it stopped
    // pulling after the demanded prefix.
    EXPECT_EQ(streamed->stats.limit_pushdowns, 1u) << c.query;
    EXPECT_LT(streamed->stats.nodes_pulled, 100u) << c.query;
    EXPECT_GE(streamed->stats.nodes_skipped_early_exit, c.min_skipped)
        << c.query;
    // streaming=false ignores the hint and stays byte-identical.
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(reference.ok()) << c.query;
    EXPECT_EQ(reference->SerializedItems(), c.expected) << c.query;
    EXPECT_EQ(reference->stats.limit_pushdowns, 0u) << c.query;
  }

  // Same answer, not limited: consumers outside the rule, a second use, and
  // a hinted path whose steps cannot stream all scan in full.
  const char* unlimited[] = {
      "subsequence(//x, 1, 2)",
      "subsequence(//x, 1, count(//x))",
      "for $v at $p in //x where $p le 2 return $v",
      "for $v at $p in //x let $n := $v where $p le 2 return $n",
      "let $s := //x return head($s)",
      "let $s := //x return (head($s), count($s))",
      "exists(//x[last()])",
  };
  for (const char* q : unlimited) {
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

TEST(Streaming, OneNodeStepsSkipThePipeline) {
  // A child or attribute step without predicates from one context node
  // walks the axis list directly. Adding an always-true predicate sends the
  // same step through the pipeline, which must agree on the result and on
  // limit_pushdowns; the direct walk never pulls more candidates (the
  // pipeline pulled one past a limit).
  auto doc = xml::Parse(
      "<r><e a=\"1\" b=\"2\">t<x/>u<x k=\"v\"/><y/>w</e>"
      "<e><x/></e><e/></r>",
      {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions streamed;
  streamed.context_node = (*doc)->root();
  xq::ExecuteOptions materializing = streamed;
  materializing.eval.streaming = false;

  const char* contexts[] = {"//e", "//e/@*", "//e/text()"};
  const char* steps[] = {"x", "@a", "@*", "node()", "text()"};
  const char* wrappers[] = {"%s", "exists(%s)", "head(%s)", "(%s)[1]"};
  size_t pushed = 0;
  for (const char* context : contexts) {
    for (const char* step : steps) {
      for (const char* wrapper : wrappers) {
        auto query = [&](const std::string& path) {
          char body[96];
          std::snprintf(body, sizeof(body), wrapper, path.c_str());
          return "for $n in " + std::string(context) + " return " + body;
        };
        const std::string direct = query("$n/" + std::string(step));
        const std::string piped =
            query("$n/" + std::string(step) + "[true()]");
        auto compiled_direct = xq::Compile(direct);
        auto compiled_piped = xq::Compile(piped);
        ASSERT_TRUE(compiled_direct.ok()) << direct;
        ASSERT_TRUE(compiled_piped.ok()) << piped;
        auto fast = xq::Execute(*compiled_direct, streamed);
        auto oracle = xq::Execute(*compiled_direct, materializing);
        auto pipeline = xq::Execute(*compiled_piped, streamed);
        ASSERT_TRUE(fast.ok() && oracle.ok() && pipeline.ok()) << direct;
        EXPECT_EQ(fast->SerializedItems(), oracle->SerializedItems())
            << direct;
        EXPECT_EQ(fast->SerializedItems(), pipeline->SerializedItems())
            << direct;
        EXPECT_EQ(fast->stats.limit_pushdowns, pipeline->stats.limit_pushdowns)
            << direct;
        EXPECT_LE(fast->stats.nodes_pulled, pipeline->stats.nodes_pulled)
            << direct;
        pushed += fast->stats.limit_pushdowns;
      }
    }
  }
  // The wrappers did put limits on the one-node steps.
  EXPECT_GT(pushed, 0u);

  // One element's first child under a limit: one candidate examined, the
  // rest charged as skipped.
  auto first = xq::Run("let $e := (//e)[1] return head($e/node())", streamed);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->SerializedItems(), "t");
  EXPECT_EQ(first->stats.limit_pushdowns, 2u);  // (//e)[1] and the head
  EXPECT_GE(first->stats.nodes_skipped_early_exit, 4u);
}

TEST(Streaming, PositionalFiltersPickTheirItem) {
  // [N] and [last()] keep at most one candidate, which streaming picks by
  // index instead of evaluating the predicate once per candidate.
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) {
    xml += "<g><x n=\"" + std::to_string(i) + "\"/></g>";
  }
  xml += "</r>";
  const char* queries[] = {
      "(//x)[last()]/@n",         "(//x)[last()]/ancestor::g/x/@n",
      "(//x)[3]/@n",              "(//x)[0]",
      "(//x)[2000]",              "(1 to 5)[last()]",
      "(1 to 5)[2]",              "count(//g/x[last()])",
      "(//x)[last()][1]/@n",      "(//x)[position() = last()]/@n",
  };
  for (const char* query : queries) {
    EvalBothModes(query, xml);
  }
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions streamed;
  streamed.context_node = (*doc)->root();
  xq::ExecuteOptions materializing = streamed;
  materializing.eval.streaming = false;
  auto compiled = xq::Compile("(//x)[last()]/@n");
  ASSERT_TRUE(compiled.ok());
  auto picked = xq::Execute(*compiled, streamed);
  auto looped = xq::Execute(*compiled, materializing);
  ASSERT_TRUE(picked.ok() && looped.ok());
  EXPECT_EQ(picked->SerializedItems(), "n=\"999\"");
  // The loop evaluates last() once per candidate.
  EXPECT_LT(picked->stats.steps, 20u);
  EXPECT_GT(looped->stats.steps, 1000u);
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

// What a differential compares of one execution: the result bytes and the
// trace lines, or the status.
std::string Render(const Result<xq::QueryResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out = r->SerializedItems();
  for (const std::string& line : r->trace_output) out += "\ntrace: " + line;
  return out;
}

// Runs `query` over `xml` streamed twice against one node-set cache (cold,
// then warm interned entries) and once with streaming off, and expects the
// three to agree on result bytes, trace events and status.
ProbeOutcome ExpectProbeMatchesScan(const std::string& query,
                                    const char* xml = kProbeDoc) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
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

  auto cold = xq::Execute(*compiled, streamed);
  auto warm = xq::Execute(*compiled, streamed);
  auto scan = xq::Execute(*compiled, scanned);
  EXPECT_EQ(Render(cold), Render(scan)) << "probe diverges: " << query;
  EXPECT_EQ(Render(warm), Render(scan)) << "warm probe diverges: " << query;
  if (scan.ok()) {
    EXPECT_EQ(scan->stats.probe_filters, 0u) << "streaming=false probed";
  }
  return {cold.ok() ? cold->stats : xq::EvalStats{}, Render(scan)};
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
      // A probe followed by [1] / [2] on a child step with several parents:
      // the plan extends only position-free steps, so these stream with
      // their per-context predicates; [last()] probes per context in the
      // materializing loop.
      {"for $v in \"1\" return //x[@k = $v][1]/text()", false, "af"},
      {"for $v in \"1\" return //x[@k = $v][2]/text()", false, "d"},
      {"for $v in \"1\" return //x[@k = $v][last()]/text()", true, "df"},
      {"for $v in \"1\" return /r/g/*[@k = $v][2]/text()", false, "d"},
      // Later probes on the hits of an earlier one, on a fused step and on
      // a child step with several parents: both stay probe-extended.
      {"for $v in \"1\" return //x[@k = $v][@b = \"false\"]/text()", true,
       "d"},
      {"for $v in \"1\" return /r/g/x[@k = $v][@b = \"false\"]/text()",
       true, "d"},
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

  // A later predicate that fails on several candidates of a probe-extended
  // step: the error is the one of the candidate the per-context loop meets
  // first, also where that is not the first in document order -- a child
  // step from nested contexts, and a reverse axis.
  const char* nested =
      "<r><a><a><x k=\"1\" n=\"p\"/></a><x k=\"1\" n=\"q\"/></a>"
      "<y k=\"1\" n=\"s\"><y k=\"1\" n=\"t\"><z/></y></y></r>";
  const std::pair<const char*, const char*> first_failing[] = {
      {"for $v in \"1\" return "
       "/r//a/x[@k = $v][(@n cast as xs:integer) gt 0]",
       "\"q\""},
      {"for $v in \"1\" return "
       "/r//z/ancestor::y[@k = $v][(@n cast as xs:integer) gt 0]",
       "\"t\""},
  };
  for (const auto& [q, value] : first_failing) {
    out = ExpectProbeMatchesScan(q, nested);
    EXPECT_NE(out.text.find(value), std::string::npos) << q << " -> "
                                                       << out.text;
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

// --- The call memo (DESIGN.md section 19) -----------------------------------

// A metamodel with a subtype chain and a model typed by it: the shape of the
// awbql backend's subtype walk.
constexpr char kMetamodel[] =
    "<metamodel>"
    "<node-type name=\"Thing\"/>"
    "<node-type name=\"Person\" extends=\"Thing\"/>"
    "<node-type name=\"User\" extends=\"Person\"/>"
    "<node-type name=\"Admin\" extends=\"User\"/>"
    "<node-type name=\"Program\" extends=\"Thing\"/>"
    "</metamodel>";
constexpr char kModel[] =
    "<awb-model>"
    "<node id=\"n1\" type=\"User\"/><node id=\"n2\" type=\"Admin\"/>"
    "<node id=\"n3\" type=\"Program\"/><node id=\"n4\" type=\"User\"/>"
    "<node id=\"n5\" type=\"Person\"/><node id=\"n6\" type=\"Thing\"/>"
    "</awb-model>";

// The recursive subtype walk the awbql backend generates.
constexpr char kSubtypeProlog[] =
    "declare function local:is-node-subtype($t, $super) {"
    "  if ($t eq $super) then true()"
    "  else"
    "    let $decl := doc(\"metamodel\")//node-type[@name = $t]"
    "    return"
    "      if (empty($decl)) then false()"
    "      else if (empty($decl/@extends)) then false()"
    "      else local:is-node-subtype(string($decl/@extends), $super)"
    "};";

struct MemoOutcome {
  xq::EvalStats streamed;
  xq::EvalStats reference;
  std::string text;  // Render() of the reference run
};

// Runs `query` streamed and with streaming off (no call memo) against the
// model, with the metamodel as doc("metamodel"), and expects the two to
// agree on result bytes, trace lines and status.
MemoOutcome ExpectMemoMatchesReference(const std::string& query) {
  auto metamodel = xml::Parse(kMetamodel);
  auto model = xml::Parse(kModel);
  EXPECT_TRUE(metamodel.ok() && model.ok());
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << "\n" << compiled.status().ToString();
  if (!metamodel.ok() || !model.ok() || !compiled.ok()) return {};
  xq::ExecuteOptions streamed;
  streamed.context_node = (*model)->root();
  streamed.documents["metamodel"] = (*metamodel)->root();
  streamed.documents["model"] = (*model)->root();
  xq::ExecuteOptions reference = streamed;
  reference.eval.streaming = false;
  auto a = xq::Execute(*compiled, streamed);
  auto b = xq::Execute(*compiled, reference);
  EXPECT_EQ(Render(a), Render(b)) << "the call memo diverges on: " << query;
  MemoOutcome out;
  if (a.ok()) out.streamed = a->stats;
  if (b.ok()) {
    out.reference = b->stats;
    EXPECT_EQ(b->stats.function_memo_hits, 0u) << "streaming=false memoized";
  }
  out.text = Render(b);
  return out;
}

TEST(CallMemo, RepeatedCallsAgreeWithTheReferenceAndHit) {
  struct Case {
    std::string query;
    const char* expected;
  };
  const std::string subtype = kSubtypeProlog;
  const Case cases[] = {
      // Strings, integers, doubles, booleans.
      {"declare function local:up($s) { upper-case($s) }; "
       "for $s in (\"ab\", \"cd\", \"ab\", \"ab\") return local:up($s)",
       "AB CD AB AB"},
      {"declare function local:sq($n) { $n * $n }; "
       "for $i in (1, 2, 1, 2, 3) return local:sq($i)",
       "1 4 1 4 9"},
      {"declare function local:half($d) { $d div 2 }; "
       "for $d in (1.5e0, -0.0e0, 1.5e0, 0.0e0, -0.0e0) "
       "return string(local:half($d))",
       nullptr},
      {"declare function local:flip($b) { not($b) }; "
       "for $b in (true(), false(), true()) return local:flip($b)",
       "false true false"},
      // A string and an untypedAtomic of the same text are different keys.
      {"declare function local:kind($v) { $v instance of xs:string }; "
       "for $v in (\"n1\", data(//node[1]/@id), \"n1\", data(//node[1]/@id)) "
       "return local:kind($v)",
       "true false true false"},
      // Nodes, by identity; two arguments; a sequence argument.
      {"declare function local:id($n) { string($n/@id) }; "
       "string-join(for $n in (//node, //node) return local:id($n), \" \")",
       "n1 n2 n3 n4 n5 n6 n1 n2 n3 n4 n5 n6"},
      {"declare function local:pair($a, $b) { concat($a, \"-\", $b) }; "
       "for $i in (1, 2, 1) return local:pair($i, \"x\")",
       "1-x 2-x 1-x"},
      {"declare function local:sum($s) { sum($s) }; "
       "for $i in 1 to 3 return local:sum((1, 2, $i mod 2))",
       "4 3 4"},
      // The subtype walk from a predicate, a FLWOR and a quantifier.
      {subtype + "string-join(//node[local:is-node-subtype(string(@type), "
                 "\"Person\")]/@id, \" \")",
       "n1 n2 n4 n5"},
      {subtype + "for $n in //node where local:is-node-subtype("
                 "string($n/@type), \"User\") return string($n/@id)",
       "n1 n2 n4"},
      {subtype + "for $t in (\"User\", \"Program\") return "
                 "count(//node[local:is-node-subtype(string(@type), $t)])",
       "3 1"},
      {subtype + "every $n in //node satisfies "
                 "local:is-node-subtype(string($n/@type), \"Thing\")",
       "true"},
  };
  for (const Case& c : cases) {
    MemoOutcome out = ExpectMemoMatchesReference(c.query);
    if (c.expected != nullptr) {
      EXPECT_EQ(out.text, c.expected) << c.query;
    }
    EXPECT_GT(out.streamed.function_memo_hits, 0u) << c.query;
    EXPECT_LT(out.streamed.function_calls, out.reference.function_calls)
        << c.query;
  }
}

TEST(CallMemo, AGlobalSetLaterIsNotFrozenByAnInitializer) {
  // local:f() runs first from $a's initializer, before $g is set: its
  // answer there must not be reused once the prolog is done.
  MemoOutcome out = ExpectMemoMatchesReference(
      "declare variable $a := local:f(); declare variable $g := 7; "
      "declare function local:f() { try { $g } catch { -1 } }; "
      "($a, local:f(), local:f())");
  EXPECT_EQ(out.text, "-1 7 7");
  EXPECT_EQ(out.streamed.function_memo_hits, 1u);
}

TEST(CallMemo, ExcludedCallsRunEveryTime) {
  struct Case {
    const char* query;
    const char* expected;
  };
  const Case cases[] = {
      // A trace() traces on every call.
      {"declare function local:t($x) { trace($x, \"t\") }; "
       "(local:t(1), local:t(1))",
       "t t\ntrace: (1) (t)\ntrace: (1) (t)"},
      // Constructed nodes are fresh on every call, directly or not.
      {"declare function local:mk() { <a/> }; local:mk() is local:mk()",
       "false"},
      {"declare function local:mk() { <a/> }; "
       "declare function local:wrap() { local:mk() }; "
       "local:wrap() is local:wrap()",
       "false"},
      {"declare function local:p() { parse-xml-fragment(\"<a/>\") }; "
       "local:p() is local:p()",
       "false"},
      // An error() caught inside the function traces on every call.
      {"declare function local:e($x) { try { error(\"boom\") } catch { $x } }; "
       "(local:e(1), local:e(1))",
       "1 1\ntrace: error: boom\ntrace: error: boom"},
  };
  for (const Case& c : cases) {
    MemoOutcome out = ExpectMemoMatchesReference(c.query);
    EXPECT_EQ(out.text, c.expected) << c.query;
    EXPECT_EQ(out.streamed.function_memo_hits, 0u) << c.query;
  }
}

TEST(CallMemo, FailuresAreNeverStored) {
  // A typed parameter fails the same way on every call; the passing calls
  // around the failing ones still hit.
  MemoOutcome out = ExpectMemoMatchesReference(
      "declare function local:i($n as xs:integer) { $n + 1 }; "
      "for $v in (1, \"x\", 1, \"x\") return "
      "try { local:i($v) } catch { $err:code }");
  EXPECT_EQ(out.text, "2 TypeError 2 TypeError");
  EXPECT_EQ(out.streamed.function_memo_hits, 1u);
  // So does an error raised by the body.
  out = ExpectMemoMatchesReference(
      "declare function local:d($n) { 1 idiv $n }; "
      "for $v in (0, 0) return try { local:d($v) } catch { \"caught\" }");
  EXPECT_EQ(out.text, "caught caught");
  EXPECT_EQ(out.streamed.function_memo_hits, 0u);
}

TEST(CallMemo, UnkeyedArgumentsAndBoundsStillAnswerExactly) {
  // Arguments that get no key: more than eight items, or a map.
  MemoOutcome out = ExpectMemoMatchesReference(
      "declare function local:c($s) { count($s) }; "
      "(local:c(1 to 9), local:c(1 to 9), local:c(1 to 8), local:c(1 to 8))");
  EXPECT_EQ(out.text, "9 9 8 8");
  EXPECT_EQ(out.streamed.function_memo_hits, 1u);
  out = ExpectMemoMatchesReference(
      "declare function local:m($m) { map:size($m) }; "
      "(local:m(map:new()), local:m(map:new()))");
  EXPECT_EQ(out.text, "0 0");
  EXPECT_EQ(out.streamed.function_memo_hits, 0u);

  // More distinct calls than the table's 4096 entries: the first 4096 are
  // stored, and only those answer the second pass.
  out = ExpectMemoMatchesReference(
      "declare function local:sq($n) { $n * $n }; "
      "sum(for $i in 1 to 5000 return local:sq($i)) - "
      "sum(for $i in 1 to 5000 return local:sq($i))");
  EXPECT_EQ(out.text, "0");
  EXPECT_EQ(out.streamed.function_memo_hits, 4096u);

  // A result of more items than the table may hold is never stored.
  out = ExpectMemoMatchesReference(
      "declare function local:r($n) { 1 to $n }; "
      "for $n in (70000, 70000, 3, 3) return count(local:r($n))");
  EXPECT_EQ(out.text, "70000 70000 3 3");
  EXPECT_EQ(out.streamed.function_memo_hits, 1u);

  // Nor is a result of more string bytes (here 4.9 MB) than it may hold.
  out = ExpectMemoMatchesReference(
      "declare function local:s($x) { "
      "  string-join(for $i in 1 to 600 return $x, \"\") }; "
      "let $k := string-join(for $i in 1 to 1024 return \"abcdefgh\", \"\") "
      "return (string-length(local:s($k)), string-length(local:s($k)))");
  EXPECT_EQ(out.text, "4915200 4915200");
  EXPECT_EQ(out.streamed.function_memo_hits, 0u);
}

}  // namespace
}  // namespace lll
