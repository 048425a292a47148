// EXPLAIN: the facility that finally answers "what did the optimizer do to
// my query?". Golden-substring tests over the rendered output: section
// structure, provenance, and one note per rewrite family (constant folds,
// dead lets, swallowed traces, order-analysis verdicts, hash probes,
// descendant fusion).

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/explain.h"
#include "xml/parser.h"
#include "xquery/engine.h"

namespace lll {
namespace {

std::string ExplainQuery(const std::string& source,
                         const xq::CompileOptions& copts = {},
                         const obs::ExplainOptions& eopts = {}) {
  auto compiled = xq::Compile(source, copts);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return obs::Explain(*compiled, eopts);
}

TEST(ExplainTest, SectionsAndProvenanceHeader) {
  obs::ExplainOptions eo;
  eo.provenance = "compile cache miss (compiled)";
  std::string out = ExplainQuery("1 + 2", {}, eo);
  EXPECT_NE(out.find("EXPLAIN"), std::string::npos) << out;
  EXPECT_NE(out.find("compile cache miss (compiled)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("== plan =="), std::string::npos) << out;
  EXPECT_NE(out.find("== rewrites =="), std::string::npos) << out;
  EXPECT_NE(out.find("== summary =="), std::string::npos) << out;
}

TEST(ExplainTest, ConstantFoldIsAnnotated) {
  std::string out = ExplainQuery("1 + 2");
  EXPECT_NE(out.find("constant-folded"), std::string::npos) << out;
  // The plan shows the folded literal, not the original addition.
  EXPECT_NE(out.find("3"), std::string::npos) << out;
}

TEST(ExplainTest, DeadLetAndSwallowedTraceAreAnnotatedWithLocation) {
  std::string out = ExplainQuery(
      "let $dbg := trace(\"gone\", 1)\n"
      "return 7");
  EXPECT_NE(out.find("dead-let-eliminated"), std::string::npos) << out;
  EXPECT_NE(out.find("trace-swallowed"), std::string::npos) << out;
  EXPECT_NE(out.find("$dbg"), std::string::npos) << out;
  // Every note carries its source position; the let sits on line 1.
  EXPECT_NE(out.find("1:"), std::string::npos) << out;
}

TEST(ExplainTest, RecognizeTraceLeavesNoSwallowNote) {
  xq::CompileOptions copts;
  copts.optimizer.recognize_trace = true;
  std::string out = ExplainQuery(
      "let $dbg := trace(\"kept\", 1)\n"
      "return 7",
      copts);
  EXPECT_EQ(out.find("trace-swallowed"), std::string::npos) << out;
}

TEST(ExplainTest, OrderAnalysisVerdictShowsInPlanAndNotes) {
  std::string out = ExplainQuery("/library/book/title");
  // PR 2's order analysis proves forward child chains document-ordered;
  // EXPLAIN surfaces both the [ordered] plan annotation and the note.
  EXPECT_NE(out.find("[ordered]"), std::string::npos) << out;
  EXPECT_NE(out.find("ordered-step"), std::string::npos) << out;
  EXPECT_NE(out.find("sort skipped"), std::string::npos) << out;
}

TEST(ExplainTest, ReverseAxisStepsAreMarkedStreamedRev) {
  std::string out = ExplainQuery("//d/ancestor::a");
  EXPECT_NE(out.find("step ancestor::a [streamed-rev]"), std::string::npos)
      << out;
  // Forward steps keep the plain marker.
  EXPECT_NE(out.find("[streamed]"), std::string::npos) << out;
}

TEST(ExplainTest, TracePredicateDisqualifiesStreamingAnnotation) {
  // The trace-parity rule: a predicate containing fn:trace (or any user
  // function) must not be annotated streamable, or EXPLAIN would promise a
  // plan the evaluator refuses to run.
  std::string out = ExplainQuery("//a[trace(@k)]");
  EXPECT_EQ(out.find("child::a [streamed]"), std::string::npos) << out;
  std::string udf = ExplainQuery(
      "declare function local:p($n) { true() }; //a[local:p(.)]");
  EXPECT_EQ(udf.find("child::a [streamed]"), std::string::npos) << udf;
}

TEST(ExplainTest, LimitPushdownShowsHintNoteAndSummary) {
  std::string out = ExplainQuery("subsequence(//a, 1, 3)");
  EXPECT_NE(out.find("[limit 3]"), std::string::npos) << out;
  EXPECT_NE(out.find("limit-pushed"), std::string::npos) << out;
  EXPECT_NE(out.find("limits_pushed: 1"), std::string::npos) << out;

  std::string head = ExplainQuery("head(//a/b)");
  EXPECT_NE(head.find("[limit 1]"), std::string::npos) << head;

  // A non-literal bound cannot be pushed.
  std::string dynamic = ExplainQuery("subsequence(//a, 1, count(//b))");
  EXPECT_EQ(dynamic.find("[limit"), std::string::npos) << dynamic;
  EXPECT_NE(dynamic.find("limits_pushed: 0"), std::string::npos) << dynamic;
}

TEST(ExplainTest, ProbePredicatesAreMarkedNotedAndCounted) {
  // The golden: both forms of a general `=` against a bare attribute step,
  // the mark on each predicate, one located note per probe, the count.
  const std::string golden =
      "EXPLAIN\n"
      "== plan ==\n"
      "Flwor (1:1)\n"
      "  for $v:\n"
      "    Literal \"1\" (1:11)\n"
      "  Path rooted (1:22)\n"
      "    step child::r [ordered] [streamed] [interned]\n"
      "    step child::x [ordered] [streamed]\n"
      "      predicate [probe @k]:\n"
      "        Binary = (1:27)\n"
      "          VarRef $v (1:27)\n"
      "          Path (1:32)\n"
      "            step attribute::k [ordered] [streamed]\n"
      "      predicate [probe @j]:\n"
      "        Binary = (1:36)\n"
      "          Path (1:36)\n"
      "            step attribute::j [ordered] [streamed]\n"
      "          Literal \"2\" (1:41)\n"
      "== rewrites ==\n"
      "  ordered-step (1:22): step child::r proven document-ordered; "
      "normalizing sort skipped\n"
      "  ordered-step (1:32): step attribute::k proven document-ordered; "
      "normalizing sort skipped\n"
      "  ordered-step (1:36): step attribute::j proven document-ordered; "
      "normalizing sort skipped\n"
      "  ordered-step (1:22): step child::x proven document-ordered; "
      "normalizing sort skipped\n"
      "  probe (1:27): @k = key is answered from a per-query hash index of @k "
      "values; the key is evaluated once per candidate list\n"
      "  probe (1:36): @j = key is answered from a per-query hash index of @j "
      "values; the key is evaluated once per candidate list\n"
      "== summary ==\n"
      "  folded_constants: 0\n"
      "  eliminated_lets: 0\n"
      "  eliminated_trace_calls: 0\n"
      "  ordered_steps_annotated: 4\n"
      "  limits_pushed: 0\n"
      "  fused_descendant_steps: 0\n"
      "  probe_predicates: 2\n";
  EXPECT_EQ(ExplainQuery("for $v in \"1\" return /r/x[$v = @k][@j = \"2\"]"),
            golden);

  // Keys that reach outside the candidate's reach stay marked: a path with
  // a base, even one climbing out of it.
  for (const char* marked : {"//x[@k = $v/c]", "//x[@k = $v/..]",
                             "//x[@k = (\"a\", string($v))]"}) {
    EXPECT_NE(ExplainQuery(marked).find("probe_predicates: 1"),
              std::string::npos)
        << marked;
  }
  // Not probes: other comparisons, no bare attribute step, and keys that
  // read the focus, build nodes, or call trace/error/user/unknown functions.
  const char* unmarked[] = {
      "//x[@k eq $v]",
      "//x[@k != $v]",
      "//x[@* = $v]",
      "//x[@k = .]",
      "//x[@k = @j]",
      "//x[@k = /r/@k]",
      "//x[@k = name()]",
      "//x[@k = position()]",
      "//x[@k = <a/>]",
      "//x[@k = trace($v, \"t\")]",
      "//x[@k = error()]",
      "//x[@k = nosuch($v)]",
      "declare function local:f($a) { $a }; //x[@k = local:f($v)]",
  };
  for (const char* q : unmarked) {
    std::string out = ExplainQuery(q);
    EXPECT_EQ(out.find("[probe"), std::string::npos) << q << "\n" << out;
    EXPECT_NE(out.find("probe_predicates: 0"), std::string::npos) << q;
  }
  // An unoptimized plan carries no marks, so it never probes.
  xq::CompileOptions copts;
  copts.optimize = false;
  EXPECT_EQ(ExplainQuery("//x[@k = $v]", copts).find("[probe"),
            std::string::npos);
}

TEST(ExplainTest, DescendantFusionIsShownNotedAndCounted) {
  // Both `//` pairs fuse: the plan shows one descendant step each, with the
  // position-free predicate kept on it, one located note per fusion, and
  // the count.
  const std::string golden =
      "EXPLAIN\n"
      "== plan ==\n"
      "Path rooted (1:1)\n"
      "  step descendant::a [ordered] [streamed] [interned]\n"
      "  step descendant::b [streamed] [interned]\n"
      "    predicate:\n"
      "      Path (1:8)\n"
      "        step child::c [ordered] [streamed]\n"
      "== rewrites ==\n"
      "  descendant-fused (1:1): descendant-or-self::node()/child::a fused "
      "into descendant::a; no predicate observes position\n"
      "  descendant-fused (1:1): descendant-or-self::node()/child::b fused "
      "into descendant::b; no predicate observes position\n"
      "  ordered-step (1:1): step descendant::a proven document-ordered; "
      "normalizing sort skipped\n"
      "  ordered-step (1:8): step child::c proven document-ordered; "
      "normalizing sort skipped\n"
      "== summary ==\n"
      "  folded_constants: 0\n"
      "  eliminated_lets: 0\n"
      "  eliminated_trace_calls: 0\n"
      "  ordered_steps_annotated: 2\n"
      "  limits_pushed: 0\n"
      "  fused_descendant_steps: 2\n"
      "  probe_predicates: 0\n";
  EXPECT_EQ(ExplainQuery("//a//b[c]"), golden);
}

TEST(ExplainTest, PositionDependentPredicatesKeepBothSteps) {
  // A predicate that can see position counts it among ONE parent's children,
  // so `//x[P]` keeps its two steps and filters each parent's x children on
  // their own. b holds x1; a holds x2, x3; c holds x4, x5. Fused, every
  // answer below would differ.
  auto doc = xml::Parse(
      "<r><a><b><x n=\"1\"/></b><x n=\"2\"><y/></x><x n=\"3\"/></a>"
      "<c><x n=\"4\"><y/></x><x n=\"5\"/></c></r>");
  ASSERT_TRUE(doc.ok());
  struct Case {
    const char* query;
    const char* ns;  // the n of each selected x, in document order
  };
  const Case cases[] = {
      {"//x[1]", "1 2 4"},                    // fused: 1
      {"//x[last()]", "1 3 5"},               // fused: 5
      {"//x[position() = 2]", "3 5"},         // fused: 2
      {"let $n := 2 return //x[$n]", "3 5"},  // fused: 2
      {"//x[count(y)]", "2 4"},               // fused: none
      {"//x[trace(\"t\", string(@n))]", "1 2 3 4 5"},
  };
  for (const Case& c : cases) {
    std::string plan = ExplainQuery(c.query);
    EXPECT_NE(plan.find("step descendant-or-self::node()"), std::string::npos)
        << c.query << "\n" << plan;
    EXPECT_NE(plan.find("step child::x"), std::string::npos) << c.query;
    EXPECT_NE(plan.find("fused_descendant_steps: 0"), std::string::npos)
        << c.query;
    for (bool streaming : {true, false}) {
      xq::ExecuteOptions opts;
      opts.context_node = (*doc)->root();
      opts.eval.streaming = streaming;
      auto r = xq::Run(std::string("for $x in ") + c.query +
                           " return string($x/@n)",
                       opts);
      ASSERT_TRUE(r.ok()) << c.query;
      EXPECT_EQ(r->SerializedItems(), c.ns) << c.query;
      if (std::string(c.query).find("trace") != std::string::npos) {
        // Parents in document order, each parent's x children in turn: a
        // (x2, x3) comes before b (x1). Fused, the trace would run 1..5.
        EXPECT_EQ(r->trace_output,
                  (std::vector<std::string>{"(t) (2)", "(t) (3)", "(t) (1)",
                                            "(t) (4)", "(t) (5)"}))
            << "streaming=" << streaming;
      }
    }
  }
}

TEST(ExplainTest, UnoptimizedCompileHasNoRewrites) {
  xq::CompileOptions copts;
  copts.optimize = false;
  std::string out = ExplainQuery("1 + 2", copts);
  // The plan shows the raw addition and the rewrite log is empty.
  EXPECT_EQ(out.find("constant-folded"), std::string::npos) << out;
  EXPECT_NE(out.find("+"), std::string::npos) << out;
}

TEST(ExplainTest, FunctionsAndVariablesGetTheirOwnSections) {
  std::string out = ExplainQuery(
      "declare function local:twice($x) { $x * 2 };\n"
      "declare variable $base := 10;\n"
      "local:twice($base)");
  EXPECT_NE(out.find("== function local:twice#1 =="), std::string::npos)
      << out;
  EXPECT_NE(out.find("== variable $base =="), std::string::npos) << out;
}

TEST(ExplainExprTest, DepthCapElides) {
  xq::CompileOptions copts;
  copts.optimize = false;
  auto compiled = xq::Compile("((((1))))+(2+(3+(4+(5+6))))", copts);
  ASSERT_TRUE(compiled.ok());
  std::string shallow =
      obs::ExplainExpr(*compiled->module().body, /*max_depth=*/1);
  EXPECT_NE(shallow.find("..."), std::string::npos) << shallow;
  std::string deep = obs::ExplainExpr(*compiled->module().body);
  EXPECT_EQ(deep.find("..."), std::string::npos) << deep;
}

}  // namespace
}  // namespace lll
