// The optimizer and the trace-swallowing pathology (E6): "Simply adding the
// trace introduces a dead variable $dummy, which the Galax compiler helpfully
// optimizes away -- along with the call to trace."

#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xquery/nodeset_cache.h"
#include "xquery/optimizer.h"
#include "xquery/parser.h"

namespace lll {
namespace {

// The paper's exact debugging pattern.
constexpr char kDeadTraceQuery[] =
    "let $x := 10 "
    "let $dummy := trace(\"x=\", $x) "
    "let $y := 20 "
    "return $x + $y";

// The workaround: "we had to insinuate trace calls into non-dead code".
constexpr char kInsinuatedTraceQuery[] =
    "let $x := trace(\"x=\", 10) "
    "let $y := 20 "
    "return $x + $y";

TEST(OptimizerE6, GalaxEraDceSwallowsTheTrace) {
  xq::CompileOptions copts;  // defaults: DCE on, trace NOT recognized
  auto query = xq::Compile(kDeadTraceQuery, copts);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_lets, 1u);
  EXPECT_EQ(query->optimizer_stats().eliminated_trace_calls, 1u);

  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "30");         // same answer...
  EXPECT_TRUE(result->trace_output.empty());          // ...but no trace output
  EXPECT_EQ(result->stats.trace_calls, 0u);
}

TEST(OptimizerE6, FixedOptimizerRecognizesTrace) {
  // "The optimizer would be fixed to recognize trace in the next version."
  xq::CompileOptions copts;
  copts.optimizer.recognize_trace = true;
  auto query = xq::Compile(kDeadTraceQuery, copts);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_trace_calls, 0u);

  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "30");
  ASSERT_EQ(result->trace_output.size(), 1u);
  EXPECT_EQ(result->trace_output[0], "(x=) (10)");
}

TEST(OptimizerE6, InsinuatedTraceSurvivesDce) {
  auto query = xq::Compile(kInsinuatedTraceQuery);  // trace NOT recognized
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_trace_calls, 0u);
  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "30");
  EXPECT_EQ(result->trace_output.size(), 1u);
}

TEST(OptimizerE6, DisablingOptimizationKeepsEverything) {
  xq::CompileOptions copts;
  copts.optimize = false;
  auto result = xq::Run(kDeadTraceQuery, {}, copts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace_output.size(), 1u);
}

TEST(Optimizer, DeadLetWithUsedVariableIsKept) {
  auto query = xq::Compile("let $x := 1 let $y := $x + 1 return $y");
  ASSERT_TRUE(query.ok());
  // $x is used by $y, $y by return: nothing eliminated.
  EXPECT_EQ(query->optimizer_stats().eliminated_lets, 0u);
}

TEST(Optimizer, DeadPureLetIsEliminated) {
  auto query = xq::Compile("let $dead := (1,2,3) return 42");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_lets, 1u);
  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "42");
}

TEST(Optimizer, DeadLetWithErrorCallIsKept) {
  // fn:error is never pure; eliminating it would change program outcomes.
  auto query = xq::Compile("let $dead := error(\"boom\") return 42");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_lets, 0u);
  auto result = xq::Execute(*query);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("boom"), std::string::npos);
}

TEST(Optimizer, ShadowedVariableDoesNotCountAsUse) {
  // The inner `let $x` shadows; the outer $x is dead.
  auto query = xq::Compile(
      "let $x := 1 return (let $x := 2 return $x)");
  ASSERT_TRUE(query.ok());
  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "2");
}

TEST(Optimizer, DeadLetInsideUserFunctionIsEliminated) {
  xq::CompileOptions copts;
  auto query = xq::Compile(
      "declare function local:f($a) { "
      "  let $dbg := trace(\"a=\", $a) return $a * 2 }; "
      "local:f(21)",
      copts);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().eliminated_trace_calls, 1u);
  auto result = xq::Execute(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "42");
  EXPECT_TRUE(result->trace_output.empty());
}

TEST(Optimizer, PurityAnalysisOfUserFunctions) {
  auto module = xq::ParseModule(
      "declare function local:pure($x) { $x + 1 }; "
      "declare function local:impure($x) { trace(\"v\", $x) }; "
      "(local:pure(1), local:impure(1))");
  ASSERT_TRUE(module.ok());
  xq::BindNames(&*module);
  const xq::Expr& call_pure = *module->body->children[0];
  const xq::Expr& call_impure = *module->body->children[1];
  EXPECT_TRUE(xq::IsPure(call_pure, /*recognize_trace=*/true));
  EXPECT_FALSE(xq::IsPure(call_impure, /*recognize_trace=*/true));
  // Under the Galax-era policy even the "impure" one looks pure.
  EXPECT_TRUE(xq::IsPure(call_impure, /*recognize_trace=*/false));
}

TEST(Optimizer, PurityIsJudgedOverTheWholeCallGraph) {
  // local:g reaches error() only through local:f, in a cycle that was still
  // open when judging $x first met local:g. local:g was then taken for pure,
  // so dead-let elimination dropped $y and swallowed its error.
  const char* query =
      "declare function local:g($n) { local:f($n) }; "
      "declare function local:f($n) { "
      "  if ($n = 0) then local:g(1) else if ($n = 1) then 0 "
      "  else error(\"reached\") }; "
      "let $x := local:f(0) let $y := local:g(2) return 1";
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    auto result = xq::Run(query, {}, copts);
    ASSERT_FALSE(result.ok()) << "optimize=" << optimize;
    EXPECT_NE(result.status().message().find("reached"), std::string::npos);
  }
  // Recursion alone is judged optimistically.
  auto module = xq::ParseModule(
      "declare function local:even($n) { "
      "  if ($n = 0) then true() else local:odd($n - 1) }; "
      "declare function local:odd($n) { "
      "  if ($n = 0) then false() else local:even($n - 1) }; "
      "local:even(2)");
  ASSERT_TRUE(module.ok());
  xq::BindNames(&*module);
  EXPECT_TRUE(xq::IsPure(*module->body, /*recognize_trace=*/true));
}

TEST(Optimizer, MemoizableFunctionsHaveNoEffectAnywhereTheyReach) {
  struct Case {
    const char* decls;
    std::vector<bool> memoizable;  // per declaration, in order
  };
  const Case cases[] = {
      {"declare function local:a($x) { $x + 1 }; "
       "declare function local:b($x) { doc(\"d\")//t[@n = $x] };",
       {true, true}},
      // Recursion, direct and mutual.
      {"declare function local:even($n) { "
       "  if ($n = 0) then true() else local:odd($n - 1) }; "
       "declare function local:odd($n) { "
       "  if ($n = 0) then false() else local:even($n - 1) };",
       {true, true}},
      // trace() excludes whatever the trace policy, and so do error(), an
      // unknown call, a constructor and parse-xml-fragment -- in the body or
      // anywhere the body reaches, in any order.
      {"declare function local:t($x) { trace($x, \"t\") }; "
       "declare function local:e($x) { try { error() } catch { $x } }; "
       "declare function local:u($x) { local:nosuch($x) }; "
       "declare function local:c($x) { <a>{$x}</a> }; "
       "declare function local:p($x) { parse-xml-fragment($x) };",
       {false, false, false, false, false}},
      {"declare function local:g($n) { local:f($n) }; "
       "declare function local:f($n) { "
       "  if ($n = 0) then local:g(1) else <a/> }; "
       "declare function local:h($n) { local:g($n) };",
       {false, false, false}},
  };
  for (const Case& c : cases) {
    auto query = xq::Compile(std::string(c.decls) + " 1");
    ASSERT_TRUE(query.ok()) << c.decls;
    const auto& functions = query->module().functions;
    ASSERT_EQ(functions.size(), c.memoizable.size()) << c.decls;
    for (size_t i = 0; i < functions.size(); ++i) {
      EXPECT_EQ(functions[i].memoizable, c.memoizable[i])
          << c.decls << " -- " << functions[i].name;
    }
  }
}

// --- Name binding -----------------------------------------------------------
//
// Every call and variable reference is bound once, before any pass reads it,
// and the optimizer and the evaluator both read that one binding. Each query
// below gave one answer with the optimizer on and another with it off while
// they resolved names apart.

// The outcome of `query` compiled with and without the optimizer: the
// serialized result, or the error's code and message.
std::string BothModes(const std::string& query) {
  std::string out[2];
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    auto r = xq::Run(query, {}, copts);
    out[optimize] = r.ok() ? r->SerializedItems()
                           : std::string(StatusCodeName(r.status().code())) +
                                 ": " + r.status().message();
  }
  EXPECT_EQ(out[true], out[false]) << query;
  return out[true];
}

TEST(NameBinding, ArityOverloadsAreJudgedApart) {
  // f#2 is pure, f#1 raises: the dead `let $y` must keep its call.
  EXPECT_EQ(BothModes("declare function local:f($a) { error(\"boom\") }; "
                      "declare function local:f($a, $b) { 1 }; "
                      "let $x := local:f(1, 2) let $y := local:f(1) return 0"),
            "InvalidArgument: fn:error: boom");
}

TEST(NameBinding, AUserFunctionNamedLikeABuiltinIsTheOneCalled) {
  EXPECT_EQ(BothModes("declare function exists($x) { error(\"boom\") }; "
                      "let $d := exists(1) return 2"),
            "InvalidArgument: fn:error: boom");
}

TEST(NameBinding, FunctionBodiesSeeGlobalsNotTheirCallersLocals) {
  const std::string prolog =
      "declare variable $v := 7; declare function local:g() { $v }; ";
  EXPECT_EQ(BothModes(prolog + "let $v := 1 return local:g()"), "7");
  EXPECT_EQ(BothModes(prolog + "for $v in (1, 2) return local:g()"), "7 7");
}

TEST(NameBinding, UnknownNamesFailOnlyWhenEvaluated) {
  EXPECT_EQ(BothModes("if (false()) then nosuch() else 1"), "1");
  EXPECT_EQ(BothModes("if (false()) then $nope else 1"), "1");
  // A builtin's name at an arity it lacks is an unknown function to the
  // optimizer too, so the dead let keeps the call.
  EXPECT_EQ(BothModes("let $x := count(1, 2) return 0"),
            "NotFound: unknown function count#2 at line 1");
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    auto call = xq::Run("nosuch()", {}, copts);
    ASSERT_FALSE(call.ok());
    EXPECT_EQ(call.status().ToString(),
              "NotFound: unknown function nosuch#0 at line 1");
    auto var = xq::Run("$nope", {}, copts);
    ASSERT_FALSE(var.ok());
    EXPECT_EQ(var.status().ToString(),
              "InvalidArgument: variable '$nope' not found at line 1");
  }
}

TEST(NameBinding, ShadowedReferencesBindToTheInnermostBinding) {
  auto query = xq::Compile(
      "let $x := 1 return ($x, for $x in (1,2) return $x, $x + $x)");
  ASSERT_TRUE(query.ok());
  const xq::Expr& flwor = *query->module().body;
  ASSERT_EQ(flwor.kind, xq::ExprKind::kFlwor);
  const uint32_t outer = flwor.clauses[0].slot;
  const xq::Expr& seq = *flwor.children[0];
  ASSERT_EQ(seq.children.size(), 3u);
  const xq::Expr& loop = *seq.children[1];
  const uint32_t inner = loop.clauses[0].slot;
  EXPECT_NE(inner, outer);
  // The head and both operands of the tail read the outer $x; the loop's
  // return reads its own.
  for (const xq::Expr* ref : {seq.children[0].get(),
                              seq.children[2]->children[0].get(),
                              seq.children[2]->children[1].get()}) {
    EXPECT_EQ(ref->scope, xq::Expr::Scope::kLocal);
    EXPECT_EQ(ref->slot, outer);
  }
  EXPECT_EQ(loop.children[0]->slot, inner);
  EXPECT_EQ(query->module().frame_size, 2u);
  // A name nothing binds is an external, looked up by name at Execute.
  xq::ExecuteOptions opts;
  opts.variables["y"] = xdm::Sequence(xdm::Item::Integer(5));
  auto ext = xq::Run("let $x := 1 return $x + $y", opts);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ext->SerializedItems(), "6");
}

// --- Document order -----------------------------------------------------------
//
// Path steps and set operators return nodes in document order without
// duplicates. The streaming pipeline emits that order directly; the
// materializing evaluator sorts after a step unless the step had a single
// context and a forward axis, whose candidates come out in order.

TEST(DocumentOrder, StreamedChainsNeverSort) {
  auto doc = xml::Parse(
      "<r><a><b/><b/></a><a><b/><b/></a><x/><a><b/><x/></a></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  for (const char* q : {"/r/a/b", "//a/b", "//b"}) {
    auto r = xq::Run(q, opts);
    ASSERT_TRUE(r.ok()) << q;
    EXPECT_EQ(r->sequence.size(), 5u) << q;
    EXPECT_GT(r->stats.nodes_pulled, 0u) << q;
    EXPECT_EQ(r->stats.sorts_performed, 0u) << q;
  }
}

TEST(DocumentOrder, SingleContextStepsSkipTheSortWhenMaterializing) {
  // /r/a: child::r from the document node, then child::a from the one r.
  // Each step has a single context, so neither result needs a sort.
  auto doc = xml::Parse("<r><a/><x/><a/><a/></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions materializing;
  materializing.context_node = (*doc)->root();
  materializing.eval.streaming = false;
  auto r = xq::Run("/r/a", materializing);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence.size(), 3u);
  EXPECT_EQ(r->stats.sorts_performed, 0u);
  EXPECT_EQ(r->stats.order_compares, 0u);
  EXPECT_EQ(r->stats.sorts_skipped, 2u);
}

TEST(DocumentOrder, NestedContextsStillSortWhenMaterializing) {
  auto doc = xml::Parse(
      "<r><a><b/><b/></a><a><b/><b/></a><x/><a><b/><x/></a></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto query = xq::Compile("//a/b");
  ASSERT_TRUE(query.ok());

  // //a/b: the child step runs from several a contexts, so the
  // materializing evaluator must really sort.
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto sorted = xq::Execute(*query, materializing);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->sequence.size(), 5u);
  EXPECT_GT(sorted->stats.sorts_performed, 0u);
  EXPECT_GT(sorted->stats.order_compares, 0u);

  // Streamed, the same query needs no sort and agrees item for item.
  auto streamed = xq::Execute(*query, opts);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->stats.sorts_performed, 0u);
  ASSERT_EQ(streamed->sequence.size(), sorted->sequence.size());
  for (size_t i = 0; i < sorted->sequence.size(); ++i) {
    EXPECT_EQ(streamed->sequence.at(i).node(), sorted->sequence.at(i).node())
        << i;
  }
}

TEST(DocumentOrder, UnionOfOverlappingPathsStillNormalizes) {
  auto doc = xml::Parse("<r><a/><b/><a/><b/></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto r = xq::Run("(//b | //a)", opts);
  ASSERT_TRUE(r.ok());
  // Document order restored across the two branches...
  ASSERT_EQ(r->sequence.size(), 4u);
  EXPECT_EQ(r->sequence.at(0).node()->name(), "a");
  EXPECT_EQ(r->sequence.at(1).node()->name(), "b");
  // ...which takes an actual sort.
  EXPECT_GT(r->stats.sorts_performed, 0u);
}

// --- Descendant-step fusion ---------------------------------------------------

// Serialized result (or status code) of `query` under the given options.
std::string Outcome(const std::string& query, const xq::ExecuteOptions& opts) {
  auto r = xq::Run(query, opts);
  if (!r.ok()) return std::string("error: ") + StatusCodeName(r.status().code());
  return r->SerializedItems();
}

TEST(DescendantFusion, AgreesWithTheUnfusedFormOnEveryShape) {
  // B//T[P] against (for $d in B/descendant-or-self::node() return
  // $d/child::T[P]) | (): the loop keeps the two steps in separate paths,
  // so nothing fuses and every parent's children are filtered separately,
  // which is the meaning the fused plan must keep. Every `//` shape of the
  // random path workload: each node test under each predicate, each probe
  // key in both operand orders, and a probe followed by a second predicate,
  // from several bases, over the document node and over a parentless copy
  // of the root element.
  std::mt19937 rng(13);
  auto doc = xml::Parse(testing::RandomPathWorkloadDocument(&rng),
                        {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document arena;
  xml::Node* detached = arena.ImportNode((*doc)->DocumentElement());

  // The vocabulary repeats entries for their draw weight; cover each once.
  std::set<std::string> tests(std::begin(testing::kPathWorkloadTests),
                              std::end(testing::kPathWorkloadTests));
  std::set<std::string> preds(std::begin(testing::kPathWorkloadPredicates),
                              std::end(testing::kPathWorkloadPredicates));
  for (const char* key : testing::kPathWorkloadProbeKeys) {
    const std::string probe = std::string("[@k = ") + key + "]";
    preds.insert(probe);
    preds.insert(std::string("[") + key + " = @k]");
    preds.insert(probe + "[c]");
    preds.insert(probe + "[1]");
  }
  const char* bases[] = {"", "/r", "//a", "/r/*[2]"};
  size_t fused = 0, checked = 0;
  for (xml::Node* context : {(*doc)->root(), detached}) {
    xq::NodeSetCache cache;
    xq::ExecuteOptions streamed;
    streamed.context_node = context;
    streamed.eval.nodeset_cache = &cache;
    xq::ExecuteOptions materializing;
    materializing.context_node = context;
    materializing.eval.streaming = false;
    for (const std::string& test : tests) {
      for (const std::string& pred : preds) {
        for (const char* base : bases) {
          const std::string wrap = "for $v in (\"1\", \"3\") return ";
          const std::string query = wrap + base + "//" + test + pred;
          const std::string unfused =
              wrap + "(for $d in " + base +
              "/descendant-or-self::node() return $d/child::" + test + pred +
              ") | ()";
          auto compiled = xq::Compile(query);
          ASSERT_TRUE(compiled.ok()) << query;
          fused += compiled->optimizer_stats().fused_descendant_steps;
          const std::string want = Outcome(unfused, materializing);
          EXPECT_EQ(Outcome(query, materializing), want) << query;
          EXPECT_EQ(Outcome(query, streamed), want) << query;  // cold
          EXPECT_EQ(Outcome(query, streamed), want) << query;  // warm
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(fused, checked / 2);  // most shapes fuse; positional ones stay
}

TEST(DescendantFusion, FusedStepKeepsItsProbeWithMorePredicates) {
  // //x[@k = $v][c] fuses into one descendant::x step whose first predicate
  // is a probe; the probe extension still interns the bare descendant::x
  // (one miss, then hits) and answers @k from the index, applying the
  // position-free [c] to the hits in the same pass.
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    xml += "<g><x k=\"" + std::to_string(i % 4) + "\">" +
           (i % 3 == 0 ? "<c/>" : "") + "</x></g>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  const std::string query =
      "for $v in (\"0\", \"1\", \"2\") return count(//x[@k = $v][c])";
  auto compiled = xq::Compile(query);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->optimizer_stats().fused_descendant_steps, 1u);
  EXPECT_EQ(compiled->optimizer_stats().probe_predicates, 1u);

  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->SerializedItems(), "4 3 3");
  EXPECT_EQ(r->stats.probe_filters, 3u);
  EXPECT_EQ(r->stats.nodeset_cache_misses, 1u);
  EXPECT_EQ(r->stats.nodeset_cache_hits, 2u);

  xq::ExecuteOptions scan = opts;
  scan.eval.streaming = false;
  scan.eval.nodeset_cache = nullptr;
  auto reference = xq::Execute(*compiled, scan);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->SerializedItems(), r->SerializedItems());
  EXPECT_EQ(reference->stats.probe_filters, 0u);
}

TEST(TraceBehavior, TraceReturnsLastArgument) {
  // "a function which prints the first argument and returns the value of the
  // second" -- our variadic trace generalizes this.
  auto result = xq::Run("trace(\"label\", 1 + 1) * 10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "20");
  ASSERT_EQ(result->trace_output.size(), 1u);
  EXPECT_EQ(result->trace_output[0], "(label) (2)");
}

TEST(TraceBehavior, ErrorKillsTheProgramAndLogs) {
  // error($msg) "prints $msg on the console and kills the program" -- the
  // paper's binary-search debugging tool.
  auto result = xq::Run("(1, error(\"HERE\"), 2)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("HERE"), std::string::npos);
}

}  // namespace
}  // namespace lll
