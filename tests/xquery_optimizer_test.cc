// The optimizer and the trace-swallowing pathology (E6): "Simply adding the
// trace introduces a dead variable $dummy, which the Galax compiler helpfully
// optimizes away -- along with the call to trace."

#include <iterator>
#include <random>
#include <set>
#include <string>

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

TEST(Optimizer, ConstantFolding) {
  auto query = xq::Compile("1 + 2 * 3");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().folded_constants, 2u);
  EXPECT_EQ(xq::ExprToString(*query->module().body), "7");
}

TEST(Optimizer, FoldingLeavesDivisionByZeroForRuntime) {
  auto query = xq::Compile("1 idiv 0");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().folded_constants, 0u);
  EXPECT_FALSE(xq::Execute(*query).ok());
}

TEST(Optimizer, PurityAnalysisOfUserFunctions) {
  auto module = xq::ParseModule(
      "declare function local:pure($x) { $x + 1 }; "
      "declare function local:impure($x) { trace(\"v\", $x) }; "
      "1");
  ASSERT_TRUE(module.ok());
  auto call_pure = xq::ParseExpression("local:pure(1)");
  auto call_impure = xq::ParseExpression("local:impure(1)");
  ASSERT_TRUE(call_pure.ok());
  ASSERT_TRUE(call_impure.ok());
  EXPECT_TRUE(
      xq::IsPure(*call_pure->body, *module, /*recognize_trace=*/true));
  EXPECT_FALSE(
      xq::IsPure(*call_impure->body, *module, /*recognize_trace=*/true));
  // Under the Galax-era policy even the "impure" one looks pure.
  EXPECT_TRUE(
      xq::IsPure(*call_impure->body, *module, /*recognize_trace=*/false));
}

TEST(Optimizer, CountVariableUsesRespectsShadowing) {
  auto module =
      xq::ParseExpression("($x, for $x in (1,2) return $x, $x + $x)");
  ASSERT_TRUE(module.ok());
  // Outer $x used: once at the head, twice at the tail; the loop's own $x
  // uses do not count.
  EXPECT_EQ(xq::CountVariableUses(*module->body, "x"), 3u);
}

// --- Order analysis ---------------------------------------------------------

TEST(OrderAnalysis, TransferOrderLattice) {
  using xq::Axis;
  using xq::OrderProp;
  // Forward step-wise proofs: child/attribute keep disjointness, descendant
  // axes lose it (a descendant set can nest), reverse axes prove nothing.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kChild),
            OrderProp::kOrderedDisjoint);
  EXPECT_EQ(xq::TransferOrder(OrderProp::kOrderedDisjoint, Axis::kChild),
            OrderProp::kOrderedDisjoint);
  EXPECT_EQ(xq::TransferOrder(OrderProp::kOrderedDisjoint, Axis::kAttribute),
            OrderProp::kOrderedDisjoint);
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kDescendant),
            OrderProp::kOrdered);
  EXPECT_EQ(
      xq::TransferOrder(OrderProp::kOrderedDisjoint, Axis::kDescendantOrSelf),
      OrderProp::kOrdered);
  // Ordered-but-possibly-nested input proves nothing for child::—sibling
  // groups of nested contexts interleave.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kOrdered, Axis::kChild),
            OrderProp::kNone);
  EXPECT_EQ(xq::TransferOrder(OrderProp::kOrdered, Axis::kDescendant),
            OrderProp::kNone);
  // self:: preserves whatever the input had.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kOrdered, Axis::kSelf),
            OrderProp::kOrdered);
  // following-sibling only composes from a singleton.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kFollowingSibling),
            OrderProp::kOrderedDisjoint);
  EXPECT_EQ(
      xq::TransferOrder(OrderProp::kOrderedDisjoint, Axis::kFollowingSibling),
      OrderProp::kNone);
  // parent:: from a singleton stays a singleton.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kParent),
            OrderProp::kSingleton);
  // Reverse axes are collected in reverse document order: never proven.
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kAncestor),
            OrderProp::kNone);
  EXPECT_EQ(xq::TransferOrder(OrderProp::kSingleton, Axis::kPrecedingSibling),
            OrderProp::kNone);

  EXPECT_EQ(xq::MeetOrder(OrderProp::kSingleton, OrderProp::kOrdered),
            OrderProp::kOrdered);
  EXPECT_EQ(xq::MeetOrder(OrderProp::kNone, OrderProp::kSingleton),
            OrderProp::kNone);
}

TEST(OrderAnalysis, RootedChildChainIsFullyAnnotated) {
  auto query = xq::Compile("/r/a/b");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().ordered_steps_annotated, 3u);
  const xq::Expr& body = *query->module().body;
  ASSERT_EQ(body.kind, xq::ExprKind::kPath);
  for (const xq::PathStep& s : body.steps) {
    EXPECT_TRUE(s.statically_ordered) << xq::AxisName(s.axis);
  }
}

TEST(OrderAnalysis, DescendantLosesDisjointnessForLaterSteps) {
  // //x[1] == /descendant-or-self::node()/child::x[1] (a positional
  // predicate keeps the pair unfused). The first step is provably
  // ordered (singleton source) but yields a NESTED set, so the child step
  // cannot be proven and keeps its normalizing sort.
  auto query = xq::Compile("//x[1]");
  ASSERT_TRUE(query.ok());
  const xq::Expr& body = *query->module().body;
  ASSERT_EQ(body.kind, xq::ExprKind::kPath);
  ASSERT_EQ(body.steps.size(), 2u);
  EXPECT_TRUE(body.steps[0].statically_ordered);
  EXPECT_FALSE(body.steps[1].statically_ordered);
  EXPECT_EQ(query->optimizer_stats().ordered_steps_annotated, 1u);
}

TEST(OrderAnalysis, DisablingTheAnalysisDropsAnnotationsNotAnswers) {
  xq::CompileOptions off;
  off.optimizer.order_analysis = false;
  auto query = xq::Compile("/r/a/b", off);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().ordered_steps_annotated, 0u);
  for (const xq::PathStep& s : query->module().body->steps) {
    EXPECT_FALSE(s.statically_ordered);
  }
}

TEST(OrderAnalysis, EvaluatorSkipsProvenSortsAndCountsThem) {
  auto doc = xml::Parse(
      "<r><a><b/><b/></a><a><b/><b/></a><x/><a><b/><x/></a></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  // Fully proven chain: every step's normalization is skipped.
  auto query = xq::Compile("/r/a/b");
  ASSERT_TRUE(query.ok());
  auto r = xq::Execute(*query, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence.size(), 5u);
  EXPECT_GT(r->stats.sorts_skipped, 0u);
  EXPECT_EQ(r->stats.sorts_performed, 0u);

  // //a/b: in the materializing evaluator the child step off the nested
  // descendant set must really sort. (The streaming pipeline sidesteps the
  // sort entirely; pin it off to observe the materializing behavior.)
  auto unproven = xq::Compile("//a/b");
  ASSERT_TRUE(unproven.ok());
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto r2 = xq::Execute(*unproven, materializing);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->sequence.size(), 5u);
  EXPECT_GT(r2->stats.sorts_performed, 0u);
  EXPECT_GT(r2->stats.order_compares, 0u);

  // Streamed, the same query needs no normalizing sort and agrees item for
  // item.
  auto r2s = xq::Execute(*unproven, opts);
  ASSERT_TRUE(r2s.ok());
  EXPECT_EQ(r2s->stats.sorts_performed, 0u);
  EXPECT_EQ(r2s->SerializedItems(), r2->SerializedItems());

  // Same answers with the analysis off -- the sorts come back, the result
  // sequence does not change.
  xq::CompileOptions off;
  off.optimizer.order_analysis = false;
  auto baseline = xq::Compile("/r/a/b", off);
  ASSERT_TRUE(baseline.ok());
  auto r3 = xq::Execute(*baseline, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->SerializedItems(), r->SerializedItems());
}

TEST(OrderAnalysis, UnionOfOverlappingPathsStillNormalizes) {
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

TEST(LimitPushdown, LiteralConsumersAnnotateThePath) {
  auto sub = xq::Compile("subsequence(//a, 1, 3)");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->optimizer_stats().limits_pushed, 1u);
  ASSERT_EQ(sub->module().body->children.size(), 3u);
  EXPECT_EQ(sub->module().body->children[0]->limit_hint, 3u);
  EXPECT_TRUE(sub->module().body->children[0]->statically_limit_pushable);

  auto head = xq::Compile("head(//a)");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->optimizer_stats().limits_pushed, 1u);
  EXPECT_EQ(head->module().body->children[0]->limit_hint, 1u);

  // The window is normalized exactly like the builtin: start 0, length 3
  // covers positions [0, 3), so only the first two items can pass.
  auto zero = xq::Compile("subsequence(//a, 0, 3)");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->module().body->children[0]->limit_hint, 2u);

  // A negative literal start parses as unary minus, which the conservative
  // pass does not recognize: no hint, correctness unaffected.
  auto negative = xq::Compile("subsequence(//a, -2, 4)");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative->module().body->children[0]->limit_hint, 0u);

  // Dynamic bounds are never pushed.
  auto dynamic = xq::Compile("subsequence(//a, 1, count(//b))");
  ASSERT_TRUE(dynamic.ok());
  EXPECT_EQ(dynamic->optimizer_stats().limits_pushed, 0u);
}

TEST(LimitPushdown, PositionalForWithImmediateWhere) {
  auto le = xq::Compile("for $x at $p in //a where $p le 3 return $x");
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->optimizer_stats().limits_pushed, 1u);
  EXPECT_EQ(le->module().body->clauses[0].expr->limit_hint, 3u);

  auto lt = xq::Compile("for $x at $p in //a where $p lt 3 return $x");
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->module().body->clauses[0].expr->limit_hint, 2u);

  auto eq = xq::Compile("for $x at $p in //a where $p eq 1 return $x");
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->module().body->clauses[0].expr->limit_hint, 1u);

  // An intervening clause could observe (or fail on) tuples past the bound,
  // so a where that is not immediately next blocks the push.
  auto gap = xq::Compile(
      "for $x at $p in //a let $y := $x where $p le 3 return $y");
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap->optimizer_stats().limits_pushed, 0u);

  // A bound on something other than the position variable proves nothing.
  auto other = xq::Compile("for $x at $p in //a where $x le 3 return $x");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->optimizer_stats().limits_pushed, 0u);
}

TEST(LimitPushdown, LetBoundPathConsumedOnce) {
  auto once = xq::Compile("let $s := //a return head($s)");
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(once->optimizer_stats().limits_pushed, 1u);
  EXPECT_EQ(once->module().body->clauses[0].expr->limit_hint, 1u);

  // A second use can observe the full sequence.
  auto twice = xq::Compile("let $s := //a return (head($s), count($s))");
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->optimizer_stats().limits_pushed, 0u);
}

TEST(LimitPushdown, UserFunctionShadowingDisablesThePush) {
  auto shadowed = xq::Compile(
      "declare function head($s) { count($s) }; head(//a)");
  if (shadowed.ok()) {
    EXPECT_EQ(shadowed->optimizer_stats().limits_pushed, 0u);
  }
}

TEST(LimitPushdown, DisablingThePassDropsHintsNotAnswers) {
  xq::CompileOptions off;
  off.optimizer.limit_pushdown = false;
  auto query = xq::Compile("subsequence(//a, 1, 3)", off);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->optimizer_stats().limits_pushed, 0u);
  EXPECT_EQ(query->module().body->children[0]->limit_hint, 0u);
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

TEST(DescendantFusion, FusedProbeStepKeepsItsProbeWithMorePredicates) {
  // //x[@k = $v][c] fuses into one descendant::x step whose first predicate
  // is a probe; the probe extension still interns the bare descendant::x
  // (one miss, then hits) and answers @k from the index, applying the
  // position-free [c] to the hits, where the parent-grouped form of the
  // child axis would not apply.
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
