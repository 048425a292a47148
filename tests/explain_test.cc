// EXPLAIN: the facility that finally answers "what did the optimizer do to
// my query?". Golden-substring tests over the rendered output: section
// structure, provenance, one note per rewrite family (dead lets, swallowed
// traces, hash probes, descendant fusion), the resolved step facts, the
// limit hints and the call memo's function mark.

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/explain.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

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

TEST(ExplainTest, ResolvedStepFactsShowOnEveryPlan) {
  // The per-step facts are resolved for every plan, optimized or not, and a
  // rooted child chain streams and interns either way. Document order is
  // the evaluator's business, not the plan's: no step claims it.
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    std::string out = ExplainQuery("/library/book/title", copts);
    EXPECT_NE(out.find("step child::book [streamed] [interned]"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("ordered"), std::string::npos) << out;
  }
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

// Every [limit N] of an EXPLAIN, in order.
std::vector<size_t> LimitMarks(const std::string& explain) {
  const std::string tag = "[limit ";
  std::vector<size_t> marks;
  for (size_t at = explain.find(tag); at != std::string::npos;
       at = explain.find(tag, at + 1)) {
    marks.push_back(std::stoul(explain.substr(at + tag.size())));
  }
  return marks;
}

// The step lines of every [limit N] path of an EXPLAIN: the lines one level
// below the path's own that start with "step ".
std::vector<std::string> LimitedPathSteps(const std::string& explain) {
  std::vector<std::string> lines;
  std::istringstream in(explain);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto indent = [](const std::string& l) {
    const size_t at = l.find_first_not_of(' ');
    return at == std::string::npos ? 0 : at;
  };
  std::vector<std::string> steps;
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t depth = indent(lines[i]);
    if (lines[i].compare(depth, 4, "Path") != 0 ||
        lines[i].find("[limit ") == std::string::npos) {
      continue;
    }
    for (size_t j = i + 1; j < lines.size() && indent(lines[j]) > depth;
         ++j) {
      if (lines[j].compare(depth + 2, 5, "step ") == 0) {
        steps.push_back(lines[j]);
      }
    }
  }
  return steps;
}

TEST(ExplainTest, LimitHintsMarkEveryConsumerOfTheRuleAndNothingElse) {
  // The resolve pass derives each node path's hint from its direct
  // consumer on every plan, so the marks are the same with the optimizer
  // on and off. A path that stops early interns nothing (the cache holds
  // whole results), so no step of a [limit N] path is [interned].
  struct Case {
    const char* query;
    std::vector<size_t> marks;
  };
  const Case cases[] = {
      // An effective boolean value: the first node decides.
      {"if (//a) then 1 else 2", {1}},
      {"//a and //b", {1, 1}},
      {"//a or //b/c", {1, 1}},
      {"for $x in //a where $x/b return $x", {1}},
      {"some $x in //a satisfies $x/b", {1}},
      {"every $x in //a satisfies $x/b", {1}},
      {"//a[b]", {1}},
      {"(//a)[b/c]", {1}},
      // Only the [b]: with a second predicate the base is read in full.
      {"(//a)[1][b]", {1}},
      {"declare function local:f($n) { if ($n/b) then 1 else 0 }; "
       "local:f(/)",
       {1}},
      // The first item decides.
      {"exists(//a)", {1}},
      {"exists(/r/a/b)", {1}},
      {"fn:empty(//a)", {1}},
      {"head(//a/b)", {1}},
      // (P)[N] reads the first N items of P.
      {"(//a)[3]", {3}},
      {"(//a)[2]/b", {2}},
      // None of these can stop early.
      {"//a = \"x\"", {}},
      {"//a[@k = //b]", {}},
      {"count(//a)", {}},
      {"subsequence(//a, 1, 2)", {}},
      {"for $x at $p in //a where $p le 2 return $x", {}},
      {"let $s := //a return head($s)", {}},
      {"not(//a)", {}},
      {"//a[1]", {}},
      {"exists((//a)[@k = \"1\"])", {}},
      {"if ((//a)[last()]) then 1 else 2", {}},
      {"declare function head($s) { count($s) }; head(//a)", {}},
  };
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    for (const Case& c : cases) {
      const std::string out = ExplainQuery(c.query, copts);
      EXPECT_EQ(LimitMarks(out), c.marks)
          << c.query << " optimize=" << optimize << "\n"
          << out;
      for (const std::string& step : LimitedPathSteps(out)) {
        EXPECT_EQ(step.find("[interned"), std::string::npos)
            << c.query << " optimize=" << optimize << "\n"
            << out;
      }
    }
  }
}

// How many times `tag` occurs in `text`.
size_t Occurrences(const std::string& text, const std::string& tag) {
  size_t n = 0;
  for (size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ExplainTest, InternedMarksAgreeWithTheEvaluatorsCacheHits) {
  // The intern rule, one row per query shape, with the optimizer on and
  // off. Each row names the one chain the evaluator interns, by its cache
  // key. EXPLAIN must mark exactly that chain's steps [interned], and a
  // second run must answer exactly that chain from the cache: one hit, no
  // miss, one entry under that key.
  auto doc = xml::Parse(
      "<r><a id=\"k\" t=\"u\"><b/><b><c/></b></a><a id=\"k\" t=\"v\"><b/></a>"
      "<a id=\"m\" n=\"3\"><b><c/></b></a></r>",
      {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Node* root = (*doc)->root();
  struct Case {
    const char* query;
    const char* key_optimized;
    const char* key_unoptimized;
  };
  const Case cases[] = {
      // A literal key is a probe: the chain runs through its step, bare,
      // and the key names the probed attribute, never the literal -- in
      // either operand order. Unoptimized plans mark no probes.
      {"/r/a[@id = \"k\"]", "child::r/child::a/@id", "child::r/"},
      {"/r/a[\"k\" = @id]", "child::r/child::a/@id", "child::r/"},
      // The step's other predicates filter the hits; later steps run per
      // query.
      {"/r/a[@id = \"k\"][@t = \"u\"]/b", "child::r/child::a/@id",
       "child::r/"},
      {"/r/a[@id = concat(\"k\", \"\")]", "child::r/child::a/@id",
       "child::r/"},
      // ... but only through a position-free step: [1] counts per parent.
      {"/r/a[@id = concat(\"k\", \"\")][1]", "child::r/", "child::r/"},
      {"doc(\"d\")//a[@id = $v]", "descendant::a/@id",
       "descendant-or-self::node()/"},
      // Every other predicate ends the chain.
      {"//a//b[c]", "descendant::a/",
       "descendant-or-self::node()/child::a/descendant-or-self::node()/"},
      {"/r/a[@n = 3]", "child::r/", "child::r/"},
      {"/r/a[starts-with(@id, \"k\")]", "child::r/", "child::r/"},
      {"/r/a[@id = \"k\" and @t = \"u\"]", "child::r/", "child::r/"},
      {"/r/a[@id]", "child::r/", "child::r/"},
  };
  for (bool optimize : {true, false}) {
    xq::CompileOptions copts;
    copts.optimize = optimize;
    for (const Case& c : cases) {
      const std::string key = optimize ? c.key_optimized : c.key_unoptimized;
      auto compiled = xq::Compile(c.query, copts);
      ASSERT_TRUE(compiled.ok()) << c.query;
      const std::string plan = obs::Explain(*compiled);
      EXPECT_EQ(Occurrences(plan, "[interned]"), Occurrences(key, "/"))
          << c.query << " optimize=" << optimize << "\n"
          << plan;

      xq::NodeSetCache cache;
      xq::ExecuteOptions opts;
      opts.context_node = root;
      opts.documents["d"] = root;
      opts.variables["v"] = xdm::Sequence(xdm::Item::String("k"));
      opts.eval.nodeset_cache = &cache;
      auto cold = xq::Execute(*compiled, opts);
      auto warm = xq::Execute(*compiled, opts);
      ASSERT_TRUE(cold.ok() && warm.ok()) << c.query;
      EXPECT_EQ(warm->stats.nodeset_cache_hits, 1u) << c.query;
      EXPECT_EQ(warm->stats.nodeset_cache_misses, 0u) << c.query;
      EXPECT_EQ(cache.size(), 1u) << c.query;
      EXPECT_NE(cache.Get((*doc).get(), xq::NodeSetCache::MakeKey(root, key)),
                nullptr)
          << c.query << " optimize=" << optimize;

      opts.eval.nodeset_cache = nullptr;
      opts.eval.streaming = false;
      auto fresh = xq::Execute(*compiled, opts);
      ASSERT_TRUE(fresh.ok()) << c.query;
      EXPECT_EQ(warm->SerializedItems(), fresh->SerializedItems()) << c.query;
    }
  }

  // The probe-extended entry holds every `a` with its index of @id, and is
  // guarded by the names its chain tests -- r, a and the probed @id -- not
  // by the document version.
  auto compiled = xq::Compile("/r/a[@id = \"k\"][@t = \"u\"]/b");
  ASSERT_TRUE(compiled.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = root;
  opts.eval.nodeset_cache = &cache;
  ASSERT_TRUE(xq::Execute(*compiled, opts).ok());
  auto entry = cache.Get(
      (*doc).get(), xq::NodeSetCache::MakeKey(root, "child::r/child::a/@id"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->nodes.size(), 3u);
  ASSERT_NE(entry->index, nullptr);
  EXPECT_EQ(entry->index->attr(), "id");
  for (const auto& [value, want] :
       std::vector<std::pair<std::string, std::vector<uint32_t>>>{
           {"k", {0, 1}}, {"m", {2}}, {"u", {}}, {"", {}}}) {
    std::vector<uint32_t> hits;
    entry->index->LookUp(entry->nodes, value, &hits);
    EXPECT_EQ(hits, want) << value;
  }
  EXPECT_FALSE(entry->document_wide);
  std::vector<std::string> guarded;
  for (const auto& guard : entry->guards) {
    guarded.push_back((guard.attribute ? "@" : "") +
                      xml::NameTable::Get(guard.name));
  }
  EXPECT_EQ(guarded, (std::vector<std::string>{"r", "a", "@id"}));
}

TEST(ExplainTest, ProbePredicatesAreMarkedNotedAndCounted) {
  // The golden: both forms of a general `=` against a bare attribute step,
  // the mark on each predicate, one located note per probe, the count. The
  // probe makes child::x probe-extended, so it is interned bare.
  const std::string golden =
      "EXPLAIN\n"
      "== plan ==\n"
      "Flwor (1:1)\n"
      "  for $v:\n"
      "    Literal \"1\" (1:11)\n"
      "  Path rooted (1:22)\n"
      "    step child::r [streamed] [interned]\n"
      "    step child::x [streamed] [interned]\n"
      "      predicate [probe @k]:\n"
      "        Binary = (1:27)\n"
      "          VarRef $v (1:27)\n"
      "          Path (1:32)\n"
      "            step attribute::k [streamed]\n"
      "      predicate [probe @j]:\n"
      "        Binary = (1:36)\n"
      "          Path (1:36)\n"
      "            step attribute::j [streamed]\n"
      "          Literal \"2\" (1:41)\n"
      "== rewrites ==\n"
      "  probe (1:27): @k = key is answered from a per-query hash index of @k "
      "values; the key is evaluated once per candidate list\n"
      "  probe (1:36): @j = key is answered from a per-query hash index of @j "
      "values; the key is evaluated once per candidate list\n"
      "== summary ==\n"
      "  eliminated_lets: 0\n"
      "  eliminated_trace_calls: 0\n"
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
  // position-free predicate kept on it (a node path, so one node decides
  // it, and one that does not fold into an intern key), one located note
  // per fusion, and the count.
  const std::string golden =
      "EXPLAIN\n"
      "== plan ==\n"
      "Path rooted (1:1)\n"
      "  step descendant::a [streamed] [interned]\n"
      "  step descendant::b [streamed]\n"
      "    predicate:\n"
      "      Path [limit 1] (1:8)\n"
      "        step child::c [streamed]\n"
      "== rewrites ==\n"
      "  descendant-fused (1:1): descendant-or-self::node()/child::a fused "
      "into descendant::a; no predicate observes position\n"
      "  descendant-fused (1:1): descendant-or-self::node()/child::b fused "
      "into descendant::b; no predicate observes position\n"
      "== summary ==\n"
      "  eliminated_lets: 0\n"
      "  eliminated_trace_calls: 0\n"
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
  std::string out = ExplainQuery("let $dead := 1 return //a", copts);
  // The plan keeps the dead let and both `//` steps, and the rewrite log is
  // empty.
  EXPECT_NE(out.find("let $dead:"), std::string::npos) << out;
  EXPECT_NE(out.find("step descendant-or-self::node()"), std::string::npos)
      << out;
  EXPECT_NE(out.find("== rewrites ==\n  (none)\n"), std::string::npos) << out;
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

TEST(ExplainTest, MemoizableFunctionsAreMarked) {
  // The awbql backend's subtype walk (recursive, reads doc(), no effect)
  // is marked; a function that traces is not, under either trace policy.
  for (bool recognize_trace : {false, true}) {
    xq::CompileOptions copts;
    copts.optimizer.recognize_trace = recognize_trace;
    const std::string out = ExplainQuery(
        "declare function local:is-node-subtype($t, $super) {\n"
        "  if ($t eq $super) then true()\n"
        "  else let $decl := doc(\"metamodel\")//node-type[@name = $t]\n"
        "  return if (empty($decl/@extends)) then false()\n"
        "  else local:is-node-subtype(string($decl/@extends), $super) };\n"
        "declare function local:traced($x) { trace($x, \"x\") };\n"
        "(local:is-node-subtype(\"a\", \"b\"), local:traced(1))",
        copts);
    EXPECT_NE(out.find("== function local:is-node-subtype#2 == [memo]\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("== function local:traced#1 ==\n"), std::string::npos)
        << out;
  }
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
