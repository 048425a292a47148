// The type system ("Type System" / "Java Types"): sequence types, function
// annotations, the conversion rules, `castable as`, and the annotation
// "metastasis" scenario the paper describes.

#include "gtest/gtest.h"
#include "obs/trace_sink.h"
#include "tests/test_util.h"
#include "xquery/parser.h"

namespace lll {
namespace {

using testing::Eval;
using testing::EvalError;
using testing::EvalWithContext;

TEST(SequenceTypes, Parsing) {
  auto parse = [](const char* text) {
    auto result = xq::ParseSequenceTypeString(text);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    return result.ok() ? result->ToString() : "<ERR>";
  };
  EXPECT_EQ(parse("xs:string"), "xs:string");
  EXPECT_EQ(parse("xs:string*"), "xs:string*");
  EXPECT_EQ(parse("xs:integer?"), "xs:integer?");
  EXPECT_EQ(parse("xs:double+"), "xs:double+");
  EXPECT_EQ(parse("item()*"), "item()*");
  EXPECT_EQ(parse("node()"), "node()");
  EXPECT_EQ(parse("element()"), "element()");
  EXPECT_EQ(parse("element(book)"), "element(book)");
  EXPECT_EQ(parse("text()"), "text()");
  EXPECT_EQ(parse("document-node()"), "document-node()");
  EXPECT_EQ(parse("empty-sequence()"), "empty-sequence()");
  EXPECT_EQ(parse("xs:anyAtomicType"), "xs:anyAtomicType");
  // The baroque synonyms all map somewhere sensible.
  EXPECT_EQ(parse("xs:nonNegativeInteger"), "xs:integer");
  EXPECT_EQ(parse("xs:positiveInteger"), "xs:integer");
  EXPECT_EQ(parse("xs:float"), "xs:double");

  EXPECT_FALSE(xq::ParseSequenceTypeString("xs:noSuchType").ok());
  EXPECT_FALSE(xq::ParseSequenceTypeString("").ok());
}

TEST(FunctionTypes, AnnotatedParametersConvertUntyped) {
  // Attribute values are untyped; an annotated parameter casts them.
  const char* doc = "<r><i v=\"41\"/></r>";
  EXPECT_EQ(EvalWithContext(
                "declare function local:inc($n as xs:integer) { $n + 1 }; "
                "local:inc(/r/i/@v)",
                doc),
            "42");
  // And a non-numeric value fails the cast, with the function named.
  auto result = xq::Run(
      "declare function local:inc($n as xs:integer) { $n + 1 }; "
      "local:inc(<i v=\"forty-one\"/>/@v)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("local:inc"), std::string::npos);
}

TEST(FunctionTypes, IntegerPromotesToDouble) {
  EXPECT_EQ(Eval("declare function local:half($x as xs:double) { $x div 2 }; "
                 "local:half(5)"),
            "2.5");
}

TEST(FunctionTypes, CardinalityEnforced) {
  const char* fn =
      "declare function local:first($s as xs:string) { $s }; ";
  EXPECT_EQ(Eval(std::string(fn) + "local:first(\"a\")"), "a");
  std::string err = EvalError(std::string(fn) + "local:first((\"a\",\"b\"))");
  EXPECT_NE(err.find("exactly one"), std::string::npos);
  err = EvalError(std::string(fn) + "local:first(())");
  EXPECT_NE(err.find("exactly one"), std::string::npos);

  EXPECT_EQ(Eval("declare function local:opt($s as xs:string?) { count($s) }; "
                 "local:opt(())"),
            "0");
  EXPECT_EQ(Eval("declare function local:many($s as xs:string+) { count($s) }; "
                 "local:many((\"a\",\"b\"))"),
            "2");
  EXPECT_NE(EvalError("declare function local:many($s as xs:string+) "
                      "{ count($s) }; local:many(())")
                .find("at least one"),
            std::string::npos);
}

TEST(FunctionTypes, ReturnTypeChecked) {
  EXPECT_EQ(Eval("declare function local:ok() as xs:integer { 42 }; "
                 "local:ok()"),
            "42");
  std::string err = EvalError(
      "declare function local:bad() as xs:integer { \"oops\" }; local:bad()");
  EXPECT_NE(err.find("returning from local:bad"), std::string::npos);
}

TEST(FunctionTypes, NodeKindAnnotations) {
  EXPECT_EQ(Eval("declare function local:tag($e as element()) { name($e) }; "
                 "local:tag(<x/>)"),
            "x");
  EXPECT_EQ(Eval("declare function local:book($e as element(book)) "
                 "{ name($e) }; local:book(<book/>)"),
            "book");
  EXPECT_FALSE(
      xq::Run("declare function local:book($e as element(book)) { name($e) }; "
              "local:book(<magazine/>)")
          .ok());
  EXPECT_FALSE(
      xq::Run("declare function local:tag($e as element()) { name($e) }; "
              "local:tag(42)")
          .ok());
}

// The paper: "once types are used somewhere, they rapidly metastatize and
// need to be used everywhere." One annotated utility forces a cast (or an
// error) at every caller that passes raw untyped data through helpers.
TEST(FunctionTypes, AnnotationMetastasis) {
  // Untyped pipeline: raw attribute data flows through an unannotated
  // helper into an annotated core function -- the helper's output is still
  // untyped, so the core's annotation converts it. Fine.
  EXPECT_EQ(EvalWithContext(
                "declare function local:core($n as xs:integer) { $n * 2 }; "
                "declare function local:helper($x) { local:core($x) }; "
                "local:helper(/r/i/@v)",
                "<r><i v=\"21\"/></r>"),
            "42");
  // But annotate the helper as xs:string (seemed harmless!) and the same
  // call chain now fails inside: the string no longer converts to integer.
  auto result = xq::Run(
      "declare function local:core($n as xs:integer) { $n * 2 }; "
      "declare function local:helper($x as xs:string) { local:core($x) }; "
      "local:helper(\"21\")");
  ASSERT_FALSE(result.ok());
  // The fix is... adding more type machinery at the call site. QED.
  EXPECT_EQ(Eval("declare function local:core($n as xs:integer) { $n * 2 }; "
                 "declare function local:helper($x as xs:string) "
                 "{ local:core($x cast as xs:integer) }; "
                 "local:helper(\"21\")"),
            "42");
}

TEST(CastableAs, BasicProbes) {
  EXPECT_EQ(Eval("\"42\" castable as xs:integer"), "true");
  EXPECT_EQ(Eval("\"4.2\" castable as xs:integer"), "false");
  EXPECT_EQ(Eval("\"4.2\" castable as xs:double"), "true");
  EXPECT_EQ(Eval("\"x\" castable as xs:double"), "false");
  EXPECT_EQ(Eval("\"true\" castable as xs:boolean"), "true");
  EXPECT_EQ(Eval("\"yes\" castable as xs:boolean"), "false");
  EXPECT_EQ(Eval("42 castable as xs:string"), "true");
  EXPECT_EQ(Eval("() castable as xs:integer?"), "true");
  EXPECT_EQ(Eval("() castable as xs:integer"), "false");
  EXPECT_EQ(Eval("(1, 2) castable as xs:integer"), "false");
}

TEST(CastableAs, EvaluatesItsOperandOnce) {
  // `castable as` casts the value it already holds: the operand's trace
  // fires once, as it does for `cast as` and `instance of`.
  for (const char* q : {"trace(\"t\", \"7\") castable as xs:integer",
                        "trace(\"t\", \"7\") cast as xs:integer",
                        "trace(\"t\", \"7\") instance of xs:string"}) {
    obs::CollectingTraceSink sink;
    xq::ExecuteOptions opts;
    opts.eval.trace_sink = &sink;
    auto r = xq::Run(q, opts);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    EXPECT_EQ(r->trace_output.size(), 1u) << q;
    EXPECT_EQ(sink.Events().size(), 1u) << q;
  }
  EXPECT_EQ(Eval("trace(\"t\", \"7\") castable as xs:integer"), "true");
  // A failing operand is an error, not `false`.
  EXPECT_NE(EvalError("error(\"boom\") castable as xs:integer").find("boom"),
            std::string::npos);
}

TEST(CastableAs, GuardsTheCast) {
  // The idiom annotations enable: probe before casting.
  EXPECT_EQ(EvalWithContext(
                "for $i in //i return "
                "if (@v castable as xs:integer) then () else () ",
                "<r/>"),
            "");
  EXPECT_EQ(EvalWithContext(
                "sum(for $i in //i "
                "    where $i/@v castable as xs:integer "
                "    return $i/@v cast as xs:integer)",
                "<r><i v=\"1\"/><i v=\"junk\"/><i v=\"2\"/></r>"),
            "3");
}

TEST(InstanceOfMore, UntypedVersusString) {
  // Attribute content is untyped, NOT string -- one of the paper's "two
  // large and slightly-different type systems" gotchas.
  EXPECT_EQ(EvalWithContext("data(/r/@v) instance of xs:untypedAtomic",
                            "<r v=\"x\"/>"),
            "true");
  EXPECT_EQ(EvalWithContext("data(/r/@v) instance of xs:string", "<r v=\"x\"/>"),
            "false");
  EXPECT_EQ(Eval("\"x\" instance of xs:string"), "true");
  EXPECT_EQ(Eval("\"x\" instance of xs:anyAtomicType"), "true");
  EXPECT_EQ(Eval("<a/> instance of xs:anyAtomicType"), "false");
}

TEST(UntypedMode, WorksWithoutAnyAnnotations) {
  // "we used XQuery in the untyped mode, avoiding the type system entirely"
  // -- an entire pipeline with zero annotations must work.
  const char* doc =
      "<orders><o id=\"1\" total=\"10\"/><o id=\"2\" total=\"32\"/></orders>";
  EXPECT_EQ(EvalWithContext(
                "declare function local:big($os) { "
                "  for $o in $os where $o/@total > 20 return string($o/@id) }; "
                "local:big(//o)",
                doc),
            "2");
}

}  // namespace
}  // namespace lll
