// Constructor semantics, including the two behaviors the paper documents in
// detail: the sequence-destructuring table (E1) and attribute folding (E2).

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace lll {
namespace {

using testing::Eval;
using testing::EvalError;

TEST(XQueryConstruct, DirectElement) {
  EXPECT_EQ(Eval("<a/>"), "<a/>");
  EXPECT_EQ(Eval("<a>text</a>"), "<a>text</a>");
  EXPECT_EQ(Eval("<a x=\"1\" y=\"2\"/>"), "<a x=\"1\" y=\"2\"/>");
  EXPECT_EQ(Eval("<a><b/><c/></a>"), "<a><b/><c/></a>");
}

TEST(XQueryConstruct, TheArenaExistsOnlyWhenSomethingIsConstructed) {
  auto doc = xml::Parse("<r><a>1</a><a>2</a></r>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  // Reading the input constructs nothing, so no arena is created.
  auto read = xq::Run("(/r/a, count(//a))", opts);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->arena, nullptr);
  EXPECT_EQ(read->stats.constructed_nodes, 0u);
  EXPECT_EQ(read->SerializedItems(), "<a>1</a><a>2</a>2");

  // A constructing query hands its arena to the result: the constructed
  // nodes outlive Execute and its DynamicContext.
  std::unique_ptr<xml::Document> arena;
  xdm::Sequence built;
  {
    auto made = xq::Run("<list>{for $a in /r/a return <n v=\"{$a}\"/>}</list>",
                        opts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ASSERT_NE(made->arena, nullptr);
    EXPECT_GT(made->stats.constructed_nodes, 0u);
    arena = std::move(made->arena);
    built = std::move(made->sequence);
  }
  ASSERT_EQ(built.size(), 1u);
  ASSERT_TRUE(built.at(0).is_node());
  EXPECT_EQ(built.at(0).node()->document(), arena.get());
  EXPECT_EQ(xml::Serialize(built.at(0).node()),
            "<list><n v=\"1\"/><n v=\"2\"/></list>");
}

TEST(XQueryConstruct, BoundaryWhitespaceIsStripped) {
  EXPECT_EQ(Eval("<a>\n  <b/>\n  <c/>\n</a>"), "<a><b/><c/></a>");
  EXPECT_EQ(Eval("<a> keep me </a>"), "<a> keep me </a>");
}

TEST(XQueryConstruct, BoundarySpaceDeclaration) {
  EXPECT_EQ(Eval("declare boundary-space preserve; <a> <b/> </a>"),
            "<a> <b/> </a>");
  EXPECT_EQ(Eval("declare boundary-space strip; <a> <b/> </a>"),
            "<a><b/></a>");
  EXPECT_FALSE(xq::Run("declare boundary-space maybe; 1").ok());
}

TEST(XQueryConstruct, EnclosedExpressions) {
  EXPECT_EQ(Eval("<a>{1 + 1}</a>"), "<a>2</a>");
  EXPECT_EQ(Eval("<a>{\"x\"}{\"y\"}</a>"), "<a>x y</a>");  // adjacent atomics
  EXPECT_EQ(Eval("<a>{(1,2,3)}</a>"), "<a>1 2 3</a>");
  EXPECT_EQ(Eval("<a>n={1+1}!</a>"), "<a>n=2!</a>");
  EXPECT_EQ(Eval("<a>{{literal braces}}</a>"), "<a>{literal braces}</a>");
}

TEST(XQueryConstruct, AttributeValueTemplates) {
  EXPECT_EQ(Eval("<a x=\"{1+1}\"/>"), "<a x=\"2\"/>");
  EXPECT_EQ(Eval("<a x=\"n{1+1}m\"/>"), "<a x=\"n2m\"/>");
  EXPECT_EQ(Eval("<a x=\"{(1,2,3)}\"/>"), "<a x=\"1 2 3\"/>");
  EXPECT_EQ(Eval("<a x=\"{()}\"/>"), "<a x=\"\"/>");
}

TEST(XQueryConstruct, NodesAreCopiedIntoNewParents) {
  // The inner element is COPIED (constructors copy); mutating semantics would
  // be observable via identity, so check `is` sees different nodes.
  EXPECT_EQ(Eval("let $b := <b id=\"7\"/> return <a>{$b}</a>"),
            "<a><b id=\"7\"/></a>");
  EXPECT_EQ(Eval("let $b := <b/> return (<a>{$b}</a>/b is $b)"), "false");
}

TEST(XQueryConstruct, ComputedConstructors) {
  EXPECT_EQ(Eval("element foo { \"hi\" }"), "<foo>hi</foo>");
  EXPECT_EQ(Eval("element {concat(\"f\",\"oo\")} { () }"), "<foo/>");
  EXPECT_EQ(Eval("<e>{attribute troubles {1}}</e>"), "<e troubles=\"1\"/>");
  EXPECT_EQ(Eval("text { (1,2) }"), "1 2");
  EXPECT_EQ(Eval("comment { \"note\" }"), "<!--note-->");
  EXPECT_EQ(Eval("document { <r/> }"), "<r/>");
}

TEST(XQueryConstruct, InvalidComputedNamesAreErrors) {
  EXPECT_NE(EvalError("element {\"1bad\"} { () }").find("XQDY0074"),
            std::string::npos);
  EXPECT_NE(EvalError("attribute {\"no space\"} { 1 }").find("XQDY0074"),
            std::string::npos);
}

// --- E1: the paper's sequence-destructuring table --------------------------
//
// "Consider making a sequence or XML element with children given by the
// contents of variables X, Y, and Z ... Now, try to get Y back out, with
// $sequence[2] or $elem/*[2]."  Each row of the table is one test.

struct E1Row {
  const char* label;
  const char* x;
  const char* y;
  const char* z;
  const char* expected;  // what ($X,$Y,$Z)[2] gives
};

class SequenceTableTest : public ::testing::TestWithParam<E1Row> {};

TEST_P(SequenceTableTest, SecondItemOfSequence) {
  const E1Row& row = GetParam();
  std::string query = std::string("let $X := ") + row.x +
                      " let $Y := " + row.y + " let $Z := " + row.z +
                      " return ($X, $Y, $Z)[2]";
  EXPECT_EQ(Eval(query), row.expected) << row.label;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable, SequenceTableTest,
    ::testing::Values(
        // Row 1: Y itself.
        E1Row{"y-itself", "1", "2", "3", "2"},
        // Row 2: some part of Y.
        E1Row{"part-of-y", "1", "(2, \"2a\")", "4", "2"},
        // Row 3: Z (Y was empty).
        E1Row{"z", "1", "()", "3", "3"},
        // Row 4: a part of X.
        E1Row{"part-of-x", "(\"1a\",\"1b\")", "2", "3", "1b"},
        // Row 5: a part of Z. NOTE: the paper's table prints "3b" here, but
        // flat-sequence semantics give (1,"3a","3b")[2] = "3a" -- the FIRST
        // part of Z. The row's point (you get a part of Z, not Y) holds; the
        // printed value in the paper is off by one. See EXPERIMENTS.md E1.
        E1Row{"part-of-z", "1", "()", "(\"3a\",\"3b\")", "3a"},
        // Row 6: nothing.
        E1Row{"nothing", "()", "(2)", "()", ""}),
    [](const ::testing::TestParamInfo<E1Row>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Row 7 of the table: the element representation errors when Y is an
// attribute node ($elem/*[2] after folding, with content before it).
TEST(SequenceTableE1, Row7AttributeInElementRepIsAnError) {
  std::string err = EvalError(
      "let $X := 1 let $Y := attribute y {\"why?\"} let $Z := 2 "
      "return <el>{$X}{$Y}{$Z}</el>");
  EXPECT_NE(err.find("XQTY0024"), std::string::npos);
}

// The same three values in a plain sequence do NOT error; the attribute
// silently rides along and [2] returns it -- the other half of why generic
// containers are impossible (E1/E9).
TEST(SequenceTableE1, Row7SequenceRepSilentlyHoldsTheAttribute) {
  EXPECT_EQ(Eval("let $X := 1 let $Y := attribute y {\"why?\"} let $Z := 2 "
                 "return count(($X, $Y, $Z))"),
            "3");
  EXPECT_EQ(Eval("let $X := 1 let $Y := attribute y {\"why?\"} let $Z := 2 "
                 "return string(($X, $Y, $Z)[2])"),
            "why?");
}

// --- E2: attribute folding behaviors ------------------------------------

TEST(AttributeFoldingE2, LeadingAttributeBecomesAttribute) {
  // The paper's example, verbatim modulo quoting.
  EXPECT_EQ(Eval("let $x := attribute troubles {1} return <el> {$x} </el>"),
            "<el troubles=\"1\"/>");
}

TEST(AttributeFoldingE2, SeveralLeadingAttributesAllFold) {
  EXPECT_EQ(Eval("let $a := attribute a {1} "
                 "let $c := attribute b {3} "
                 "return <el>{$a}{$c}</el>"),
            "<el a=\"1\" b=\"3\"/>");
}

TEST(AttributeFoldingE2, DuplicateNameKeepsExactlyOne) {
  // "If two attribute nodes have the same name, only one should make it into
  // the final element" -- we keep the first, deterministically.
  EXPECT_EQ(Eval("let $a := attribute a {1} "
                 "let $b := attribute a {2} "
                 "let $c := attribute b {3} "
                 "return <el> {$a}{$b}{$c} </el>"),
            "<el a=\"1\" b=\"3\"/>");
}

TEST(AttributeFoldingE2, GalaxModeKeepsBothDuplicates) {
  // "(though Galax did not honor this as of the time of writing)".
  xq::ExecuteOptions opts;
  opts.eval.galax_duplicate_attributes = true;
  auto result = xq::Run(
      "let $a := attribute a {1} let $b := attribute a {2} "
      "return <el>{$a}{$b}</el>",
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SerializedItems(), "<el a=\"1\" a=\"2\"/>");
}

TEST(AttributeFoldingE2, AttributeAfterContentIsAnError) {
  // The paper's example: <el> "doom" {$x} </el>.
  std::string err = EvalError(
      "let $x := attribute troubles {1} return <el> doom {$x} </el>");
  EXPECT_NE(err.find("XQTY0024"), std::string::npos);
}

TEST(AttributeFoldingE2, AttributeAfterChildElementIsAnError) {
  std::string err =
      EvalError("let $x := attribute a {1} return <el><b/>{$x}</el>");
  EXPECT_NE(err.find("XQTY0024"), std::string::npos);
}

TEST(AttributeFoldingE2, AttributeOrderIsLost) {
  // Attributes have no ordering; our serializer emits them in fold order,
  // but equality must treat them as a set: both spellings deep-equal.
  EXPECT_EQ(Eval("deep-equal(<e a=\"1\" b=\"2\"/>, "
                 "           <e b=\"2\" a=\"1\"/>)"),
            "true");
}

TEST(XQueryConstruct, DocumentContentRejectsAttributes) {
  std::string err =
      EvalError("document { attribute a {1} }");
  EXPECT_FALSE(err.empty());
}

TEST(XQueryConstruct, TextNodesMergeWhenAdjacent) {
  EXPECT_EQ(Eval("count(<a>x{\"y\"}</a>/text())"), "1");
  EXPECT_EQ(Eval("string(<a>x{\"y\"}</a>)"), "xy");
}

TEST(XQueryConstruct, NestedConstructorsAndQueries) {
  EXPECT_EQ(Eval("<ol>{for $i in 1 to 3 return <li>{$i}</li>}</ol>"),
            "<ol><li>1</li><li>2</li><li>3</li></ol>");
}

TEST(XQueryConstruct, CommentConstructorInContent) {
  EXPECT_EQ(Eval("<a><!--hi--></a>"), "<a><!--hi--></a>");
}

// --- Adoption: constructors attach the nodes their content just built -----

struct BothModes {
  Result<xq::QueryResult> streamed;
  Result<xq::QueryResult> copying;
};

// Runs `query` streamed (where constructors adopt fresh nodes) and with
// streaming = false (where they copy every content node), and requires
// byte-identical results, statuses and trace lines.
BothModes RunBothModes(const std::string& query) {
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << "\n" << compiled.status().ToString();
  if (!compiled.ok()) return {compiled.status(), compiled.status()};
  xq::ExecuteOptions copying_opts;
  copying_opts.eval.streaming = false;
  BothModes runs{xq::Execute(*compiled), xq::Execute(*compiled, copying_opts)};
  EXPECT_EQ(runs.streamed.status().ToString(), runs.copying.status().ToString())
      << query;
  if (runs.streamed.ok() && runs.copying.ok()) {
    EXPECT_EQ(runs.streamed->SerializedItems(), runs.copying->SerializedItems())
        << query;
    EXPECT_EQ(runs.streamed->trace_output, runs.copying->trace_output)
        << query;
  }
  return runs;
}

// The serialized result, which both modes agree on.
std::string Adopted(const std::string& query) {
  BothModes runs = RunBothModes(query);
  if (!runs.streamed.ok()) return runs.streamed.status().ToString();
  return runs.streamed->SerializedItems();
}

TEST(Adoption, AStoredValueIsCopiedNotAdopted) {
  // $x is read back from its slot, so <b> holds a copy and $x stays
  // parentless.
  EXPECT_EQ(Adopted("let $x := <a/> return (<b>{$x}</b>, $x/..)"),
            "<b><a/></b>");
  EXPECT_EQ(Adopted("let $x := <a/> return (<b>{$x}</b>, count($x/..))"),
            "<b><a/></b>0");
  EXPECT_EQ(Adopted("let $a := <a/> return <r>{$a}</r>/a is $a"), "false");
}

TEST(Adoption, AdoptedNodesKeepIdentityAndOrder) {
  EXPECT_EQ(Adopted("let $r := <r>{<a/>, <b/>}</r> "
                    "return ($r/a << $r/b, $r/a/.. is $r)"),
            "true true");
  EXPECT_EQ(Adopted("let $r := <r>{<a><c/></a>, <b/>}</r> "
                    "return ($r//c/../.. is $r, $r/b >> $r//c)"),
            "true true");
}

TEST(Adoption, FunctionResults) {
  // A function returning its argument returns a read of its parameter.
  EXPECT_EQ(Adopted("declare function local:id($n) { $n }; "
                    "let $a := <a/> let $r := <r>{local:id($a)}</r> "
                    "return ($r, $r/a is $a, empty($a/..))"),
            "<r><a/></r>false true");
  EXPECT_EQ(Adopted("declare function local:id($n) { $n }; "
                    "<r>{local:id(<a/>)}</r>"),
            "<r><a/></r>");
  // A constructor called twice builds two nodes.
  EXPECT_EQ(Adopted("declare function local:mk() { <a/> }; "
                    "let $r := <r>{local:mk(), local:mk()}</r> "
                    "return ($r, $r/a[1] is $r/a[2])"),
            "<r><a/><a/></r>false");
  // One node returned twice is one stored value read twice: two copies.
  EXPECT_EQ(Adopted("declare function local:twice() "
                    "{ let $a := <a/> return ($a, $a) }; "
                    "let $r := <r>{local:twice()}</r> "
                    "return ($r, $r/a[1] is $r/a[2])"),
            "<r><a/><a/></r>false");
}

TEST(Adoption, OrderByOverConstructedNodes) {
  EXPECT_EQ(Adopted("<r>{for $i in (3, 1, 2) order by $i "
                    "return <n v=\"{$i}\">{text {$i}}</n>}</r>"),
            "<r><n v=\"1\">1</n><n v=\"2\">2</n><n v=\"3\">3</n></r>");
  EXPECT_EQ(Adopted("let $r := <r>{for $i in (2, 1) order by $i descending "
                    "return <n>{$i}</n>}</r> return $r/n[1] << $r/n[2]"),
            "true");
}

TEST(Adoption, TracedContent) {
  // fn:trace returns its last argument; a builtin's result is never
  // adopted, and both modes trace the same line.
  EXPECT_EQ(Adopted("<r>{trace(<a/>, \"t\")}</r>"), "<r>t</r>");
  EXPECT_EQ(Adopted("<r>{trace(\"t\", <a/>)}</r>"), "<r><a/></r>");
  EXPECT_EQ(Adopted("let $t := trace(\"t\", <a/>) "
                    "return (<r>{$t}</r>, empty($t/..))"),
            "<r><a/></r>true");
}

TEST(Adoption, AttributeAfterAdoptedContentIsStillAnError) {
  BothModes plain = RunBothModes("<r>{<a/>, attribute x {\"1\"}}</r>");
  ASSERT_FALSE(plain.streamed.ok());
  EXPECT_NE(plain.streamed.status().message().find("XQTY0024"),
            std::string::npos);
  EXPECT_EQ(Adopted("try { <r>{<a/>, attribute x {\"1\"}}</r> } "
                    "catch { \"caught\" }"),
            "caught");
  // The error comes from the content, after every part was evaluated.
  BothModes traced = RunBothModes(
      "try { <r>{<a/>, attribute x {\"1\"}, trace(\"late\", 1)}</r> } "
      "catch { \"caught\" }");
  ASSERT_TRUE(traced.streamed.ok());
  EXPECT_EQ(traced.streamed->SerializedItems(), "caught");
  EXPECT_EQ(traced.streamed->trace_output.size(), 1u);
  // Leading attributes fold, then fresh content is adopted.
  EXPECT_EQ(Adopted("<r>{attribute x {\"1\"}, <a/>, text {\"t\"}}</r>"),
            "<r x=\"1\"><a/>t</r>");
}

TEST(Adoption, ConstructorOnlyContentCopiesNothing) {
  const std::string query =
      "declare function local:chain($n) "
      "{ if ($n le 0) then <leaf/> else <c>{local:chain($n - 1)}</c> }; "
      "<r>{<a><b/></a>, for $i in 1 to 3 return <c>{$i}</c>, "
      "local:chain(50), comment {\"x\"}}</r>";
  BothModes runs = RunBothModes(query);
  ASSERT_TRUE(runs.streamed.ok()) << runs.streamed.status().ToString();
  ASSERT_TRUE(runs.copying.ok());
  EXPECT_EQ(runs.streamed->stats.nodes_copied, 0u);
  EXPECT_GT(runs.copying->stats.nodes_copied, 0u);
  // The copying oracle builds the same nodes and copies each once per
  // ancestor constructor; adoption builds each once.
  EXPECT_EQ(runs.streamed->stats.constructed_nodes,
            runs.copying->stats.constructed_nodes);
  EXPECT_LT(runs.streamed->arena->node_count(),
            runs.copying->arena->node_count());

  // Content read from a variable or the input is still copied.
  BothModes stored = RunBothModes("let $a := <a><b/></a> return <r>{$a}</r>");
  ASSERT_TRUE(stored.streamed.ok());
  EXPECT_EQ(stored.streamed->stats.nodes_copied, 2u);
}

}  // namespace
}  // namespace lll
