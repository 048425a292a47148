// Fine-grained XPath semantics: step predicates vs. filter predicates,
// reverse-axis positions, unions/intersections, and document-order rules.
// These are the behaviors that make `//item[2]` and `(//item)[2]` different
// queries -- the kind of thing the paper's authors learned the hard way.

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace lll {
namespace {

using testing::Eval;
using testing::EvalError;
using testing::EvalWithContext;

constexpr char kDoc[] =
    "<doc>"
    "<group><item v=\"1\"/><item v=\"2\"/></group>"
    "<group><item v=\"3\"/></group>"
    "<group><item v=\"4\"/><item v=\"5\"/><item v=\"6\"/></group>"
    "</doc>";

TEST(PathSemantics, StepPredicateCountsPerParent) {
  // //item[2]: items that are the SECOND item child of their parent.
  EXPECT_EQ(EvalWithContext(
                "string-join(for $i in //item[2] return string($i/@v), \",\")",
                kDoc),
            "2,5");
}

TEST(PathSemantics, FilterPredicateCountsAcrossTheSequence) {
  // (//item)[2]: the second item in the whole document.
  EXPECT_EQ(EvalWithContext("string((//item)[2]/@v)", kDoc), "2");
  EXPECT_EQ(EvalWithContext("string((//item)[last()]/@v)", kDoc), "6");
}

TEST(PathSemantics, LastInStepPredicates) {
  // //item[last()]: the last item of EACH group.
  EXPECT_EQ(EvalWithContext("string-join(for $i in //item[last()] "
                            "return string($i/@v), \",\")",
                            kDoc),
            "2,3,6");
}

TEST(PathSemantics, ChainedPredicates) {
  // [position() > 1][1] applies left to right: drop the first, keep the new
  // first.
  EXPECT_EQ(EvalWithContext("string((//item)[position() > 1][1]/@v)", kDoc),
            "2");
  EXPECT_EQ(Eval("(1 to 10)[. mod 2 = 0][position() le 2]"), "2 4");
}

TEST(PathSemantics, ReverseAxisPositions) {
  const char* doc = "<a><b/><c/><d/><e/></a>";
  // preceding-sibling counts from nearest to farthest.
  EXPECT_EQ(EvalWithContext("name(//d/preceding-sibling::*[1])", doc), "c");
  EXPECT_EQ(EvalWithContext("name(//d/preceding-sibling::*[2])", doc), "b");
  // ancestor axis likewise.
  const char* nested = "<x><y><z><w/></z></y></x>";
  EXPECT_EQ(EvalWithContext("name(//w/ancestor::*[1])", nested), "z");
  EXPECT_EQ(EvalWithContext("name(//w/ancestor::*[3])", nested), "x");
  // But the RESULT is in document order regardless.
  EXPECT_EQ(EvalWithContext(
                "string-join(for $a in //w/ancestor::* return name($a), \",\")",
                nested),
            "x,y,z");
}

TEST(PathSemantics, UnionIntersectExcept) {
  const char* doc = "<a><b/><c/><d/></a>";
  EXPECT_EQ(EvalWithContext("count(//b | //c | //b)", doc), "2");
  EXPECT_EQ(EvalWithContext(
                "string-join(for $n in (//c | //b) return name($n), \",\")",
                doc),
            "b,c");  // document order, not query order
  EXPECT_EQ(EvalWithContext("count((//b, //c) intersect //b)", doc), "1");
  EXPECT_EQ(EvalWithContext(
                "string-join(for $n in (//b, //c, //d) except //c "
                "return name($n), \",\")",
                doc),
            "b,d");
  EXPECT_NE(EvalError("(1, 2) union (3)").find("node"), std::string::npos);
}

TEST(PathSemantics, NodeOrderComparisons) {
  const char* doc = "<a x=\"1\"><b/><c><d/></c></a>";
  EXPECT_EQ(EvalWithContext("(//b << //c, //b >> //c, //b << //b)", doc),
            "true false false");
  EXPECT_EQ(EvalWithContext("(//a/@x << //b, //d >> //c, () << //b)", doc),
            "true true");
  EXPECT_NE(EvalError("1 << 2").find("'<<' requires node operands"),
            std::string::npos);
  EXPECT_NE(EvalError("(<a/>, <b/>) >> <c/>").find(">>: expected exactly one"),
            std::string::npos);
}

TEST(PathSemantics, AttributesAreNotChildren) {
  const char* doc = "<a k=\"v\"><b/></a>";
  EXPECT_EQ(EvalWithContext("count(/a/child::node())", doc), "1");
  EXPECT_EQ(EvalWithContext("count(/a/attribute::*)", doc), "1");
  EXPECT_EQ(EvalWithContext("count(/a/@*)", doc), "1");
  // Descendant axis never yields attributes.
  EXPECT_EQ(EvalWithContext("count(//@k)", doc), "1");  // but @ after // works
  EXPECT_EQ(EvalWithContext("count(/a/descendant::node())", doc), "1");
}

TEST(PathSemantics, TextAndCommentNodeTests) {
  auto doc = xml::Parse("<a>one<b>two</b><!--note-->three</a>");
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  EXPECT_EQ(xq::Run("count(/a/text())", opts)->SerializedItems(), "2");
  EXPECT_EQ(xq::Run("count(//text())", opts)->SerializedItems(), "3");
  EXPECT_EQ(xq::Run("count(/a/comment())", opts)->SerializedItems(), "1");
  EXPECT_EQ(xq::Run("string(/a/text()[1])", opts)->SerializedItems(), "one");
  EXPECT_EQ(xq::Run("count(/a/node())", opts)->SerializedItems(), "4");
}

TEST(PathSemantics, ParentOfAttribute) {
  EXPECT_EQ(EvalWithContext("name(//@v[1]/parent::*)",
                            "<a><item v=\"1\"/></a>"),
            "item");
}

TEST(PathSemantics, PathOverAtomicsIsATypeError) {
  EXPECT_NE(EvalError("(1, 2)/child::x").find("XPTY0019"), std::string::npos);
  EXPECT_NE(EvalError("\"s\"/x").find("XPTY0019"), std::string::npos);
}

TEST(PathSemantics, RootAndLoneSlash) {
  const char* doc = "<a><b/></a>";
  EXPECT_EQ(EvalWithContext("count(/)", doc), "1");
  EXPECT_EQ(EvalWithContext("name(/a)", doc), "a");
  EXPECT_EQ(EvalWithContext("count(//b/ancestor-or-self::node())", doc), "3");
  // From a deep node, / gets back to the document root.
  EXPECT_EQ(EvalWithContext("for $b in //b return count($b/ancestor::node())",
                            doc),
            "2");
}

TEST(PathSemantics, PredicatesSeeTheFocusFunctions) {
  EXPECT_EQ(EvalWithContext(
                "string-join(for $g in /doc/group[count(item) ge 2] "
                "return string(count($g/item)), \",\")",
                kDoc),
            "2,3");
  // position() inside a where-less FLWOR body is the PREDICATE focus, not
  // the for variable's index -- classic confusion, pinned here.
  EXPECT_EQ(EvalWithContext("count(//item[position() = last()])", kDoc), "3");
}

TEST(PathSemantics, DescendantOrSelfAbbreviation) {
  const char* doc = "<a><a><a/></a></a>";
  EXPECT_EQ(EvalWithContext("count(//a)", doc), "3");
  EXPECT_EQ(EvalWithContext("count(/a//a)", doc), "2");
  EXPECT_EQ(EvalWithContext("count(//a//a)", doc), "2");
}

TEST(PathSemantics, PathsFromVariables) {
  EXPECT_EQ(EvalWithContext(
                "let $groups := /doc/group return count($groups[3]/item)",
                kDoc),
            "3");
  EXPECT_EQ(EvalWithContext(
                "let $d := /doc return string(($d/group/item)[4]/@v)", kDoc),
            "4");
}

}  // namespace
}  // namespace lll
