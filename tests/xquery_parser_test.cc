// Parser-level coverage: precedence, prolog forms, constructor syntax,
// error positions. Golden assertions use ExprToString's canonical rendering.

#include "gtest/gtest.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace lll::xq {
namespace {

std::string Ast(const std::string& source) {
  auto module = ParseExpression(source);
  EXPECT_TRUE(module.ok()) << source << ": " << module.status().ToString();
  return module.ok() ? ExprToString(*module->body) : "<ERR>";
}

std::string ParseErr(const std::string& source) {
  auto module = ParseModule(source);
  EXPECT_FALSE(module.ok()) << source;
  return module.ok() ? "" : module.status().message();
}

TEST(ParserPrecedence, ArithmeticLadder) {
  EXPECT_EQ(Ast("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Ast("1 * 2 + 3"), "((1 * 2) + 3)");
  EXPECT_EQ(Ast("1 - 2 - 3"), "((1 - 2) - 3)");  // left associative
  EXPECT_EQ(Ast("8 idiv 4 idiv 2"), "((8 idiv 4) idiv 2)");
  EXPECT_EQ(Ast("-2 + 3"), "((-2) + 3)");
  EXPECT_EQ(Ast("2 + -3"), "(2 + (-3))");
}

TEST(ParserPrecedence, ComparisonBindsLooserThanArithmetic) {
  EXPECT_EQ(Ast("1 + 2 = 3"), "((1 + 2) = 3)");
  EXPECT_EQ(Ast("1 lt 2 + 3"), "(1 lt (2 + 3))");
}

TEST(ParserPrecedence, BooleanLadder) {
  EXPECT_EQ(Ast("1 = 1 and 2 = 2 or 3 = 3"),
            "(((1 = 1) and (2 = 2)) or (3 = 3))");
  EXPECT_EQ(Ast("1 = 1 or 2 = 2 and 3 = 3"),
            "((1 = 1) or ((2 = 2) and (3 = 3)))");
}

TEST(ParserPrecedence, RangeAndUnion) {
  EXPECT_EQ(Ast("1 to 2 + 3"), "(1 to (2 + 3))");
  EXPECT_EQ(Ast("$a | $b | $c"), "(($a union $b) union $c)");
}

TEST(ParserPrecedence, CommaIsWeakest) {
  EXPECT_EQ(Ast("1, 2 + 3, 4"), "(1, (2 + 3), 4)");
}

TEST(ParserForms, FlworRendering) {
  EXPECT_EQ(Ast("for $x in (1,2) let $y := $x return $y"),
            "for $x in (1, 2) let $y := $x return $y");
  EXPECT_EQ(Ast("for $x at $i in $s return $i"),
            "for $x at $i in $s return $i");
  EXPECT_EQ(Ast("for $x in $s where $x order by $x descending return $x"),
            "for $x in $s where $x order by $x descending return $x");
}

TEST(ParserForms, QuantifiersAndIf) {
  EXPECT_EQ(Ast("some $x in $s satisfies $x"),
            "some $x in $s satisfies $x");
  EXPECT_EQ(Ast("if ($c) then 1 else 2"), "if ($c) then 1 else 2");
}

TEST(ParserForms, PathRendering) {
  EXPECT_EQ(Ast("a/b"), "/child::a/child::b");
  EXPECT_EQ(Ast("/a//b"),
            "(root)/child::a/descendant-or-self::node()/child::b");
  EXPECT_EQ(Ast("$x/@y"), "$x/attribute::y");
  EXPECT_EQ(Ast("../z"), "/parent::node()/child::z");
  EXPECT_EQ(Ast("a[1][2]"), "/child::a[1][2]");
}

TEST(ParserForms, NumberLiterals) {
  EXPECT_EQ(Ast("42"), "42");
  EXPECT_EQ(Ast("4.25"), "4.25");
  EXPECT_EQ(Ast("1e3"), "1000");
  EXPECT_EQ(Ast("1.5E2"), "150");
  // "4." is 4 then context-dependent '.'; keep it simple: integer + error.
}

TEST(ParserForms, StringEscapes) {
  EXPECT_EQ(Ast("\"a&amp;b\""), "\"a&b\"");
  EXPECT_EQ(Ast("'it''s'"), "\"it's\"");
  EXPECT_EQ(Ast("\"say \"\"hi\"\"\""), "\"say \"hi\"\"");
}

TEST(ParserProlog, FunctionsAndVariables) {
  auto module = ParseModule(
      "declare namespace my = \"urn:x\"; "
      "declare boundary-space strip; "
      "declare variable $limit := 10; "
      "declare function local:f($a, $b as xs:integer) as xs:integer "
      "{ $a + $b }; "
      "local:f(1, 2)");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_EQ(module->variables.size(), 1u);
  EXPECT_EQ(module->variables[0].name, "limit");
  ASSERT_EQ(module->functions.size(), 1u);
  const FunctionDecl& fn = module->functions[0];
  EXPECT_EQ(fn.name, "local:f");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "a");
  EXPECT_FALSE(fn.params[0].type.has_value());
  ASSERT_TRUE(fn.params[1].type.has_value());
  EXPECT_EQ(fn.params[1].type->ToString(), "xs:integer");
  ASSERT_TRUE(fn.return_type.has_value());
  EXPECT_EQ(fn.return_type->ToString(), "xs:integer");
}

TEST(ParserProlog, DuplicateArityOverloads) {
  // Same name, different arities: both declared and callable.
  auto module = ParseModule(
      "declare function local:f($a) { $a }; "
      "declare function local:f($a, $b) { $a + $b }; "
      "(local:f(1), local:f(1, 2))");
  ASSERT_TRUE(module.ok());
  EXPECT_EQ(module->functions.size(), 2u);
}

TEST(ParserConstructors, DirectForms) {
  EXPECT_EQ(Ast("<a/>"), "<a></a>");
  EXPECT_EQ(Ast("<a x=\"1\"><b/></a>"), "<a x=\"...\"><b></b></a>");
}

TEST(ParserConstructors, ComputedForms) {
  EXPECT_EQ(Ast("element foo { 1 }"), "element foo {...}");
  EXPECT_EQ(Ast("element {$n} { 1 }"), "element {...} {...}");
  EXPECT_EQ(Ast("attribute a { 1 }"), "attribute a {...}");
  EXPECT_EQ(Ast("text { \"x\" }"), "text {...}");
  EXPECT_EQ(Ast("comment { \"x\" }"), "comment {...}");
  EXPECT_EQ(Ast("document { <r/> }"), "document {...}");
}

TEST(ParserConstructors, ElementAsPlainStepStillWorks) {
  // "element" and "text" are also legitimate element names in paths.
  EXPECT_EQ(Ast("a/element"), "/child::a/child::element");
  EXPECT_EQ(Ast("$x/document"), "$x/child::document");
}

TEST(ParserErrors, PositionsAreReported) {
  EXPECT_NE(ParseErr("1 +").find("line 1"), std::string::npos);
  EXPECT_NE(ParseErr("\n\n  let $x 5 return $x").find("line 3"),
            std::string::npos);
  EXPECT_NE(ParseErr("<a>\n<b>\n</c></a>").find("line 3"), std::string::npos);
}

TEST(ParserErrors, SpecificMessages) {
  EXPECT_NE(ParseErr("for $x return 1").find("'in'"), std::string::npos);
  EXPECT_NE(ParseErr("let $x = 1 return $x").find(":="), std::string::npos);
  EXPECT_NE(ParseErr("if (1) then 2").find("else"), std::string::npos);
  EXPECT_NE(ParseErr("some $x in (1)").find("satisfies"), std::string::npos);
  EXPECT_NE(ParseErr("zebra::x").find("unknown axis"), std::string::npos);
  EXPECT_NE(ParseErr("declare function f() { 1 }").find(";"),
            std::string::npos);
  EXPECT_NE(ParseErr("1 2").find("trailing"), std::string::npos);
}

TEST(ParserAst, CountExprNodes) {
  auto module = ParseExpression(
      "for $x in (1 to 10) where $x > 2 order by $x return <v a=\"{$x}\">{$x"
      "}</v>");
  ASSERT_TRUE(module.ok());
  EXPECT_GT(CountExprNodes(*module->body), 8u);
}

TEST(ParserLexical, WhitespaceFlexibility) {
  EXPECT_EQ(Ast("1+2"), "(1 + 2)");
  EXPECT_EQ(Ast("  1  +  2  "), "(1 + 2)");
  EXPECT_EQ(Ast("count ( ( 1 , 2 ) )"), "count((1, 2))");
  EXPECT_EQ(Ast("a / b"), "/child::a/child::b");
}

TEST(ParserLexical, KeywordsAreContextual) {
  // Keywords work as element names and child steps.
  EXPECT_EQ(Ast("<for/>"), "<for></for>");
  EXPECT_EQ(Ast("$x/return"), "$x/child::return");
  EXPECT_EQ(Ast("$x/if"), "$x/child::if");
  // And as variables.
  EXPECT_EQ(Ast("let $for := 1 return $for"), "let $for := 1 return $for");
}

}  // namespace
}  // namespace lll::xq
