// Unit tests for lll::Status, lll::Result, string utilities, and the RNG.

#include <cmath>

#include "core/result.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"
#include "gtest/gtest.h"

namespace lll {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing child");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing child");
  EXPECT_EQ(st.ToString(), "NotFound: missing child");
}

TEST(Status, GenTroubleContextStacks) {
  // The Java-rewrite error discipline: one message plus data-context frames.
  Status st = Status::CardinalityError(
      "There should have been exactly one SystemBeingDesigned node, "
      "but there were two.");
  st.AddContext("while expanding <system-context> in template node t4");
  st.AddContext("while generating document 'System Context'");
  EXPECT_EQ(st.context().size(), 2u);
  std::string report = st.ToString();
  EXPECT_NE(report.find("SystemBeingDesigned"), std::string::npos);
  EXPECT_NE(report.find("template node t4"), std::string::npos);
  EXPECT_NE(report.find("System Context"), std::string::npos);
}

TEST(Status, OkIsOneNullPointer) {
  static_assert(sizeof(Status) == sizeof(void*));
  Status ok;
  EXPECT_TRUE(ok.message().empty());
  EXPECT_TRUE(ok.context().empty());
  EXPECT_TRUE(Status::Ok().message().empty());
}

TEST(Status, AddContextOnOkKeepsItOk) {
  Status st;
  st.AddContext("while doing nothing wrong");
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  ASSERT_EQ(st.context().size(), 1u);
  EXPECT_EQ(st.context()[0], "while doing nothing wrong");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CopiedErrorIsIndependentOfItsSource) {
  Status source = Status::TypeError("bad operand");
  source.AddContext("in f()");
  Status copy = source;
  copy.AddContext("in g()");
  EXPECT_EQ(source.context().size(), 1u);
  EXPECT_EQ(copy.context().size(), 2u);
  EXPECT_EQ(source.ToString(), "TypeError: bad operand\n  in f()");
  EXPECT_EQ(copy.ToString(), "TypeError: bad operand\n  in f()\n  in g()");

  Status assigned;
  assigned = source;
  source.AddContext("in h()");
  EXPECT_EQ(assigned.ToString(), "TypeError: bad operand\n  in f()");
  assigned = Status();
  EXPECT_TRUE(assigned.ok());

  Status moved = std::move(copy);
  EXPECT_EQ(moved.context().size(), 2u);
  EXPECT_EQ(moved.code(), StatusCode::kTypeError);
}

TEST(Status, ToStringGoldens) {
  EXPECT_EQ(Status().ToString(), "OK");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::ResourceExhausted("").ToString(), "ResourceExhausted: ");
  Status framed = Status::ConstructionError("attribute after content");
  framed.AddContext("in call to f()").AddContext("at line 2, column 3");
  EXPECT_EQ(framed.ToString(),
            "ConstructionError: attribute after content\n"
            "  in call to f()\n"
            "  at line 2, column 3");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kCardinalityError,
        StatusCode::kConstructionError, StatusCode::kUnsupported,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(const std::string& s) {
  auto v = ParseInt(s);
  if (!v) return Status::Invalid("not a number: " + s);
  if (*v <= 0) return Status::OutOfRange("not positive: " + s);
  return static_cast<int>(*v);
}

Result<int> DoublePositive(const std::string& s) {
  LLL_ASSIGN_OR_RETURN(int v, ParsePositive(s));
  return v * 2;
}

TEST(Result, ValueAndErrorPaths) {
  auto ok = DoublePositive("21");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  auto bad = DoublePositive("x");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto neg = DoublePositive("-3");
  EXPECT_FALSE(neg.ok());
  EXPECT_EQ(neg.status().code(), StatusCode::kOutOfRange);
}

TEST(Result, ValueOr) {
  EXPECT_EQ(ParsePositive("7").value_or(-1), 7);
  EXPECT_EQ(ParsePositive("z").value_or(-1), -1);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(TrimWhitespace("  a b  "), "a b");
  EXPECT_EQ(TrimWhitespace("\t\n x \r\n"), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtil, NormalizeSpace) {
  EXPECT_EQ(NormalizeSpace("  a   b\tc \n"), "a b c");
  EXPECT_EQ(NormalizeSpace(""), "");
  EXPECT_EQ(NormalizeSpace("solo"), "solo");
}

TEST(StringUtil, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split(",", ',').size(), 2u);
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtil, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("table-of-contents", "table"));
  EXPECT_FALSE(StartsWith("tab", "table"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abc", "x"));
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // no re-scanning of output
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");   // empty needle is identity
}

TEST(StringUtil, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_EQ(ParseInt("+5").value(), 5);
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StringUtil, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_TRUE(std::isnan(ParseDouble("NaN").value()));
  EXPECT_TRUE(std::isinf(ParseDouble("INF").value()));
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(std::nan("")), "NaN");
  EXPECT_EQ(FormatDouble(HUGE_VAL), "INF");
}

TEST(StringUtil, XmlNameValidation) {
  EXPECT_TRUE(IsValidXmlName("foo"));
  EXPECT_TRUE(IsValidXmlName("table-of-contents"));
  EXPECT_TRUE(IsValidXmlName("_x"));
  EXPECT_TRUE(IsValidXmlName("ns:local"));
  EXPECT_FALSE(IsValidXmlName(""));
  EXPECT_FALSE(IsValidXmlName("1bad"));
  EXPECT_FALSE(IsValidXmlName("no space"));
  EXPECT_FALSE(IsValidXmlName("-dash"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, RangeStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace lll
