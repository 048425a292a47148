// The document generation subsystem: both engines, directive by directive,
// plus the differential property that error-free templates generate
// deep-equal documents on both.

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "docgen/docgen.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"
#include "gtest/gtest.h"
#include "xml/deep_equal.h"
#include "xml/serializer.h"

namespace lll::docgen {
namespace {

class DocgenTest : public ::testing::Test {
 protected:
  DocgenTest() : mm_(awb::MakeItArchitectureMetamodel()), model_(&mm_) {
    orion_ = model_.CreateNode("SystemBeingDesigned", "Orion");
    orion_->SetProperty("version", "1.0");
    alice_ = model_.CreateNode("User", "Alice");
    alice_->SetProperty("role", "architect");
    bob_ = model_.CreateNode("Superuser", "Bob");
    carol_ = model_.CreateNode("User", "Carol");
    doc1_ = model_.CreateNode("Document", "DesignDoc");
    doc1_->SetProperty("version", "2.1");
    doc1_->SetProperty("body", "<p>See TABLE-1-GOES-HERE for details.</p>");
    doc2_ = model_.CreateNode("Document", "Unversioned");
    srv_ = model_.CreateNode("Server", "srv-1");
    prog_ = model_.CreateNode("Program", "alpha");
    Must(model_.Connect("has", orion_, alice_));
    Must(model_.Connect("has", orion_, bob_));
    Must(model_.Connect("has", orion_, carol_));
    Must(model_.Connect("has", orion_, doc1_));
    Must(model_.Connect("uses", alice_, orion_));
    Must(model_.Connect("runs", srv_, prog_));
  }

  static void Must(const Result<awb::RelationObject*>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::string Native(const std::string& template_xml,
                     const GenerateOptions& options = {}) {
    auto result = GenerateNativeFromText(template_xml, model_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->Serialized() : "<FAILED>";
  }

  std::string XQuery(const std::string& template_xml,
                     const GenerateOptions& options = {}) {
    auto result = GenerateXQueryFromText(template_xml, model_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->Serialized() : "<FAILED>";
  }

  void ExpectBothEqual(const std::string& template_xml,
                       const GenerateOptions& options = {}) {
    auto native = GenerateNativeFromText(template_xml, model_, options);
    auto xquery = GenerateXQueryFromText(template_xml, model_, options);
    ASSERT_TRUE(native.ok()) << native.status().ToString();
    ASSERT_TRUE(xquery.ok()) << xquery.status().ToString();
    EXPECT_TRUE(xml::DeepEqual(native->root, xquery->root))
        << "native:  " << native->Serialized() << "\nxquery:  "
        << xquery->Serialized() << "\ndiff: "
        << xml::ExplainDifference(native->root, xquery->root);
  }

  awb::Metamodel mm_;
  awb::Model model_;
  awb::ModelNode* orion_;
  awb::ModelNode* alice_;
  awb::ModelNode* bob_;
  awb::ModelNode* carol_;
  awb::ModelNode* doc1_;
  awb::ModelNode* doc2_;
  awb::ModelNode* srv_;
  awb::ModelNode* prog_;
};

// --- Native engine, directive by directive ------------------------------

TEST_F(DocgenTest, PlainHtmlIsCopied) {
  EXPECT_EQ(Native("<html><body><p class=\"x\">hi</p></body></html>"),
            "<html><body><p class=\"x\">hi</p></body></html>");
}

TEST_F(DocgenTest, ThePaperExampleTemplate) {
  // The paper's running example: a numbered list of users, superusers bolded.
  const char* tpl = R"(<ol>
    <for nodes="from type:User; sort label">
      <li>
        <if>
          <test><focus-is-type type="Superuser"/></test>
          <then><b><label/></b></then>
          <else><label/></else>
        </if>
      </li>
    </for>
  </ol>)";
  EXPECT_EQ(Native(tpl),
            "<ol><li>Alice</li><li><b>Bob</b></li><li>Carol</li></ol>");
}

TEST_F(DocgenTest, ValueOfWithAndWithoutDefault) {
  EXPECT_EQ(Native("<p><for nodes=\"from type:SystemBeingDesigned\">"
                   "<value-of property=\"version\"/></for></p>"),
            "<p>1.0</p>");
  EXPECT_EQ(Native("<p><for nodes=\"from node:" + doc2_->id() + "\">"
                   "<value-of property=\"version\" default=\"draft\"/>"
                   "</for></p>"),
            "<p>draft</p>");
}

TEST_F(DocgenTest, MissingPropertyWithoutDefaultIsGenTrouble) {
  auto result = GenerateNativeFromText(
      "<p><for nodes=\"from node:" + doc2_->id() + "\">"
      "<value-of property=\"version\"/></for></p>",
      model_);
  ASSERT_FALSE(result.ok());
  // The GenTrouble payload: offending node, property, template location.
  std::string report = result.status().ToString();
  EXPECT_NE(report.find(doc2_->id()), std::string::npos);
  EXPECT_NE(report.find("version"), std::string::npos);
  EXPECT_NE(report.find("Unversioned"), std::string::npos);
  EXPECT_NE(report.find("while expanding <value-of"), std::string::npos);
}

TEST_F(DocgenTest, EmbeddedErrorPolicy) {
  GenerateOptions options;
  options.error_policy = GenerateOptions::ErrorPolicy::kEmbed;
  auto result = GenerateNativeFromText(
      "<p><for nodes=\"from node:" + doc2_->id() + "\">"
      "<value-of property=\"version\"/></for>after</p>",
      model_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.errors_embedded, 1u);
  std::string out = result->Serialized();
  EXPECT_NE(out.find("<error>"), std::string::npos);
  EXPECT_NE(out.find("after"), std::string::npos);  // generation continued
}

TEST_F(DocgenTest, SectionsAndTableOfContents) {
  const char* tpl =
      "<doc><table-of-contents/>"
      "<section heading=\"Intro\"><p>text</p>"
      "<section heading=\"Detail\"><p>more</p></section></section>"
      "<section heading=\"Close\"><p>bye</p></section></doc>";
  std::string out = Native(tpl);
  EXPECT_NE(out.find("<ul class=\"toc\">"), std::string::npos);
  EXPECT_NE(out.find("<li class=\"toc-depth-1\">Intro</li>"),
            std::string::npos);
  EXPECT_NE(out.find("<li class=\"toc-depth-2\">Detail</li>"),
            std::string::npos);
  EXPECT_NE(out.find("<h1>Intro</h1>"), std::string::npos);
  EXPECT_NE(out.find("<h2>Detail</h2>"), std::string::npos);
  // The ToC lists entries in document order: Intro, Detail, Close.
  size_t intro = out.find("toc-depth-1\">Intro");
  size_t detail = out.find("toc-depth-2\">Detail");
  size_t close = out.find("toc-depth-1\">Close");
  EXPECT_LT(intro, detail);
  EXPECT_LT(detail, close);
}

TEST_F(DocgenTest, SectionHeadingWithFocusLabel) {
  std::string out = Native(
      "<doc><for nodes=\"from type:User; sort label\">"
      "<section heading=\"About {label}\"><label/></section></for></doc>");
  EXPECT_NE(out.find("<h1>About Alice</h1>"), std::string::npos);
  EXPECT_NE(out.find("<h1>About Carol</h1>"), std::string::npos);
}

TEST_F(DocgenTest, TableOfOmissions) {
  // Visit only the users; documents and servers are omissions.
  auto result = GenerateNativeFromText(
      "<doc><for nodes=\"from type:User\"><label/></for>"
      "<table-of-omissions types=\"Document\"/></doc>",
      model_);
  ASSERT_TRUE(result.ok());
  std::string out = result->Serialized();
  EXPECT_NE(out.find("DesignDoc (Document)"), std::string::npos);
  EXPECT_NE(out.find("Unversioned (Document)"), std::string::npos);
  EXPECT_EQ(out.find("srv-1"), std::string::npos);  // not a Document
  EXPECT_EQ(out.find("Alice ("), std::string::npos);  // visited
  EXPECT_EQ(result->stats.omissions_listed, 2u);
}

TEST_F(DocgenTest, OmissionsWithoutTypesListsEverythingUnvisited) {
  auto result = GenerateNativeFromText(
      "<doc><for nodes=\"from all\"><label/></for>"
      "<table-of-omissions/></doc>",
      model_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.omissions_listed, 0u);  // everything was visited
}

TEST_F(DocgenTest, RelationTable) {
  const char* tpl =
      "<doc><table rows=\"from type:Server; sort label\" "
      "cols=\"from type:Program; sort label\" relation=\"runs\" "
      "corner=\"server\\program\"/></doc>";
  std::string out = Native(tpl);
  EXPECT_EQ(out,
            "<doc><table>"
            "<tr><td>server\\program</td><td>alpha</td></tr>"
            "<tr><td>srv-1</td><td>x</td></tr>"
            "</table></doc>");
}

TEST_F(DocgenTest, RichTextParsesHtmlProperty) {
  std::string out = Native("<doc><for nodes=\"from node:" + doc1_->id() +
                           "\"><rich-text property=\"body\"/></for></doc>");
  EXPECT_NE(out.find("<div class=\"rich-text\"><p>"), std::string::npos);
}

TEST_F(DocgenTest, RichTextFallsBackToTextOnBadMarkup) {
  doc1_->SetProperty("body", "broken < markup");
  std::string out = Native("<doc><for nodes=\"from node:" + doc1_->id() +
                           "\"><rich-text property=\"body\"/></for></doc>");
  EXPECT_NE(out.find("broken &lt; markup"), std::string::npos);
}

TEST_F(DocgenTest, PlaceholderReplacement) {
  // The TABLE-1-GOES-HERE scenario: the token sits inside a messy rich-text
  // blob; the placeholder content is spliced into the middle of the text.
  const char* tpl =
      "<doc>"
      "<placeholder name=\"TABLE-1\"><table rows=\"from type:Server\" "
      "cols=\"from type:Program\" relation=\"runs\"/></placeholder>"
      "<for nodes=\"from node:N5\"><rich-text property=\"body\"/></for>"
      "</doc>";
  auto result = GenerateNativeFromText(tpl, model_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string out = result->Serialized();
  EXPECT_EQ(out.find("TABLE-1-GOES-HERE"), std::string::npos);
  EXPECT_NE(out.find("<p>See <table>"), std::string::npos);
  EXPECT_NE(out.find("</table> for details.</p>"), std::string::npos);
  EXPECT_EQ(result->stats.placeholder_replacements, 1u);
}

TEST_F(DocgenTest, NestedForChangesFocus) {
  std::string out = Native(
      "<doc><for nodes=\"from type:SystemBeingDesigned\">"
      "<h1><label/></h1>"
      "<for nodes=\"from focus; follow has> to:Person; sort label\">"
      "<p><label/></p></for></for></doc>");
  EXPECT_EQ(out,
            "<doc><h1>Orion</h1><p>Alice</p><p>Bob</p><p>Carol</p></doc>");
}

TEST_F(DocgenTest, ConditionCombinators) {
  std::string out = Native(
      "<doc><for nodes=\"from type:User; sort label\">"
      "<if><test><and><focus-has-property name=\"role\"/>"
      "<focus-property-equals name=\"role\" value=\"architect\"/></and></test>"
      "<then><p><label/></p></then></if></for></doc>");
  EXPECT_EQ(out, "<doc><p>Alice</p></doc>");

  out = Native(
      "<doc><for nodes=\"from type:User; sort label\">"
      "<if><test><not><focus-has-property name=\"role\"/></not></test>"
      "<then><p><label/></p></then><else/></if></for></doc>");
  EXPECT_EQ(out, "<doc><p>Bob</p><p>Carol</p></doc>");
}

TEST_F(DocgenTest, NonemptyCondition) {
  std::string out = Native(
      "<doc><if><test><nonempty nodes=\"from type:SystemBeingDesigned\"/>"
      "</test><then>yes</then><else>no</else></if></doc>");
  EXPECT_EQ(out, "<doc>yes</doc>");
  out = Native(
      "<doc><if><test><nonempty nodes=\"from type:Requirement\"/></test>"
      "<then>yes</then><else>no</else></if></doc>");
  EXPECT_EQ(out, "<doc>no</doc>");
}

TEST_F(DocgenTest, StatsAreCollected) {
  auto result = GenerateNativeFromText(
      "<doc><table-of-contents/>"
      "<for nodes=\"from type:User\"><section heading=\"{label}\">"
      "<label/></section></for></doc>",
      model_);
  ASSERT_TRUE(result.ok());
  // `from type:User` is subtype-aware: Alice, Carol, and Bob (a Superuser).
  EXPECT_EQ(result->stats.nodes_visited, 3u);
  EXPECT_EQ(result->stats.toc_entries, 3u);
  EXPECT_EQ(result->stats.document_copies, 0u);  // patched in place
  EXPECT_GT(result->stats.directives_processed, 0u);
}

TEST_F(DocgenTest, MalformedTemplatesAreErrors) {
  EXPECT_FALSE(GenerateNativeFromText("<doc><if><then/></if></doc>", model_).ok());
  EXPECT_FALSE(GenerateNativeFromText("<doc><for>x</for></doc>", model_).ok());
  EXPECT_FALSE(
      GenerateNativeFromText("<doc><value-of/></doc>", model_).ok());
  EXPECT_FALSE(GenerateNativeFromText("<doc><label/></doc>", model_).ok());
  EXPECT_FALSE(GenerateNativeFromText(
                   "<doc><for nodes=\"from type:User\"><section>x</section>"
                   "</for></doc>",
                   model_)
                   .ok());
}

TEST_F(DocgenTest, InitialFocus) {
  GenerateOptions options;
  options.initial_focus_id = alice_->id();
  auto result = GenerateNativeFromText("<p><label/></p>", model_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Serialized(), "<p>Alice</p>");

  options.initial_focus_id = "N999";
  EXPECT_FALSE(GenerateNativeFromText("<p/>", model_, options).ok());
}

// --- The XQuery engine -----------------------------------------------------

TEST_F(DocgenTest, XQueryEngineRunsThePaperTemplate) {
  const char* tpl =
      "<ol><for nodes=\"from type:User; sort label\"><li>"
      "<if><test><focus-is-type type=\"Superuser\"/></test>"
      "<then><b><label/></b></then><else><label/></else></if>"
      "</li></for></ol>";
  EXPECT_EQ(XQuery(tpl),
            "<ol><li>Alice</li><li><b>Bob</b></li><li>Carol</li></ol>");
}

TEST_F(DocgenTest, XQueryEngineCountsPhaseCopies) {
  auto result = GenerateXQueryFromText("<doc><p>x</p></doc>", model_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Four copy phases: omissions, toc, placeholders, strip.
  EXPECT_EQ(result->stats.document_copies, 4u);
  EXPECT_GT(result->stats.eval_steps, 0u);
}

TEST_F(DocgenTest, XQueryEngineSkipsProvenDocumentOrderSorts) {
  // The phase programs are path-heavy (doc("...")//x chains from singleton
  // sources); the ordered bit their steps carry must let a healthy share of
  // their normalizing sorts be skipped.
  auto result = GenerateXQueryFromText(
      "<doc><for nodes=\"from type:User; sort label\"><p><label/></p></for>"
      "<table-of-omissions/></doc>",
      model_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.sorts_skipped, 0u);
}

TEST_F(DocgenTest, XQueryEngineEmbedsErrorsAsValues) {
  auto result = GenerateXQueryFromText(
      "<doc><for nodes=\"from node:" + doc2_->id() + "\">"
      "<value-of property=\"version\"/></for></doc>",
      model_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.errors_embedded, 1u);
  std::string out = result->Serialized();
  EXPECT_NE(out.find("<error>"), std::string::npos);
  EXPECT_NE(out.find("has no property 'version'"), std::string::npos);
}

TEST_F(DocgenTest, XQueryEngineInternalDataIsStripped) {
  std::string out = XQuery(
      "<doc><for nodes=\"from type:User\"><label/></for></doc>");
  EXPECT_EQ(out.find("INTERNAL-DATA"), std::string::npos);
  EXPECT_EQ(out.find("VISITED"), std::string::npos);
}

// --- Differential: both engines agree on error-free templates --------------

TEST_F(DocgenTest, DifferentialSimple) {
  ExpectBothEqual("<html><body><p>hi</p></body></html>");
}

TEST_F(DocgenTest, DifferentialForIfLabel) {
  ExpectBothEqual(
      "<ol><for nodes=\"from type:User; sort label\"><li>"
      "<if><test><focus-is-type type=\"Superuser\"/></test>"
      "<then><b><label/></b></then><else><label/></else></if>"
      "</li></for></ol>");
}

TEST_F(DocgenTest, DifferentialSectionsAndToc) {
  ExpectBothEqual(
      "<doc><table-of-contents/>"
      "<section heading=\"Intro\"><p>text</p>"
      "<section heading=\"Deep\"><p>deeper</p></section></section>"
      "<for nodes=\"from type:User; sort label\">"
      "<section heading=\"About {label}\"><label/></section></for></doc>");
}

TEST_F(DocgenTest, DifferentialOmissions) {
  ExpectBothEqual(
      "<doc><for nodes=\"from type:User; sort label\"><label/></for>"
      "<table-of-omissions types=\"Document, Server\"/></doc>");
}

TEST_F(DocgenTest, DifferentialTable) {
  ExpectBothEqual(
      "<doc><table rows=\"from type:Server; sort label\" "
      "cols=\"from type:Program; sort label\" relation=\"runs\"/></doc>");
}

TEST_F(DocgenTest, DifferentialRichTextAndPlaceholder) {
  ExpectBothEqual(
      "<doc><placeholder name=\"TABLE-1\"><b>the table</b></placeholder>"
      "<for nodes=\"from node:N5\"><rich-text property=\"body\"/></for>"
      "</doc>");
}

TEST_F(DocgenTest, DifferentialValueOfAndConditions) {
  ExpectBothEqual(
      "<doc><for nodes=\"from type:User; sort label\">"
      "<p><label/>: <value-of property=\"role\" default=\"none\"/></p>"
      "<if><test><or><focus-property-equals name=\"role\" value=\"architect\"/>"
      "<focus-is-type type=\"Superuser\"/></or></test>"
      "<then><em>special</em></then></if>"
      "</for></doc>");
}

TEST_F(DocgenTest, DifferentialNestedForWithFocusQueries) {
  ExpectBothEqual(
      "<doc><for nodes=\"from type:SystemBeingDesigned\">"
      "<h1><label/></h1>"
      "<for nodes=\"from focus; follow has> to:Person; sort label\">"
      "<p><label/></p></for></for></doc>");
}

TEST_F(DocgenTest, DifferentialInitialFocus) {
  GenerateOptions options;
  options.initial_focus_id = alice_->id();
  ExpectBothEqual("<p><label/> has role <value-of property=\"role\"/></p>",
                  options);
}

TEST_F(DocgenTest, FocusQueriesAreNotFromAllQueries) {
  // Regression: template normalization once dropped the `from focus` source
  // (emitting `from all`), which the single-system fixture masked. Two
  // systems with disjoint user sets make the difference observable.
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  auto* sys1 = model.CreateNode("System", "Sys1");
  auto* sys2 = model.CreateNode("System", "Sys2");
  auto* u1 = model.CreateNode("User", "OnlyInOne");
  auto* u2 = model.CreateNode("User", "OnlyInTwo");
  ASSERT_TRUE(model.Connect("has", sys1, u1).ok());
  ASSERT_TRUE(model.Connect("has", sys2, u2).ok());
  const char* tpl =
      "<doc><for nodes=\"from type:System; sort label\">"
      "<sys><name><label/></name>"
      "<for nodes=\"from focus; follow has> to:User; sort label\">"
      "<u><label/></u></for></sys></for></doc>";
  auto native = GenerateNativeFromText(tpl, model);
  auto xquery = GenerateXQueryFromText(tpl, model);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  ASSERT_TRUE(xquery.ok()) << xquery.status().ToString();
  const char* expected =
      "<doc><sys><name>Sys1</name><u>OnlyInOne</u></sys>"
      "<sys><name>Sys2</name><u>OnlyInTwo</u></sys></doc>";
  EXPECT_EQ(native->Serialized(), expected);
  EXPECT_EQ(xquery->Serialized(), expected);
}

TEST_F(DocgenTest, DifferentialOnGeneratedModel) {
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::GeneratorConfig config;
  config.seed = 99;
  config.users = 5;
  config.documents = 3;
  awb::Model model = awb::GenerateItModel(&mm, config);
  const char* tpl =
      "<html><body><table-of-contents/>"
      "<section heading=\"Users\">"
      "<for nodes=\"from type:User; sort label\"><p><label/> ("
      "<value-of property=\"role\" default=\"?\"/>)</p></for></section>"
      "<section heading=\"Documents\">"
      "<for nodes=\"from type:Document; sort label\"><p><label/>: v"
      "<value-of property=\"version\" default=\"none\"/></p></for></section>"
      "<section heading=\"Omissions\"><table-of-omissions/></section>"
      "</body></html>";
  auto native = GenerateNativeFromText(tpl, model);
  auto xquery = GenerateXQueryFromText(tpl, model);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  ASSERT_TRUE(xquery.ok()) << xquery.status().ToString();
  EXPECT_TRUE(xml::DeepEqual(native->root, xquery->root))
      << xml::ExplainDifference(native->root, xquery->root);
  EXPECT_EQ(native->stats.nodes_visited, xquery->stats.nodes_visited);
  EXPECT_EQ(native->stats.toc_entries, xquery->stats.toc_entries);
  EXPECT_EQ(native->stats.omissions_listed, xquery->stats.omissions_listed);
}

}  // namespace
}  // namespace lll::docgen
