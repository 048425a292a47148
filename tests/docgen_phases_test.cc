// Unit tests for the individual XQuery phase programs (xq_programs.cc), run
// standalone on handcrafted inputs -- each phase is an XQuery program with
// its own contract, testable in isolation.

#include <string>

#include "gtest/gtest.h"
#include "docgen/xq_programs.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace lll::docgen {
namespace {

// Runs one phase with `doc` (an element) as doc("doc"); optional model and
// metamodel for phase 2.
std::string RunPhase(const std::string& program, const std::string& doc_xml,
                     const std::string& model_xml = "",
                     const std::string& metamodel_xml = "") {
  auto doc = xml::Parse(doc_xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  xq::ExecuteOptions opts;
  opts.documents["doc"] = (*doc)->DocumentElement();
  std::unique_ptr<xml::Document> model_doc, metamodel_doc;
  if (!model_xml.empty()) {
    auto parsed = xml::Parse(model_xml, {.strip_insignificant_whitespace = true});
    EXPECT_TRUE(parsed.ok());
    model_doc = std::move(*parsed);
    opts.documents["model"] = model_doc->root();
  }
  if (!metamodel_xml.empty()) {
    auto parsed =
        xml::Parse(metamodel_xml, {.strip_insignificant_whitespace = true});
    EXPECT_TRUE(parsed.ok());
    metamodel_doc = std::move(*parsed);
    opts.documents["metamodel"] = metamodel_doc->root();
  }
  auto result = xq::Run(program, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "<ERROR>";
  return result->SerializedItems();
}

TEST(Phase5Strip, RemovesInternalDataWholesale) {
  EXPECT_EQ(RunPhase(Phase5StripProgram(),
                     "<doc><p>keep</p>"
                     "<INTERNAL-DATA><VISITED node-id=\"N1\"/></INTERNAL-DATA>"
                     "<div><INTERNAL-DATA>deep</INTERNAL-DATA><b>b</b></div>"
                     "</doc>"),
            "<doc><p>keep</p><div><b>b</b></div></doc>");
}

TEST(Phase5Strip, PreservesAttributesAndText) {
  EXPECT_EQ(RunPhase(Phase5StripProgram(),
                     "<doc a=\"1\"><p b=\"2\">x y</p></doc>"),
            "<doc a=\"1\"><p b=\"2\">x y</p></doc>");
}

TEST(Phase3Toc, BuildsTheListFromEntries) {
  std::string out = RunPhase(
      Phase3TocProgram(),
      "<doc><lll-toc-marker/>"
      "<INTERNAL-DATA><TOC-ENTRY depth=\"1\" text=\"One\"/></INTERNAL-DATA>"
      "<INTERNAL-DATA><TOC-ENTRY depth=\"2\" text=\"Two\"/></INTERNAL-DATA>"
      "</doc>");
  EXPECT_NE(out.find("<ul class=\"toc\">"
                     "<li class=\"toc-depth-1\">One</li>"
                     "<li class=\"toc-depth-2\">Two</li></ul>"),
            std::string::npos);
  // The INTERNAL-DATA survives phase 3 (phase 5 strips it).
  EXPECT_NE(out.find("INTERNAL-DATA"), std::string::npos);
}

TEST(Phase3Toc, EmptyTocForNoEntries) {
  EXPECT_EQ(RunPhase(Phase3TocProgram(), "<doc><lll-toc-marker/></doc>"),
            "<doc><ul class=\"toc\"/></doc>");
}

TEST(Phase4Placeholders, SplitsTextNodes) {
  std::string out = RunPhase(
      Phase4PlaceholdersProgram(),
      "<doc>"
      "<INTERNAL-DATA><PLACEHOLDER name=\"T\"><b>bold</b></PLACEHOLDER>"
      "</INTERNAL-DATA>"
      "<p>before T-GOES-HERE after</p></doc>");
  EXPECT_NE(out.find("<p>before <b>bold</b> after</p>"), std::string::npos);
}

TEST(Phase4Placeholders, MultipleOccurrencesAndPlaceholders) {
  std::string out = RunPhase(
      Phase4PlaceholdersProgram(),
      "<doc>"
      "<INTERNAL-DATA><PLACEHOLDER name=\"A\"><x/></PLACEHOLDER>"
      "<PLACEHOLDER name=\"B\"><y/></PLACEHOLDER></INTERNAL-DATA>"
      "<p>A-GOES-HERE and B-GOES-HERE and A-GOES-HERE</p></doc>");
  EXPECT_NE(out.find("<x/> and <y/> and <x/>"), std::string::npos);
}

TEST(Phase4Placeholders, ContentInsideInternalDataIsNotRewritten) {
  // The placeholder definition itself contains the token of another
  // placeholder; definitions are copied verbatim, not expanded.
  std::string out = RunPhase(
      Phase4PlaceholdersProgram(),
      "<doc>"
      "<INTERNAL-DATA><PLACEHOLDER name=\"A\">see B-GOES-HERE</PLACEHOLDER>"
      "<PLACEHOLDER name=\"B\"><y/></PLACEHOLDER></INTERNAL-DATA>"
      "<p>A-GOES-HERE</p></doc>");
  // The body expansion splices A's content verbatim.
  EXPECT_NE(out.find("<p>see B-GOES-HERE</p>"), std::string::npos);
}

TEST(Phase4Placeholders, ScansForPlaceholdersOncePerRun) {
  // Phase 4 splits every text node against doc("doc")//PLACEHOLDER. In the
  // pipeline doc("doc") is the previous phase's result, a parentless root
  // element; the scan is the same for every text node, so the node-set
  // cache computes it once and every later text node hits it.
  constexpr size_t kTexts = 60;
  std::string xml =
      "<doc><INTERNAL-DATA><PLACEHOLDER name=\"T\"><b>bold</b></PLACEHOLDER>"
      "</INTERNAL-DATA>";
  for (size_t i = 0; i < kTexts; ++i) {
    xml += "<p>text " + std::to_string(i) + " T-GOES-HERE</p>";
  }
  xml += "</doc>";
  auto parsed = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  xml::Document phase3_output;
  xml::Node* root = phase3_output.ImportNode((*parsed)->DocumentElement());
  ASSERT_EQ(root->parent(), nullptr);

  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.documents["doc"] = root;
  opts.eval.nodeset_cache = &cache;
  auto result = xq::Run(Phase4PlaceholdersProgram(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->SerializedItems().find("<p>text 59 <b>bold</b></p>"),
            std::string::npos);
  // The text inside INTERNAL-DATA is copied verbatim, so exactly kTexts
  // text nodes look the placeholders up: one miss, then hits. The other two
  // misses are the root's own attribute::* and child::node() in local:copy,
  // read once each.
  EXPECT_EQ(result->stats.nodeset_cache_hits, kTexts - 1);
  EXPECT_EQ(result->stats.nodeset_cache_misses, 3u);
}

TEST(Phase2Omissions, ListsUnvisitedNodesOfRequestedTypes) {
  const char* metamodel =
      "<awb-metamodel name=\"t\">"
      "<node-type name=\"A\"/><node-type name=\"B\" extends=\"A\"/>"
      "</awb-metamodel>";
  const char* model =
      "<awb-model metamodel=\"t\">"
      "<node id=\"N1\" type=\"A\"><property name=\"name\">one</property></node>"
      "<node id=\"N2\" type=\"B\"><property name=\"name\">two</property></node>"
      "<node id=\"N3\" type=\"A\"><property name=\"name\">three</property></node>"
      "</awb-model>";
  std::string out = RunPhase(
      Phase2OmissionsProgram(),
      "<doc>"
      "<INTERNAL-DATA><VISITED node-id=\"N1\"/></INTERNAL-DATA>"
      "<lll-omissions-marker types=\"A\"/></doc>",
      model, metamodel);
  // N1 visited; N2 (a B, subtype of A) and N3 unvisited.
  EXPECT_NE(out.find("<li>two (B)</li>"), std::string::npos);
  EXPECT_NE(out.find("<li>three (A)</li>"), std::string::npos);
  EXPECT_EQ(out.find("<li>one"), std::string::npos);
}

TEST(Phase2Omissions, NoTypesAttrMeansEverything) {
  const char* metamodel = "<awb-metamodel name=\"t\"><node-type name=\"A\"/>"
                          "</awb-metamodel>";
  const char* model =
      "<awb-model metamodel=\"t\">"
      "<node id=\"N1\" type=\"A\"><property name=\"name\">n1</property></node>"
      "</awb-model>";
  std::string out =
      RunPhase(Phase2OmissionsProgram(), "<doc><lll-omissions-marker/></doc>",
               model, metamodel);
  EXPECT_NE(out.find("<li>n1 (A)</li>"), std::string::npos);
}

TEST(PhasePrograms, AllCompileStandalone) {
  for (const std::string* program :
       {&Phase1InterpretProgram(), &Phase2OmissionsProgram(),
        &Phase3TocProgram(), &Phase4PlaceholdersProgram(),
        &Phase5StripProgram()}) {
    auto compiled = xq::Compile(*program);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  }
}

}  // namespace
}  // namespace lll::docgen
