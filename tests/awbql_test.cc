// The AWB query calculus: parser, native evaluator, XQuery backend, and the
// differential property that both backends agree on every query.

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awbql/native.h"
#include "awbql/query.h"
#include "awbql/xquery_backend.h"
#include "gtest/gtest.h"
#include "xml/parser.h"

namespace lll::awbql {
namespace {

using awb::Metamodel;
using awb::Model;
using awb::ModelNode;

class AwbqlTest : public ::testing::Test {
 protected:
  AwbqlTest() : mm_(awb::MakeItArchitectureMetamodel()), model_(&mm_) {
    // A tiny model with known answers:
    //   alice likes bob, alice favors carol, bob likes carol
    //   alice uses orion (the SBD); carol uses prog1 (advisory violation)
    //   orion has prog-sub; prog-sub has prog1, prog2
    orion_ = model_.CreateNode("SystemBeingDesigned", "Orion");
    orion_->SetProperty("version", "1.0");
    alice_ = model_.CreateNode("User", "Alice");
    bob_ = model_.CreateNode("User", "Bob");
    carol_ = model_.CreateNode("Superuser", "Carol");
    sub_ = model_.CreateNode("Subsystem", "core");
    prog1_ = model_.CreateNode("Program", "alpha");
    prog2_ = model_.CreateNode("Program", "beta");
    Must(model_.Connect("likes", alice_, bob_));
    Must(model_.Connect("favors", alice_, carol_));
    Must(model_.Connect("likes", bob_, carol_));
    Must(model_.Connect("uses", alice_, orion_));
    Must(model_.Connect("uses", carol_, prog1_));
    Must(model_.Connect("has", orion_, sub_));
    Must(model_.Connect("has", sub_, prog1_));
    Must(model_.Connect("has", sub_, prog2_));
  }

  static void Must(const Result<awb::RelationObject*>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::vector<std::string> Labels(
      const std::vector<const ModelNode*>& nodes) const {
    std::vector<std::string> out;
    for (const ModelNode* n : nodes) out.push_back(model_.Label(n));
    return out;
  }

  std::vector<std::string> RunNative(const std::string& text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto result = EvalNative(*query, model_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Labels(result.ok() ? *result : std::vector<const ModelNode*>{});
  }

  Metamodel mm_;
  Model model_;
  ModelNode* orion_;
  ModelNode* alice_;
  ModelNode* bob_;
  ModelNode* carol_;
  ModelNode* sub_;
  ModelNode* prog1_;
  ModelNode* prog2_;
};

TEST_F(AwbqlTest, ParserRoundTrip) {
  const char* text =
      "from type:User\n"
      "follow likes>\n"
      "follow uses> to:Program\n"
      "filter has:version\n"
      "sort label\n"
      "limit 5\n";
  auto query = ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(QueryToText(*query), text);
  auto again = ParseQuery(QueryToText(*query));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(QueryToText(*again), text);
}

TEST_F(AwbqlTest, FocusSourceRoundTripsAndEvaluates) {
  auto query = ParseQuery("from focus\nfollow likes>\nsort label\n");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(QueryToText(*query), "from focus\nfollow likes>\nsort label\n");
  // XML form round trip.
  auto doc = xml::Parse(
      "<query><from focus=\"true\"/><follow relation=\"likes\" "
      "direction=\"forward\"/><sort by=\"label\"/></query>");
  ASSERT_TRUE(doc.ok());
  auto from_xml = ParseQueryXml((*doc)->DocumentElement());
  ASSERT_TRUE(from_xml.ok());
  EXPECT_EQ(QueryToText(*from_xml), QueryToText(*query));
  // Native eval needs a focus...
  EXPECT_FALSE(EvalNative(*query, model_).ok());
  auto with_focus = EvalNative(*query, model_, alice_);
  ASSERT_TRUE(with_focus.ok());
  EXPECT_EQ(Labels(*with_focus), std::vector<std::string>({"Bob", "Carol"}));
  // ...and so does the XQuery backend.
  XQueryBackend backend(&model_);
  EXPECT_FALSE(backend.Eval(*query).ok());
  auto xq_with_focus = backend.Eval(*query, alice_);
  ASSERT_TRUE(xq_with_focus.ok()) << xq_with_focus.status().ToString();
  EXPECT_EQ(Labels(*xq_with_focus),
            std::vector<std::string>({"Bob", "Carol"}));
}

TEST_F(AwbqlTest, ParserErrors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("follow likes>\n").ok());  // no from
  EXPECT_FALSE(ParseQuery("from all\nfollow likes\n").ok());  // no direction
  EXPECT_FALSE(ParseQuery("from all\nfrobnicate\n").ok());
  EXPECT_FALSE(ParseQuery("from bogus:x\n").ok());
  EXPECT_FALSE(ParseQuery("from all\nlimit many\n").ok());
  EXPECT_FALSE(ParseQuery("from all\nfilter nope:x\n").ok());
}

TEST_F(AwbqlTest, XmlFormMatchesTextForm) {
  auto doc = xml::Parse(
      "<query>"
      "<from type=\"User\"/>"
      "<follow relation=\"likes\" direction=\"forward\"/>"
      "<sort by=\"label\"/>"
      "</query>");
  ASSERT_TRUE(doc.ok());
  auto from_xml = ParseQueryXml((*doc)->DocumentElement());
  ASSERT_TRUE(from_xml.ok()) << from_xml.status().ToString();
  auto from_text = ParseQuery("from type:User\nfollow likes>\nsort label\n");
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(QueryToText(*from_xml), QueryToText(*from_text));
}

TEST_F(AwbqlTest, ThePaperQuery) {
  // "Start at this user; follow the relation likes forwards; follow the
  // relation uses but only to computer programs from there; collect the
  // results, sorted by label."
  auto labels = RunNative("from node:" + alice_->id() +
                          "\nfollow likes>\nfollow uses> to:Program\n"
                          "sort label\n");
  // alice likes/favors {bob, carol}; carol uses prog1 (alpha); bob uses
  // nothing. Orion is not a Program, so alice's own uses-edge is irrelevant.
  EXPECT_EQ(labels, std::vector<std::string>({"alpha"}));
}

TEST_F(AwbqlTest, SubtypeSemanticsInFollow) {
  // favors counts as likes.
  auto labels = RunNative("from node:" + alice_->id() + "\nfollow likes>\nsort label\n");
  EXPECT_EQ(labels, std::vector<std::string>({"Bob", "Carol"}));
  // but likes does not count as favors.
  labels = RunNative("from node:" + alice_->id() + "\nfollow favors>\n");
  EXPECT_EQ(labels, std::vector<std::string>({"Carol"}));
}

TEST_F(AwbqlTest, BackwardFollow) {
  auto labels =
      RunNative("from node:" + carol_->id() + "\nfollow <likes\nsort label\n");
  EXPECT_EQ(labels, std::vector<std::string>({"Alice", "Bob"}));
}

TEST_F(AwbqlTest, TransitiveHasChain) {
  auto labels = RunNative("from type:SystemBeingDesigned\nfollow has>\n"
                          "follow has>\nsort label\n");
  EXPECT_EQ(labels, std::vector<std::string>({"alpha", "beta"}));
}

TEST_F(AwbqlTest, FiltersAndLimit) {
  EXPECT_EQ(RunNative("from type:Person\nfilter type:Superuser\n"),
            std::vector<std::string>({"Carol"}));
  EXPECT_EQ(RunNative("from type:System\nfilter has:version\n"),
            std::vector<std::string>({"Orion"}));
  EXPECT_EQ(RunNative("from type:System\nfilter missing:version\n"),
            std::vector<std::string>({}));
  EXPECT_EQ(RunNative("from type:User\nfilter prop:name=Bob\n"),
            std::vector<std::string>({"Bob"}));
  EXPECT_EQ(RunNative("from type:User\nsort label\nlimit 2\n"),
            std::vector<std::string>({"Alice", "Bob"}));
}

TEST_F(AwbqlTest, DedupCollectsIntoASet) {
  // bob and alice both reach carol via likes: one carol in the result.
  auto labels = RunNative("from type:User\nfollow likes>\nsort label\n");
  EXPECT_EQ(labels, std::vector<std::string>({"Bob", "Carol"}));
}

TEST_F(AwbqlTest, UnknownStartNodeIsAnError) {
  auto query = ParseQuery("from node:N999\n");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(EvalNative(*query, model_).ok());
}

TEST_F(AwbqlTest, XQueryBackendAgreesOnFixedQueries) {
  XQueryBackend backend(&model_);
  for (const char* text : {
           "from all\n",
           "from type:User\nsort label\n",
           "from type:Person\nfilter type:Superuser\n",
           "from type:SystemBeingDesigned\nfollow has>\nfollow has>\nsort label\n",
           "from type:User\nfollow likes>\nsort label\n",
           "from type:User\nfollow likes>\nfollow uses> to:Program\n",
           "from type:System\nfilter has:version\n",
           "from all\nfilter missing:version\nsort label\nlimit 3\n",
           "from type:User\nsort prop:name\n",
       }) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    auto native = EvalNative(*query, model_);
    ASSERT_TRUE(native.ok()) << text << ": " << native.status().ToString();
    auto via_xquery = backend.Eval(*query);
    ASSERT_TRUE(via_xquery.ok())
        << text << ": " << via_xquery.status().ToString();
    EXPECT_EQ(Labels(*native), Labels(*via_xquery)) << "query: " << text;
  }
}

TEST_F(AwbqlTest, CompiledProgramLooksLikeXQuery) {
  XQueryBackend backend(&model_);
  auto query = ParseQuery("from type:User\nfollow likes>\nsort label\n");
  ASSERT_TRUE(query.ok());
  std::string program = backend.CompileToXQuery(*query);
  EXPECT_NE(program.find("declare function local:is-node-subtype"),
            std::string::npos);
  EXPECT_NE(program.find("doc(\"model\")"), std::string::npos);
  EXPECT_NE(program.find("order by local:label($n)"), std::string::npos);
}

TEST(AwbqlDifferential, BackendsAgreeOnGeneratedModels) {
  // Property test: on synthetic models of varying size/seed, the two
  // backends agree on a family of queries.
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  for (uint64_t seed : {1u, 2u, 3u}) {
    awb::GeneratorConfig config;
    config.seed = seed;
    config.users = 6;
    config.programs = 8;
    config.documents = 4;
    awb::Model model = awb::GenerateItModel(&mm, config);
    XQueryBackend backend(&model);
    for (const char* text : {
             "from type:User\nfollow likes>\nsort label\n",
             "from type:Document\nfilter missing:version\nsort label\n",
             "from type:SystemBeingDesigned\nfollow has>\nfilter type:Program\n",
             "from type:Server\nfollow runs>\nsort label\n",
             "from type:Person\nfollow uses> to:Program\nsort label\n",
         }) {
      auto query = ParseQuery(text);
      ASSERT_TRUE(query.ok());
      auto native = EvalNative(*query, model);
      auto xquery = backend.Eval(*query);
      ASSERT_TRUE(native.ok()) << text;
      ASSERT_TRUE(xquery.ok()) << text << ": " << xquery.status().ToString();
      std::vector<std::string> native_ids, xquery_ids;
      for (auto* n : *native) native_ids.push_back(n->id());
      for (auto* n : *xquery) xquery_ids.push_back(n->id());
      EXPECT_EQ(native_ids, xquery_ids) << "seed " << seed << " query " << text;
    }
  }
}

TEST(AwbqlOmissions, ReportsMissingVersions) {
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  model.CreateNode("SystemBeingDesigned", "Orion")->SetProperty("version", "1");
  model.CreateNode("Document", "good")->SetProperty("version", "2");
  model.CreateNode("Document", "bad");
  auto report = OmissionsReport(model);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0], "bad: missing version");
}

TEST(AwbqlOmissions, ReportsCardinalityProblems) {
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  model.CreateNode("User", "lonely");
  auto report = OmissionsReport(model);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].find("SystemBeingDesigned"), std::string::npos);
}

}  // namespace
}  // namespace lll::awbql
