// Unit tests for the AWB substrate: metamodel hierarchy, model multigraph,
// advisory validation, XML round-trips, and the synthetic generator.

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awb/metamodel.h"
#include "awb/model.h"
#include "awb/xml_io.h"
#include "gtest/gtest.h"

namespace lll::awb {
namespace {

TEST(Metamodel, TypeHierarchy) {
  Metamodel mm = MakeItArchitectureMetamodel();
  ASSERT_TRUE(mm.Validate().ok());
  EXPECT_TRUE(mm.IsNodeSubtype("User", "Person"));
  EXPECT_TRUE(mm.IsNodeSubtype("Superuser", "Person"));
  EXPECT_TRUE(mm.IsNodeSubtype("Superuser", "Entity"));
  EXPECT_TRUE(mm.IsNodeSubtype("Person", "Person"));
  EXPECT_FALSE(mm.IsNodeSubtype("Person", "User"));
  EXPECT_FALSE(mm.IsNodeSubtype("Server", "Person"));
  EXPECT_FALSE(mm.IsNodeSubtype("NoSuch", "Entity"));
}

TEST(Metamodel, RelationHierarchy) {
  Metamodel mm = MakeItArchitectureMetamodel();
  // "favors might be a subtype of likes".
  EXPECT_TRUE(mm.IsRelationSubtype("favors", "likes"));
  EXPECT_TRUE(mm.IsRelationSubtype("likes", "relates"));
  EXPECT_FALSE(mm.IsRelationSubtype("likes", "favors"));
  EXPECT_FALSE(mm.IsRelationSubtype("uses", "likes"));
}

TEST(Metamodel, InheritedProperties) {
  Metamodel mm = MakeItArchitectureMetamodel();
  auto props = mm.AllProperties("Superuser");
  // Inherited root-to-leaf: Entity(name, description) then Person(...), User.
  ASSERT_GE(props.size(), 7u);
  EXPECT_EQ(props[0].name, "name");
  EXPECT_NE(mm.FindProperty("Superuser", "birthYear"), nullptr);
  EXPECT_NE(mm.FindProperty("User", "role"), nullptr);
  EXPECT_EQ(mm.FindProperty("Person", "role"), nullptr);  // declared on User
  EXPECT_EQ(mm.FindProperty("User", "nope"), nullptr);
}

TEST(Metamodel, ValidationCatchesBadDeclarations) {
  Metamodel mm("broken");
  NodeTypeDecl orphan;
  orphan.name = "Child";
  orphan.parent = "Ghost";
  ASSERT_TRUE(mm.AddNodeType(orphan).ok());
  EXPECT_FALSE(mm.Validate().ok());

  Metamodel dup("dup");
  NodeTypeDecl t;
  t.name = "T";
  ASSERT_TRUE(dup.AddNodeType(t).ok());
  EXPECT_FALSE(dup.AddNodeType(t).ok());
}

TEST(Metamodel, PropertyValueTyping) {
  EXPECT_TRUE(ValueMatchesType("42", PropertyType::kInteger));
  EXPECT_FALSE(ValueMatchesType("forty-two", PropertyType::kInteger));
  EXPECT_TRUE(ValueMatchesType("true", PropertyType::kBoolean));
  EXPECT_FALSE(ValueMatchesType("yes", PropertyType::kBoolean));
  EXPECT_TRUE(ValueMatchesType("3.5", PropertyType::kDouble));
  EXPECT_TRUE(ValueMatchesType("anything", PropertyType::kString));
  EXPECT_TRUE(ValueMatchesType("<b>markup</b>", PropertyType::kHtml));
}

TEST(Model, NodesEdgesAndAdjacency) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  ModelNode* alice = model.CreateNode("User", "Alice");
  ModelNode* bob = model.CreateNode("User", "Bob");
  ModelNode* carol = model.CreateNode("User", "Carol");
  ASSERT_TRUE(model.Connect("likes", alice, bob).ok());
  ASSERT_TRUE(model.Connect("favors", alice, carol).ok());
  ASSERT_TRUE(model.Connect("likes", bob, carol).ok());

  // Outgoing with subtype semantics: favors counts as likes.
  EXPECT_EQ(model.Outgoing(alice, "likes").size(), 2u);
  EXPECT_EQ(model.Outgoing(alice, "favors").size(), 1u);
  EXPECT_EQ(model.Incoming(carol, "likes").size(), 2u);
  EXPECT_EQ(model.Incoming(alice, "likes").size(), 0u);
  EXPECT_EQ(model.Outgoing(alice).size(), 2u);  // any relation

  EXPECT_EQ(model.Label(alice), "Alice");
  EXPECT_EQ(model.FindNode(alice->id()), alice);
  EXPECT_EQ(model.FindNode("N999"), nullptr);
}

TEST(Model, MultigraphAllowsParallelEdges) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  ModelNode* a = model.CreateNode("User", "a");
  ModelNode* b = model.CreateNode("User", "b");
  ASSERT_TRUE(model.Connect("likes", a, b).ok());
  ASSERT_TRUE(model.Connect("likes", a, b).ok());  // parallel edge: fine
  EXPECT_EQ(model.Outgoing(a, "likes").size(), 2u);
}

TEST(Model, NodesOfTypeWithSubtypes) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  model.CreateNode("User", "u");
  model.CreateNode("Superuser", "su");
  model.CreateNode("Server", "s");
  EXPECT_EQ(model.NodesOfType("User").size(), 2u);
  EXPECT_EQ(model.NodesOfType("User", /*include_subtypes=*/false).size(), 1u);
  EXPECT_EQ(model.NodesOfType("Person").size(), 2u);
  EXPECT_EQ(model.NodesOfType("Entity").size(), 3u);
}

TEST(Model, AdvisoryValidation) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  // No SystemBeingDesigned: a cardinality warning, not an error.
  ModelNode* user = model.CreateNode("User", "u");
  ModelNode* prog = model.CreateNode("Program", "p");
  // Person uses Program: against the metamodel's advice, but allowed.
  ASSERT_TRUE(model.Connect("uses", user, prog).ok());
  // Ad hoc property: allowed, warned.
  user->SetProperty("middleName", "Q.");
  // Bad value for declared integer property.
  user->SetProperty("birthYear", "eighties");

  auto warnings = model.Validate();
  auto count = [&warnings](ModelWarning::Kind kind) {
    size_t n = 0;
    for (const auto& w : warnings) {
      if (w.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(ModelWarning::Kind::kCardinality), 1u);
  EXPECT_EQ(count(ModelWarning::Kind::kEndpointViolation), 1u);
  EXPECT_EQ(count(ModelWarning::Kind::kAdHocProperty), 1u);
  EXPECT_EQ(count(ModelWarning::Kind::kBadPropertyValue), 1u);
}

TEST(Model, CardinalityRuleSatisfiedBySubtypeInstances) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  model.CreateNode("SystemBeingDesigned", "Orion");
  auto warnings = model.Validate();
  for (const auto& w : warnings) {
    EXPECT_NE(w.kind, ModelWarning::Kind::kCardinality) << w.message;
  }
}

TEST(Model, TwoSystemBeingDesignedNodesWarn) {
  // "There should have been exactly one SystemBeingDesigned node, but there
  // were two."
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  model.CreateNode("SystemBeingDesigned", "one");
  model.CreateNode("SystemBeingDesigned", "two");
  bool found = false;
  for (const auto& w : model.Validate()) {
    if (w.kind == ModelWarning::Kind::kCardinality) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Model, MissingRecommendedPropertyWarns) {
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  model.CreateNode("SystemBeingDesigned", "Orion")->SetProperty("version", "1");
  model.CreateNode("Document", "doc-without-version");
  bool found = false;
  for (const auto& w : model.Validate()) {
    if (w.kind == ModelWarning::Kind::kMissingRecommended &&
        w.message.find("version") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GlassCatalog, HasNoSystemBeingDesignedRule) {
  // "the glass catalog doesn't have a SystemBeingDesigned node at all, nor a
  // warning about it."
  Metamodel mm = MakeGlassCatalogMetamodel();
  ASSERT_TRUE(mm.Validate().ok());
  Model model(&mm);
  model.CreateNode("Goblet", "g");
  for (const auto& w : model.Validate()) {
    EXPECT_NE(w.kind, ModelWarning::Kind::kCardinality) << w.message;
  }
}

TEST(AwbMeta, RetargetsToItself) {
  Metamodel mm = MakeAwbMetaMetamodel();
  ASSERT_TRUE(mm.Validate().ok());
  Model model(&mm);
  ModelNode* persons = model.CreateNode("NodeTypeDef", "Person");
  ModelNode* first = model.CreateNode("PropertyDef", "firstName");
  first->SetProperty("valueType", "string");
  ASSERT_TRUE(model.Connect("has", persons, first).ok());
  EXPECT_TRUE(model.Validate().empty());
}

TEST(AwbMeta, ReflectMetamodelDescribesItArchitecture) {
  // "AWB has retargeted to be a workbench for ... (2) itself." Reflect the
  // IT metamodel into an awb-meta model and interrogate it like any model.
  Metamodel it = MakeItArchitectureMetamodel();
  Metamodel meta = MakeAwbMetaMetamodel();
  Model reflection = ReflectMetamodel(it, &meta);

  // One NodeTypeDef per node type, one RelationTypeDef per relation.
  EXPECT_EQ(reflection.NodesOfType("NodeTypeDef").size(),
            it.node_types().size());
  EXPECT_EQ(reflection.NodesOfType("RelationTypeDef").size(),
            it.relation_types().size());

  // Person's properties became PropertyDef nodes hanging off it.
  const ModelNode* person = nullptr;
  for (const ModelNode* n : reflection.NodesOfType("NodeTypeDef")) {
    if (reflection.Label(n) == "Person") person = n;
  }
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(*person->Property("extends"), "Entity");
  EXPECT_EQ(reflection.Outgoing(person, "has").size(), 4u);  // four props

  // The Document.version PropertyDef carries its recommendedness.
  const ModelNode* version = nullptr;
  for (const ModelNode* n : reflection.NodesOfType("PropertyDef")) {
    if (reflection.Label(n) == "Document.version") version = n;
  }
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(*version->Property("recommended"), "true");

  // The reflection is a well-behaved model: only blessed edges, no warnings
  // beyond ad-hoc none.
  EXPECT_TRUE(reflection.Validate().empty());

  // And it round-trips through the interchange format like any other model.
  auto reimported =
      ImportModelXml(&meta, ExportModelXml(reflection));
  ASSERT_TRUE(reimported.ok());
  EXPECT_EQ(reimported->node_count(), reflection.node_count());
}

TEST(XmlIo, ModelRoundTrip) {
  Metamodel mm = MakeItArchitectureMetamodel();
  GeneratorConfig config;
  config.seed = 11;
  Model original = GenerateItModel(&mm, config);

  std::string xml_text = ExportModelXml(original);
  auto imported = ImportModelXml(&mm, xml_text);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  EXPECT_EQ(imported->node_count(), original.node_count());
  EXPECT_EQ(imported->relation_count(), original.relation_count());
  // Spot-check a node's properties survive.
  for (const ModelNode* node : original.nodes()) {
    const ModelNode* copy = imported->FindNode(node->id());
    ASSERT_NE(copy, nullptr) << node->id();
    EXPECT_EQ(copy->type(), node->type());
    EXPECT_EQ(copy->properties(), node->properties());
  }
  // And the re-export is byte-identical (canonical form).
  EXPECT_EQ(ExportModelXml(*imported), xml_text);
}

TEST(XmlIo, ExportBytesArePinned) {
  // A golden of the serializer's pretty-printed, declared output over a
  // model export, with escapes in both text and attribute positions.
  Metamodel mm = MakeItArchitectureMetamodel();
  Model model(&mm);
  ModelNode* alice = model.CreateNode("User", "Alice & \"Al\"");
  ModelNode* bob = model.CreateNode("User", "<Bob>");
  ASSERT_TRUE(model.Connect("likes", alice, bob).ok());
  EXPECT_EQ(ExportModelXml(model),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<awb-model metamodel=\"it-architecture\">\n"
            "  <node id=\"N1\" type=\"User\">\n"
            "    <property name=\"name\">Alice &amp; \"Al\"</property>\n"
            "  </node>\n"
            "  <node id=\"N2\" type=\"User\">\n"
            "    <property name=\"name\">&lt;Bob&gt;</property>\n"
            "  </node>\n"
            "  <relation id=\"R1\" type=\"likes\" source=\"N1\" target=\"N2\"/>\n"
            "</awb-model>");
}

TEST(XmlIo, MetamodelRoundTrip) {
  Metamodel mm = MakeItArchitectureMetamodel();
  std::string xml_text = ExportMetamodelXml(mm);
  auto imported = ImportMetamodelXml(xml_text);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->name(), mm.name());
  EXPECT_EQ(imported->node_types().size(), mm.node_types().size());
  EXPECT_EQ(imported->relation_types().size(), mm.relation_types().size());
  EXPECT_EQ(imported->rules().size(), mm.rules().size());
  EXPECT_TRUE(imported->IsNodeSubtype("Superuser", "Entity"));
  EXPECT_TRUE(imported->IsRelationSubtype("favors", "likes"));
  const PropertyDecl* version = imported->FindProperty("Document", "version");
  ASSERT_NE(version, nullptr);
  EXPECT_TRUE(version->recommended);
}

TEST(XmlIo, ImportRejectsMalformedModels) {
  Metamodel mm = MakeItArchitectureMetamodel();
  EXPECT_FALSE(ImportModelXml(&mm, "<wrong-root/>").ok());
  EXPECT_FALSE(ImportModelXml(&mm, "<awb-model><node/></awb-model>").ok());
  EXPECT_FALSE(
      ImportModelXml(&mm,
                     "<awb-model><node id=\"N1\" type=\"User\"/>"
                     "<node id=\"N1\" type=\"User\"/></awb-model>")
          .ok());
  EXPECT_FALSE(
      ImportModelXml(&mm, "<awb-model><relation type=\"has\"/></awb-model>")
          .ok());
}

TEST(Generator, DeterministicAndShaped) {
  Metamodel mm = MakeItArchitectureMetamodel();
  GeneratorConfig config;
  config.seed = 5;
  Model a = GenerateItModel(&mm, config);
  Model b = GenerateItModel(&mm, config);
  EXPECT_EQ(ExportModelXml(a), ExportModelXml(b));

  EXPECT_EQ(a.NodesOfType("SystemBeingDesigned").size(), 1u);
  EXPECT_EQ(a.NodesOfType("User").size(), config.users);
  EXPECT_EQ(a.NodesOfType("Server").size(), config.servers);
  EXPECT_GE(a.relation_count(), config.users);  // has-edges at minimum
}

TEST(Generator, OmissionRateProducesOmissions) {
  Metamodel mm = MakeItArchitectureMetamodel();
  GeneratorConfig config;
  config.documents = 40;
  config.omission_rate = 0.5;
  Model model = GenerateItModel(&mm, config);
  size_t missing = 0;
  for (const ModelNode* doc : model.NodesOfType("Document")) {
    if (doc->Property("version") == nullptr) ++missing;
  }
  EXPECT_GT(missing, 5u);
  EXPECT_LT(missing, 35u);
}

TEST(Generator, NoSystemBeingDesignedMode) {
  Metamodel mm = MakeItArchitectureMetamodel();
  GeneratorConfig config;
  config.include_system_being_designed = false;
  Model model = GenerateItModel(&mm, config);
  EXPECT_TRUE(model.NodesOfType("SystemBeingDesigned").empty());
}

TEST(Generator, GlassModel) {
  Metamodel mm = MakeGlassCatalogMetamodel();
  GlassGeneratorConfig config;
  Model model = GenerateGlassModel(&mm, config);
  EXPECT_EQ(model.NodesOfType("GlassPiece").size(), config.pieces);
  EXPECT_EQ(model.NodesOfType("Maker").size(), config.makers);
  // Every piece has a maker edge.
  for (const ModelNode* piece : model.NodesOfType("GlassPiece")) {
    EXPECT_EQ(model.Outgoing(piece, "madeBy").size(), 1u);
  }
}

}  // namespace
}  // namespace lll::awb
