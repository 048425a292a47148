// Unit tests for the XML infoset, parser, serializer, and deep-equal.

#include <iterator>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "xml/deep_equal.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace lll::xml {
namespace {

std::unique_ptr<Document> MustParse(const std::string& text,
                                    const ParseOptions& opts = {}) {
  auto doc = Parse(text, opts);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? std::move(*doc) : nullptr;
}

TEST(XmlTree, BuildAndNavigate) {
  Document doc;
  Node* root = doc.CreateElement("library");
  ASSERT_TRUE(doc.root()->AppendChild(root).ok());
  Node* book = doc.CreateElement("book");
  book->SetAttribute("year", "1983");
  ASSERT_TRUE(root->AppendChild(book).ok());
  ASSERT_TRUE(book->AppendChild(doc.CreateText("Tides")).ok());

  EXPECT_EQ(doc.DocumentElement(), root);
  EXPECT_EQ(root->FirstChildElement("book"), book);
  EXPECT_EQ(*book->AttributeValue("year"), "1983");
  EXPECT_EQ(book->StringValue(), "Tides");
  EXPECT_EQ(book->parent(), root);
}

TEST(XmlTree, MutationInsertRemoveReplace) {
  Document doc;
  Node* root = doc.CreateElement("r");
  ASSERT_TRUE(doc.root()->AppendChild(root).ok());
  Node* a = doc.CreateElement("a");
  Node* b = doc.CreateElement("b");
  Node* c = doc.CreateElement("c");
  ASSERT_TRUE(root->AppendChild(a).ok());
  ASSERT_TRUE(root->AppendChild(c).ok());
  ASSERT_TRUE(root->InsertChildAt(1, b).ok());
  EXPECT_EQ(Serialize(root), "<r><a/><b/><c/></r>");

  ASSERT_TRUE(root->RemoveChild(b).ok());
  EXPECT_EQ(Serialize(root), "<r><a/><c/></r>");
  EXPECT_EQ(b->parent(), nullptr);

  // Replace c by (b, new text) -- the "rip the node apart" operation the
  // paper wanted for TABLE-1-GOES-HERE.
  Node* t = doc.CreateText("x");
  ASSERT_TRUE(root->ReplaceChild(c, {b, t}).ok());
  EXPECT_EQ(Serialize(root), "<r><a/><b/>x</r>");
}

TEST(XmlTree, MutationErrors) {
  Document doc1, doc2;
  Node* r1 = doc1.CreateElement("r");
  ASSERT_TRUE(doc1.root()->AppendChild(r1).ok());
  Node* alien = doc2.CreateElement("alien");
  EXPECT_FALSE(r1->AppendChild(alien).ok());  // cross-document
  Node* a = doc1.CreateElement("a");
  ASSERT_TRUE(r1->AppendChild(a).ok());
  EXPECT_FALSE(r1->AppendChild(a).ok());      // already parented
  EXPECT_FALSE(a->AppendChild(r1).ok());      // cycle
  Node* text = doc1.CreateText("t");
  EXPECT_FALSE(text->AppendChild(doc1.CreateElement("x")).ok());
  EXPECT_FALSE(r1->InsertChildAt(99, doc1.CreateElement("y")).ok());
  EXPECT_FALSE(r1->RemoveChild(doc1.CreateElement("z")).ok());
}

TEST(XmlTree, AttributeNodes) {
  Document doc;
  Node* el = doc.CreateElement("e");
  Node* attr = doc.CreateAttribute("a", "1");
  ASSERT_TRUE(el->SetAttributeNode(attr).ok());
  EXPECT_EQ(attr->parent(), el);
  // keep_first: a second attribute of the same name is dropped.
  Node* dup = doc.CreateAttribute("a", "2");
  ASSERT_TRUE(el->SetAttributeNode(dup, /*keep_first=*/true).ok());
  EXPECT_EQ(*el->AttributeValue("a"), "1");
  // keep_first=false overwrites the value.
  Node* dup2 = doc.CreateAttribute("a", "3");
  ASSERT_TRUE(el->SetAttributeNode(dup2, /*keep_first=*/false).ok());
  EXPECT_EQ(*el->AttributeValue("a"), "3");
  EXPECT_TRUE(el->RemoveAttribute("a"));
  EXPECT_FALSE(el->RemoveAttribute("a"));
}

TEST(XmlTree, ImportNodeDeepCopies) {
  Document src;
  Node* tree = src.CreateElement("a");
  tree->SetAttribute("k", "v");
  ASSERT_TRUE(tree->AppendChild(src.CreateText("hi")).ok());

  Document dst;
  Node* copy = dst.ImportNode(tree);
  EXPECT_EQ(copy->document(), &dst);
  EXPECT_TRUE(DeepEqual(tree, copy));
  // Mutating the copy does not affect the source.
  copy->SetAttribute("k", "other");
  EXPECT_EQ(*tree->AttributeValue("k"), "v");
}

TEST(XmlTree, ImportedNodesKeepTheirNameIds) {
  // Name ids are process-wide, so a copy into another document reuses its
  // source's id instead of interning the name again.
  Document src;
  Node* el = src.CreateElement("owner");
  el->SetAttribute("copied-attr", "v");
  Node* attr = el->AttributeNode("copied-attr");
  ASSERT_NE(attr, nullptr);

  Document dst;
  Node* attr_copy = dst.ImportNode(attr);
  EXPECT_TRUE(attr_copy->is_attribute());
  EXPECT_EQ(attr_copy->parent(), nullptr);
  EXPECT_EQ(attr_copy->name_id(), attr->name_id());
  EXPECT_EQ(attr_copy->name(), "copied-attr");
  EXPECT_EQ(attr_copy->value(), "v");

  Node* el_copy = dst.ImportNode(el);
  EXPECT_EQ(el_copy->name_id(), el->name_id());
  ASSERT_EQ(el_copy->attributes().size(), 1u);
  EXPECT_EQ(el_copy->attributes()[0]->name_id(), attr->name_id());
}

TEST(XmlParser, BasicDocument) {
  auto doc = MustParse("<a x='1'><b>text</b><c/></a>");
  Node* a = doc->DocumentElement();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "a");
  EXPECT_EQ(*a->AttributeValue("x"), "1");
  EXPECT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->FirstChildElement("b")->StringValue(), "text");
}

TEST(XmlParser, DeclarationDoctypeCommentsPis) {
  auto doc = MustParse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE a [<!ENTITY junk \"j\">]>\n"
      "<!-- leading -->\n"
      "<a><?target some data?><!-- inner --></a>");
  Node* a = doc->DocumentElement();
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->children()[0]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(a->children()[0]->name(), "target");
  EXPECT_EQ(a->children()[0]->value(), "some data");
  EXPECT_EQ(a->children()[1]->kind(), NodeKind::kComment);
}

TEST(XmlParser, EntitiesAndCharRefs) {
  auto doc = MustParse("<a t=\"&lt;&amp;&quot;\">&lt;x&gt; &#65;&#x42;</a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(*a->AttributeValue("t"), "<&\"");
  EXPECT_EQ(a->StringValue(), "<x> AB");
}

TEST(XmlParser, Utf8CharRefs) {
  auto doc = MustParse("<a>&#233;&#x4E2D;</a>");  // é, 中
  EXPECT_EQ(doc->DocumentElement()->StringValue(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(XmlParser, Cdata) {
  auto doc = MustParse("<a><![CDATA[<raw> & ]]]></a>");
  EXPECT_EQ(doc->DocumentElement()->StringValue(), "<raw> & ]");
}

TEST(XmlParser, WhitespaceStripping) {
  ParseOptions opts;
  opts.strip_insignificant_whitespace = true;
  auto doc = MustParse("<a>\n  <b> x </b>\n</a>", opts);
  // The whitespace-only text between <a> and <b> is gone; the text inside
  // <b> is preserved verbatim.
  EXPECT_EQ(doc->DocumentElement()->children().size(), 1u);
  EXPECT_EQ(doc->DocumentElement()->FirstChildElement("b")->StringValue(),
            " x ");
}

struct BadXml {
  const char* label;
  const char* text;
  const char* expect_in_message;
};

class XmlParserErrorTest : public ::testing::TestWithParam<BadXml> {};

TEST_P(XmlParserErrorTest, RejectsWithLocatedMessage) {
  auto result = Parse(GetParam().text);
  ASSERT_FALSE(result.ok()) << GetParam().label;
  EXPECT_NE(result.status().message().find(GetParam().expect_in_message),
            std::string::npos)
      << GetParam().label << ": " << result.status().message();
  // Every parse error carries a position.
  EXPECT_NE(result.status().message().find("line"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadXml{"mismatched", "<a><b></a></b>", "mismatched end tag"},
        BadXml{"unterminated", "<a><b>", "missing end tag"},
        BadXml{"bad_entity", "<a>&nope;</a>", "unknown entity"},
        BadXml{"dup_attr", "<a x='1' x='2'/>", "duplicate attribute"},
        BadXml{"attr_lt", "<a x='<'/>", "'<' not allowed"},
        BadXml{"no_root", "   ", "no root element"},
        BadXml{"trailing", "<a/><b/>", "unexpected content"},
        BadXml{"unquoted_attr", "<a x=1/>", "quoted attribute"}),
    [](const ::testing::TestParamInfo<BadXml>& info) {
      return std::string(info.param.label);
    });

TEST(XmlSerializer, Escaping) {
  Document doc;
  Node* el = doc.CreateElement("e");
  el->SetAttribute("a", "1 < 2 & \"q\"");
  ASSERT_TRUE(el->AppendChild(doc.CreateText("a < b & c > d")).ok());
  EXPECT_EQ(Serialize(el),
            "<e a=\"1 &lt; 2 &amp; &quot;q&quot;\">"
            "a &lt; b &amp; c &gt; d</e>");
}

TEST(XmlSerializer, PrettyPrinting) {
  auto doc = MustParse("<a><b><c/></b></a>");
  SerializeOptions opts;
  opts.indent = 2;
  EXPECT_EQ(Serialize(doc->DocumentElement(), opts),
            "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
}

TEST(XmlSerializer, HtmlMode) {
  auto doc = MustParse("<body><p>a<br/>b</p><div/><img src=\"x\"/></body>");
  SerializeOptions opts;
  opts.html = true;
  EXPECT_EQ(Serialize(doc->DocumentElement(), opts),
            "<body><p>a<br>b</p><div></div><img src=\"x\"></body>");
  // Default XML mode keeps self-closing.
  EXPECT_EQ(Serialize(doc->DocumentElement()),
            "<body><p>a<br/>b</p><div/><img src=\"x\"/></body>");
}

TEST(XmlSerializer, VoidElementTable) {
  EXPECT_TRUE(IsHtmlVoidElement("br"));
  EXPECT_TRUE(IsHtmlVoidElement("BR"));
  EXPECT_TRUE(IsHtmlVoidElement("Img"));
  EXPECT_FALSE(IsHtmlVoidElement("div"));
  EXPECT_FALSE(IsHtmlVoidElement("table"));
}

TEST(XmlSerializer, RoundTripPreservesStructure) {
  const char* text =
      "<model><node id=\"n1\" type=\"Person\"><prop name=\"firstName\">"
      "Ada</prop></node><rel from=\"n1\" to=\"n2\"/></model>";
  auto doc = MustParse(text);
  std::string serialized = Serialize(doc->DocumentElement());
  auto doc2 = MustParse(serialized);
  EXPECT_TRUE(
      DeepEqual(doc->DocumentElement(), doc2->DocumentElement()))
      << ExplainDifference(doc->DocumentElement(), doc2->DocumentElement());
}

// Byte-for-byte goldens of the serializer, captured before its rewrite to a
// one-frame-per-open-element stack: every SerializeOptions combination over
// a document node with a prolog PI and comment, mixed content (whose
// element-only descendants still indent), empty void and non-void HTML
// elements, and `"&<>` in attribute and text values.
const char* const kGoldenInputs[] = {
    "<?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"/>"
    "<!--mid--><b>text</b><c></c><?bare?></root>",
    "<p>one <b>two <i>three</i></b> four<span><em/><em>x</em></span>"
    "<q/></p>",
    "<html><body><br/><div/><p>a<br/>b</p><img src=\"i.png\"/><HR/>"
    "<table><tr/></table><span></span></body></html>",
    "<w><e a=\"&quot;&amp;&lt;&gt;\" b='x\"y'>&quot;&amp;&lt;&gt;"
    "<f c=\"&gt;&lt;\"/>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"/></w>",
};

struct SerializerGolden {
  int input;  // index into kGoldenInputs; input 0 serializes its document
              // node, the others their document element
  int indent;
  bool declaration;
  bool self_close_empty;
  bool html;
  const char* expected;
};

const SerializerGolden kSerializerGoldens[] = {
    {0, 0, false, false, false,
     "<?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 0, false, false, true,
     "<?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 0, false, true, false,
     "<?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"/><!--mid--><b>text</b><c/><?bare?></root>"},
    {0, 0, false, true, true,
     "<?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 0, true, false, false,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?><?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 0, true, false, true,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?><?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 0, true, true, false,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?><?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"/><!--mid--><b>text</b><c/><?bare?></root>"},
    {0, 0, true, true, true,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?><?style href=\"s.css\"?><!--lead--><root><?inner data?><a x=\"1\"></a><!--mid--><b>text</b><c></c><?bare?></root>"},
    {0, 2, false, false, false,
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, false, false, true,
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, false, true, false,
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"/>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c/>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, false, true, true,
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, true, false, false,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, true, false, true,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, true, true, false,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"/>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c/>\n"
     "  <?bare?>\n"
     "</root>"},
    {0, 2, true, true, true,
     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     "<?style href=\"s.css\"?>\n"
     "<!--lead-->\n"
     "<root>\n"
     "  <?inner data?>\n"
     "  <a x=\"1\"></a>\n"
     "  <!--mid-->\n"
     "  <b>text</b>\n"
     "  <c></c>\n"
     "  <?bare?>\n"
     "</root>"},
    {1, 0, false, false, false,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 0, false, false, true,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 0, false, true, false,
     "<p>one <b>two <i>three</i></b> four<span><em/><em>x</em></span><q/></p>"},
    {1, 0, false, true, true,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 0, true, false, false,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 0, true, false, true,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 0, true, true, false,
     "<p>one <b>two <i>three</i></b> four<span><em/><em>x</em></span><q/></p>"},
    {1, 0, true, true, true,
     "<p>one <b>two <i>three</i></b> four<span><em></em><em>x</em></span><q></q></p>"},
    {1, 2, false, false, false,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {1, 2, false, false, true,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {1, 2, false, true, false,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em/>\n"
     "    <em>x</em>\n"
     "  </span><q/></p>"},
    {1, 2, false, true, true,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {1, 2, true, false, false,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {1, 2, true, false, true,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {1, 2, true, true, false,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em/>\n"
     "    <em>x</em>\n"
     "  </span><q/></p>"},
    {1, 2, true, true, true,
     "<p>one <b>two <i>three</i></b> four<span>\n"
     "    <em></em>\n"
     "    <em>x</em>\n"
     "  </span><q></q></p>"},
    {2, 0, false, false, false,
     "<html><body><br></br><div></div><p>a<br></br>b</p><img src=\"i.png\"></img><HR></HR><table><tr></tr></table><span></span></body></html>"},
    {2, 0, false, false, true,
     "<html><body><br><div></div><p>a<br>b</p><img src=\"i.png\"><HR><table><tr></tr></table><span></span></body></html>"},
    {2, 0, false, true, false,
     "<html><body><br/><div/><p>a<br/>b</p><img src=\"i.png\"/><HR/><table><tr/></table><span/></body></html>"},
    {2, 0, false, true, true,
     "<html><body><br><div></div><p>a<br>b</p><img src=\"i.png\"><HR><table><tr></tr></table><span></span></body></html>"},
    {2, 0, true, false, false,
     "<html><body><br></br><div></div><p>a<br></br>b</p><img src=\"i.png\"></img><HR></HR><table><tr></tr></table><span></span></body></html>"},
    {2, 0, true, false, true,
     "<html><body><br><div></div><p>a<br>b</p><img src=\"i.png\"><HR><table><tr></tr></table><span></span></body></html>"},
    {2, 0, true, true, false,
     "<html><body><br/><div/><p>a<br/>b</p><img src=\"i.png\"/><HR/><table><tr/></table><span/></body></html>"},
    {2, 0, true, true, true,
     "<html><body><br><div></div><p>a<br>b</p><img src=\"i.png\"><HR><table><tr></tr></table><span></span></body></html>"},
    {2, 2, false, false, false,
     "<html>\n"
     "  <body>\n"
     "    <br></br>\n"
     "    <div></div>\n"
     "    <p>a<br></br>b</p>\n"
     "    <img src=\"i.png\"></img>\n"
     "    <HR></HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, false, false, true,
     "<html>\n"
     "  <body>\n"
     "    <br>\n"
     "    <div></div>\n"
     "    <p>a<br>b</p>\n"
     "    <img src=\"i.png\">\n"
     "    <HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, false, true, false,
     "<html>\n"
     "  <body>\n"
     "    <br/>\n"
     "    <div/>\n"
     "    <p>a<br/>b</p>\n"
     "    <img src=\"i.png\"/>\n"
     "    <HR/>\n"
     "    <table>\n"
     "      <tr/>\n"
     "    </table>\n"
     "    <span/>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, false, true, true,
     "<html>\n"
     "  <body>\n"
     "    <br>\n"
     "    <div></div>\n"
     "    <p>a<br>b</p>\n"
     "    <img src=\"i.png\">\n"
     "    <HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, true, false, false,
     "<html>\n"
     "  <body>\n"
     "    <br></br>\n"
     "    <div></div>\n"
     "    <p>a<br></br>b</p>\n"
     "    <img src=\"i.png\"></img>\n"
     "    <HR></HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, true, false, true,
     "<html>\n"
     "  <body>\n"
     "    <br>\n"
     "    <div></div>\n"
     "    <p>a<br>b</p>\n"
     "    <img src=\"i.png\">\n"
     "    <HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, true, true, false,
     "<html>\n"
     "  <body>\n"
     "    <br/>\n"
     "    <div/>\n"
     "    <p>a<br/>b</p>\n"
     "    <img src=\"i.png\"/>\n"
     "    <HR/>\n"
     "    <table>\n"
     "      <tr/>\n"
     "    </table>\n"
     "    <span/>\n"
     "  </body>\n"
     "</html>"},
    {2, 2, true, true, true,
     "<html>\n"
     "  <body>\n"
     "    <br>\n"
     "    <div></div>\n"
     "    <p>a<br>b</p>\n"
     "    <img src=\"i.png\">\n"
     "    <HR>\n"
     "    <table>\n"
     "      <tr></tr>\n"
     "    </table>\n"
     "    <span></span>\n"
     "  </body>\n"
     "</html>"},
    {3, 0, false, false, false,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 0, false, false, true,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 0, false, true, false,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"/>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"/></w>"},
    {3, 0, false, true, true,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 0, true, false, false,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 0, true, false, true,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 0, true, true, false,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"/>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"/></w>"},
    {3, 0, true, true, true,
     "<w><e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e><h k=\"&amp;&quot;\"></h></w>"},
    {3, 2, false, false, false,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
    {3, 2, false, false, true,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
    {3, 2, false, true, false,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"/>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"/>\n"
     "</w>"},
    {3, 2, false, true, true,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
    {3, 2, true, false, false,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
    {3, 2, true, false, true,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
    {3, 2, true, true, false,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"/>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"/>\n"
     "</w>"},
    {3, 2, true, true, true,
     "<w>\n"
     "  <e a=\"&quot;&amp;&lt;>\" b=\"x&quot;y\">\"&amp;&lt;&gt;<f c=\">&lt;\"></f>t&gt;<g>&amp;</g></e>\n"
     "  <h k=\"&amp;&quot;\"></h>\n"
     "</w>"},
};

TEST(XmlSerializer, GoldenBytesForEveryOptionCombination) {
  std::vector<std::unique_ptr<Document>> docs;
  for (const char* text : kGoldenInputs) docs.push_back(MustParse(text));
  ASSERT_EQ(std::size(kSerializerGoldens), 64u);
  for (const SerializerGolden& g : kSerializerGoldens) {
    const Document& doc = *docs[static_cast<size_t>(g.input)];
    const Node* node = g.input == 0 ? doc.root() : doc.DocumentElement();
    SerializeOptions opts;
    opts.indent = g.indent;
    opts.declaration = g.declaration;
    opts.self_close_empty = g.self_close_empty;
    opts.html = g.html;
    EXPECT_EQ(Serialize(node, opts), g.expected)
        << "input " << g.input << " indent " << g.indent << " declaration "
        << g.declaration << " self_close_empty " << g.self_close_empty
        << " html " << g.html;
  }
}

TEST(XmlDeepEqual, DetectsDifferences) {
  auto a = MustParse("<a x=\"1\"><b>t</b></a>");
  auto b = MustParse("<a x=\"2\"><b>t</b></a>");
  auto c = MustParse("<a x=\"1\"><b>u</b></a>");
  auto d = MustParse("<a x=\"1\"><b>t</b><c/></a>");
  EXPECT_FALSE(DeepEqual(a->DocumentElement(), b->DocumentElement()));
  EXPECT_FALSE(DeepEqual(a->DocumentElement(), c->DocumentElement()));
  EXPECT_FALSE(DeepEqual(a->DocumentElement(), d->DocumentElement()));
  EXPECT_TRUE(DeepEqual(a->DocumentElement(), a->DocumentElement()));
  EXPECT_NE(ExplainDifference(a->DocumentElement(), b->DocumentElement()),
            "(equal)");
}

TEST(XmlDeepEqual, AttributeOrderIgnored) {
  auto a = MustParse("<a x=\"1\" y=\"2\"/>");
  auto b = MustParse("<a y=\"2\" x=\"1\"/>");
  EXPECT_TRUE(DeepEqual(a->DocumentElement(), b->DocumentElement()));
}

TEST(XmlDeepEqual, CommentsIgnoredByDefault) {
  auto a = MustParse("<a><!--note--><b/></a>");
  auto b = MustParse("<a><b/></a>");
  EXPECT_TRUE(DeepEqual(a->DocumentElement(), b->DocumentElement()));
  DeepEqualOptions strict;
  strict.ignore_comments_and_pis = false;
  EXPECT_FALSE(DeepEqual(a->DocumentElement(), b->DocumentElement(), strict));
}

TEST(XmlDocumentOrder, OrderAndAttributes) {
  auto doc = MustParse("<a x=\"1\"><b/><c><d/></c></a>");
  Node* a = doc->DocumentElement();
  Node* b = a->children()[0];
  Node* c = a->children()[1];
  Node* d = c->children()[0];
  Node* x = a->attributes()[0];
  EXPECT_LT(CompareDocumentOrder(a, b), 0);
  EXPECT_LT(CompareDocumentOrder(b, c), 0);
  EXPECT_LT(CompareDocumentOrder(c, d), 0);
  EXPECT_LT(CompareDocumentOrder(b, d), 0);
  EXPECT_GT(CompareDocumentOrder(d, b), 0);
  EXPECT_EQ(CompareDocumentOrder(c, c), 0);
  // Attributes come after their element, before its children.
  EXPECT_LT(CompareDocumentOrder(a, x), 0);
  EXPECT_LT(CompareDocumentOrder(x, b), 0);
}

TEST(XmlParser, ParseFileMissing) {
  auto result = ParseFile("/nonexistent/path.xml");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(XmlClone, DeepCopiesRootedTreeOnly) {
  const std::string source_xml =
      "<r a=\"1\"><x>text<!--c--><y k=\"v\"/></x><z/></r>";
  auto doc = Parse(source_xml);
  ASSERT_TRUE(doc.ok());
  // Detached construction debris must not be carried into the clone.
  (*doc)->CreateElement("orphan");

  std::unique_ptr<Document> clone = CloneDocument(**doc);
  ASSERT_EQ(clone->root()->children().size(), 1u);
  EXPECT_TRUE(DeepEqual((*doc)->root()->children().front(),
                        clone->root()->children().front()));
  EXPECT_EQ(Serialize(clone->root()->children().front()), source_xml);

  // The copy is independent: mutating it leaves the source untouched, and
  // both documents build their own order indexes over their own nodes.
  clone->root()->children().front()->SetAttribute("a", "2");
  EXPECT_EQ(Serialize((*doc)->root()->children().front()), source_xml);
  clone->EnsureOrderIndex();
  const Node* x = clone->root()->children().front()->children().front();
  const Node* z = clone->root()->children().front()->children().back();
  EXPECT_LT(CompareDocumentOrder(x, z), 0);
}

}  // namespace
}  // namespace lll::xml
