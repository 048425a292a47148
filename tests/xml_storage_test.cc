// Property tests for the arena-backed structure-of-arrays node storage.
//
// The oracle is a shadow tree of plain heap structs linked by pointers --
// exactly the representation the old Node implementation used. Every random
// mutation is applied to both; after each batch the SoA document must agree
// with the shadow on kind, name, value, parentage, child/attribute order,
// IndexInParent, and string value. CompactStorage and CloneDocument are
// folded into the mutation mix, since both rewrite the index pools.
//
// Also here: the 100k-depth regression tests for the iterative StringValue /
// SerializeTo paths, and the concurrency claims (shared read-only documents,
// NameTable interning) the TSan build audits via the `concurrency` label.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/name_table.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace lll::xml {
namespace {

// The pointer-built oracle: one heap struct per node, child/attribute lists
// as plain pointer vectors. Owned flat by the harness so detach/remove never
// destroys a node (matching arena semantics).
struct Shadow {
  NodeKind kind;
  std::string name;
  std::string value;
  Shadow* parent = nullptr;
  std::vector<Shadow*> children;
  std::vector<Shadow*> attrs;
};

std::string ShadowStringValue(const Shadow* s) {
  if (s->kind == NodeKind::kText || s->kind == NodeKind::kComment ||
      s->kind == NodeKind::kAttribute ||
      s->kind == NodeKind::kProcessingInstruction) {
    return s->value;
  }
  std::string out;
  std::vector<const Shadow*> stack(s->children.rbegin(), s->children.rend());
  while (!stack.empty()) {
    const Shadow* n = stack.back();
    stack.pop_back();
    if (n->kind == NodeKind::kText) {
      out += n->value;
    } else if (n->kind == NodeKind::kElement) {
      stack.insert(stack.end(), n->children.rbegin(), n->children.rend());
    }
  }
  return out;
}

class Harness {
 public:
  Harness() {
    pairs_.push_back({doc_->root(), NewShadow(NodeKind::kDocument, "", "")});
    map_[doc_->root()] = pairs_.back().second;
  }

  Document* doc() { return doc_.get(); }

  void Mutate(Rng& rng) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
        AppendFresh(rng);
        break;
      case 3:
        InsertFresh(rng);
        break;
      case 4:
        RemoveRandomChild(rng);
        break;
      case 5:
        ReplaceRandomChild(rng);
        break;
      case 6:
        SetRandomAttribute(rng);
        break;
      case 7:
        RemoveRandomAttribute(rng);
        break;
      case 8:
        SetRandomValue(rng);
        break;
      case 9:
        DetachRandom(rng);
        break;
    }
  }

  void Verify() {
    for (const auto& [node, shadow] : pairs_) {
      ASSERT_EQ(node->kind(), shadow->kind);
      EXPECT_EQ(node->name(), shadow->name);
      EXPECT_EQ(std::string(node->value()), shadow->value);
      if (shadow->parent == nullptr) {
        EXPECT_EQ(node->parent(), nullptr);
      } else {
        ASSERT_NE(node->parent(), nullptr);
        EXPECT_EQ(map_.at(node->parent()), shadow->parent);
        // O(1) IndexInParent must match the shadow list position.
        size_t expect = SIZE_MAX;
        const auto& list = node->is_attribute() ? shadow->parent->attrs
                                                : shadow->parent->children;
        for (size_t i = 0; i < list.size(); ++i) {
          if (list[i] == shadow) expect = i;
        }
        EXPECT_EQ(node->IndexInParent(), expect);
      }
      NodeList kids = node->children();
      ASSERT_EQ(kids.size(), shadow->children.size());
      for (size_t i = 0; i < kids.size(); ++i) {
        EXPECT_EQ(map_.at(kids[i]), shadow->children[i]);
      }
      NodeList attrs = node->attributes();
      ASSERT_EQ(attrs.size(), shadow->attrs.size());
      for (size_t i = 0; i < attrs.size(); ++i) {
        EXPECT_EQ(map_.at(attrs[i]), shadow->attrs[i]);
      }
      EXPECT_EQ(node->StringValue(), ShadowStringValue(shadow));
    }
  }

  // Round-trips the rooted tree through CloneDocument and compares serialized
  // forms (debris -- detached subtrees -- is intentionally dropped by clone).
  // The clone's order keys are the ones CloneDocument wrote: they are checked
  // against the structural comparator before anything restamps them.
  // Returns the clone's node count.
  size_t VerifyClone() {
    std::unique_ptr<Document> clone = CloneDocument(*doc_);
    lll::testing::ExpectBuilderOrderKeysMatchStructure(*clone);
    EXPECT_EQ(Serialize(clone->root()), Serialize(doc_->root()));
    EXPECT_EQ(clone->storage_stats().pool_slack_slots, 0u);
    return clone->node_count();
  }

 private:
  Shadow* NewShadow(NodeKind kind, std::string name, std::string value) {
    shadows_.push_back(std::make_unique<Shadow>());
    Shadow* s = shadows_.back().get();
    s->kind = kind;
    s->name = std::move(name);
    s->value = std::move(value);
    return s;
  }

  std::pair<Node*, Shadow*> Pick(Rng& rng) {
    return pairs_[rng.Below(pairs_.size())];
  }

  // A random attach point in the rooted tree: the document node or one of
  // its elements. Drawing from detached nodes too would send most inserts
  // into debris, which CloneDocument drops, and leave VerifyClone a tree of
  // a few nodes.
  std::pair<Node*, Shadow*> PickParent(Rng& rng) {
    for (int tries = 0; tries < 8; ++tries) {
      auto [n, s] = Pick(rng);
      if ((n->is_element() || n->is_document()) && n->Root() == doc_->root()) {
        return {n, s};
      }
    }
    return pairs_[0];
  }

  std::pair<Node*, Shadow*> CreateFresh(Rng& rng) {
    static const char* kNames[] = {"alpha", "beta", "gamma", "delta"};
    std::string payload = "v" + std::to_string(pairs_.size());
    Node* n;
    Shadow* s;
    switch (rng.Below(4)) {
      case 0:
        n = doc_->CreateText(payload);
        s = NewShadow(NodeKind::kText, "", payload);
        break;
      case 1:
        n = doc_->CreateComment(payload);
        s = NewShadow(NodeKind::kComment, "", payload);
        break;
      default:
        n = doc_->CreateElement(kNames[rng.Below(4)]);
        s = NewShadow(NodeKind::kElement, n->name(), "");
        break;
    }
    pairs_.push_back({n, s});
    map_[n] = s;
    return {n, s};
  }

  void AppendFresh(Rng& rng) {
    auto [p, sp] = PickParent(rng);
    auto [c, sc] = CreateFresh(rng);
    ASSERT_TRUE(p->AppendChild(c).ok());
    sc->parent = sp;
    sp->children.push_back(sc);
  }

  void InsertFresh(Rng& rng) {
    auto [p, sp] = PickParent(rng);
    auto [c, sc] = CreateFresh(rng);
    size_t at = rng.Below(sp->children.size() + 1);
    ASSERT_TRUE(p->InsertChildAt(at, c).ok());
    sc->parent = sp;
    sp->children.insert(sp->children.begin() + static_cast<ptrdiff_t>(at), sc);
  }

  void RemoveRandomChild(Rng& rng) {
    auto [p, sp] = PickParent(rng);
    if (sp->children.empty()) return;
    size_t at = rng.Below(sp->children.size());
    ASSERT_TRUE(p->RemoveChild(p->children()[at]).ok());
    sp->children[at]->parent = nullptr;
    sp->children.erase(sp->children.begin() + static_cast<ptrdiff_t>(at));
  }

  void ReplaceRandomChild(Rng& rng) {
    auto [p, sp] = PickParent(rng);
    if (sp->children.empty()) return;
    size_t at = rng.Below(sp->children.size());
    std::vector<Node*> repl;
    std::vector<Shadow*> srepl;
    for (uint64_t i = 0, n = rng.Below(3); i < n; ++i) {
      auto [c, sc] = CreateFresh(rng);
      repl.push_back(c);
      srepl.push_back(sc);
    }
    ASSERT_TRUE(p->ReplaceChild(p->children()[at], repl).ok());
    sp->children[at]->parent = nullptr;
    sp->children.erase(sp->children.begin() + static_cast<ptrdiff_t>(at));
    for (size_t i = 0; i < srepl.size(); ++i) {
      srepl[i]->parent = sp;
      sp->children.insert(
          sp->children.begin() + static_cast<ptrdiff_t>(at + i), srepl[i]);
    }
  }

  void SetRandomAttribute(Rng& rng) {
    auto [p, sp] = Pick(rng);
    if (!p->is_element()) return;
    std::string name = "a" + std::to_string(rng.Below(3));
    std::string value = "w" + std::to_string(pairs_.size());
    p->SetAttribute(name, value);
    for (Shadow* a : sp->attrs) {
      if (a->name == name) {
        a->value = value;
        return;
      }
    }
    // New attribute node: pair it with the real node SetAttribute created.
    Node* an = p->AttributeNode(name);
    ASSERT_NE(an, nullptr);
    Shadow* sa = NewShadow(NodeKind::kAttribute, name, value);
    sa->parent = sp;
    sp->attrs.push_back(sa);
    pairs_.push_back({an, sa});
    map_[an] = sa;
  }

  void RemoveRandomAttribute(Rng& rng) {
    auto [p, sp] = Pick(rng);
    if (!p->is_element() || sp->attrs.empty()) return;
    size_t at = rng.Below(sp->attrs.size());
    ASSERT_TRUE(p->RemoveAttribute(sp->attrs[at]->name));
    sp->attrs[at]->parent = nullptr;
    sp->attrs.erase(sp->attrs.begin() + static_cast<ptrdiff_t>(at));
  }

  void SetRandomValue(Rng& rng) {
    auto [n, s] = Pick(rng);
    if (!n->is_text() && n->kind() != NodeKind::kComment &&
        !n->is_attribute()) {
      return;
    }
    std::string value = "u" + std::to_string(rng.Below(1000));
    n->set_value(value);
    s->value = value;
  }

  void DetachRandom(Rng& rng) {
    auto [n, s] = Pick(rng);
    if (s->parent == nullptr || n->is_document()) return;
    n->Detach();
    auto& list = n->is_attribute() ? s->parent->attrs : s->parent->children;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] == s) {
        list.erase(list.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    s->parent = nullptr;
  }

  std::unique_ptr<Document> doc_ = std::make_unique<Document>();
  std::vector<std::unique_ptr<Shadow>> shadows_;
  std::vector<std::pair<Node*, Shadow*>> pairs_;
  std::unordered_map<const Node*, Shadow*> map_;
};

TEST(XmlStorageProperty, AgreesWithPointerBuiltOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x5DEECE66Dull);
    Harness h;
    size_t cloned = 0;
    for (int batch = 0; batch < 12; ++batch) {
      for (int i = 0; i < 40; ++i) h.Mutate(rng);
      if (batch % 4 == 3) h.doc()->CompactStorage();
      h.Verify();
      cloned = h.VerifyClone();
      if (::testing::Test::HasFailure()) return;
    }
    // The clone checks ran on a real tree, not on leftover debris.
    EXPECT_GE(cloned, 50u) << "seed " << seed;
  }
}

TEST(XmlStorageProperty, CompactStorageDropsSlackAndPreservesTree) {
  Rng rng(42);
  Harness h;
  for (int i = 0; i < 300; ++i) h.Mutate(rng);
  std::string before = Serialize(h.doc()->root());
  h.doc()->CompactStorage();
  EXPECT_EQ(h.doc()->storage_stats().pool_slack_slots, 0u);
  EXPECT_EQ(Serialize(h.doc()->root()), before);
  h.Verify();
}

// --- Deep-recursion regressions --------------------------------------------

constexpr int kDeep = 100'000;

std::unique_ptr<Document> BuildDeepChain() {
  auto doc = std::make_unique<Document>();
  Node* cur = doc->root();
  for (int i = 0; i < kDeep; ++i) {
    Node* e = doc->CreateElement("d");
    EXPECT_TRUE(cur->AppendChild(e).ok());
    cur = e;
  }
  EXPECT_TRUE(cur->AppendChild(doc->CreateText("bottom")).ok());
  return doc;
}

TEST(XmlStorageDeep, StringValueIsIterative) {
  auto doc = BuildDeepChain();
  EXPECT_EQ(doc->root()->StringValue(), "bottom");
  EXPECT_EQ(doc->DocumentElement()->StringValue(), "bottom");
}

TEST(XmlStorageDeep, SerializeIsIterative) {
  auto doc = BuildDeepChain();
  std::string out = Serialize(doc->root());
  EXPECT_EQ(out.size(), static_cast<size_t>(kDeep) * 7 + 6);
  EXPECT_EQ(out.substr(0, 6), "<d><d>");
  EXPECT_EQ(out.substr(out.size() - 8), "</d></d>");
}

TEST(XmlStorageDeep, ParseIsIterative) {
  // The parser keeps its own open-element stack; 100k levels of nesting
  // must parse without touching the call-stack limit.
  std::string xml;
  xml.reserve(static_cast<size_t>(kDeep) * 7 + 1);
  for (int i = 0; i < kDeep; ++i) xml += "<d>";
  xml += "x";
  for (int i = 0; i < kDeep; ++i) xml += "</d>";
  auto doc = Parse(xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ((*doc)->DocumentElement()->StringValue(), "x");
}

TEST(XmlStorageDeep, CloneAndDescendantsAreIterative) {
  auto doc = BuildDeepChain();
  std::unique_ptr<Document> clone = CloneDocument(*doc);
  EXPECT_EQ(clone->storage_stats().node_count, doc->storage_stats().node_count);
  EXPECT_EQ(clone->root()->StringValue(), "bottom");
  EXPECT_EQ(doc->root()->DescendantElements("d").size(),
            static_cast<size_t>(kDeep));
}

// --- Concurrency claims (TSan audits these via -L concurrency) -------------

TEST(XmlStorageConcurrency, NameTableInternAndGetRace) {
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::atomic<uint32_t> ids[kNames] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      for (int i = 0; i < kNames; ++i) {
        // Overlapping vocabularies: every thread interns every name, half
        // in reverse, so first-sight insertion races with repeat lookups.
        int k = (t % 2 == 0) ? i : kNames - 1 - i;
        std::string name = "race-name-" + std::to_string(k);
        uint32_t id = NameTable::Intern(name);
        uint32_t seen = ids[k].exchange(id, std::memory_order_relaxed);
        if (seen != 0) EXPECT_EQ(seen, id);
        EXPECT_EQ(NameTable::Get(id), name);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(NameTable::interned_count(), static_cast<uint64_t>(kNames));
  EXPECT_GT(NameTable::interned_bytes(), 0u);
}

TEST(XmlStorageConcurrency, SharedReadOnlyDocumentTraversal) {
  // One published (frozen) document, many readers -- the server's snapshot
  // pattern. EnsureOrderIndex is called once by the publisher; after that,
  // traversal, string values, and order compares must be data-race free.
  auto doc = std::make_unique<Document>();
  Node* root = doc->CreateElement("lib");
  ASSERT_TRUE(doc->root()->AppendChild(root).ok());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Node* shelf = doc->CreateElement("shelf");
    shelf->SetAttribute("id", std::to_string(i));
    ASSERT_TRUE(root->AppendChild(shelf).ok());
    for (uint64_t j = 0, n = rng.Below(5); j < n; ++j) {
      Node* book = doc->CreateElement("book");
      ASSERT_TRUE(book->AppendChild(doc->CreateText("x")).ok());
      ASSERT_TRUE(shelf->AppendChild(book).ok());
    }
  }
  doc->CompactStorage();
  doc->EnsureOrderIndex();

  const Document* shared = doc.get();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([shared] {
      const Node* root = shared->DocumentElement();
      std::vector<Node*> shelves = root->DescendantElements("shelf");
      EXPECT_EQ(shelves.size(), 200u);
      size_t books = 0;
      for (const Node* shelf : shelves) {
        EXPECT_TRUE(shelf->AttributeValue("id").has_value());
        for (const Node* book : shelf->children()) {
          EXPECT_EQ(book->StringValue(), "x");
          ++books;
        }
      }
      for (size_t i = 1; i < shelves.size(); ++i) {
        EXPECT_LT(CompareDocumentOrder(shelves[i - 1], shelves[i]), 0);
      }
      EXPECT_EQ(books, root->StringValue().size());
    });
  }
  for (auto& th : threads) th.join();
}

// --- Name versions ----------------------------------------------------------

constexpr char kVersionedDoc[] =
    "<r><a id=\"a\"><b/></a><c id=\"c\"><d k=\"1\"/></c></r>";

uint64_t ElementVersion(const Document& doc, std::string_view name) {
  return doc.element_version(NameTable::Intern(name));
}
uint64_t AttributeVersion(const Document& doc, std::string_view name) {
  return doc.attribute_version(NameTable::Intern(name));
}

TEST(XmlNameVersions, AttachStampsEveryNameInTheMovedSubtree) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* b = doc->DocumentElement()->children()[0]->children()[0];

  // Before anybody wanted versions, parse-time attaches stamped nothing:
  // every name reads 0.
  EXPECT_EQ(ElementVersion(*doc, "b"), 0u);
  EXPECT_EQ(doc->document_version(), 0u);
  doc->WantEditVersions();

  // Attach a built subtree under <b>: every element and attribute name in
  // it moves to the new epoch, with the document version; names outside
  // it -- its new ancestors' included -- stay at 0.
  Node* leaf = doc->CreateElement("leaf");
  Node* twig = doc->CreateElement("twig");
  twig->SetAttribute("w", "1");
  ASSERT_TRUE(leaf->AppendChild(twig).ok());
  const uint64_t before = doc->edit_epoch();
  ASSERT_TRUE(b->AppendChild(leaf).ok());
  const uint64_t epoch = doc->edit_epoch();
  EXPECT_GT(epoch, before);
  EXPECT_EQ(ElementVersion(*doc, "leaf"), epoch);
  EXPECT_EQ(ElementVersion(*doc, "twig"), epoch);
  EXPECT_EQ(AttributeVersion(*doc, "w"), epoch);
  EXPECT_EQ(doc->document_version(), epoch);
  for (const char* untouched : {"r", "a", "b", "c", "d"}) {
    EXPECT_EQ(ElementVersion(*doc, untouched), 0u) << untouched;
  }
  EXPECT_EQ(AttributeVersion(*doc, "id"), 0u);
}

TEST(XmlNameVersions, AttributeValueWriteStampsItsName) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* a = doc->DocumentElement()->children()[0];
  doc->WantEditVersions();

  // Rewriting <a>'s id stamps the attribute name alone: value indexes read
  // it, and no node moved.
  a->SetAttribute("id", "a2");
  const uint64_t epoch = doc->edit_epoch();
  EXPECT_EQ(AttributeVersion(*doc, "id"), epoch);
  EXPECT_EQ(ElementVersion(*doc, "a"), 0u);
  EXPECT_EQ(AttributeVersion(*doc, "k"), 0u);
  EXPECT_EQ(doc->document_version(), 0u);

  // A text write advances the epoch and stamps nothing: node sets hold
  // identities, not values.
  ASSERT_TRUE(doc->DocumentElement()->AppendChild(doc->CreateText("t")).ok());
  const uint64_t attached = doc->edit_epoch();
  doc->DocumentElement()->children().back()->set_value("u");
  EXPECT_GT(doc->edit_epoch(), attached);
  EXPECT_EQ(doc->document_version(), attached);
  EXPECT_EQ(AttributeVersion(*doc, "id"), epoch);
}

TEST(XmlNameVersions, DetachStampsTheDetachedSubtree) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* r = doc->DocumentElement();
  doc->WantEditVersions();

  // Removing <c> stamps c, the d inside it and both their attributes; the
  // parent keeps its version.
  ASSERT_TRUE(r->RemoveChild(r->children()[1]).ok());
  const uint64_t epoch = doc->edit_epoch();
  EXPECT_GT(epoch, 0u);
  EXPECT_EQ(ElementVersion(*doc, "c"), epoch);
  EXPECT_EQ(ElementVersion(*doc, "d"), epoch);
  EXPECT_EQ(AttributeVersion(*doc, "id"), epoch);
  EXPECT_EQ(AttributeVersion(*doc, "k"), epoch);
  EXPECT_EQ(doc->document_version(), epoch);
  EXPECT_EQ(ElementVersion(*doc, "r"), 0u);
  EXPECT_EQ(ElementVersion(*doc, "a"), 0u);
}

TEST(XmlNameVersions, RenameStampsTheOldAndTheNewName) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* a = doc->DocumentElement()->children()[0];
  Node* b = a->children()[0];
  doc->WantEditVersions();

  // Renaming <b> changes what a test of `b` and of `bb` selects; nothing
  // moved, so the document version stays.
  ASSERT_TRUE(b->Rename("bb").ok());
  const uint64_t epoch = doc->edit_epoch();
  EXPECT_GT(epoch, 0u);
  EXPECT_EQ(b->name(), "bb");
  EXPECT_EQ(ElementVersion(*doc, "b"), epoch);
  EXPECT_EQ(ElementVersion(*doc, "bb"), epoch);
  EXPECT_EQ(ElementVersion(*doc, "a"), 0u);
  EXPECT_EQ(doc->document_version(), 0u);

  // An attribute rename stamps attribute names, not element ones.
  ASSERT_TRUE(a->attributes()[0]->Rename("key").ok());
  const uint64_t renamed = doc->edit_epoch();
  EXPECT_EQ(AttributeVersion(*doc, "id"), renamed);
  EXPECT_EQ(AttributeVersion(*doc, "key"), renamed);
  EXPECT_EQ(ElementVersion(*doc, "key"), 0u);
}

TEST(XmlNameVersions, RenameRejectsBadTargetsAndNames) {
  auto parsed = Parse("<r>text<!--note--></r>",
                      {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* r = doc->DocumentElement();
  doc->WantEditVersions();

  // Text and comment nodes have no name; malformed QNames never land. None
  // of these may advance the epoch or stamp a name.
  EXPECT_FALSE(r->children()[0]->Rename("x").ok());
  EXPECT_FALSE(r->children()[1]->Rename("x").ok());
  EXPECT_FALSE(r->Rename("").ok());
  EXPECT_FALSE(r->Rename("1bad").ok());
  EXPECT_FALSE(r->Rename("a:b:c").ok());
  EXPECT_FALSE(r->Rename("sp ace").ok());
  EXPECT_EQ(doc->edit_epoch(), 0u);
  EXPECT_EQ(ElementVersion(*doc, "r"), 0u);

  EXPECT_TRUE(r->Rename("ns:root").ok());  // one colon is a fine QName
  EXPECT_GT(doc->edit_epoch(), 0u);
  EXPECT_EQ(ElementVersion(*doc, "r"), doc->edit_epoch());
}

TEST(XmlNameVersions, EveryUpdatePrimitiveStampsWhatItMoves) {
  // The update sublanguage routes onto AppendChild / InsertChildAt /
  // RemoveChild (Detach) / ReplaceChild / Rename. Each one must advance
  // the epoch and stamp the names it moves -- a primitive that forgot
  // would let stale cached chains keep validating.
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* a = doc->DocumentElement()->children()[0];
  doc->WantEditVersions();

  uint64_t last = doc->edit_epoch();
  auto stamped = [&](std::initializer_list<const char*> names) {
    const uint64_t epoch = doc->edit_epoch();
    EXPECT_GT(epoch, last);
    for (const char* name : names) {
      EXPECT_EQ(ElementVersion(*doc, name), epoch) << name;
    }
    last = epoch;
  };
  ASSERT_TRUE(a->AppendChild(doc->CreateElement("x")).ok());
  stamped({"x"});
  ASSERT_TRUE(a->InsertChildAt(0, doc->CreateElement("y")).ok());
  stamped({"y"});
  ASSERT_TRUE(a->RemoveChild(a->children()[0]).ok());
  stamped({"y"});
  ASSERT_TRUE(
      a->ReplaceChild(a->children()[0], {doc->CreateElement("z")}).ok());
  stamped({"b", "z"});
  a->children()[1]->Detach();
  stamped({"x"});
  ASSERT_TRUE(a->Rename("aa").ok());
  stamped({"a", "aa"});
}

TEST(XmlNameVersions, WantEditVersionsStartsStamping) {
  // Nothing is stamped until someone wants versions: NodeSetCache::Put
  // asks before it reads one, and the server's publish path asks on its
  // clone, which receives migrated entries before any reader sees it.
  {
    // Control: nobody asked -- the edit moves only the epoch.
    auto parsed =
        Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
    ASSERT_TRUE(parsed.ok());
    Document* doc = parsed->get();
    Node* r = doc->DocumentElement();
    ASSERT_TRUE(r->AppendChild(doc->CreateElement("x")).ok());
    EXPECT_GT(doc->edit_epoch(), 0u);
    EXPECT_EQ(ElementVersion(*doc, "x"), 0u);
    EXPECT_EQ(doc->document_version(), 0u);
  }
  {
    // The publish path's exact sequence: clone a never-observed document,
    // opt the clone in, edit -- the edit must stamp.
    auto parsed =
        Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
    ASSERT_TRUE(parsed.ok());
    std::vector<uint32_t> node_map;
    std::unique_ptr<Document> clone = CloneDocument(**parsed, &node_map);
    clone->WantEditVersions();
    Node* cr = clone->DocumentElement();
    Node* y = clone->CreateElement("y");
    const size_t before = clone->storage_stats().total_bytes;
    ASSERT_TRUE(cr->AppendChild(y).ok());
    EXPECT_GT(ElementVersion(*clone, "y"), 0u);
    EXPECT_GT(clone->document_version(), 0u);
    // The versions are storage: one map entry for the stamped name, far
    // less than a word for every node of the document.
    const size_t versions = clone->storage_stats().total_bytes - before;
    EXPECT_GE(versions, sizeof(uint32_t) + sizeof(uint64_t));
    EXPECT_LT(versions, 64 * sizeof(void*));
  }
}

TEST(XmlNameVersions, CloneCarriesTheVersionsAfterAValueEdit) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* a = doc->DocumentElement()->children()[0];
  doc->WantEditVersions();
  // A value edit creates and moves no nodes, so the parsed document stays
  // compact and in preorder: the clone's node map is the identity.
  a->SetAttribute("id", "a2");
  const uint64_t epoch = doc->edit_epoch();
  doc->EnsureOrderIndex();
  std::vector<uint32_t> node_map;
  std::unique_ptr<Document> clone = CloneDocument(*doc, &node_map);
  ASSERT_EQ(node_map.size(), doc->node_count());
  for (uint32_t i = 0; i < node_map.size(); ++i) EXPECT_EQ(node_map[i], i);
  EXPECT_EQ(clone->edit_epoch(), epoch);
  EXPECT_EQ(AttributeVersion(*clone, "id"), epoch);
  EXPECT_EQ(ElementVersion(*clone, "a"), 0u);

  // The histories diverge after the clone: edits to one side are invisible
  // to the other.
  clone->DocumentElement()->children()[0]->SetAttribute("id", "a3");
  EXPECT_GT(AttributeVersion(*clone, "id"), epoch);
  EXPECT_EQ(AttributeVersion(*doc, "id"), epoch);
}

TEST(XmlNameVersions, CloneCarriesTheVersionsPastDetachedDebris) {
  auto parsed = Parse(kVersionedDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  Node* r = doc->DocumentElement();
  Node* a = r->children()[0];
  Node* c = r->children()[1];
  doc->WantEditVersions();

  // Detach <d> from <c>: the document now has an unattached slot, which
  // the clone drops, so every node after it is renumbered. Versions are
  // per name, so they travel as they are.
  ASSERT_TRUE(c->RemoveChild(c->children()[0]).ok());
  const uint64_t removal_epoch = doc->edit_epoch();
  a->SetAttribute("id", "a3");
  const uint64_t attr_epoch = doc->edit_epoch();
  std::unique_ptr<Document> clone = CloneDocument(*doc);
  EXPECT_EQ(clone->edit_epoch(), doc->edit_epoch());
  EXPECT_EQ(clone->document_version(), removal_epoch);
  EXPECT_EQ(ElementVersion(*clone, "d"), removal_epoch);
  EXPECT_EQ(AttributeVersion(*clone, "k"), removal_epoch);
  EXPECT_EQ(AttributeVersion(*clone, "id"), attr_epoch);
  EXPECT_EQ(ElementVersion(*clone, "c"), 0u);

  // The histories diverge after the clone: edits to one side are invisible
  // to the other.
  Node* ca = clone->DocumentElement()->children()[0];
  ASSERT_TRUE(ca->AppendChild(clone->CreateElement("d")).ok());
  EXPECT_GT(ElementVersion(*clone, "d"), removal_epoch);
  EXPECT_EQ(ElementVersion(*doc, "d"), removal_epoch);
}

}  // namespace
}  // namespace lll::xml
