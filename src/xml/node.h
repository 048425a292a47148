#ifndef LLL_XML_NODE_H_
#define LLL_XML_NODE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "core/status.h"
#include "xml/name_table.h"

namespace lll::xml {

class Document;
class Node;
struct DocumentStorageImage;

enum class NodeKind {
  kDocument,
  kElement,
  kAttribute,
  kText,
  kComment,
  kProcessingInstruction,
};

const char* NodeKindName(NodeKind kind);

// Sentinel node index ("no node"): parents of roots, positions of detached
// nodes.
inline constexpr uint32_t kNilNode = 0xFFFFFFFFu;

// A lightweight view of one node's child (or attribute) list: a span of node
// indices inside the owning Document's index pool, yielding Node* handles.
// Views are cheap to copy. Mutating OTHER nodes leaves a view valid and
// current; mutating the VIEWED node's own list may leave it reading that
// list's pre-mutation contents (never garbage). CompactStorage() is the one
// operation that invalidates all outstanding views. This matches -- and on
// the stale-read case tightens -- the lifetime contract of the old
// `const std::vector<Node*>&` accessors.
class NodeList {
 public:
  class iterator {
   public:
    using value_type = Node*;
    using difference_type = ptrdiff_t;
    using pointer = const Node* const*;
    using reference = Node*;
    using iterator_category = std::random_access_iterator_tag;

    iterator() = default;
    iterator(const Document* doc, const uint32_t* p) : doc_(doc), p_(p) {}
    inline Node* operator*() const;
    iterator& operator++() { ++p_; return *this; }
    iterator operator++(int) { iterator t = *this; ++p_; return t; }
    iterator& operator--() { --p_; return *this; }
    iterator operator--(int) { iterator t = *this; --p_; return t; }
    iterator& operator+=(ptrdiff_t n) { p_ += n; return *this; }
    iterator& operator-=(ptrdiff_t n) { p_ -= n; return *this; }
    iterator operator+(ptrdiff_t n) const { return iterator(doc_, p_ + n); }
    iterator operator-(ptrdiff_t n) const { return iterator(doc_, p_ - n); }
    ptrdiff_t operator-(const iterator& o) const { return p_ - o.p_; }
    inline Node* operator[](ptrdiff_t n) const;
    bool operator==(const iterator& o) const { return p_ == o.p_; }
    bool operator!=(const iterator& o) const { return p_ != o.p_; }
    bool operator<(const iterator& o) const { return p_ < o.p_; }
    bool operator>(const iterator& o) const { return p_ > o.p_; }
    bool operator<=(const iterator& o) const { return p_ <= o.p_; }
    bool operator>=(const iterator& o) const { return p_ >= o.p_; }

   private:
    const Document* doc_ = nullptr;
    const uint32_t* p_ = nullptr;
  };

  NodeList() = default;
  NodeList(const Document* doc, const uint32_t* ids, uint32_t size)
      : doc_(doc), ids_(ids), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  inline Node* operator[](size_t i) const;
  inline Node* front() const;
  inline Node* back() const;
  iterator begin() const { return iterator(doc_, ids_); }
  iterator end() const { return iterator(doc_, ids_ + size_); }

  // Reverse iteration helper for the reverse-axis walks (index from the
  // back): at(size()-1-k) without iterator adapters.
  inline Node* at(size_t i) const { return (*this)[i]; }

 private:
  const Document* doc_ = nullptr;
  const uint32_t* ids_ = nullptr;
  uint32_t size_ = 0;
};

// One node of the XML infoset, as a thin handle into the owning Document's
// structure-of-arrays storage: the handle carries only {document, index} and
// every accessor reads the document's parallel arrays. Handle objects are
// owned by the Document (stable addresses for the document's lifetime), so
// Node* keeps working as the identity type across the whole engine -- pointer
// equality is node identity, exactly as before -- while the actual node data
// lives in cache-friendly arrays.
//
// Attribute nodes are real nodes (as in XDM): they can exist detached from
// any element, which is exactly what makes the paper's attribute-folding
// behavior (E2) expressible.
class Node {
 public:
  // Passkey: only Document can construct handles.
  class Key {
   private:
    friend class Document;
    friend std::unique_ptr<Document> CloneDocument(
        const Document& source, std::vector<uint32_t>* node_map,
        size_t spare_nodes);
    friend Result<std::unique_ptr<Document>> DocumentFromStorage(
        const DocumentStorageImage& image);
    Key() = default;
  };
  Node(Key, Document* doc, uint32_t idx) : document_(doc), idx_(idx) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  inline NodeKind kind() const;
  bool is_element() const { return kind() == NodeKind::kElement; }
  bool is_attribute() const { return kind() == NodeKind::kAttribute; }
  bool is_text() const { return kind() == NodeKind::kText; }
  bool is_document() const { return kind() == NodeKind::kDocument; }

  // Element/attribute/PI name; empty for document/text/comment. The
  // reference aliases the process-wide interned name (stable forever).
  inline const std::string& name() const;
  // The interned-name id (NameTable); equal ids <=> equal names.
  inline uint32_t name_id() const;
  // Attribute value, text content, comment content, or PI data. The view
  // aliases the document's value arena: stable until the document dies
  // (set_value() writes a fresh arena slot, it never overwrites bytes).
  inline std::string_view value() const;
  void set_value(std::string_view v);

  inline Node* parent() const;
  Document* document() const { return document_; }

  // This node's index in the owning document's arena: dense and 0-based.
  // CloneDocument and DocumentFromStorage number nodes in preorder; other
  // builds need not, so document order lives in the order-key index (see
  // Document::EnsureOrderIndex), not in the index.
  uint32_t index() const { return idx_; }

  // Child nodes (elements, text, comments, PIs) in document order.
  // Attribute nodes are never in children(); they live in attributes().
  inline NodeList children() const;
  inline NodeList attributes() const;

  // --- Navigation -----------------------------------------------------------

  // Concatenation of all descendant text, XPath string-value semantics.
  // Iterative: safe on degenerate 100k-deep chains.
  std::string StringValue() const;

  // First child element with the given name, or nullptr.
  Node* FirstChildElement(std::string_view name) const;
  // All child elements (any name if `name` is empty).
  std::vector<Node*> ChildElements(std::string_view name = {}) const;
  // All descendant elements with the given name, in document order.
  // Iterative: safe on degenerate 100k-deep chains.
  std::vector<Node*> DescendantElements(std::string_view name) const;

  // Attribute value by name; nullopt if absent.
  std::optional<std::string_view> AttributeValue(std::string_view name) const;
  // Attribute node by name; nullptr if absent.
  Node* AttributeNode(std::string_view name) const;

  // Index of this node within parent()->children() (or ->attributes() for
  // attribute nodes), or npos if detached. O(1): positions are stored.
  size_t IndexInParent() const;

  // Root of the tree this node belongs to (may be a detached subtree root).
  Node* Root();

  // --- Mutation (element/document nodes) -------------------------------

  // Appends a child node. The child must belong to the same Document and be
  // detached. Attribute nodes are rejected here; use SetAttributeNode.
  Status AppendChild(Node* child);
  Status InsertChildAt(size_t index, Node* child);
  Status RemoveChild(Node* child);
  // Replaces `old_child` with the given nodes (all same-document, detached).
  Status ReplaceChild(Node* old_child, const std::vector<Node*>& replacement);

  // Sets (or overwrites) an attribute by name.
  void SetAttribute(std::string_view name, std::string_view value);
  // Attaches an existing detached attribute node. If an attribute with the
  // same name exists, `keep_first` decides which survives (the paper notes
  // implementations disagreed; we keep the FIRST by default, deterministic).
  Status SetAttributeNode(Node* attr, bool keep_first = true);
  bool RemoveAttribute(std::string_view name);

  // Appends `attr` even if an attribute with the same name already exists,
  // producing an element that serializes to INVALID XML. Exists solely so
  // the XQuery engine can reproduce the Galax duplicate-attribute bug the
  // paper observed (see EvalOptions::galax_duplicate_attributes).
  Status ForceAppendDuplicateAttribute(Node* attr);

  // Detaches this node from its parent (no-op if already detached).
  void Detach();

  // Renames this element, attribute, or processing-instruction node to
  // `qname` (interned; must be a well-formed QName). Structure and document
  // order are untouched, so no order-index invalidation -- but an element
  // or attribute rename stamps both its old and its new name's version
  // (Document::element_version / attribute_version): it changes what a
  // test of either name selects.
  Status Rename(std::string_view qname);

  // The document-order stamp assigned by the owning Document's order index
  // (see Document::EnsureOrderIndex). Callers must have called
  // EnsureOrderIndex() on the owning document at least once; afterwards the
  // keys of pre-existing nodes keep their RELATIVE order across rebuilds
  // (trees are stamped in root-index order), so comparisons between fresh
  // reads stay valid even if a mutation has invalidated the index since.
  inline uint64_t order_key() const;

 private:
  friend class Document;

  Status CheckAdoptable(const Node* child) const;

  Document* document_;
  uint32_t idx_;
};

// True iff `qname` is one or two non-empty NCName parts joined by a colon,
// NCName = (letter | '_') (letter | digit | '.' | '-' | '_')*. The check
// behind Node::Rename and the update language's `rename ... as qname`.
bool IsWellFormedQName(std::string_view qname);

// Heap footprint summary of one document's storage (see Document::
// storage_stats). `total_bytes` is the resident arena footprint: node
// arrays, index pools, value arena, handle slots, the order-key index and
// the name versions. Interned names are process-wide and excluded.
struct DocumentStorageStats {
  size_t node_count = 0;       // slots in the arena (detached included)
  size_t total_bytes = 0;      // resident heap bytes of this document
  size_t value_bytes = 0;      // bytes of node values in the char arena
  size_t pool_slack_slots = 0; // child/attr pool entries dead after moves
};

// Arena that owns every node of one tree (or forest -- detached nodes are
// fine), stored as index-based structure-of-arrays: per-node parallel arrays
// (kind, interned-name id, value view, parent index, position-in-parent,
// child span, attribute span) plus two uint32 index pools holding the child
// and attribute lists and a chunked char arena holding value bytes. Node
// handles (the stable Node* identity objects) live in a deque alongside.
//
// Destroying the Document destroys all its nodes.
//
// Child/attribute lists are contiguous ranges inside chunked index pools.
// Chunks never move or shrink while the document lives, so a NodeList view
// of node Y stays valid (and current) across mutations of OTHER nodes --
// the same guarantee the old per-node vectors gave. Appending to a list
// whose range cannot grow in place relocates it to a fresh range with
// doubled capacity (amortized O(1) append); the abandoned range keeps its
// old bytes, so a stale view of the MUTATED node reads its pre-mutation
// list rather than garbage. Dead ranges are reclaimed by CompactStorage and
// CloneDocument.
class Document {
 public:
  Document();
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  // The document node (root of the tree).
  Node* root() { return NodeAt(0); }
  const Node* root() const { return NodeAt(0); }

  // The single top-level element under the document node, or nullptr.
  Node* DocumentElement() const;

  Node* CreateElement(std::string_view name);
  // A detached document node (for XQuery `document { ... }` constructors);
  // distinct from root().
  Node* CreateDocumentNode();
  Node* CreateText(std::string_view text);
  Node* CreateComment(std::string_view text);
  Node* CreateProcessingInstruction(std::string_view target,
                                    std::string_view data);
  Node* CreateAttribute(std::string_view name, std::string_view value);

  // Deep-copies `source` (which may belong to another Document) into this
  // document; the returned node is detached, and every copy keeps its
  // source's name id. Iterative (deep sources must not exhaust the call
  // stack).
  Node* ImportNode(const Node* source);

  // Total number of nodes ever created in this arena (detached included).
  size_t node_count() const { return kind_.size(); }

  // The handle for node index `idx` (0 <= idx < node_count()). Stable
  // address for the document's lifetime.
  Node* NodeAt(uint32_t idx) const {
    return const_cast<Node*>(&handles_[idx]);
  }

  // Rewrites the child/attribute index pools into tight per-node spans
  // (dropping relocation slack) and trims array overallocation. Structure,
  // node indices, and document order are unchanged; no version bump.
  // Invalidates outstanding NodeList views -- call it only while no reader
  // holds one (the parser runs it once, after the build).
  void CompactStorage();

  // Resident storage footprint (exact, computed from array capacities).
  DocumentStorageStats storage_stats() const;

  // --- Document-order index -------------------------------------------------
  //
  // Every node of the arena (detached subtrees included) carries an order
  // key: a preorder stamp with attributes slotted right after their
  // owner element, before its children. Trees are stamped in root-index
  // order, so cross-tree compares within one document keep the historical
  // "stable arbitrary order by tree identity" contract.
  //
  // The keys live in one per-node array. EnsureOrderIndex stamps it in one
  // preorder walk whenever a structural mutation has moved
  // structure_version() since the last stamp, and is one atomic load when
  // nothing moved. The two builders that emit preorder by construction --
  // CloneDocument and DocumentFromStorage -- write keys 1..n as they finish
  // and hand over a fresh index, so a publish clone binds its update targets
  // without a stamp. CompareDocumentOrder is one staleness check plus an
  // integer compare.
  //
  // Thread safety: concurrent read-only users (e.g. parallel query
  // evaluations sharing one model document) may race to build the index; the
  // rebuild is mutex-guarded and published with release/acquire ordering, so
  // that race is benign and TSan-clean. Mutating the document concurrently
  // with readers is NOT safe -- same contract as for the tree itself.
  void EnsureOrderIndex() const;

  // Bumped by every structural mutation; the order index is fresh iff it was
  // built at the current version. Exposed for tests and diagnostics.
  uint64_t structure_version() const {
    return structure_version_.load(std::memory_order_acquire);
  }
  bool order_index_fresh() const {
    return order_index_version_.load(std::memory_order_acquire) ==
           structure_version();
  }

  // Process-unique, monotonically increasing id assigned at construction.
  // Unlike an address, an id is never reused after the Document dies, so
  // caches that key on a Document (or its nodes) by address must also
  // validate this id -- a recycled allocation can otherwise impersonate the
  // dead document, structure_version and all.
  uint64_t doc_id() const { return doc_id_; }

  // The order key of node `idx` (see Node::order_key()).
  uint64_t order_key_of(uint32_t idx) const {
    return idx < order_key_.size() ? order_key_[idx] : 0;
  }

  // --- Name versions ---------------------------------------------------------
  //
  // What lets the node-set cache keep every entry an edit cannot affect
  // (xq::NodeSetCache, DESIGN.md section 14). An interned chain's node set
  // changes only when an edit attaches, detaches or renames a node one of
  // its steps matches, and a probe-extended entry's index only when the
  // attribute it reads is written. So every mutation advances `edit_epoch_`
  // and stamps the new epoch on what it touched:
  //
  //   element_version(name)    an element of that name was attached or
  //                            detached, alone or inside a moved subtree,
  //                            or renamed from or to it
  //   attribute_version(name)  the same for attributes, plus every write
  //                            of an attribute value of that name
  //   document_version()       some node was attached or detached: the
  //                            guard of a chain with a step that tests no
  //                            name (`*`, node(), text(), ...)
  //
  // Attach and detach stamp every name in the moved subtree: a node's
  // ancestry and its order among its siblings change only when it or an
  // ancestor moves, so no chain can gain or lose a node without one of its
  // tested names -- or the document version -- moving. A value write to a
  // text node stamps nothing: node sets hold identities, not values.
  //
  // Names are NameTable ids, shared by every document, so a clone carries
  // the versions verbatim, whatever its renumbering. A name no edit touched
  // reads version 0. Stamping starts with the first mutation after
  // WantEditVersions() -- which NodeSetCache::Put calls before it reads a
  // version, and the server's publish path on its clone -- so document
  // builds (thousands of attaches, nobody caching yet) pay one counter
  // increment per mutation instead of a subtree walk. That is sound:
  // versions read before stamping starts are all 0, and the first stamping
  // edit stamps a strictly positive epoch.
  //
  // Thread safety: the version reads never allocate and the wanted-flag is
  // an atomic, so any number of readers may validate versions
  // concurrently. Mutating concurrently with readers is NOT safe -- the
  // same contract as the tree itself.
  uint64_t edit_epoch() const { return edit_epoch_; }
  // Declares the document's CURRENT state to be the edit-history origin:
  // epoch 0, no edits yet. Builders call this at finalization so a parsed
  // document and a snapshot-loaded one report identical histories (the
  // cross-process EXPLAIN oracle diffs `[interned@v<epoch>]` renderings).
  // A no-op once some version is stamped, so recorded versions can never
  // outrun a rebased epoch.
  void ResetEditEpoch() {
    if (document_version_ == 0 && element_versions_.empty() &&
        attribute_versions_.empty()) {
      edit_epoch_ = 0;
    }
  }
  uint64_t element_version(uint32_t name) const {
    return VersionOf(element_versions_, name);
  }
  uint64_t attribute_version(uint32_t name) const {
    return VersionOf(attribute_versions_, name);
  }
  uint64_t document_version() const { return document_version_; }
  // Starts stamping: the next mutation stamps what it touches. The
  // server's publish path calls this on its clone BEFORE applying the
  // edit: the clone receives the base snapshot's cache entries, and a
  // reader may have stored one on the base after the clone copied the
  // base's flag.
  void WantEditVersions() const {
    if (!edit_versions_wanted_.load(std::memory_order_relaxed)) {
      edit_versions_wanted_.store(true, std::memory_order_relaxed);
    }
  }

 private:
  friend class Node;
  friend class NodeList;
  friend std::unique_ptr<Document> CloneDocument(const Document& source,
                                                 std::vector<uint32_t>* node_map,
                                                 size_t spare_nodes);
  friend DocumentStorageImage ExportDocumentStorage(const Document& source);
  friend Result<std::unique_ptr<Document>> DocumentFromStorage(
      const DocumentStorageImage& image);

  // One contiguous range in child_pool_/attr_pool_. `cap` is the allocated
  // range size; count <= cap. The pointer targets pool chunk storage, which
  // is address-stable for the document's lifetime.
  struct Span {
    uint32_t* ptr = nullptr;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  // Chunked uint32 pool: ranges are handed out bump-allocator style and
  // never move; a range that outgrows its capacity is abandoned in place
  // (counted in pool_slack_) and re-allocated elsewhere.
  struct PoolChunk {
    std::unique_ptr<uint32_t[]> data;
    uint32_t used = 0;
    uint32_t cap = 0;
  };

  // Chunked value arena: bytes are written once and never move, so the
  // string_views value() hands out stay valid until the document dies or
  // CompactStorage() rewrites the arena. Blocks occupy 64 KiB-aligned
  // virtual slots (block ordinal = start >> 16) but may be physically
  // smaller; a value never crosses a block boundary.
  static constexpr uint32_t kCharBlockSpan = 1u << 16;
  struct CharBlock {
    std::unique_ptr<char[]> data;
    uint32_t used = 0;
    uint32_t cap = 0;
  };

  // 8-byte reference into the char arena: `start` packs (block << 16 | off).
  // Bounds the per-document value arena at 64 K blocks (~4 GiB).
  struct ValueRef {
    uint32_t start = 0;
    uint32_t len = 0;
  };

  std::string_view ValueView(ValueRef r) const {
    if (r.len == 0) return {};
    return std::string_view(
        chars_[r.start >> 16].data.get() + (r.start & 0xFFFFu), r.len);
  }

  uint32_t NewSlot(NodeKind kind, uint32_t name_id, std::string_view value);
  ValueRef AddChars(std::string_view s);

  // Span/pool plumbing. `at` is the insertion position within the list.
  static uint32_t* PoolAlloc(std::vector<PoolChunk>& pool, uint32_t n);
  void SpanInsert(Span& s, std::vector<PoolChunk>& pool, uint32_t at,
                  uint32_t value);
  void SpanErase(Span& s, uint32_t at);

  // Attach/detach primitives; callers have validated. These maintain the
  // structure version and the position indexes.
  void AttachChildAt(uint32_t parent, uint32_t child, uint32_t at);
  void AttachAttr(uint32_t owner, uint32_t attr);
  void DetachSlot(uint32_t idx);

  // Advances the edit epoch. Returns it when versions are stamped (see
  // WantEditVersions), 0 when they are not.
  uint64_t NextEditEpoch();
  // Stamps `epoch` (from NextEditEpoch; 0 stamps nothing) on the document
  // version and on every element and attribute name in the subtree at
  // `root`, the node an attach or detach moved.
  void StampMoved(uint32_t root, uint64_t epoch);

  void InvalidateOrderIndex() {
    structure_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // For builders whose node indices are the preorder of one rooted tree
  // (CloneDocument, DocumentFromStorage): writes keys 1..n and marks the
  // index fresh at the current structure version, before any reader exists.
  void SetPreorderKeys();

  // --- Parallel per-node arrays (index = node id) ---------------------------
  std::vector<uint8_t> kind_;
  std::vector<uint32_t> name_;          // interned NameTable id
  std::vector<ValueRef> value_;         // 8-byte ref into the char arena
  std::vector<uint32_t> parent_;        // kNilNode = detached root
  std::vector<uint32_t> pos_;           // index within parent's list
  std::vector<Span> child_span_;
  std::vector<Span> attr_span_;
  std::vector<PoolChunk> child_pool_;
  std::vector<PoolChunk> attr_pool_;
  std::vector<CharBlock> chars_;
  size_t value_bytes_ = 0;
  size_t pool_slack_ = 0;
  std::deque<Node> handles_;            // stable Node* identity objects

  uint64_t doc_id_ = 0;

  std::atomic<uint64_t> structure_version_{1};
  mutable std::atomic<uint64_t> order_index_version_{0};
  mutable std::mutex order_index_mutex_;
  // Node index -> order key. Keys run 1..node_count(), so 32 bits hold
  // them: node indices are 32-bit.
  mutable std::vector<uint32_t> order_key_;

  // Name versions (see the public accessors above): NameTable id -> the
  // epoch of the last edit that stamped it, for the names edits stamped.
  using NameVersions = std::unordered_map<uint32_t, uint64_t>;
  static uint64_t VersionOf(const NameVersions& versions, uint32_t name) {
    if (versions.empty()) return 0;
    auto it = versions.find(name);
    return it == versions.end() ? 0 : it->second;
  }
  uint64_t edit_epoch_ = 0;
  mutable std::atomic<bool> edit_versions_wanted_{false};
  uint64_t document_version_ = 0;
  NameVersions element_versions_;
  NameVersions attribute_versions_;
};

inline Node* NodeList::operator[](size_t i) const {
  return doc_->NodeAt(ids_[i]);
}
inline Node* NodeList::front() const { return doc_->NodeAt(ids_[0]); }
inline Node* NodeList::back() const { return doc_->NodeAt(ids_[size_ - 1]); }
inline Node* NodeList::iterator::operator*() const {
  return doc_->NodeAt(*p_);
}
inline Node* NodeList::iterator::operator[](ptrdiff_t n) const {
  return doc_->NodeAt(p_[n]);
}

inline NodeKind Node::kind() const {
  return static_cast<NodeKind>(document_->kind_[idx_]);
}
inline const std::string& Node::name() const {
  return NameTable::Get(document_->name_[idx_]);
}
inline uint32_t Node::name_id() const { return document_->name_[idx_]; }
inline std::string_view Node::value() const {
  return document_->ValueView(document_->value_[idx_]);
}
inline Node* Node::parent() const {
  uint32_t p = document_->parent_[idx_];
  return p == kNilNode ? nullptr : document_->NodeAt(p);
}
inline NodeList Node::children() const {
  const Document::Span& s = document_->child_span_[idx_];
  return NodeList(document_, s.ptr, s.count);
}
inline NodeList Node::attributes() const {
  const Document::Span& s = document_->attr_span_[idx_];
  return NodeList(document_, s.ptr, s.count);
}
inline uint64_t Node::order_key() const {
  return document_->order_key_of(idx_);
}

// A flattened, position-independent image of one document's rooted tree:
// plain vectors in node-index order with a LOCAL name table, suitable for
// byte-for-byte persistence (src/persist). Produced by ExportDocumentStorage,
// consumed by DocumentFromStorage. Name ids in `name` index `names` -- NOT
// the process-wide NameTable, whose ids are only stable within one process --
// and `names[0]` is always the empty string. Child/attribute lists are
// concatenated in node-index order with per-node counts; `parent` and `pos`
// are NOT carried (they are derived structure and are recomputed, and
// validated, on import).
struct DocumentStorageImage {
  std::vector<uint8_t> kind;          // NodeKind per node
  std::vector<uint32_t> name;         // local name id per node
  std::vector<std::string> names;     // local name table; names[0] == ""
  std::vector<uint32_t> value_len;    // value byte length per node
  std::string values;                 // concatenated values, node-index order
  std::vector<uint32_t> child_count;  // children per node
  std::vector<uint32_t> children;     // concatenated child ids
  std::vector<uint32_t> attr_count;   // attributes per node
  std::vector<uint32_t> attrs;        // concatenated attribute ids

  size_t node_count() const { return kind.size(); }
};

// Flattens `source`'s rooted tree into an image whose node-index order is
// document order: the source is cloned first (CloneDocument drops detached
// debris and renumbers into preorder), so the image is always compact and
// in preorder.
DocumentStorageImage ExportDocumentStorage(const Document& source);

// Rebuilds a Document from an image: arrays are populated directly (no XML
// parse) and local name ids are re-interned through the process NameTable.
// The image is validated structurally before anything is built --
// out-of-range node/name ids, inconsistent counts, non-preorder list
// layouts, or kind violations (an attribute in a child list, a second
// document node) all return kInvalidArgument. Untrusted bytes go through
// this one gate, and passing it proves index order is preorder, so the
// result's order keys are written 1..n and its order index starts fresh.
Result<std::unique_ptr<Document>> DocumentFromStorage(
    const DocumentStorageImage& image);

// Deep-copies the rooted tree of `source` into a fresh Document (detached
// subtrees of the source arena are NOT carried over -- a clone is a clean
// publishable tree, not an arena dump). The copy is a preorder array-to-array
// pass: no per-node allocation, names stay interned, values stream into the
// clone's arena, and the resulting document is compact, numbered in
// preorder and carries a fresh order index (keys 1..n) regardless of the
// source's mutation history. This is the copy half of the server's
// copy-on-write publish path: the writer clones the current snapshot, edits
// the private copy, and installs it while readers keep the original alive.
//
// `node_map` (optional) receives the source-index -> clone-index mapping,
// sized to source.node_count(), with kNilNode for detached debris the clone
// dropped. From a source that is already compact and in preorder (an
// unedited clone or loaded snapshot) it is the identity. This is what lets
// NodeSetCache::MigrateClone re-target cached entries at the clone. The
// clone carries the source's edit epoch and name versions as they are.
//
// `spare_nodes` is room for that many nodes more: every per-node array (the
// storage arrays and the order keys) reserves it, so the nodes a publish
// creates on the clone do not reallocate them.
std::unique_ptr<Document> CloneDocument(const Document& source,
                                        std::vector<uint32_t>* node_map =
                                            nullptr,
                                        size_t spare_nodes = 0);

// Document order: -1 if `a` precedes `b`, 0 if same node, +1 if follows.
// Attribute nodes order after their owner element and before its children;
// nodes from different trees compare by tree identity (stable, arbitrary).
// Same-document compares go through the document's order-key index (O(1)
// once fresh; one preorder walk restamps it after a structural mutation);
// cross-document compares fall back to root identity.
int CompareDocumentOrder(const Node* a, const Node* b);

// The pre-index structural comparator: an ancestor-path walk plus a linear
// scan of the common parent's slots -- O(depth * fanout) per compare.
// Retained as the oracle for property tests and as the benchmark baseline
// (bench_e12); agrees with CompareDocumentOrder on every pair.
int CompareDocumentOrderStructural(const Node* a, const Node* b);

}  // namespace lll::xml

#endif  // LLL_XML_NODE_H_
