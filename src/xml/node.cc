#include "xml/node.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <numeric>

namespace lll::xml {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDocument:
      return "document";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

// --- Node -------------------------------------------------------------------

std::string Node::StringValue() const {
  switch (kind()) {
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kAttribute:
    case NodeKind::kProcessingInstruction:
      return std::string(value());
    case NodeKind::kElement:
    case NodeKind::kDocument:
      break;
  }
  // Concatenate descendant text in document order; explicit stack so a
  // 100k-deep chain cannot exhaust the call stack.
  std::string out;
  std::vector<uint32_t> stack;
  const Document* doc = document_;
  {
    NodeList kids = children();
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]->idx_);
  }
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    NodeKind k = static_cast<NodeKind>(doc->kind_[n]);
    if (k == NodeKind::kText) {
      out += doc->ValueView(doc->value_[n]);
    } else if (k == NodeKind::kElement) {
      const Document::Span& s = doc->child_span_[n];
      for (uint32_t i = s.count; i-- > 0;) {
        stack.push_back(s.ptr[i]);
      }
    }
  }
  return out;
}

Node* Node::FirstChildElement(std::string_view name) const {
  for (Node* c : children()) {
    if (c->is_element() && c->name() == name) return c;
  }
  return nullptr;
}

std::vector<Node*> Node::ChildElements(std::string_view name) const {
  std::vector<Node*> out;
  for (Node* c : children()) {
    if (c->is_element() && (name.empty() || c->name() == name)) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<Node*> Node::DescendantElements(std::string_view name) const {
  // Preorder over descendant elements; explicit stack (100k-depth safe).
  std::vector<Node*> out;
  const Document* doc = document_;
  std::vector<uint32_t> stack;
  {
    NodeList kids = children();
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]->idx_);
  }
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (static_cast<NodeKind>(doc->kind_[n]) != NodeKind::kElement) continue;
    Node* e = doc->NodeAt(n);
    if (name.empty() || e->name() == name) out.push_back(e);
    const Document::Span& s = doc->child_span_[n];
    for (uint32_t i = s.count; i-- > 0;) {
      stack.push_back(s.ptr[i]);
    }
  }
  return out;
}

std::optional<std::string_view> Node::AttributeValue(
    std::string_view name) const {
  for (const Node* a : attributes()) {
    if (a->name() == name) return a->value();
  }
  return std::nullopt;
}

Node* Node::AttributeNode(std::string_view name) const {
  for (Node* a : attributes()) {
    if (a->name() == name) return a;
  }
  return nullptr;
}

size_t Node::IndexInParent() const {
  if (document_->parent_[idx_] == kNilNode) return static_cast<size_t>(-1);
  return document_->pos_[idx_];
}

Node* Node::Root() {
  uint32_t n = idx_;
  while (document_->parent_[n] != kNilNode) n = document_->parent_[n];
  return document_->NodeAt(n);
}

void Node::set_value(std::string_view v) {
  Document* doc = document_;
  doc->value_bytes_ += v.size();
  doc->value_bytes_ -= doc->value_[idx_].len;
  doc->value_[idx_] = doc->AddChars(v);
  // Value edits never disturb document order (no structure-version bump).
  // An attribute write stamps its name: value indexes read it.
  const uint64_t epoch = doc->NextEditEpoch();
  if (epoch != 0 && is_attribute()) {
    doc->attribute_versions_[doc->name_[idx_]] = epoch;
  }
}

Status Node::CheckAdoptable(const Node* child) const {
  if (child == nullptr) return Status::Invalid("null child");
  if (child->document_ != document_) {
    return Status::Invalid(
        "child belongs to a different document; ImportNode it first");
  }
  if (child->parent() != nullptr) {
    return Status::Invalid("child already has a parent; Detach it first");
  }
  if (kind() != NodeKind::kElement && kind() != NodeKind::kDocument) {
    return Status::Invalid(std::string("cannot add children to a ") +
                           NodeKindName(kind()) + " node");
  }
  // Reject cycles: `child` must not be an ancestor of `this`. A childless
  // node cannot be on anyone's ancestor chain, so the common build pattern
  // (append a freshly created node) skips the O(depth) walk.
  if (child == this) return Status::Invalid("cannot adopt an ancestor");
  if (!child->children().empty()) {
    for (const Node* n = this; n != nullptr; n = n->parent()) {
      if (n == child) return Status::Invalid("cannot adopt an ancestor");
    }
  }
  return Status::Ok();
}

Status Node::AppendChild(Node* child) {
  return InsertChildAt(children().size(), child);
}

Status Node::InsertChildAt(size_t index, Node* child) {
  LLL_RETURN_IF_ERROR(CheckAdoptable(child));
  if (child->is_attribute()) {
    return Status::Invalid("attribute nodes go through SetAttributeNode");
  }
  if (index > children().size()) {
    return Status::OutOfRange("child index past end");
  }
  document_->AttachChildAt(idx_, child->idx_, static_cast<uint32_t>(index));
  return Status::Ok();
}

Status Node::RemoveChild(Node* child) {
  if (child == nullptr || child->document_ != document_ ||
      child->is_attribute() || document_->parent_[child->idx_] != idx_) {
    return Status::NotFound("not a child of this node");
  }
  document_->DetachSlot(child->idx_);
  return Status::Ok();
}

Status Node::ReplaceChild(Node* old_child,
                          const std::vector<Node*>& replacement) {
  if (old_child == nullptr || old_child->document_ != document_ ||
      old_child->is_attribute() ||
      document_->parent_[old_child->idx_] != idx_) {
    return Status::NotFound("not a child of this node");
  }
  for (Node* r : replacement) {
    LLL_RETURN_IF_ERROR(CheckAdoptable(r));
    if (r->is_attribute()) {
      return Status::Invalid("attribute nodes cannot replace children");
    }
  }
  Document* doc = document_;
  uint32_t at = doc->pos_[old_child->idx_];
  doc->SpanErase(doc->child_span_[idx_], at);
  doc->parent_[old_child->idx_] = kNilNode;
  for (size_t i = 0; i < replacement.size(); ++i) {
    uint32_t c = replacement[i]->idx_;
    doc->SpanInsert(doc->child_span_[idx_], doc->child_pool_,
                    at + static_cast<uint32_t>(i), c);
    doc->parent_[c] = idx_;
  }
  doc->InvalidateOrderIndex();
  const uint64_t epoch = doc->NextEditEpoch();
  doc->StampMoved(old_child->idx_, epoch);
  for (Node* r : replacement) doc->StampMoved(r->idx_, epoch);
  return Status::Ok();
}

void Node::SetAttribute(std::string_view name, std::string_view value) {
  for (Node* a : attributes()) {
    if (a->name() == name) {
      a->set_value(value);
      return;
    }
  }
  Node* attr = document_->CreateAttribute(name, value);
  document_->AttachAttr(idx_, attr->idx_);
}

Status Node::SetAttributeNode(Node* attr, bool keep_first) {
  if (attr == nullptr || !attr->is_attribute()) {
    return Status::Invalid("SetAttributeNode requires an attribute node");
  }
  if (attr->document_ != document_) {
    return Status::Invalid("attribute belongs to a different document");
  }
  if (attr->parent() != nullptr) {
    return Status::Invalid("attribute already owned by an element");
  }
  if (!is_element()) {
    return Status::Invalid("attributes can only be set on elements");
  }
  for (Node* existing : attributes()) {
    if (existing->name_id() == attr->name_id()) {
      if (keep_first) return Status::Ok();  // first writer wins, new one dropped
      existing->set_value(attr->value());
      return Status::Ok();
    }
  }
  document_->AttachAttr(idx_, attr->idx_);
  return Status::Ok();
}

Status Node::ForceAppendDuplicateAttribute(Node* attr) {
  if (attr == nullptr || !attr->is_attribute()) {
    return Status::Invalid("requires an attribute node");
  }
  if (attr->document_ != document_ || attr->parent() != nullptr) {
    return Status::Invalid("attribute must be detached and same-document");
  }
  if (!is_element()) return Status::Invalid("attributes only go on elements");
  document_->AttachAttr(idx_, attr->idx_);
  return Status::Ok();
}

bool Node::RemoveAttribute(std::string_view name) {
  for (Node* a : attributes()) {
    if (a->name() == name) {
      document_->DetachSlot(a->idx_);
      return true;
    }
  }
  return false;
}

void Node::Detach() {
  Document* doc = document_;
  uint32_t p = doc->parent_[idx_];
  if (p == kNilNode) return;
  doc->DetachSlot(idx_);
}

bool IsWellFormedQName(std::string_view qname) {
  bool at_part_start = true;
  bool seen_colon = false;
  for (char c : qname) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == ':') {
      if (seen_colon || at_part_start) return false;
      seen_colon = true;
      at_part_start = true;
      continue;
    }
    if (at_part_start) {
      if (!std::isalpha(u) && c != '_') return false;
      at_part_start = false;
    } else if (!std::isalnum(u) && c != '.' && c != '-' && c != '_') {
      return false;
    }
  }
  return !qname.empty() && !at_part_start;
}

Status Node::Rename(std::string_view qname) {
  const NodeKind k = kind();
  if (k != NodeKind::kElement && k != NodeKind::kAttribute &&
      k != NodeKind::kProcessingInstruction) {
    return Status::Invalid(std::string("Rename: cannot rename a ") +
                           NodeKindName(k) + " node");
  }
  if (!IsWellFormedQName(qname)) {
    return Status::Invalid("Rename: '" + std::string(qname) +
                           "' is not a well-formed QName");
  }
  Document* doc = document_;
  const uint32_t old_name = doc->name_[idx_];
  doc->name_[idx_] = NameTable::Intern(qname);
  // No structural change and no order change, but a test of either name
  // now selects differently. (Processing-instruction tests name no
  // target.)
  const uint64_t epoch = doc->NextEditEpoch();
  if (epoch != 0 && k != NodeKind::kProcessingInstruction) {
    Document::NameVersions& versions = k == NodeKind::kAttribute
                                           ? doc->attribute_versions_
                                           : doc->element_versions_;
    versions[old_name] = epoch;
    versions[doc->name_[idx_]] = epoch;
  }
  return Status::Ok();
}

// --- Document ---------------------------------------------------------------

Document::Document() {
  static std::atomic<uint64_t> next_doc_id{1};
  doc_id_ = next_doc_id.fetch_add(1, std::memory_order_relaxed);
  NewSlot(NodeKind::kDocument, 0, {});
}

Node* Document::DocumentElement() const {
  for (Node* c : root()->children()) {
    if (c->is_element()) return c;
  }
  return nullptr;
}

Document::ValueRef Document::AddChars(std::string_view s) {
  if (s.empty()) return {};
  const uint32_t len = static_cast<uint32_t>(s.size());
  if (len >= kCharBlockSpan) {
    // Jumbo value: a dedicated block spanning several 64 KiB virtual slots.
    // Zero-cap pad entries keep later block ordinals aligned with their
    // virtual address; the next small value opens a fresh block.
    const uint32_t ordinal = static_cast<uint32_t>(chars_.size());
    CharBlock block;
    block.cap = len;
    block.used = len;
    block.data = std::make_unique<char[]>(len);
    std::memcpy(block.data.get(), s.data(), len);
    chars_.push_back(std::move(block));
    for (uint32_t p = (len - 1) / kCharBlockSpan; p > 0; --p) {
      chars_.emplace_back();
    }
    return ValueRef{ordinal << 16, len};
  }
  if (chars_.empty() || chars_.back().cap - chars_.back().used < len) {
    CharBlock block;
    block.cap = std::max(
        len, chars_.empty() ? 4096u
                            : std::min(chars_.back().cap * 2, kCharBlockSpan));
    block.data = std::make_unique<char[]>(block.cap);
    chars_.push_back(std::move(block));
  }
  const uint32_t ordinal = static_cast<uint32_t>(chars_.size()) - 1;
  CharBlock& b = chars_.back();
  const uint32_t off = b.used;
  std::memcpy(b.data.get() + off, s.data(), len);
  b.used += len;
  return ValueRef{(ordinal << 16) | off, len};
}

uint32_t Document::NewSlot(NodeKind kind, uint32_t name_id,
                           std::string_view value) {
  uint32_t idx = static_cast<uint32_t>(kind_.size());
  kind_.push_back(static_cast<uint8_t>(kind));
  name_.push_back(name_id);
  value_.push_back(AddChars(value));
  value_bytes_ += value.size();
  parent_.push_back(kNilNode);
  pos_.push_back(0);
  child_span_.push_back(Span{});
  attr_span_.push_back(Span{});
  handles_.emplace_back(Node::Key(), this, idx);
  // A fresh node is a new (detached) tree root; it needs an order key too.
  InvalidateOrderIndex();
  return idx;
}

Node* Document::CreateElement(std::string_view name) {
  return NodeAt(NewSlot(NodeKind::kElement, NameTable::Intern(name), {}));
}

Node* Document::CreateDocumentNode() {
  return NodeAt(NewSlot(NodeKind::kDocument, 0, {}));
}

Node* Document::CreateText(std::string_view text) {
  return NodeAt(NewSlot(NodeKind::kText, 0, text));
}

Node* Document::CreateComment(std::string_view text) {
  return NodeAt(NewSlot(NodeKind::kComment, 0, text));
}

Node* Document::CreateProcessingInstruction(std::string_view target,
                                            std::string_view data) {
  return NodeAt(NewSlot(NodeKind::kProcessingInstruction,
                        NameTable::Intern(target), data));
}

Node* Document::CreateAttribute(std::string_view name,
                                std::string_view value) {
  return NodeAt(NewSlot(NodeKind::kAttribute, NameTable::Intern(name), value));
}

Node* Document::ImportNode(const Node* source) {
  // Top-down iterative copy: each node is created and attached before its
  // children are visited, so a 100k-deep source cannot exhaust the stack.
  // Name ids are process-wide (NameTable), so a copy keeps its source's,
  // from whichever document it comes.
  auto copy_one = [this](const Node* src) {
    return NewSlot(src->kind(), src->name_id(), src->value());
  };
  auto copy_attrs = [&](const Node* src, uint32_t dst) {
    for (const Node* a : src->attributes()) {
      uint32_t ac = copy_one(a);
      AttachAttr(dst, ac);
    }
  };
  uint32_t root_copy = copy_one(source);
  copy_attrs(source, root_copy);
  struct Frame {
    const Node* src;
    uint32_t dst;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{source, root_copy, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    NodeList kids = f.src->children();
    if (f.next_child >= kids.size()) {
      stack.pop_back();
      continue;
    }
    const Node* child = kids[f.next_child++];
    uint32_t cc = copy_one(child);
    AttachChildAt(f.dst, cc, child_span_[f.dst].count);
    copy_attrs(child, cc);
    stack.push_back(Frame{child, cc, 0});
  }
  return NodeAt(root_copy);
}

// --- Span / pool plumbing ---------------------------------------------------

uint32_t* Document::PoolAlloc(std::vector<PoolChunk>& pool, uint32_t n) {
  if (n == 0) return nullptr;
  if (pool.empty() || pool.back().cap - pool.back().used < n) {
    PoolChunk chunk;
    chunk.cap = std::max(n, pool.empty()
                                ? 64u
                                : std::min(pool.back().cap * 2, 1u << 16));
    chunk.data = std::make_unique<uint32_t[]>(chunk.cap);
    pool.push_back(std::move(chunk));
  }
  PoolChunk& c = pool.back();
  uint32_t* out = c.data.get() + c.used;
  c.used += n;
  return out;
}

void Document::SpanInsert(Span& s, std::vector<PoolChunk>& pool, uint32_t at,
                          uint32_t value) {
  if (s.count == s.cap) {
    // Relocate to a fresh range with doubled capacity. The abandoned range
    // keeps its bytes (stale views of this node read the old list), and its
    // slots are reclaimed by CompactStorage/CloneDocument.
    uint32_t new_cap = s.cap == 0 ? 2 : s.cap * 2;
    uint32_t* fresh = PoolAlloc(pool, new_cap);
    std::copy(s.ptr, s.ptr + s.count, fresh);
    pool_slack_ += s.cap;
    s.ptr = fresh;
    s.cap = new_cap;
  }
  for (uint32_t i = s.count; i > at; --i) {
    uint32_t moved = s.ptr[i - 1];
    s.ptr[i] = moved;
    pos_[moved] = i;
  }
  s.ptr[at] = value;
  pos_[value] = at;
  ++s.count;
}

void Document::SpanErase(Span& s, uint32_t at) {
  for (uint32_t i = at; i + 1 < s.count; ++i) {
    uint32_t moved = s.ptr[i + 1];
    s.ptr[i] = moved;
    pos_[moved] = i;
  }
  --s.count;
}

void Document::AttachChildAt(uint32_t parent, uint32_t child, uint32_t at) {
  SpanInsert(child_span_[parent], child_pool_, at, child);
  parent_[child] = parent;
  InvalidateOrderIndex();
  StampMoved(child, NextEditEpoch());
}

void Document::AttachAttr(uint32_t owner, uint32_t attr) {
  SpanInsert(attr_span_[owner], attr_pool_, attr_span_[owner].count, attr);
  parent_[attr] = owner;
  InvalidateOrderIndex();
  StampMoved(attr, NextEditEpoch());
}

void Document::DetachSlot(uint32_t idx) {
  uint32_t p = parent_[idx];
  if (static_cast<NodeKind>(kind_[idx]) == NodeKind::kAttribute) {
    SpanErase(attr_span_[p], pos_[idx]);
  } else {
    SpanErase(child_span_[p], pos_[idx]);
  }
  parent_[idx] = kNilNode;
  InvalidateOrderIndex();
  StampMoved(idx, NextEditEpoch());
}

uint64_t Document::NextEditEpoch() {
  const uint64_t epoch = ++edit_epoch_;
  // Until someone wants versions they all read 0 and nothing is stamped:
  // document builds (parser, ImportNode) take this O(1) path for every
  // attach.
  return edit_versions_wanted_.load(std::memory_order_relaxed) ? epoch : 0;
}

void Document::StampMoved(uint32_t root, uint64_t epoch) {
  if (epoch == 0) return;
  document_version_ = epoch;
  auto stamp = [this, epoch](uint32_t n) {
    switch (static_cast<NodeKind>(kind_[n])) {
      case NodeKind::kElement:
        element_versions_[name_[n]] = epoch;
        break;
      case NodeKind::kAttribute:
        attribute_versions_[name_[n]] = epoch;
        break;
      default:
        break;
    }
  };
  // Preorder with an explicit stack, which a leaf never allocates.
  std::vector<uint32_t> stack;
  for (uint32_t n = root;;) {
    stamp(n);
    const Span& as = attr_span_[n];
    for (uint32_t i = 0; i < as.count; ++i) stamp(as.ptr[i]);
    const Span& cs = child_span_[n];
    stack.insert(stack.end(), cs.ptr, cs.ptr + cs.count);
    if (stack.empty()) return;
    n = stack.back();
    stack.pop_back();
  }
}

// --- Storage maintenance ----------------------------------------------------

void Document::CompactStorage() {
  auto compact_pool = [](std::vector<Span>& spans, std::vector<PoolChunk>& pool) {
    size_t live = 0;
    for (const Span& s : spans) live += s.count;
    std::vector<PoolChunk> fresh;
    if (live > 0) {
      PoolChunk chunk;
      chunk.cap = static_cast<uint32_t>(live);
      chunk.data = std::make_unique<uint32_t[]>(chunk.cap);
      uint32_t* out = chunk.data.get();
      for (Span& s : spans) {
        std::copy(s.ptr, s.ptr + s.count, out);
        s.ptr = out;
        s.cap = s.count;
        out += s.count;
      }
      chunk.used = chunk.cap;
      fresh.push_back(std::move(chunk));
    } else {
      for (Span& s : spans) {
        s.ptr = nullptr;
        s.cap = 0;
      }
    }
    pool = std::move(fresh);
  };
  compact_pool(child_span_, child_pool_);
  compact_pool(attr_span_, attr_pool_);
  // Rewrite the value arena into exact-size blocks in index order, dropping
  // bytes abandoned by set_value() and growth-tail waste. Like the pool
  // compaction above, this invalidates any outstanding value() views.
  {
    std::vector<CharBlock> old = std::move(chars_);
    chars_.clear();
    // Pass 1: pack lengths into 64 KiB virtual slots (a value never crosses
    // a block boundary) to learn each physical block's exact size.
    std::vector<uint32_t> caps;
    uint32_t cur = 0;
    for (const ValueRef& r : value_) {
      if (r.len == 0) continue;
      if (r.len >= kCharBlockSpan) {
        if (cur > 0) {
          caps.push_back(cur);
          cur = 0;
        }
        caps.push_back(r.len);
        for (uint32_t p = (r.len - 1) / kCharBlockSpan; p > 0; --p) {
          caps.push_back(0);
        }
      } else if (cur + r.len > kCharBlockSpan) {
        caps.push_back(cur);
        cur = r.len;
      } else {
        cur += r.len;
      }
    }
    if (cur > 0) caps.push_back(cur);
    chars_.reserve(caps.size());
    for (uint32_t cap : caps) {
      CharBlock b;
      b.cap = cap;
      if (cap > 0) b.data = std::make_unique<char[]>(cap);
      chars_.push_back(std::move(b));
    }
    // Pass 2: replay the same packing walk, copying bytes and rewriting refs.
    size_t bi = 0;
    size_t packed = 0;
    for (ValueRef& r : value_) {
      if (r.len == 0) continue;
      const char* src = old[r.start >> 16].data.get() + (r.start & 0xFFFFu);
      if (r.len >= kCharBlockSpan) {
        if (chars_[bi].used > 0) ++bi;
        CharBlock& b = chars_[bi];
        std::memcpy(b.data.get(), src, r.len);
        b.used = r.len;
        r.start = static_cast<uint32_t>(bi) << 16;
        bi += 1 + (r.len - 1) / kCharBlockSpan;
      } else {
        if (chars_[bi].cap - chars_[bi].used < r.len) ++bi;
        CharBlock& b = chars_[bi];
        std::memcpy(b.data.get() + b.used, src, r.len);
        r.start = (static_cast<uint32_t>(bi) << 16) | b.used;
        b.used += r.len;
      }
    }
    for (const CharBlock& b : chars_) packed += b.used;
    value_bytes_ = packed;
  }
  kind_.shrink_to_fit();
  name_.shrink_to_fit();
  value_.shrink_to_fit();
  parent_.shrink_to_fit();
  pos_.shrink_to_fit();
  child_span_.shrink_to_fit();
  attr_span_.shrink_to_fit();
  pool_slack_ = 0;
}

DocumentStorageStats Document::storage_stats() const {
  DocumentStorageStats stats;
  stats.node_count = kind_.size();
  stats.value_bytes = value_bytes_;
  stats.pool_slack_slots = pool_slack_;
  size_t bytes = 0;
  bytes += kind_.capacity() * sizeof(uint8_t);
  bytes += name_.capacity() * sizeof(uint32_t);
  bytes += value_.capacity() * sizeof(ValueRef);
  bytes += parent_.capacity() * sizeof(uint32_t);
  bytes += pos_.capacity() * sizeof(uint32_t);
  bytes += child_span_.capacity() * sizeof(Span);
  bytes += attr_span_.capacity() * sizeof(Span);
  for (const PoolChunk& c : child_pool_) bytes += c.cap * sizeof(uint32_t);
  for (const PoolChunk& c : attr_pool_) bytes += c.cap * sizeof(uint32_t);
  for (const CharBlock& b : chars_) bytes += b.cap;
  bytes += handles_.size() * sizeof(Node);
  bytes += order_key_.capacity() * sizeof(uint32_t);
  for (const NameVersions* versions :
       {&element_versions_, &attribute_versions_}) {
    // A map node (next pointer plus entry) per stamped name, and the
    // bucket array.
    bytes += versions->size() * (sizeof(void*) +
                                 sizeof(NameVersions::value_type)) +
             versions->bucket_count() * sizeof(void*);
  }
  stats.total_bytes = bytes;
  return stats;
}

// --- Clone ------------------------------------------------------------------

std::unique_ptr<Document> CloneDocument(const Document& source,
                                        std::vector<uint32_t>* node_map,
                                        size_t spare_nodes) {
  auto clone = std::make_unique<Document>();

  // Pass 1: preorder over the ROOTED tree only (node, then attributes, then
  // children), assigning dense clone indices. Detached debris is dropped.
  const size_t n_src = source.node_count();
  std::vector<uint32_t> map(n_src, kNilNode);
  std::vector<uint32_t> order;  // source indices, in clone-index order
  order.reserve(n_src);
  std::vector<uint32_t> stack;
  stack.push_back(0);  // slot 0 is always the document root
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    map[s] = static_cast<uint32_t>(order.size());
    order.push_back(s);
    const Document::Span& as = source.attr_span_[s];
    for (uint32_t i = 0; i < as.count; ++i) {
      uint32_t a = as.ptr[i];
      map[a] = static_cast<uint32_t>(order.size());
      order.push_back(a);
    }
    const Document::Span& cs = source.child_span_[s];
    for (uint32_t i = cs.count; i-- > 0;) {
      stack.push_back(cs.ptr[i]);
    }
  }

  // Pass 2: array-to-array fill. Interned name ids copy verbatim (the
  // NameTable is process-wide); values stream into the clone's arena.
  const uint32_t n = static_cast<uint32_t>(order.size());
  // n nodes, with room for spare_nodes more.
  auto size = [n, room = n + spare_nodes](auto& array) {
    array.reserve(room);
    array.resize(n);
  };
  size(clone->kind_);
  size(clone->name_);
  size(clone->value_);
  size(clone->parent_);
  size(clone->pos_);
  size(clone->child_span_);
  size(clone->attr_span_);
  size(clone->order_key_);
  size_t live_children = 0, live_attrs = 0;
  for (uint32_t d = 0; d < n; ++d) {
    live_children += source.child_span_[order[d]].count;
    live_attrs += source.attr_span_[order[d]].count;
  }
  uint32_t* child_out = Document::PoolAlloc(
      clone->child_pool_, static_cast<uint32_t>(live_children));
  uint32_t* attr_out = Document::PoolAlloc(
      clone->attr_pool_, static_cast<uint32_t>(live_attrs));
  for (uint32_t d = 1; d < n; ++d) {
    clone->handles_.emplace_back(Node::Key(), clone.get(), d);
  }
  for (uint32_t d = 0; d < n; ++d) {
    uint32_t s = order[d];
    clone->kind_[d] = source.kind_[s];
    clone->name_[d] = source.name_[s];
    clone->value_[d] = clone->AddChars(source.ValueView(source.value_[s]));
    clone->value_bytes_ += source.value_[s].len;
    uint32_t sp = source.parent_[s];
    clone->parent_[d] = sp == kNilNode ? kNilNode : map[sp];
    clone->pos_[d] = source.pos_[s];
    const Document::Span& cs = source.child_span_[s];
    Document::Span& dc = clone->child_span_[d];
    dc.ptr = cs.count > 0 ? child_out : nullptr;
    dc.count = dc.cap = cs.count;
    for (uint32_t i = 0; i < cs.count; ++i) *child_out++ = map[cs.ptr[i]];
    const Document::Span& as = source.attr_span_[s];
    Document::Span& da = clone->attr_span_[d];
    da.ptr = as.count > 0 ? attr_out : nullptr;
    da.count = da.cap = as.count;
    for (uint32_t i = 0; i < as.count; ++i) *attr_out++ = map[as.ptr[i]];
  }

  // Carry the edit history: name versions are per name, not per node, so
  // the renumbering leaves them as they are.
  clone->edit_epoch_ = source.edit_epoch_;
  clone->edit_versions_wanted_.store(
      source.edit_versions_wanted_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  clone->document_version_ = source.document_version_;
  clone->element_versions_ = source.element_versions_;
  clone->attribute_versions_ = source.attribute_versions_;
  // Clone index d is the d-th node of the source's preorder.
  clone->SetPreorderKeys();
  if (node_map != nullptr) *node_map = std::move(map);
  return clone;
}

// --- Document order ---------------------------------------------------------

void Document::EnsureOrderIndex() const {
  uint64_t version = structure_version_.load(std::memory_order_acquire);
  if (order_index_version_.load(std::memory_order_acquire) == version) return;

  std::lock_guard<std::mutex> lock(order_index_mutex_);
  // Re-read both under the lock: another reader may have rebuilt while we
  // waited, and (single-writer contract) the structure cannot have moved.
  version = structure_version_.load(std::memory_order_acquire);
  if (order_index_version_.load(std::memory_order_relaxed) == version) return;

  // Stamp every tree of the forest -- the document tree plus any detached
  // subtrees -- in root-index order, so intra-document cross-tree compares
  // keep the "stable arbitrary order by tree identity" contract. Iterative
  // preorder: the node, then its attributes, then its children.
  const uint32_t n = static_cast<uint32_t>(kind_.size());
  order_key_.assign(n, 0);
  uint32_t next = 1;
  std::vector<uint32_t> stack;
  for (uint32_t root = 0; root < n; ++root) {
    if (parent_[root] != kNilNode) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      uint32_t node = stack.back();
      stack.pop_back();
      order_key_[node] = next++;
      const Span& as = attr_span_[node];
      for (uint32_t i = 0; i < as.count; ++i) {
        order_key_[as.ptr[i]] = next++;
      }
      const Span& cs = child_span_[node];
      for (uint32_t i = cs.count; i-- > 0;) {
        stack.push_back(cs.ptr[i]);
      }
    }
  }
  order_index_version_.store(version, std::memory_order_release);
}

void Document::SetPreorderKeys() {
  order_key_.resize(kind_.size());
  std::iota(order_key_.begin(), order_key_.end(), uint32_t{1});
  order_index_version_.store(structure_version(), std::memory_order_release);
}

int CompareDocumentOrder(const Node* a, const Node* b) {
  if (a == b) return 0;
  const Document* doc = a->document();
  if (doc == b->document()) {
    doc->EnsureOrderIndex();
    uint64_t ka = doc->order_key_of(a->index());
    uint64_t kb = doc->order_key_of(b->index());
    return ka < kb ? -1 : 1;  // keys are unique
  }
  // Different documents: stable arbitrary order by root handle pointer,
  // matching the structural comparator.
  const Node* ra = a;
  while (ra->parent() != nullptr) ra = ra->parent();
  const Node* rb = b;
  while (rb->parent() != nullptr) rb = rb->parent();
  return ra < rb ? -1 : 1;
}

namespace {

// Ancestor chain from root down to the node itself.
void AncestorPath(const Node* n, std::vector<const Node*>* out) {
  out->clear();
  for (const Node* p = n; p != nullptr; p = p->parent()) out->push_back(p);
  std::reverse(out->begin(), out->end());
}

// Position of `child` among the ordered "slots" of `parent`: attributes come
// right after the element itself, before any children.
size_t SlotIndex(const Node* parent, const Node* child) {
  size_t slot = 0;
  for (const Node* a : parent->attributes()) {
    if (a == child) return slot;
    ++slot;
  }
  for (const Node* c : parent->children()) {
    if (c == child) return slot;
    ++slot;
  }
  return static_cast<size_t>(-1);
}

}  // namespace

int CompareDocumentOrderStructural(const Node* a, const Node* b) {
  if (a == b) return 0;
  std::vector<const Node*> pa, pb;
  AncestorPath(a, &pa);
  AncestorPath(b, &pb);
  if (pa[0] != pb[0]) {
    // Different trees. Within one document trees order by root arena index
    // (matching the order-index stamping); across documents by root handle
    // pointer (stable, arbitrary).
    if (pa[0]->document() == pb[0]->document()) {
      return pa[0]->index() < pb[0]->index() ? -1 : 1;
    }
    return pa[0] < pb[0] ? -1 : 1;
  }
  size_t i = 0;
  while (i < pa.size() && i < pb.size() && pa[i] == pb[i]) ++i;
  if (i == pa.size()) return -1;  // a is an ancestor of b: ancestor first
  if (i == pb.size()) return 1;
  const Node* common = pa[i - 1];
  size_t sa = SlotIndex(common, pa[i]);
  size_t sb = SlotIndex(common, pb[i]);
  return sa < sb ? -1 : 1;
}

}  // namespace lll::xml
