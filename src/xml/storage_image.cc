#include <cstring>
#include <unordered_map>

#include "xml/node.h"

namespace lll::xml {

namespace {

constexpr uint8_t kMaxKind =
    static_cast<uint8_t>(NodeKind::kProcessingInstruction);

// Validates the image's structure and derives parent/pos for every node via
// an iterative preorder replay (node, then attributes, then children). The
// one load-bearing check is that the replay visits nodes in exactly index
// order 0..n-1 and visits all of them: that single property implies the
// image is a rooted tree whose index order IS document order -- no cycles,
// no sharing, no detached debris, parents before children -- which is what
// licenses the loader to write order keys 1..n without a stamping walk.
Status ValidateAndDerive(const DocumentStorageImage& img,
                         std::vector<uint32_t>* parent,
                         std::vector<uint32_t>* pos,
                         std::vector<uint64_t>* child_start,
                         std::vector<uint64_t>* attr_start) {
  const size_t n = img.node_count();
  if (n == 0 || n >= kNilNode) {
    return Status::Invalid("snapshot image has implausible node count " +
                           std::to_string(n));
  }
  if (img.name.size() != n || img.value_len.size() != n ||
      img.child_count.size() != n || img.attr_count.size() != n) {
    return Status::Invalid("snapshot image arrays disagree on node count");
  }
  if (img.names.empty() || !img.names[0].empty()) {
    return Status::Invalid("snapshot image name table must start with \"\"");
  }
  uint64_t total_values = 0;
  for (size_t i = 0; i < n; ++i) {
    if (img.kind[i] > kMaxKind) {
      return Status::Invalid("snapshot image node " + std::to_string(i) +
                             " has invalid kind " +
                             std::to_string(img.kind[i]));
    }
    if (i > 0 && static_cast<NodeKind>(img.kind[i]) == NodeKind::kDocument) {
      return Status::Invalid(
          "snapshot image has a document node outside slot 0");
    }
    if (img.name[i] >= img.names.size()) {
      return Status::Invalid("snapshot image node " + std::to_string(i) +
                             " has out-of-range name id " +
                             std::to_string(img.name[i]));
    }
    total_values += img.value_len[i];
  }
  if (static_cast<NodeKind>(img.kind[0]) != NodeKind::kDocument) {
    return Status::Invalid("snapshot image slot 0 is not a document node");
  }
  if (total_values != img.values.size()) {
    return Status::Invalid("snapshot image value bytes (" +
                           std::to_string(img.values.size()) +
                           ") disagree with per-node lengths (" +
                           std::to_string(total_values) + ")");
  }

  // Per-node list starts into the concatenated pools, plus total bounds.
  child_start->resize(n);
  attr_start->resize(n);
  uint64_t coff = 0, aoff = 0;
  for (size_t i = 0; i < n; ++i) {
    (*child_start)[i] = coff;
    (*attr_start)[i] = aoff;
    coff += img.child_count[i];
    aoff += img.attr_count[i];
    const NodeKind k = static_cast<NodeKind>(img.kind[i]);
    const bool container =
        k == NodeKind::kElement || k == NodeKind::kDocument;
    if (!container && img.child_count[i] != 0) {
      return Status::Invalid("snapshot image leaf node " + std::to_string(i) +
                             " claims children");
    }
    if (k != NodeKind::kElement && img.attr_count[i] != 0) {
      return Status::Invalid("snapshot image non-element node " +
                             std::to_string(i) + " claims attributes");
    }
  }
  if (coff != img.children.size() || aoff != img.attrs.size()) {
    return Status::Invalid("snapshot image pool sizes disagree with counts");
  }

  parent->assign(n, kNilNode);
  pos->assign(n, 0);
  uint32_t next = 1;  // slot 0 (the root) is visited first, by definition
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // {node, next child pos}
  stack.emplace_back(0, 0);
  // Attributes of a node are visited eagerly when the node is first reached.
  auto visit_attrs = [&](uint32_t node) -> Status {
    const uint64_t base = (*attr_start)[node];
    for (uint32_t i = 0; i < img.attr_count[node]; ++i) {
      const uint32_t a = img.attrs[base + i];
      if (a >= n || a != next) {
        return Status::Invalid("snapshot image attribute list of node " +
                               std::to_string(node) + " is not in preorder");
      }
      if (static_cast<NodeKind>(img.kind[a]) != NodeKind::kAttribute) {
        return Status::Invalid("snapshot image node " + std::to_string(a) +
                               " in an attribute list is not an attribute");
      }
      (*parent)[a] = node;
      (*pos)[a] = i;
      ++next;
    }
    return Status::Ok();
  };
  LLL_RETURN_IF_ERROR(visit_attrs(0));
  while (!stack.empty()) {
    auto& [node, child_i] = stack.back();
    if (child_i >= img.child_count[node]) {
      stack.pop_back();
      continue;
    }
    const uint32_t c = img.children[(*child_start)[node] + child_i];
    if (c >= n || c != next) {
      return Status::Invalid("snapshot image child list of node " +
                             std::to_string(node) + " is not in preorder");
    }
    if (static_cast<NodeKind>(img.kind[c]) == NodeKind::kAttribute) {
      return Status::Invalid("snapshot image node " + std::to_string(c) +
                             " in a child list is an attribute");
    }
    (*parent)[c] = node;
    (*pos)[c] = child_i;
    ++next;
    ++child_i;
    LLL_RETURN_IF_ERROR(visit_attrs(c));
    stack.emplace_back(c, 0);
  }
  if (next != n) {
    return Status::Invalid("snapshot image has " + std::to_string(n - next) +
                           " nodes unreachable from the root");
  }
  return Status::Ok();
}

}  // namespace

DocumentStorageImage ExportDocumentStorage(const Document& source) {
  // The clone drops detached debris and renumbers into compact preorder, so
  // its arrays, in index order, are the image.
  std::unique_ptr<Document> clone = CloneDocument(source);
  const uint32_t n = static_cast<uint32_t>(clone->node_count());
  DocumentStorageImage img;
  img.kind = clone->kind_;
  img.name.resize(n);
  img.value_len.resize(n);
  img.child_count.resize(n);
  img.attr_count.resize(n);
  img.names.push_back("");
  std::unordered_map<uint32_t, uint32_t> local_id;  // NameTable id -> local
  local_id.emplace(0, 0);
  uint64_t value_total = 0;
  for (uint32_t i = 0; i < n; ++i) value_total += clone->value_[i].len;
  img.values.reserve(value_total);
  uint64_t children_total = 0, attrs_total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    children_total += clone->child_span_[i].count;
    attrs_total += clone->attr_span_[i].count;
  }
  img.children.reserve(children_total);
  img.attrs.reserve(attrs_total);
  for (uint32_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        local_id.emplace(clone->name_[i],
                         static_cast<uint32_t>(img.names.size()));
    if (inserted) img.names.push_back(NameTable::Get(clone->name_[i]));
    img.name[i] = it->second;
    const std::string_view v = clone->ValueView(clone->value_[i]);
    img.value_len[i] = static_cast<uint32_t>(v.size());
    img.values.append(v);
    const Document::Span& cs = clone->child_span_[i];
    img.child_count[i] = cs.count;
    img.children.insert(img.children.end(), cs.ptr, cs.ptr + cs.count);
    const Document::Span& as = clone->attr_span_[i];
    img.attr_count[i] = as.count;
    img.attrs.insert(img.attrs.end(), as.ptr, as.ptr + as.count);
  }
  return img;
}

Result<std::unique_ptr<Document>> DocumentFromStorage(
    const DocumentStorageImage& image) {
  std::vector<uint32_t> parent, pos;
  std::vector<uint64_t> child_start, attr_start;
  LLL_RETURN_IF_ERROR(
      ValidateAndDerive(image, &parent, &pos, &child_start, &attr_start));

  const uint32_t n = static_cast<uint32_t>(image.node_count());
  auto doc = std::make_unique<Document>();
  // The constructor made slot 0 (the document node, empty value); overwrite
  // every array wholesale. The empty root value never touched chars_, so the
  // value arena replay below starts from a clean slate.
  doc->kind_ = image.kind;
  doc->name_.resize(n);
  std::vector<uint32_t> interned(image.names.size());
  for (size_t i = 0; i < image.names.size(); ++i) {
    interned[i] = NameTable::Intern(image.names[i]);
  }
  for (uint32_t i = 0; i < n; ++i) doc->name_[i] = interned[image.name[i]];
  doc->value_.resize(n);
  size_t voff = 0;
  for (uint32_t i = 0; i < n; ++i) {
    doc->value_[i] = doc->AddChars(
        std::string_view(image.values).substr(voff, image.value_len[i]));
    voff += image.value_len[i];
  }
  doc->value_bytes_ = image.values.size();
  doc->parent_ = std::move(parent);
  doc->pos_ = std::move(pos);

  doc->child_span_.assign(n, Document::Span{});
  doc->attr_span_.assign(n, Document::Span{});
  uint32_t* cout = Document::PoolAlloc(
      doc->child_pool_, static_cast<uint32_t>(image.children.size()));
  uint32_t* aout = Document::PoolAlloc(
      doc->attr_pool_, static_cast<uint32_t>(image.attrs.size()));
  if (!image.children.empty()) {
    std::memcpy(cout, image.children.data(),
                image.children.size() * sizeof(uint32_t));
  }
  if (!image.attrs.empty()) {
    std::memcpy(aout, image.attrs.data(),
                image.attrs.size() * sizeof(uint32_t));
  }
  for (uint32_t i = 0; i < n; ++i) {
    Document::Span& cs = doc->child_span_[i];
    cs.count = cs.cap = image.child_count[i];
    cs.ptr = cs.count > 0 ? cout + child_start[i] : nullptr;
    Document::Span& as = doc->attr_span_[i];
    as.count = as.cap = image.attr_count[i];
    as.ptr = as.count > 0 ? aout + attr_start[i] : nullptr;
  }

  for (uint32_t i = 1; i < n; ++i) {
    doc->handles_.emplace_back(Node::Key(), doc.get(), i);
  }
  // Name versions: deliberately left empty -- a snapshot-loaded document
  // reports version 0 for every name, so the node-set interning cache can
  // store entries immediately and the first post-boot edit bumps only the
  // names it touches. Index order is preorder by validation, so the keys
  // are 1..n.
  doc->SetPreorderKeys();
  return doc;
}

}  // namespace lll::xml
