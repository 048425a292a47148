#include "xquery/nodeset_cache.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

namespace lll::xq {

namespace {

uint64_t CurrentVersion(const xml::Document& doc,
                        const CachedNodeSet::Guard& g) {
  return g.attribute ? doc.attribute_version(g.name)
                     : doc.element_version(g.name);
}

bool Holds(const CachedNodeSet& entry, const xml::Document& doc) {
  if (entry.doc_id != doc.doc_id() ||
      (entry.document_wide &&
       entry.document_version != doc.document_version()) ||
      (entry.names_interned != 0 &&
       entry.names_interned != xml::NameTable::interned_count())) {
    return false;
  }
  for (const CachedNodeSet::Guard& g : entry.guards) {
    if (CurrentVersion(doc, g) != g.version) return false;
  }
  return true;
}

}  // namespace

uint32_t ValueIndex::Hash(std::string_view value) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(value));
}

ValueIndex::ValueIndex(std::span<const xml::Node* const> nodes,
                       std::string attr)
    : attr_(std::move(attr)) {
  postings_.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const xml::Node* a : nodes[i]->attributes()) {
      if (a->name() == attr_) {
        postings_.push_back({Hash(a->value()), static_cast<uint32_t>(i)});
      }
    }
  }
  std::sort(postings_.begin(), postings_.end());
  // Duplicate-named attributes must not list their owner twice.
  postings_.erase(std::unique(postings_.begin(), postings_.end()),
                  postings_.end());
}

void ValueIndex::LookUp(std::span<const xml::Node* const> nodes,
                        std::string_view value,
                        std::vector<uint32_t>* hits) const {
  const uint32_t hash = Hash(value);
  for (auto it = std::lower_bound(postings_.begin(), postings_.end(),
                                  Posting{hash, 0});
       it != postings_.end() && it->hash == hash; ++it) {
    // A hash match is a candidate: the node's own attributes decide.
    for (const xml::Node* a : nodes[it->position]->attributes()) {
      if (a->name() == attr_ && a->value() == value) {
        hits->push_back(it->position);
        break;
      }
    }
  }
}

std::string NodeSetCache::MakeKey(const xml::Node* base,
                                  const std::string& fingerprint) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "@%" PRIu32 "|",
                base->document()->doc_id(), base->index());
  return std::string(buf) + fingerprint;
}

std::shared_ptr<const CachedNodeSet> NodeSetCache::Get(
    const xml::Document* doc, const std::string& key, Outcome* outcome) {
  std::shared_ptr<const CachedNodeSet> entry = cache_.Get(key);
  if (entry == nullptr) {
    if (outcome != nullptr) *outcome = Outcome::kMiss;
    return nullptr;
  }
  if (!Holds(*entry, *doc)) {
    // A failed guard is an invalidation, not a plain miss: the caller DID
    // intern this chain before, and the edit history is what evicted it.
    if (outcome != nullptr) {
      *outcome = entry->document_wide ? Outcome::kStale
                                      : Outcome::kStalePartial;
    }
    return nullptr;
  }
  if (outcome != nullptr) *outcome = Outcome::kHit;
  return entry;
}

xdm::Sequence CachedNodeSet::ToSequence() const {
  std::vector<xdm::Item> items;
  items.reserve(nodes.size());
  for (xml::Node* node : nodes) items.push_back(xdm::Item::NodeRef(node));
  xdm::Sequence seq(std::move(items));
  seq.MarkOrderedDeduped();
  return seq;
}

std::shared_ptr<const CachedNodeSet> NodeSetCache::Put(
    const std::string& key, const xml::Document& doc, const ChainNames& names,
    const xdm::Sequence& nodes, const std::string& index_attr) {
  doc.WantEditVersions();
  auto entry = std::make_shared<CachedNodeSet>();
  entry->doc_id = doc.doc_id();
  // Read the count before the lookups: a name interned after a lookup
  // missed it moves the count past the recorded one.
  const uint64_t interned = xml::NameTable::interned_count();
  auto guard = [&](const std::vector<std::string>& list, bool attribute) {
    for (const std::string& name : list) {
      const std::optional<uint32_t> id = xml::NameTable::Find(name);
      if (!id.has_value()) {
        entry->names_interned = interned;
        continue;
      }
      CachedNodeSet::Guard g{*id, attribute, 0};
      g.version = CurrentVersion(doc, g);
      entry->guards.push_back(g);
    }
  };
  guard(names.elements, /*attribute=*/false);
  guard(names.attributes, /*attribute=*/true);
  entry->document_wide = names.any;
  if (names.any) entry->document_version = doc.document_version();
  entry->nodes.reserve(nodes.size());
  for (const xdm::Item& item : nodes.items()) {
    entry->nodes.push_back(item.node());
  }
  if (!index_attr.empty()) {
    entry->index =
        std::make_shared<const ValueIndex>(entry->nodes, index_attr);
  }
  cache_.Put(key, entry);
  return entry;
}

size_t NodeSetCache::MigrateClone(const NodeSetCache& source,
                                  const xml::Document& from,
                                  const xml::Document& to,
                                  const std::vector<uint32_t>& node_map) {
  const uint32_t clone_nodes = static_cast<uint32_t>(to.node_count());
  // Maps a source node index into the clone; kNilNode if out of range or
  // dropped as debris.
  auto remap = [&node_map, clone_nodes](uint32_t idx) -> uint32_t {
    if (idx >= node_map.size()) return xml::kNilNode;
    const uint32_t mapped = node_map[idx];
    return mapped < clone_nodes ? mapped : xml::kNilNode;
  };
  auto entries = source.cache_.Snapshot();
  size_t migrated = 0;
  // Snapshot() is most- to least-recent; reinsert in reverse so the most
  // recently used entry of the source is also the freshest here.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const std::string& key = it->first;
    const std::shared_ptr<const CachedNodeSet>& entry = it->second;
    if (entry->doc_id != from.doc_id()) continue;
    // Remap the node set through the clone's renumbering. Entries are node
    // sets by construction; anything else -- or an entry touching a node
    // the clone dropped (detached debris) -- is skipped: a skip is just a
    // cold miss on the new snapshot.
    bool mappable = true;
    auto moved = std::make_shared<CachedNodeSet>();
    moved->nodes.reserve(entry->nodes.size());
    for (const xml::Node* node : entry->nodes) {
      const uint32_t mapped = node->document() == &from
                                  ? remap(node->index())
                                  : xml::kNilNode;
      if (mapped == xml::kNilNode) {
        mappable = false;
        break;
      }
      moved->nodes.push_back(to.NodeAt(mapped));
    }
    if (!mappable) continue;
    // Key layout is "<doc_id>@<base_index>|<fingerprint>" (MakeKey): swap
    // the doc_id prefix and re-base the node index through the map, keep
    // the fingerprint.
    const size_t at = key.find('@');
    const size_t bar = key.find('|', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || bar == std::string::npos) continue;
    uint32_t base = 0;
    {
      const char* first = key.data() + at + 1;
      const char* last = key.data() + bar;
      auto [ptr, ec] = std::from_chars(first, last, base);
      if (ec != std::errc() || ptr != last) continue;
    }
    const uint32_t mapped_base = remap(base);
    if (mapped_base == xml::kNilNode) continue;
    moved->doc_id = to.doc_id();
    moved->guards = entry->guards;
    moved->document_wide = entry->document_wide;
    moved->document_version = entry->document_version;
    moved->names_interned = entry->names_interned;
    moved->index = entry->index;
    cache_.Put(std::to_string(to.doc_id()) + "@" +
                   std::to_string(mapped_base) + key.substr(bar),
               std::move(moved));
    ++migrated;
  }
  return migrated;
}

void NodeSetCache::ExportTo(MetricsRegistry* metrics,
                            const std::string& prefix) const {
  metrics->gauge(prefix + ".size").Set(static_cast<int64_t>(size()));
}

}  // namespace lll::xq
