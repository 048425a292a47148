#include "xquery/nodeset_cache.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace lll::xq {

namespace {

uint64_t CurrentVersion(const xml::Document* doc,
                        const CachedNodeSet::Guard& g) {
  switch (g.kind) {
    case CachedNodeSet::GuardKind::kLocal:
      return doc->local_version_of(g.node);
    case CachedNodeSet::GuardKind::kLocalChildren:
      return doc->child_local_version_of(g.node);
    case CachedNodeSet::GuardKind::kSubtree:
      return doc->subtree_version_of(g.node);
  }
  return 0;
}

}  // namespace

std::string NodeSetCache::MakeKey(const xml::Node* base,
                                  const std::string& fingerprint) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "@%" PRIu32 "|",
                base->document()->doc_id(), base->index());
  return std::string(buf) + fingerprint;
}

CachedNodeSet::Guard NodeSetCache::GuardFor(const xml::Node* n,
                                            CachedNodeSet::GuardKind kind) {
  CachedNodeSet::Guard g;
  g.node = n->index();
  g.kind = kind;
  g.version = CurrentVersion(n->document(), {n->index(), kind, 0});
  return g;
}

std::shared_ptr<const CachedNodeSet> NodeSetCache::Get(
    const xml::Document* doc, const std::string& key, Outcome* outcome) {
  std::shared_ptr<const CachedNodeSet> entry = cache_.Get(key);
  if (entry == nullptr) {
    if (outcome != nullptr) *outcome = Outcome::kMiss;
    return nullptr;
  }
  bool stale = entry->doc_id != doc->doc_id();
  if (!stale) {
    for (const CachedNodeSet::Guard& g : entry->guards) {
      if (CurrentVersion(doc, g) != g.version) {
        stale = true;
        break;
      }
    }
  }
  if (stale) {
    // A failed guard is an invalidation, not a plain miss: the caller DID
    // intern this chain before, and the edit history is what evicted it.
    if (outcome != nullptr) {
      *outcome = entry->subtree_scoped ? Outcome::kStalePartial
                                       : Outcome::kStale;
    }
    return nullptr;
  }
  if (outcome != nullptr) *outcome = Outcome::kHit;
  return entry;
}

void NodeSetCache::Put(const std::string& key, uint64_t doc_id,
                       std::vector<CachedNodeSet::Guard> guards,
                       bool subtree_scoped, xdm::Sequence nodes) {
  auto entry = std::make_shared<CachedNodeSet>();
  entry->doc_id = doc_id;
  entry->guards = std::move(guards);
  entry->subtree_scoped = subtree_scoped;
  entry->nodes = std::move(nodes);
  cache_.Put(key, std::move(entry));
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
    xdm::Sequence nodes;
    for (const xdm::Item& item : entry->nodes.items()) {
      const uint32_t mapped =
          item.is_node() && item.node()->document() == &from
              ? remap(item.node()->index())
              : xml::kNilNode;
      if (mapped == xml::kNilNode) {
        mappable = false;
        break;
      }
      nodes.Append(xdm::Item::NodeRef(to.NodeAt(mapped)));
    }
    if (!mappable) continue;
    std::vector<CachedNodeSet::Guard> guards = entry->guards;
    for (CachedNodeSet::Guard& g : guards) {
      g.node = remap(g.node);
      if (g.node == xml::kNilNode) {
        mappable = false;
        break;
      }
    }
    if (!mappable) continue;
    if (entry->nodes.ordered_deduped()) nodes.MarkOrderedDeduped();
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
    Put(std::to_string(to.doc_id()) + "@" + std::to_string(mapped_base) +
            key.substr(bar),
        to.doc_id(), std::move(guards), entry->subtree_scoped,
        std::move(nodes));
    ++migrated;
  }
  return migrated;
}

void NodeSetCache::ExportTo(MetricsRegistry* metrics,
                            const std::string& prefix) const {
  metrics->gauge(prefix + ".size").Set(static_cast<int64_t>(size()));
}

}  // namespace lll::xq
