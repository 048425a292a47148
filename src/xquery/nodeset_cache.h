#ifndef LLL_XQUERY_NODESET_CACHE_H_
#define LLL_XQUERY_NODESET_CACHE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/lru_cache.h"
#include "core/metrics.h"
#include "xdm/sequence.h"
#include "xml/node.h"
#include "xquery/ast.h"

namespace lll::xq {

// An index of one attribute's values over a list of nodes: for each node
// that carries the attribute, a hash of the value and the node's position,
// sorted by hash. It holds no view into a document -- a lookup checks each
// hash match against the list it is handed: the one it was built over, or
// those nodes' counterparts on a clone in the same order -- so an entry
// migrated onto a clone reads it after its source snapshot died. A
// probe-extended CachedNodeSet holds one, and so does each index of the
// evaluator's per-query probe memo (DESIGN.md section 16).
class ValueIndex {
 public:
  // Indexes attribute `attr` over `nodes`.
  ValueIndex(std::span<const xml::Node* const> nodes, std::string attr);

  const std::string& attr() const { return attr_; }

  // The hash the postings are sorted by.
  static uint32_t Hash(std::string_view value);

  // Appends to `hits`, ascending, the positions in `nodes` (as above) of
  // the nodes whose attribute attr() has the value `value`.
  void LookUp(std::span<const xml::Node* const> nodes,
              std::string_view value, std::vector<uint32_t>* hits) const;

 private:
  struct Posting {
    uint32_t hash;
    uint32_t position;
    auto operator<=>(const Posting&) const = default;
  };
  std::string attr_;
  std::vector<Posting> postings_;  // sorted
};

// One interned node set: the materialized, normalized (document order, no
// duplicates) result of a step chain from one tree root, stamped with the
// identity (doc_id) of the owning document and with a GUARD: the versions,
// when it was stored, of the names the chain tests (xq::ChainNames, a plan
// fact; xml::Document::element_version and friends; DESIGN.md section 14).
// The entry is valid iff every version still matches the document. A
// chain's node set cannot change unless an edit attaches, detaches or
// renames a node its tests match, or writes the attribute its index reads,
// so an edit that touches none of its names keeps it -- that is the whole
// point: one edit no longer evicts the cache wholesale. A chain with a step
// that tests no name (`*`, node(), text()) is guarded by the document
// version as well, which every attach and detach moves.
//
// The doc_id stamp guards against identity reuse: the key embeds the base
// node's doc_id + index, and an entry from a dead document must never
// validate against a new one -- doc_ids are process-unique and never reused,
// unlike addresses.
struct CachedNodeSet {
  // One name the chain tests and its version when the entry was stored.
  struct Guard {
    uint32_t name = 0;       // NameTable id
    bool attribute = false;  // an attribute name, else an element name
    uint64_t version = 0;
  };

  uint64_t doc_id = 0;
  std::vector<Guard> guards;
  // Set when some step tests no name: the document version, recorded
  // beside it, guards the entry too. A failed guard then counts as a full
  // invalidation in the stats, any other as a partial one.
  bool document_wide = false;
  uint64_t document_version = 0;
  // Nonzero when some name the chain tests was not interned when the entry
  // was stored: NameTable::interned_count() then. No node had that name,
  // and none can until it is interned, so the entry holds while the count
  // stands.
  uint64_t names_interned = 0;
  // The node set, 8 bytes a node, in document order without duplicates.
  std::vector<xml::Node*> nodes;
  // The node set as a sequence, marked ordered-and-deduped (xdm::Sequence).
  xdm::Sequence ToSequence() const;
  // The index of the probed attribute on a probe-extended entry (DESIGN.md
  // section 16), built with the entry; null on every other entry. Entries
  // are immutable once stored, and MigrateClone shares the index rather
  // than copying it: a clone keeps document order, so no position moves.
  std::shared_ptr<const ValueIndex> index;
};

// A thread-safe interning cache for document-rooted node sets, keyed on
// (document identity, base node, step-chain fingerprint) and invalidated by
// the document's name versions: a lookup revalidates the entry's guard
// against the document's current versions, so an edit invalidates exactly
// the entries whose chains test a name it touched.
//
// Ownership contract: cached Sequences hold raw xml::Node pointers into the
// documents they were computed from. A NodeSetCache must therefore be scoped
// to the owner of those documents and destroyed (or Clear()ed) no later than
// them -- e.g. a member of awbql::XQueryBackend next to its model/metamodel
// snapshots, a server snapshot, or a local of one docgen generation. It must
// never be a process-wide singleton. (Entries for dead documents are inert
// -- the doc_id in key and stamp can never match a live document -- but
// their Sequences still point into freed arenas, so the cache itself must
// not outlive its documents.)
//
// Concurrency: Get/Put are safe from any number of threads (the underlying
// LruCache serializes bookkeeping; values are shared immutable handles), and
// guard validation reads the versions through accessors that never
// allocate. Mutating a document concurrently with evaluations over it is NOT
// safe -- the same contract as the tree itself.
//
// Stats: the cache counts nothing of its own. Get reports each lookup's
// Outcome -- a hit, a cold miss, or an invalidation (an entry found with a
// failed guard; kStalePartial when the entry had no document-wide guard,
// i.e. its names confined the damage to the chains that test them) -- and
// the evaluator tallies them per execution in EvalStats::nodeset_cache_*,
// which xq::Execute exports as the xq.eval.nodeset_cache_* counters. (The
// LruCache's own CacheStats would count a stale hit as a hit.)
class NodeSetCache {
 public:
  enum class Outcome { kHit, kMiss, kStale, kStalePartial };

  // capacity 0 = passthrough (every lookup misses, nothing stored).
  explicit NodeSetCache(size_t capacity = 128) : cache_(capacity) {}

  NodeSetCache(const NodeSetCache&) = delete;
  NodeSetCache& operator=(const NodeSetCache&) = delete;

  // Returns the entry for `key` iff it was computed from this very `doc`
  // (doc_id match) and its guard still matches the document's current
  // versions; nullptr on miss or staleness. `outcome` (optional)
  // distinguishes hit / miss / full stale / partial stale.
  std::shared_ptr<const CachedNodeSet> Get(const xml::Document* doc,
                                           const std::string& key,
                                           Outcome* outcome = nullptr);

  // Stores the node set computed from `doc`, guarded by the current
  // versions of `names`, the names its chain tests. It first has `doc`
  // stamp versions (xml::Document::WantEditVersions), and no edit can land
  // between the computation and this call (the single-writer contract), so
  // the versions are the ones the nodes were computed at. `nodes` are all
  // nodes of `doc`, in document order without duplicates: a normalized
  // step result (streamed, one-node or sorted), which ToSequence marks as
  // such. A non-empty `index_attr` gives the entry a ValueIndex of that
  // attribute over its nodes. Overwrites stale entries. Returns the stored
  // entry.
  std::shared_ptr<const CachedNodeSet> Put(const std::string& key,
                                           const xml::Document& doc,
                                           const ChainNames& names,
                                           const xdm::Sequence& nodes,
                                           const std::string& index_attr = {});

  // The key for a step chain hanging off `base`: the owning document's
  // process-unique id plus the base node's index (distinct document nodes in
  // one arena intern separately, and entries from dead documents can never
  // collide with live ones) plus the caller-built chain fingerprint.
  static std::string MakeKey(const xml::Node* base,
                             const std::string& fingerprint);

  // Copies `source`'s entries for `from` into this cache, re-targeted at
  // `to`, a clone of `from`, with `node_map` the source-index -> clone-index
  // table CloneDocument produced (the identity from a compact, preorder
  // source, kNilNode for dropped debris). Keys are re-stamped with the
  // clone's doc_id and re-based through the map, node handles remap
  // through it, and guards transfer verbatim: the clone carries the name
  // versions, so entries whose names a post-clone edit touched fail their
  // guards on first lookup (reported partial/full as usual) while the rest
  // keep hitting. A value index is shared with the migrated entry: the
  // remapped nodes keep their order. Entries touching dropped nodes are
  // skipped. This is what lets a warm cache survive the server's
  // copy-on-write publish.
  // Recency order is preserved. Returns the number of entries migrated.
  size_t MigrateClone(const NodeSetCache& source, const xml::Document& from,
                      const xml::Document& to,
                      const std::vector<uint32_t>& node_map);

  size_t capacity() const { return cache_.capacity(); }
  size_t size() const { return cache_.size(); }
  void Clear() { cache_.Clear(); }

  // Publishes the entry count as the gauge "<prefix>.size" (a gauge: each
  // export overwrites the last snapshot).
  void ExportTo(MetricsRegistry* metrics, const std::string& prefix) const;

 private:
  LruCache<CachedNodeSet> cache_;
};

}  // namespace lll::xq

#endif  // LLL_XQUERY_NODESET_CACHE_H_
