#ifndef LLL_SERVER_SNAPSHOT_H_
#define LLL_SERVER_SNAPSHOT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/result.h"
#include "xml/node.h"
#include "xquery/nodeset_cache.h"

namespace lll::server {

// One immutable published version of a named document. Readers evaluate
// queries against the snapshot's tree (order index pre-built, so the very
// first query pays no stamping hiccup) and share its node-set interning
// cache; writers never touch a published snapshot -- they clone it, edit the
// private copy, and install a NEW snapshot (see SnapshotStore::PublishEdit).
//
// Lifetime is plain shared_ptr refcounting: the store holds one reference to
// the current version of each document, every in-flight query holds another,
// and a superseded snapshot dies -- document, arena, and interning cache
// together -- the moment its last reader finishes. That "cache dies with its
// document" coupling is exactly the ownership contract NodeSetCache demands
// (its Sequences hold raw Node pointers into the snapshot's arena).
class Snapshot {
 public:
  Snapshot(std::unique_ptr<xml::Document> doc, uint64_t version,
           size_t nodeset_cache_capacity)
      : doc_(std::move(doc)),
        version_(version),
        nodeset_cache_(nodeset_cache_capacity) {}

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // Monotonically increasing per document name, starting at 1.
  uint64_t version() const { return version_; }

  const xml::Document& document() const { return *doc_; }

  // The document node, for ExecuteOptions::context_node (non-const by the
  // engine's signature). The server-wide contract is that readers never
  // mutate a published snapshot; concurrent read-only evaluation over one
  // tree is audited safe (engine.h).
  xml::Node* root() const { return doc_->root(); }

  // The per-snapshot interning cache, shared by every reader of this
  // version. Mutable because the cache is internally thread-safe and does
  // not change the snapshot's observable document state.
  xq::NodeSetCache* nodeset_cache() const { return &nodeset_cache_; }

 private:
  std::unique_ptr<xml::Document> doc_;
  uint64_t version_;
  mutable xq::NodeSetCache nodeset_cache_;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

// An edit applied to the writer's private copy during a publish. `root` is
// doc->root(), passed for convenience. Returning an error abandons the
// publish (the current snapshot stays installed, nothing is lost).
using EditFn = std::function<Status(xml::Document* doc, xml::Node* root)>;

// A publish's edit, bound against the base snapshot before it is cloned:
// the clone has room for `created_nodes` more nodes, and `apply` edits it,
// given CloneDocument's base -> clone index table. An error from `apply`
// abandons the publish.
struct BoundEdit {
  size_t created_nodes = 0;
  std::function<Status(xml::Document* clone,
                       const std::vector<uint32_t>& node_map)>
      apply;
};

// Binds a publish against `base`, the current snapshot: read-only, it runs
// under the writer mutex, so `base` is the very snapshot the publish
// clones. An error abandons the publish before anything is cloned.
using BindFn = std::function<Result<BoundEdit>(const Snapshot& base)>;

// The named-document snapshot registry: name -> current SnapshotPtr.
//
// Publish protocol (the invariants the server soak test enforces):
//   1. the per-document writer mutex serializes publishers -- versions are
//      assigned under it, so they are strictly increasing with no gaps;
//   2. the writer binds its edit on the current snapshot, read-only, then
//      CLONES that snapshot (CloneDocument) and edits only the clone --
//      readers of the current snapshot never observe a write;
//   3. the clone's order index is built BEFORE install, so readers start
//      sort-free on a fresh snapshot;
//   4. install is an atomic pointer swap under a short mutex: a reader gets
//      either the old snapshot or the new one, never a torn state, and the
//      old version survives until its last reader drops it.
class SnapshotStore {
 public:
  // `wait_us` and `work_us` (optional, borrowed) observe every publish that
  // takes a writer mutex: the time spent acquiring it, and the time spent
  // holding it -- bind, clone, edit, cache migration and install.
  explicit SnapshotStore(size_t nodeset_cache_capacity = 128,
                         Histogram* wait_us = nullptr,
                         Histogram* work_us = nullptr)
      : nodeset_cache_capacity_(nodeset_cache_capacity),
        wait_us_(wait_us),
        work_us_(work_us) {}

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Registers a new document name at version 1. Fails on duplicate names
  // (publish to replace an existing document's content).
  Status Install(const std::string& name, std::unique_ptr<xml::Document> doc);

  // The current snapshot, or nullptr for an unknown name.
  SnapshotPtr Current(const std::string& name) const;

  // Copy-on-write publish: clone current, apply `edit` to the clone, install
  // as the next version. Returns the new version number.
  Result<uint64_t> PublishEdit(const std::string& name, const EditFn& edit);

  // Copy-on-write publish of an edit bound on the current snapshot: `bind`
  // reads it, then the clone (with room for the nodes the edit creates) is
  // edited and installed as the next version. Returns the new version.
  Result<uint64_t> PublishBound(const std::string& name, const BindFn& bind);

  // Wholesale publish: installs `doc` as the next version of `name`.
  Result<uint64_t> PublishDocument(const std::string& name,
                                   std::unique_ptr<xml::Document> doc);

  std::vector<std::string> Names() const;

  // Total successful publishes (Install excluded) across all documents.
  uint64_t snapshots_published() const {
    return published_.load(std::memory_order_relaxed);
  }

  // Total warm node-set cache entries carried across copy-on-write
  // publishes (NodeSetCache::MigrateClone), across all documents.
  uint64_t cache_entries_migrated() const {
    return migrated_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    // Serializes publishers of this document; held across clone+edit, which
    // is the slow part, so readers are never blocked by it.
    std::mutex writer_mu;
    // Guards `current` only; held for the duration of a pointer copy/swap.
    mutable std::mutex current_mu;
    SnapshotPtr current;
  };

  // Looks up (never creates) the entry; nullptr if unknown. The returned
  // pointer is stable: entries are never erased.
  Entry* FindEntry(const std::string& name) const;

  // Installs `doc` as the entry's next version. When `carry_cache_from` is
  // non-null (the copy-on-write publish path, with `doc` a clone of that
  // snapshot's document and `node_map` CloneDocument's source -> clone index
  // table), the predecessor's warm node-set cache entries are migrated onto
  // the new snapshot BEFORE it becomes visible -- remapped through the map,
  // so the cache survives the clone's renumbering -- and the name versions,
  // carried through the clone, scope what the edit evicted.
  Result<uint64_t> InstallNext(Entry* entry, std::unique_ptr<xml::Document> doc,
                               const Snapshot* carry_cache_from = nullptr,
                               const std::vector<uint32_t>* node_map = nullptr);

  // Takes the entry's writer mutex, observing the wait in wait_us_.
  std::unique_lock<std::mutex> LockWriter(Entry* entry) const;

  mutable std::mutex mu_;  // guards entries_ (the map, not the entries)
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  size_t nodeset_cache_capacity_;
  Histogram* wait_us_;
  Histogram* work_us_;
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> migrated_{0};
};

}  // namespace lll::server

#endif  // LLL_SERVER_SNAPSHOT_H_
