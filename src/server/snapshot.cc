#include "server/snapshot.h"

#include <chrono>
#include <utility>

namespace lll::server {

Status SnapshotStore::Install(const std::string& name,
                              std::unique_ptr<xml::Document> doc) {
  if (doc == nullptr) {
    return Status::Invalid("Install: null document for '" + name + "'");
  }
  doc->EnsureOrderIndex();
  auto snapshot =
      std::make_shared<const Snapshot>(std::move(doc), /*version=*/1,
                                       nodeset_cache_capacity_);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(name, nullptr);
  if (!inserted) {
    return Status::Invalid("document '" + name +
                           "' already exists; publish to replace it");
  }
  it->second = std::make_unique<Entry>();
  it->second->current = std::move(snapshot);
  return Status::Ok();
}

SnapshotStore::Entry* SnapshotStore::FindEntry(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

SnapshotPtr SnapshotStore::Current(const std::string& name) const {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->current_mu);
  return entry->current;
}

Result<uint64_t> SnapshotStore::InstallNext(
    Entry* entry, std::unique_ptr<xml::Document> doc,
    const Snapshot* carry_cache_from, const std::vector<uint32_t>* node_map) {
  // Caller holds entry->writer_mu: the version read below cannot move.
  doc->EnsureOrderIndex();
  uint64_t version;
  {
    std::lock_guard<std::mutex> lock(entry->current_mu);
    version = entry->current->version() + 1;
  }
  auto next = std::make_shared<const Snapshot>(std::move(doc), version,
                                               nodeset_cache_capacity_);
  if (carry_cache_from != nullptr && node_map != nullptr) {
    // Warm the new snapshot before anyone can see it: migrated entries can
    // never clobber fresher ones computed against the new document.
    migrated_.fetch_add(next->nodeset_cache()->MigrateClone(
                            *carry_cache_from->nodeset_cache(),
                            carry_cache_from->document(), next->document(),
                            *node_map),
                        std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(entry->current_mu);
    entry->current = std::move(next);
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

namespace {

using Clock = std::chrono::steady_clock;

// Observes the microseconds from construction to destruction in `h`, if set.
class PublishTimer {
 public:
  explicit PublishTimer(Histogram* h) : h_(h), start_(Clock::now()) {}
  ~PublishTimer() {
    if (h_ == nullptr) return;
    h_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count()));
  }
  PublishTimer(const PublishTimer&) = delete;
  PublishTimer& operator=(const PublishTimer&) = delete;

 private:
  Histogram* h_;
  Clock::time_point start_;
};

}  // namespace

std::unique_lock<std::mutex> SnapshotStore::LockWriter(Entry* entry) const {
  PublishTimer wait(wait_us_);
  return std::unique_lock<std::mutex>(entry->writer_mu);
}

Result<uint64_t> SnapshotStore::PublishEdit(const std::string& name,
                                            const EditFn& edit) {
  return PublishBound(name, [&edit](const Snapshot&) -> Result<BoundEdit> {
    return BoundEdit{0, [&edit](xml::Document* clone,
                                const std::vector<uint32_t>&) {
                       return edit(clone, clone->root());
                     }};
  });
}

Result<uint64_t> SnapshotStore::PublishBound(const std::string& name,
                                             const BindFn& bind) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no document named '" + name + "'");
  }
  std::unique_lock<std::mutex> writer = LockWriter(entry);
  PublishTimer work(work_us_);
  SnapshotPtr base;
  {
    std::lock_guard<std::mutex> lock(entry->current_mu);
    base = entry->current;
  }
  Result<BoundEdit> bound = bind(*base);
  if (!bound.ok()) {
    Status st = bound.status();
    return st.AddContext("while binding a publish of '" + name + "'");
  }
  // Capture the clone's source -> clone index table: the bound edit maps
  // its targets through it, and the base snapshot's warm cache is remapped
  // onto the new one (the clone drops detached debris and renumbers the
  // rest into preorder).
  std::vector<uint32_t> node_map;
  std::unique_ptr<xml::Document> copy =
      xml::CloneDocument(base->document(), &node_map, bound->created_nodes);
  // The clone receives the base's migrated, version-guarded cache entries,
  // so it must stamp this edit's names even if it copied the base's
  // wanted-flag before a reader stored the first entry (the flag travels by
  // clone; without this a writer outpacing its readers would never stamp,
  // and migrated entries whose names the edit touched would keep
  // validating at version 0).
  copy->WantEditVersions();
  Status st = bound->apply(copy.get(), node_map);
  if (!st.ok()) {
    return st.AddContext("while editing the publish copy of '" + name + "'");
  }
  return InstallNext(entry, std::move(copy), base.get(), &node_map);
}

Result<uint64_t> SnapshotStore::PublishDocument(
    const std::string& name, std::unique_ptr<xml::Document> doc) {
  if (doc == nullptr) {
    return Status::Invalid("PublishDocument: null document for '" + name +
                           "'");
  }
  Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no document named '" + name + "'");
  }
  std::unique_lock<std::mutex> writer = LockWriter(entry);
  PublishTimer work(work_us_);
  return InstallNext(entry, std::move(doc));
}

std::vector<std::string> SnapshotStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace lll::server
