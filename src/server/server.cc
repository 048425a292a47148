#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <utility>

#include "obs/explain.h"
#include "persist/doc_snapshot.h"
#include "persist/plan_serde.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/update_parser.h"

namespace lll::server {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

// Decrements the tenant's in-flight gauge on every exit path.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<int64_t>* inflight)
      : inflight_(inflight) {}
  ~InflightGuard() { inflight_->fetch_sub(1, std::memory_order_acq_rel); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int64_t>* inflight_;
};

}  // namespace

QueryServer::Tenant::Tenant(MetricsRegistry& registry,
                            const std::string& name,
                            const TenantQuota& quota)
    : quota(quota),
      queries(registry.counter("server.tenant." + name + ".queries")),
      rejected(registry.counter("server.tenant." + name + ".rejected")),
      query_us(registry.histogram("server.tenant." + name + ".query_us")) {}

QueryServer::Metrics::Metrics(MetricsRegistry& registry)
    : exec(registry),
      queries(registry.counter("server.queries")),
      queries_ok(registry.counter("server.queries_ok")),
      queries_rejected(registry.counter("server.queries_rejected")),
      query_errors(registry.counter("server.query_errors")),
      compile_errors(registry.counter("server.compile_errors")),
      query_cache_hits(registry.counter("server.query_cache_hits")),
      query_cache_misses(registry.counter("server.query_cache_misses")),
      query_us(registry.histogram("server.query_us")),
      snapshots_published(registry.counter("server.snapshots_published")),
      publish_wait_us(registry.histogram("server.publish.wait_us")),
      publish_work_us(registry.histogram("server.publish.work_us")),
      updates(registry.counter("server.updates")),
      plan_hits(registry.counter("persist.plan.hits")),
      plan_misses(registry.counter("persist.plan.misses")),
      documents(registry.gauge("server.documents")),
      nodeset_entries_migrated(
          registry.gauge("server.nodeset_entries_migrated")) {}

QueryServer::QueryServer(const ServerOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &GlobalMetrics()),
      handles_(*metrics_),
      store_(options.nodeset_cache_capacity, &handles_.publish_wait_us,
             &handles_.publish_work_us),
      query_cache_(options.query_cache_capacity),
      pool_(options.worker_threads) {}

QueryServer::~QueryServer() {
  Shutdown();
  // pool_ is the last data member, so ~ThreadPool runs first and drains the
  // Submit queue while shutdown_, tenants_mu_, and tenants_ are still alive.
}

Status QueryServer::AddDocument(const std::string& name,
                                std::unique_ptr<xml::Document> doc) {
  Status st = store_.Install(name, std::move(doc));
  if (st.ok()) {
    handles_.documents.Set(static_cast<int64_t>(store_.Names().size()));
  }
  return st;
}

Status QueryServer::AddDocumentXml(const std::string& name,
                                   const std::string& xml_text) {
  auto doc = xml::Parse(xml_text, {.strip_insignificant_whitespace = true});
  if (!doc.ok()) {
    return doc.status().AddContext("while parsing document '" + name + "'");
  }
  return AddDocument(name, std::move(*doc));
}

Result<uint64_t> QueryServer::PublishEdit(const std::string& name,
                                          const EditFn& edit) {
  Result<uint64_t> version = store_.PublishEdit(name, edit);
  if (version.ok()) handles_.snapshots_published.Increment();
  return version;
}

Result<uint64_t> QueryServer::PublishUpdate(const std::string& name,
                                            const std::string& update_text,
                                            xq::UpdateStats* stats) {
  Result<xq::CompiledUpdate> compiled = xq::CompileUpdateText(update_text);
  if (!compiled.ok()) {
    return compiled.status().AddContext("while compiling an update for '" +
                                        name + "'");
  }
  xq::UpdateOptions uo;
  uo.metrics = metrics_;
  // Shutdown() cancels a publish's bind like any read.
  uo.eval.cancel = &shutdown_;
  xq::UpdateStats applied;
  Result<uint64_t> version = store_.PublishBound(
      name,
      [this, &compiled, &uo,
       &applied](const Snapshot& base) -> Result<BoundEdit> {
        // FLUX binds every target against the pre-update document: the
        // base snapshot, with its warm node-set cache.
        xq::UpdateOptions bind = uo;
        bind.eval.nodeset_cache = base.nodeset_cache();
        LLL_ASSIGN_OR_RETURN(xq::BoundUpdate bound,
                             xq::BindUpdate(*compiled, base.document(), bind,
                                            &handles_.exec));
        const size_t created = bound.created_nodes;
        return BoundEdit{
            created,
            [&compiled, &uo, &applied, bound = std::move(bound)](
                xml::Document* clone,
                const std::vector<uint32_t>& node_map) -> Status {
              LLL_ASSIGN_OR_RETURN(
                  applied, xq::ApplyBoundUpdate(*compiled, bound, clone,
                                                &node_map, uo));
              return Status::Ok();
            }};
      });
  if (!version.ok()) return version;
  handles_.snapshots_published.Increment();
  handles_.updates.Increment();
  if (stats != nullptr) *stats = applied;
  return version;
}

Result<uint64_t> QueryServer::PublishXml(const std::string& name,
                                         const std::string& xml_text) {
  auto doc = xml::Parse(xml_text, {.strip_insignificant_whitespace = true});
  if (!doc.ok()) {
    return doc.status().AddContext("while parsing publish of '" + name + "'");
  }
  Result<uint64_t> version = store_.PublishDocument(name, std::move(*doc));
  if (version.ok()) handles_.snapshots_published.Increment();
  return version;
}

QueryServer::Tenant* QueryServer::TenantAndQuota(const std::string& name,
                                                 TenantQuota* quota) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Tenant>(*metrics_, name, options_.default_quota);
  }
  *quota = slot->quota;
  return slot.get();
}

void QueryServer::SetQuota(const std::string& tenant,
                           const TenantQuota& quota) {
  TenantQuota previous;
  Tenant* t = TenantAndQuota(tenant, &previous);
  std::lock_guard<std::mutex> lock(tenants_mu_);
  t->quota = quota;
}

TenantQuota QueryServer::QuotaFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? options_.default_quota : it->second->quota;
}

void QueryServer::CountRejection(Tenant* tenant) {
  handles_.queries_rejected.Increment();
  tenant->rejected.Increment();
}

void QueryServer::CountPlanProvenance(xq::CacheProvenance provenance) {
  // hits = queries answered by a disk-loaded plan; misses = fresh compiles
  // on a cache that HAS been warmed from disk. A never-warmed server counts
  // neither, so the ratio measures the artifact's coverage rather than
  // whether anyone loaded one.
  if (provenance == xq::CacheProvenance::kDiskCache) {
    handles_.plan_hits.Increment();
  } else if (provenance == xq::CacheProvenance::kCompiled &&
             query_cache_.warmed()) {
    handles_.plan_misses.Increment();
  }
}

QueryResponse QueryServer::Execute(const std::string& tenant,
                                   const std::string& doc_name,
                                   const std::string& query_text) {
  return ExecuteOnSnapshot(tenant, store_.Current(doc_name), query_text);
}

QueryResponse QueryServer::ExecuteOnSnapshot(const std::string& tenant,
                                             const SnapshotPtr& snapshot,
                                             const std::string& query_text) {
  const Clock::time_point start = Clock::now();
  QueryResponse resp;
  TenantQuota quota;
  Tenant* t = TenantAndQuota(tenant, &quota);
  handles_.queries.Increment();
  t->queries.Increment();

  if (snapshot == nullptr) {
    resp.status = Status::NotFound("no such document");
    handles_.query_errors.Increment();
    return resp;
  }

  // Admission: one atomic increment against the tenant's in-flight cap.
  int64_t inflight = t->inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
  InflightGuard guard(&t->inflight);
  if (static_cast<uint64_t>(inflight) > quota.max_inflight) {
    resp.status = Status::ResourceExhausted(
        "tenant '" + tenant + "' is over its in-flight quota (" +
        std::to_string(quota.max_inflight) + ")");
    resp.rejected = true;
    resp.latency_us = ElapsedUs(start);
    CountRejection(t);
    return resp;
  }

  bool cache_hit = false;
  xq::CacheProvenance provenance = xq::CacheProvenance::kCompiled;
  auto compiled =
      query_cache_.GetOrCompile(query_text, {}, &cache_hit, &provenance);
  if (!compiled.ok()) {
    resp.status = compiled.status();
    resp.latency_us = ElapsedUs(start);
    handles_.compile_errors.Increment();
    return resp;
  }
  (cache_hit ? handles_.query_cache_hits : handles_.query_cache_misses)
      .Increment();
  CountPlanProvenance(provenance);

  xq::ExecuteOptions opts;
  opts.context_node = snapshot->root();
  opts.eval.nodeset_cache = snapshot->nodeset_cache();
  opts.eval.max_steps = quota.max_eval_steps;
  if (quota.timeout_ms != 0) {
    opts.eval.deadline = start + std::chrono::milliseconds(quota.timeout_ms);
  }
  opts.eval.cancel = &shutdown_;
  opts.metrics = &handles_.exec;

  auto result = xq::Execute(**compiled, opts);
  resp.snapshot_version = snapshot->version();
  resp.latency_us = ElapsedUs(start);
  handles_.query_us.Observe(resp.latency_us);
  t->query_us.Observe(resp.latency_us);

  if (!result.ok()) {
    resp.status = result.status();
    if (resp.status.code() == StatusCode::kResourceExhausted) {
      // Budget / deadline / shutdown: the query was abandoned, not wrong.
      resp.rejected = true;
      CountRejection(t);
    } else {
      handles_.query_errors.Increment();
    }
    return resp;
  }
  resp.result = result->SerializedItems();
  resp.stats = result->stats;
  handles_.queries_ok.Increment();
  return resp;
}

void QueryServer::Submit(const std::string& tenant,
                         const std::string& doc_name, std::string query_text,
                         std::function<void(QueryResponse)> done) {
  pool_.Submit([this, tenant, doc_name, query = std::move(query_text),
                done = std::move(done)]() {
    QueryResponse resp = Execute(tenant, doc_name, query);
    if (done) done(std::move(resp));
  });
}

Result<std::string> QueryServer::Explain(const std::string& doc_name,
                                         const std::string& query_text) {
  SnapshotPtr snapshot = store_.Current(doc_name);
  if (snapshot == nullptr) {
    return Status::NotFound("no document named '" + doc_name + "'");
  }
  if (xq::IsUpdateScript(query_text)) {
    // Update plans explain differently: per-statement targets plus the
    // names applying each statement will bump.
    Result<xq::CompiledUpdate> update = xq::CompileUpdateText(query_text);
    if (!update.ok()) return update.status();
    std::string out = "-- document '" + doc_name + "' @ snapshot version " +
                      std::to_string(snapshot->version()) + "\n";
    out += xq::ExplainUpdate(*update, &snapshot->document());
    return out;
  }
  xq::CacheProvenance provenance = xq::CacheProvenance::kCompiled;
  auto compiled =
      query_cache_.GetOrCompile(query_text, {}, nullptr, &provenance);
  if (!compiled.ok()) return compiled.status();
  CountPlanProvenance(provenance);
  obs::ExplainOptions eo;
  eo.provenance =
      std::string("server plan: ") + xq::CacheProvenanceName(provenance);
  // Tie [interned] annotations to the snapshot's edit epoch, the last
  // version an edit stamped on a name, so the plan shows which edit
  // generation a cached node set would validate against ([interned@vN]).
  eo.context_document = &snapshot->document();
  std::string out = "-- document '" + doc_name + "' @ snapshot version " +
                    std::to_string(snapshot->version()) + "\n";
  out += obs::Explain(**compiled, eo);
  return out;
}

Status QueryServer::SaveState(const std::string& dir) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create state directory '" + dir +
                            "': " + ec.message());
  }
  // Every artifact is staged as <file>.new, a name LoadState skips, and
  // renamed into place only once all are written: a save that fails leaves
  // the earlier save whole, never new plans beside old snapshots.
  const auto staged = [&dir](const std::string& file) {
    return dir + "/" + file + ".new";
  };
  std::vector<std::string> files;
  Status st = persist::SavePlanCache(query_cache_, staged("plans.lllp"),
                                     metrics_);
  if (st.ok()) files.push_back("plans.lllp");
  size_t n = 0;
  for (const std::string& name : store_.Names()) {
    if (!st.ok()) break;
    SnapshotPtr snap = store_.Current(name);
    if (snap == nullptr) continue;
    const std::string file = "doc-" + std::to_string(n++) + ".llld";
    st = persist::SaveDocumentSnapshot(snap->document(), name, staged(file),
                                       metrics_);
    if (st.ok()) files.push_back(file);
  }
  size_t placed = 0;
  for (; st.ok() && placed < files.size(); ++placed) {
    fs::rename(staged(files[placed]), dir + "/" + files[placed], ec);
    if (ec) {
      st = Status::Internal("cannot move '" + staged(files[placed]) +
                            "' into place: " + ec.message());
      break;
    }
  }
  if (!st.ok()) {
    for (size_t i = placed; i < files.size(); ++i) {
      fs::remove(staged(files[i]), ec);
    }
    return st;
  }
  // LoadState loads every artifact in the directory, so artifacts an
  // earlier save left behind would bring back documents this server no
  // longer holds.
  const std::set<std::string> written(files.begin(), files.end());
  std::vector<fs::path> stale;
  for (fs::directory_iterator it(dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const fs::path& path = it->path();
    if ((path.extension() == ".llld" || path.extension() == ".lllp") &&
        written.count(path.filename().string()) == 0) {
      stale.push_back(path);
    }
  }
  for (const fs::path& path : stale) {
    if (!ec) fs::remove(path, ec);
  }
  if (ec) {
    return Status::Internal("cannot clear stale artifacts from '" + dir +
                            "': " + ec.message());
  }
  return Status::Ok();
}

Status QueryServer::LoadState(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (fs::directory_iterator it(dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    paths.push_back(it->path());
  }
  if (ec) {
    return Status::Invalid("cannot read state directory '" + dir +
                           "': " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    if (path.extension() == ".lllp") {
      // A stale or corrupt plan artifact is a cold start, not an error;
      // the persist.plan.* counters record what happened.
      (void)persist::LoadPlanCache(path.string(), &query_cache_, metrics_);
    } else if (path.extension() == ".llld") {
      auto loaded = persist::LoadDocumentSnapshot(path.string(), metrics_);
      if (!loaded.ok()) continue;  // counted in persist.snapshot.*
      if (store_.Current(loaded->doc_name) == nullptr) {
        LLL_RETURN_IF_ERROR(
            AddDocument(loaded->doc_name, std::move(loaded->document)));
      } else {
        LLL_RETURN_IF_ERROR(store_
                                .PublishDocument(loaded->doc_name,
                                                 std::move(loaded->document))
                                .status());
      }
    }
  }
  return Status::Ok();
}

std::string QueryServer::MetricsJson() const {
  query_cache_.ExportTo(metrics_, "server.query_cache");
  // Refresh the storage gauges from the store's current snapshots so a
  // metrics poll always reflects live resident state, not the last publish.
  size_t nodes = 0, bytes = 0;
  for (const std::string& name : store_.Names()) {
    SnapshotPtr snap = store_.Current(name);
    if (snap == nullptr) continue;
    const xml::DocumentStorageStats storage = snap->document().storage_stats();
    nodes += storage.node_count;
    bytes += storage.total_bytes;
  }
  metrics_->gauge("xml.doc.nodes").Set(static_cast<int64_t>(nodes));
  metrics_->gauge("xml.doc.bytes").Set(static_cast<int64_t>(bytes));
  metrics_->gauge("xml.names.interned")
      .Set(static_cast<int64_t>(xml::NameTable::interned_count()));
  handles_.nodeset_entries_migrated.Set(
      static_cast<int64_t>(store_.cache_entries_migrated()));
  return metrics_->ToJson();
}

QueryResponse Session::Query(const std::string& doc_name,
                             const std::string& query_text) {
  auto it = pins_.find(doc_name);
  if (it == pins_.end()) {
    SnapshotPtr current = server_->CurrentSnapshot(doc_name);
    // Don't pin unknown documents: a later AddDocument should be visible to
    // this session, and bogus names must not grow pins_ unboundedly.
    if (current == nullptr) {
      return server_->ExecuteOnSnapshot(tenant_, nullptr, query_text);
    }
    it = pins_.emplace(doc_name, std::move(current)).first;
  }
  return server_->ExecuteOnSnapshot(tenant_, it->second, query_text);
}

uint64_t Session::pinned_version(const std::string& doc_name) const {
  auto it = pins_.find(doc_name);
  return it == pins_.end() || it->second == nullptr ? 0
                                                    : it->second->version();
}

Result<std::string> ResolveStatePath(const std::string& state_dir,
                                     const std::string& path) {
  namespace fs = std::filesystem;
  if (state_dir.empty()) {
    return Status::Invalid("file verbs need the daemon's --state-dir");
  }
  if (path.empty() || fs::path(path).is_absolute()) {
    return Status::Invalid("'" + path +
                           "' is not relative to the state directory");
  }
  std::error_code ec;
  fs::path root = fs::weakly_canonical(state_dir, ec);
  fs::path resolved;
  if (!ec) resolved = fs::weakly_canonical(root / path, ec);
  if (ec) {
    return Status::Invalid("cannot resolve '" + path + "': " + ec.message());
  }
  if (!root.has_filename()) root = root.parent_path();  // a trailing '/'
  // Inside means every component of the root leads the resolved path.
  if (std::mismatch(root.begin(), root.end(), resolved.begin(),
                    resolved.end())
          .first != root.end()) {
    return Status::Invalid("'" + path + "' leaves the state directory");
  }
  return resolved.string();
}

}  // namespace lll::server
