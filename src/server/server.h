#ifndef LLL_SERVER_SERVER_H_
#define LLL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/result.h"
#include "core/thread_pool.h"
#include "server/snapshot.h"
#include "xquery/engine.h"
#include "xquery/query_cache.h"
#include "xquery/update_eval.h"

namespace lll::server {

// Per-tenant admission limits. A quota violation is a graceful
// kResourceExhausted rejection -- the query never runs (or is abandoned
// mid-run for budget/deadline), the tenant's other traffic and every other
// tenant are unaffected, and server.queries_rejected counts it.
struct TenantQuota {
  // Cap on concurrently executing queries for the tenant. 0 = the tenant is
  // disabled (every query rejected) -- a kill switch, not "unlimited".
  size_t max_inflight = 64;
  // Per-query evaluator step budget (EvalOptions::max_steps); 0 = unlimited.
  size_t max_eval_steps = 0;
  // Per-query wall deadline in milliseconds (EvalOptions::deadline);
  // 0 = none.
  uint64_t timeout_ms = 0;
};

struct ServerOptions {
  // Workers behind Submit(); 0 degrades Submit to the caller's thread.
  size_t worker_threads = 4;
  // Shared compiled-query cache (one per server, all tenants).
  size_t query_cache_capacity = 256;
  // Node-set interning cache capacity of EACH snapshot.
  size_t nodeset_cache_capacity = 128;
  TenantQuota default_quota;
  // Where server.* metrics go; nullptr = GlobalMetrics(). Borrowed.
  MetricsRegistry* metrics = nullptr;
};

// The answer to one query. `rejected` distinguishes resource rejections
// (admission, step budget, deadline, shutdown) from genuine query errors:
// a rejected query is well-formed work the server declined or abandoned.
struct QueryResponse {
  Status status;
  std::string result;  // serialized items, on success
  uint64_t snapshot_version = 0;
  uint64_t latency_us = 0;
  bool rejected = false;
  xq::EvalStats stats;
};

class QueryServer;

// One client session: a tenant identity plus snapshot pins. The first query
// against each document pins the then-current snapshot; every later query in
// the session reads the SAME version regardless of concurrent publishes
// (repeatable reads), until Refresh() drops the pins. A Session is owned by
// one thread; the server behind it may be shared freely.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  QueryResponse Query(const std::string& doc_name,
                      const std::string& query_text);

  // Drops every pin; the next query per document re-pins the then-current
  // snapshot.
  void Refresh() { pins_.clear(); }

  // The pinned version for a document, or 0 if not (yet) pinned.
  uint64_t pinned_version(const std::string& doc_name) const;

  const std::string& tenant() const { return tenant_; }

 private:
  friend class QueryServer;
  Session(QueryServer* server, std::string tenant)
      : server_(server), tenant_(std::move(tenant)) {}

  QueryServer* server_;
  std::string tenant_;
  std::map<std::string, SnapshotPtr> pins_;
};

// The multi-tenant query server: a long-running façade over the XQuery
// engine that serves concurrent sessions over shared documents with snapshot
// isolation.
//
//   * Readers run lock-free on immutable snapshots (shared_ptr-pinned);
//     the per-snapshot node-set cache and the streaming pipelines work
//     unmodified because a snapshot's structure_version never moves.
//   * Writers serialize through SnapshotStore's copy-on-write publish path
//     and never block readers.
//   * Admission control enforces per-tenant quotas: in-flight caps checked
//     before execution, step budgets and wall deadlines enforced inside the
//     evaluator, all rejections graceful Status responses.
//   * Everything is observable: server.* counters and pow-2 latency
//     histograms (global and per tenant) in the configured MetricsRegistry,
//     EXPLAIN with snapshot + compile-cache provenance.
//
// Thread safety: every public method may be called from any thread. The
// destructor flips the shutdown flag (in-flight evaluations abort with
// kResourceExhausted at their next budget poll) and drains the worker pool.
class QueryServer {
 public:
  explicit QueryServer(const ServerOptions& options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // --- Documents -----------------------------------------------------------

  // Registers a new named document (version 1). Fails on duplicate names.
  Status AddDocument(const std::string& name,
                     std::unique_ptr<xml::Document> doc);
  Status AddDocumentXml(const std::string& name, const std::string& xml_text);

  // Copy-on-write publish; returns the new snapshot version.
  Result<uint64_t> PublishEdit(const std::string& name, const EditFn& edit);
  // Wholesale replacement from XML text; returns the new snapshot version.
  Result<uint64_t> PublishXml(const std::string& name,
                              const std::string& xml_text);
  // Compiles `update_text` as an update script (update_parser.h) and
  // applies it through the copy-on-write publish path: targets bind against
  // the current snapshot, with its node-set cache, before it is cloned
  // (FLUX snapshot semantics -- update_eval.h); conflicts and invalid
  // targets reject the publish with nothing cloned and the current snapshot
  // intact; the bound targets map into the clone, and the mutation
  // primitives stamp its name versions, so the new snapshot's migrated
  // node-set cache invalidates only the chains that test a name the
  // statements touched. Shutdown() cancels the bind like any read. Returns
  // the new snapshot version; `stats` (optional) receives the per-script
  // counts on success.
  Result<uint64_t> PublishUpdate(const std::string& name,
                                 const std::string& update_text,
                                 xq::UpdateStats* stats = nullptr);

  SnapshotPtr CurrentSnapshot(const std::string& name) const {
    return store_.Current(name);
  }
  std::vector<std::string> DocumentNames() const { return store_.Names(); }

  // --- Tenants & sessions --------------------------------------------------

  void SetQuota(const std::string& tenant, const TenantQuota& quota);
  TenantQuota QuotaFor(const std::string& tenant) const;
  Session OpenSession(const std::string& tenant) {
    return Session(this, tenant);
  }

  // --- Queries -------------------------------------------------------------

  // Executes on the caller's thread against the document's current snapshot.
  QueryResponse Execute(const std::string& tenant, const std::string& doc_name,
                        const std::string& query_text);

  // Executes against an explicitly pinned snapshot (the Session path).
  QueryResponse ExecuteOnSnapshot(const std::string& tenant,
                                  const SnapshotPtr& snapshot,
                                  const std::string& query_text);

  // Asynchronous execution on the worker pool; `done` runs on the worker.
  // The server must outlive the callback (the destructor drains the pool).
  void Submit(const std::string& tenant, const std::string& doc_name,
              std::string query_text, std::function<void(QueryResponse)> done);

  // EXPLAIN over the wire: the optimized plan with rewrite notes, prefixed
  // with snapshot and compile-cache provenance.
  Result<std::string> Explain(const std::string& doc_name,
                              const std::string& query_text);

  // --- Persistence (warm boot) ---------------------------------------------

  // Writes the server's warm state into `dir` (created if missing): the
  // plan cache's keys as plans.lllp and the CURRENT snapshot of every
  // document as doc-<n>.llld (names are embedded in the artifacts, so no
  // side index). Each artifact is staged as <file>.new and renamed into
  // place only once all are written; then every other *.lllp / *.llld in
  // `dir` is removed, so a reused directory holds exactly this save. A save
  // that fails removes what it staged and leaves the earlier save whole.
  Status SaveState(const std::string& dir) const;

  // Loads a state directory written by SaveState: the recorded keys are
  // compiled into the query cache (later hits EXPLAIN as disk-cache),
  // snapshots become documents -- installed fresh, or published as a new
  // version when the name already exists. Unloadable artifacts are skipped
  // and counted (persist.{plan,snapshot}.{version_mismatch,load_failures});
  // a version mismatch is therefore a clean cold start, never an error.
  // Returns the first genuinely unexpected failure (e.g. an unreadable
  // directory).
  Status LoadState(const std::string& dir);

  // --- Admin ---------------------------------------------------------------

  // JSON snapshot of the server's MetricsRegistry, with the query-cache
  // gauges refreshed first.
  std::string MetricsJson() const;
  MetricsRegistry* metrics() const { return metrics_; }
  uint64_t snapshots_published() const {
    return store_.snapshots_published();
  }
  // Warm node-set cache entries carried across copy-on-write publishes.
  uint64_t cache_entries_migrated() const {
    return store_.cache_entries_migrated();
  }

  // Flips the cancel flag: queued work still runs but every evaluation
  // aborts gracefully at its next budget poll. Idempotent; the destructor
  // calls it.
  void Shutdown() { shutdown_.store(true, std::memory_order_relaxed); }

 private:
  // A tenant's quota, in-flight count and server.tenant.<name>.* handles,
  // resolved when the tenant is first seen.
  struct Tenant {
    Tenant(MetricsRegistry& registry, const std::string& name,
           const TenantQuota& quota);

    TenantQuota quota;
    std::atomic<int64_t> inflight{0};
    Counter& queries;
    Counter& rejected;
    Histogram& query_us;
  };

  // The server.* and persist.plan.* instruments the server bumps, resolved
  // once in the constructor.
  struct Metrics {
    explicit Metrics(MetricsRegistry& registry);

    xq::ExecMetrics exec;
    Counter& queries;
    Counter& queries_ok;
    Counter& queries_rejected;
    Counter& query_errors;
    Counter& compile_errors;
    Counter& query_cache_hits;
    Counter& query_cache_misses;
    Histogram& query_us;
    Counter& snapshots_published;
    // The wait for a document's writer mutex, and the publish work done
    // holding it (SnapshotStore).
    Histogram& publish_wait_us;
    Histogram& publish_work_us;
    Counter& updates;
    Counter& plan_hits;
    Counter& plan_misses;
    Gauge& documents;
    Gauge& nodeset_entries_migrated;
  };

  // The tenant (created on first sight) and its quota, read under one
  // tenants_mu_ acquisition.
  Tenant* TenantAndQuota(const std::string& name, TenantQuota* quota);
  void CountRejection(Tenant* tenant);
  void CountPlanProvenance(xq::CacheProvenance provenance);

  ServerOptions options_;
  MetricsRegistry* metrics_;
  Metrics handles_;
  SnapshotStore store_;
  xq::QueryCache query_cache_;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex tenants_mu_;  // guards the map and quota fields
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  // Last member on purpose: ~ThreadPool drains queued Submit work, and those
  // tasks touch shutdown_, tenants_mu_, and tenants_ -- everything above must
  // still be alive while the pool winds down.
  ThreadPool pool_;
};

// Where a daemon file verb (`load <name> <path>`, `load <dir>`,
// `save <dir>`) may reach: `path` must be relative and stay inside
// `state_dir` once `..` and symlinks are resolved. Returns the resolved
// path; kInvalidArgument for an empty `state_dir` (no file verbs at all), an
// absolute path, or one that leaves the directory. Reads only path metadata.
Result<std::string> ResolveStatePath(const std::string& state_dir,
                                     const std::string& path);

}  // namespace lll::server

#endif  // LLL_SERVER_SERVER_H_
