#ifndef LLL_XQUERY_QUERY_CACHE_H_
#define LLL_XQUERY_QUERY_CACHE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/lru_cache.h"
#include "core/result.h"
#include "xquery/engine.h"

namespace lll::xq {

// Where a GetOrCompile answer came from, for EXPLAIN and persist.* metrics:
// freshly compiled, hit on a plan compiled earlier in this process on
// demand, or hit on a plan compiled during a warm boot from the working set
// a persisted artifact recorded (LoadKeys).
enum class CacheProvenance { kCompiled, kMemoryCache, kDiskCache };

// Canonical EXPLAIN spelling: "compiled" / "memory-cache" / "disk-cache".
const char* CacheProvenanceName(CacheProvenance provenance);

// A thread-safe LRU cache of compiled queries, keyed on (query text,
// CompileOptions). This is the "compile once, execute many" piece of the
// paper's workload made explicit: AWB's docgen re-runs the same query
// programs over every node of the model, and without a cache every run pays
// the parse + optimize cost again.
//
// Entries are shared immutable handles: a CompiledQuery obtained here may be
// Execute()d concurrently from any number of threads (see the concurrency
// notes in engine.h), and a handle stays valid after its entry is evicted.
//
// Compile errors are NOT cached; each failing lookup recompiles and returns
// the fresh error (failing queries are rare and cheap to keep out of the
// bookkeeping).
//
// capacity 0 is a passthrough cache: every lookup compiles, nothing is
// stored -- the "cache off" arm of differential tests and benchmarks.
class QueryCache {
 public:
  explicit QueryCache(size_t capacity = 128) : cache_(capacity) {}

  // Returns the cached compilation of (source, options), compiling and
  // inserting on miss. On a racing miss of the same key, both threads
  // compile and the later Put wins; both handles are equivalent and valid.
  // `cache_hit` (optional) reports the provenance of the returned handle,
  // for EXPLAIN output; `provenance` (optional) refines it to the tri-state
  // compiled / memory-cache / disk-cache distinction.
  Result<std::shared_ptr<const CompiledQuery>> GetOrCompile(
      std::string_view source, const CompileOptions& options = {},
      bool* cache_hit = nullptr, CacheProvenance* provenance = nullptr);

  // Every entry, most- to least-recently used, as shared immutable handles
  // -- the enumeration whose keys the persistence layer writes to a
  // plan-cache artifact (persist::SavePlanCache).
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledQuery>>>
  Entries() const {
    return cache_.Snapshot();
  }

  // Warm boot from keys MakeKey produced, least recently used first: reads
  // each key's options back, compiles every source with them, and only then
  // inserts the plans in order, stamped PlanOrigin::kDiskCache, and marks
  // the cache warmed. Returns the number of keys. All or nothing: a key with
  // an option bit other than '0'/'1', no '|', or a source that fails to
  // compile fails the whole list with kInvalidArgument and inserts nothing.
  Result<size_t> LoadKeys(const std::vector<std::string>& keys);

  // True once any persisted plan has been loaded into this cache. Callers
  // use it to give persist.plan.misses its meaning: a compile in a warmed
  // cache is a query the artifact did not cover.
  bool warmed() const { return warmed_.load(std::memory_order_relaxed); }

  CacheStats stats() const { return cache_.stats(); }

  // Publishes this cache's hit/miss/eviction counters as gauges named
  // "<prefix>.lookups" etc. (gauges, not counters: the LruCache already
  // accumulates totals, so each export overwrites the last snapshot instead
  // of double-counting).
  void ExportTo(MetricsRegistry* metrics, const std::string& prefix) const;
  size_t capacity() const { return cache_.capacity(); }
  size_t size() const { return cache_.size(); }
  void Clear() { cache_.Clear(); }

  // The exact key used internally: the option bits, '|', then the source.
  // Plan-cache artifacts store it, and LoadKeys inverts it.
  static std::string MakeKey(std::string_view source,
                             const CompileOptions& options);

 private:
  LruCache<CompiledQuery> cache_;
  std::atomic<bool> warmed_{false};
};

}  // namespace lll::xq

#endif  // LLL_XQUERY_QUERY_CACHE_H_
