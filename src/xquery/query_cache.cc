#include "xquery/query_cache.h"

namespace lll::xq {

const char* CacheProvenanceName(CacheProvenance provenance) {
  switch (provenance) {
    case CacheProvenance::kCompiled: return "compiled";
    case CacheProvenance::kMemoryCache: return "memory-cache";
    case CacheProvenance::kDiskCache: return "disk-cache";
  }
  return "compiled";
}

std::string QueryCache::MakeKey(std::string_view source,
                                const CompileOptions& options) {
  // Every switch that changes the compiled form is part of the key; two
  // option sets that differ in any bit must never share an entry.
  std::string key;
  key.reserve(source.size() + 3);
  key.push_back(options.optimize ? '1' : '0');
  key.push_back(options.optimizer.recognize_trace ? '1' : '0');
  key.push_back('|');
  key.append(source);
  return key;
}

Result<std::shared_ptr<const CompiledQuery>> QueryCache::GetOrCompile(
    std::string_view source, const CompileOptions& options, bool* cache_hit,
    CacheProvenance* provenance) {
  std::string key = MakeKey(source, options);
  if (std::shared_ptr<const CompiledQuery> hit = cache_.Get(key)) {
    if (cache_hit != nullptr) *cache_hit = true;
    if (provenance != nullptr) {
      *provenance = hit->origin() == PlanOrigin::kDiskCache
                        ? CacheProvenance::kDiskCache
                        : CacheProvenance::kMemoryCache;
    }
    return hit;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  if (provenance != nullptr) *provenance = CacheProvenance::kCompiled;
  // Compile outside the cache lock: concurrent misses of distinct queries
  // compile in parallel instead of serializing behind one another.
  LLL_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(source, options));
  auto handle = std::make_shared<const CompiledQuery>(std::move(compiled));
  cache_.Put(key, handle);
  return handle;
}

void QueryCache::ExportTo(MetricsRegistry* metrics,
                          const std::string& prefix) const {
  CacheStats s = stats();
  metrics->gauge(prefix + ".lookups").Set(static_cast<int64_t>(s.lookups));
  metrics->gauge(prefix + ".hits").Set(static_cast<int64_t>(s.hits));
  metrics->gauge(prefix + ".misses").Set(static_cast<int64_t>(s.misses));
  metrics->gauge(prefix + ".evictions").Set(static_cast<int64_t>(s.evictions));
  metrics->gauge(prefix + ".size").Set(static_cast<int64_t>(size()));
}

}  // namespace lll::xq
