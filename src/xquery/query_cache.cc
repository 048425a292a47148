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

namespace {

// MakeKey's inverse: compiles a key's source with the options it encodes.
Result<CompiledQuery> CompileKey(std::string_view key) {
  const size_t bar = key.find('|');
  if (bar == std::string_view::npos) {
    return Status::Invalid("no '|' after the option bits");
  }
  const std::string_view bits = key.substr(0, bar);
  if (bits.size() != 2 || bits.find_first_not_of("01") != std::string::npos) {
    return Status::Invalid("option bits '" + std::string(bits) +
                           "' are not two of '0'/'1'");
  }
  CompileOptions options;
  options.optimize = bits[0] == '1';
  options.optimizer.recognize_trace = bits[1] == '1';
  return Compile(key.substr(bar + 1), options);
}

}  // namespace

Result<size_t> QueryCache::LoadKeys(const std::vector<std::string>& keys) {
  // Compile everything before touching the cache: a bad key late in the
  // list must not leave the first part of it warmed.
  std::vector<std::shared_ptr<const CompiledQuery>> plans;
  plans.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<CompiledQuery> compiled = CompileKey(keys[i]);
    if (!compiled.ok()) {
      return Status::Invalid("plan key " + std::to_string(i) + ": " +
                             compiled.status().ToString());
    }
    compiled->set_origin(PlanOrigin::kDiskCache);
    plans.push_back(
        std::make_shared<const CompiledQuery>(std::move(compiled).value()));
  }
  for (size_t i = 0; i < keys.size(); ++i) cache_.Put(keys[i], plans[i]);
  warmed_.store(true, std::memory_order_relaxed);
  return keys.size();
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
