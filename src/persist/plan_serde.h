#ifndef LLL_PERSIST_PLAN_SERDE_H_
#define LLL_PERSIST_PLAN_SERDE_H_

#include <string>

#include "core/metrics.h"
#include "core/result.h"
#include "xquery/query_cache.h"

namespace lll::persist {

// A plan-cache artifact (*.lllp) records a QueryCache's working set as its
// keys alone -- each QueryCache::MakeKey string (option bits, '|', query
// text), least recently used first -- and loading compiles every key again
// (QueryCache::LoadKeys). A loaded plan is therefore a fresh compile by
// construction, untrusted artifact bytes reach only the query parser, and
// no AST change ever touches the file format.

// The full plan-cache artifact image for a cache's current keys (least
// recently used first, so loading replays recency).
std::string SerializePlanCache(const xq::QueryCache& cache);

// Writes SerializePlanCache's image of `cache` to `path` (atomically). Bumps
// persist.plan.stores by the key count when `metrics` is given.
Status SavePlanCache(const xq::QueryCache& cache, const std::string& path,
                     MetricsRegistry* metrics = nullptr);

// Loads a plan-cache artifact into `cache` (QueryCache::LoadKeys: every key
// compiled, plans tagged PlanOrigin::kDiskCache) and returns the number of
// plans loaded. Metrics when given: persist.plan.loads += count on success;
// persist.plan.version_mismatch on a format-version reject;
// persist.plan.load_failures on any other reject, a key that does not
// compile included. Failures load NOTHING -- a partially valid artifact
// never half-warms the cache.
Result<size_t> LoadPlanCache(const std::string& path, xq::QueryCache* cache,
                             MetricsRegistry* metrics = nullptr);
Result<size_t> LoadPlanCacheFromBytes(std::string bytes,
                                      xq::QueryCache* cache,
                                      MetricsRegistry* metrics = nullptr);

}  // namespace lll::persist

#endif  // LLL_PERSIST_PLAN_SERDE_H_
