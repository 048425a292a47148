#ifndef LLL_PERSIST_PLAN_SERDE_H_
#define LLL_PERSIST_PLAN_SERDE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/result.h"
#include "persist/format.h"
#include "xquery/query_cache.h"

namespace lll::persist {

// Serialized compiled plans: the optimized AST (limit hints and line/col
// included) plus the OptimizerStats and rewrite notes, written as a
// plan-cache artifact (*.lllp) holding one entry per QueryCache slot, keyed
// by the exact QueryCache::MakeKey string (option bits + '|' + source).
// Derived facts -- probe marks and the per-step bits and fingerprint text
// ResolveSteps computes -- are never stored; the decoder derives them again.
// A loaded plan is indistinguishable from a fresh compile to the evaluator
// and to EXPLAIN (except for its `disk-cache` provenance tag); the 495-query
// differential suite in tests/persist_test.cc is the oracle for that claim.

// Expression-level serde, exposed for tests; normal callers use the
// plan-cache functions below. Decode validates every enum and count against
// the remaining input and rejects absent subexpressions, so a crafted
// payload fails with kInvalidArgument instead of building an out-of-range
// or incomplete AST.
void EncodeCompiledQuery(const xq::CompiledQuery& query, ByteWriter* w);
Result<xq::CompiledQuery> DecodeCompiledQuery(ByteReader* r);

// The full plan-cache artifact image for a cache's current entries
// (least-recently-used first, so loading replays recency).
std::string SerializePlanCache(const xq::QueryCache& cache);

// Writes `cache`'s entries to `path` (atomically). Bumps
// persist.plan.stores by the entry count when `metrics` is given.
Status SavePlanCache(const xq::QueryCache& cache, const std::string& path,
                     MetricsRegistry* metrics = nullptr);

// Loads a plan-cache artifact into `cache` (PutDeserialized per entry, plans
// tagged PlanOrigin::kDiskCache) and returns the number of plans loaded.
// Metrics when given: persist.plan.loads += count on success;
// persist.plan.version_mismatch on a format-version reject;
// persist.plan.load_failures on any other reject. Failures load NOTHING --
// a partially valid artifact never half-warms the cache.
Result<size_t> LoadPlanCache(const std::string& path, xq::QueryCache* cache,
                             MetricsRegistry* metrics = nullptr);
Result<size_t> LoadPlanCacheFromBytes(std::string bytes,
                                      xq::QueryCache* cache,
                                      MetricsRegistry* metrics = nullptr);

}  // namespace lll::persist

#endif  // LLL_PERSIST_PLAN_SERDE_H_
