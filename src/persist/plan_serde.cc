#include "persist/plan_serde.h"

#include <optional>
#include <vector>

#include "persist/format.h"

namespace lll::persist {

namespace {

// Section ids within a plan-cache artifact.
constexpr uint32_t kPlansSection = 1;

// The artifact for `cache`'s keys, least recently used first; `*count` gets
// the number of keys.
ArtifactWriter PlanCacheArtifact(const xq::QueryCache& cache, size_t* count) {
  auto entries = cache.Entries();  // most-recently-used first
  ByteWriter keys;
  keys.U32(static_cast<uint32_t>(entries.size()));
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    keys.Str(it->first);
  }
  *count = entries.size();
  ArtifactWriter artifact(kPlanCacheArtifact);
  artifact.AddSection(kPlansSection, keys.TakeBytes());
  return artifact;
}

Result<size_t> LoadPlanArtifact(const Artifact& artifact,
                                xq::QueryCache* cache) {
  std::optional<std::string_view> plans = artifact.Section(kPlansSection);
  if (!plans.has_value()) {
    return Status::Invalid("plan artifact has no plans section");
  }
  ByteReader r(*plans);
  LLL_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  // Every key takes at least its length word, so a flipped count cannot
  // cause a multi-gigabyte reserve before the truncation is noticed.
  if (count > r.remaining() / sizeof(uint32_t)) {
    return Status::Invalid("plan artifact: key count " +
                           std::to_string(count) +
                           " exceeds the remaining payload");
  }
  std::vector<std::string> keys;
  keys.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LLL_ASSIGN_OR_RETURN(std::string key, r.Str());
    keys.push_back(std::move(key));
  }
  if (!r.done()) {
    return Status::Invalid("plan artifact has trailing bytes after key " +
                           std::to_string(count));
  }
  return cache->LoadKeys(keys);
}

Result<size_t> CountLoadResult(Result<size_t> loaded,
                               const ArtifactLoadInfo& info,
                               MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    if (loaded.ok()) {
      metrics->counter("persist.plan.loads").Increment(*loaded);
    } else if (info.version_mismatch) {
      metrics->counter("persist.plan.version_mismatch").Increment();
    } else {
      metrics->counter("persist.plan.load_failures").Increment();
    }
  }
  return loaded;
}

}  // namespace

std::string SerializePlanCache(const xq::QueryCache& cache) {
  size_t count = 0;
  return PlanCacheArtifact(cache, &count).Finish();
}

Status SavePlanCache(const xq::QueryCache& cache, const std::string& path,
                     MetricsRegistry* metrics) {
  size_t count = 0;
  LLL_RETURN_IF_ERROR(PlanCacheArtifact(cache, &count).WriteFile(path));
  if (metrics != nullptr) {
    metrics->counter("persist.plan.stores").Increment(count);
  }
  return Status::Ok();
}

Result<size_t> LoadPlanCache(const std::string& path, xq::QueryCache* cache,
                             MetricsRegistry* metrics) {
  ArtifactLoadInfo info;
  auto artifact = Artifact::FromFile(path, kPlanCacheArtifact, &info);
  if (!artifact.ok()) {
    return CountLoadResult(artifact.status(), info, metrics);
  }
  return CountLoadResult(LoadPlanArtifact(*artifact, cache), info, metrics);
}

Result<size_t> LoadPlanCacheFromBytes(std::string bytes, xq::QueryCache* cache,
                                      MetricsRegistry* metrics) {
  ArtifactLoadInfo info;
  auto artifact =
      Artifact::FromBytes(std::move(bytes), kPlanCacheArtifact, &info);
  if (!artifact.ok()) {
    return CountLoadResult(artifact.status(), info, metrics);
  }
  return CountLoadResult(LoadPlanArtifact(*artifact, cache), info, metrics);
}

}  // namespace lll::persist
