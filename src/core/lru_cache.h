#ifndef LLL_CORE_LRU_CACHE_H_
#define LLL_CORE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lll {

// Counters for one cache. Invariant: hits + misses == lookups; evictions
// counts entries displaced by capacity pressure (Clear() is not an eviction).
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// A thread-safe string-keyed LRU cache of shared immutable values.
//
// Values are handed out as shared_ptr<const V>: a caller's handle stays valid
// after the entry is evicted, so readers never synchronize with eviction.
// This is the concurrency contract the whole caching layer is built on --
// the cache serializes only its own bookkeeping (one mutex around the map and
// the recency list); the cached values themselves are immutable and safe to
// use from any number of threads at once.
//
// capacity == 0 means "passthrough": nothing is ever stored, every Get is a
// miss. Useful for A/B-ing cache-off behavior without a second code path.
template <typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns the cached value and refreshes its recency, or nullptr on miss.
  std::shared_ptr<const V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    recency_.splice(recency_.begin(), recency_, it->second.pos);
    return it->second.value;
  }

  // Inserts (or overwrites) an entry, evicting least-recently-used entries
  // until the cache fits its capacity. With capacity 0, does nothing.
  void Put(const std::string& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      recency_.splice(recency_.begin(), recency_, it->second.pos);
      return;
    }
    recency_.push_front(key);
    map_.emplace(key, Entry{std::move(value), recency_.begin()});
    while (map_.size() > capacity_) {
      map_.erase(recency_.back());
      recency_.pop_back();
      ++stats_.evictions;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    recency_.clear();
  }

  size_t capacity() const { return capacity_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  // Keys from most- to least-recently used (test hook for eviction order).
  std::list<std::string> KeysByRecency() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recency_;
  }

  // A consistent point-in-time copy of every entry, most- to least-recently
  // used. Handles are the usual shared immutable values, so the snapshot
  // stays valid however the cache moves on. This is the enumeration the
  // persistence layer serializes (reinserting in reverse preserves recency).
  std::vector<std::pair<std::string, std::shared_ptr<const V>>> Snapshot()
      const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::shared_ptr<const V>>> out;
    out.reserve(map_.size());
    for (const std::string& key : recency_) {
      out.emplace_back(key, map_.at(key).value);
    }
    return out;
  }

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    std::list<std::string>::iterator pos;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::string> recency_;  // front = most recently used
  std::unordered_map<std::string, Entry> map_;
  CacheStats stats_;
};

}  // namespace lll

#endif  // LLL_CORE_LRU_CACHE_H_
