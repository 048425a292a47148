#include "xml/name_table.h"

#include <mutex>
#include <unordered_map>

namespace lll::xml {

namespace {

// Names are stored in fixed-size chunks of std::string slots. A chunk is
// allocated under the intern mutex, fully default-constructed, and then
// published with a release store; readers load the chunk pointer with
// acquire, so Get() never takes the lock and never observes a
// half-constructed slot (an id only escapes Intern() after its slot is
// written, and the happens-before edge travels with the id).
constexpr uint32_t kChunkBits = 12;
constexpr uint32_t kChunkSize = 1u << kChunkBits;  // 4096 names per chunk
constexpr uint32_t kMaxChunks = 1u << 14;          // 64M names, plenty

struct Chunk {
  std::string names[kChunkSize];
};

struct Table {
  std::mutex mutex;
  // Keys view into the stored strings (stable addresses), so the map carries
  // no second copy of each name.
  std::unordered_map<std::string_view, uint32_t> ids;
  std::atomic<Chunk*> chunks[kMaxChunks] = {};
  std::atomic<uint32_t> count{0};
  std::atomic<uint64_t> bytes{0};

  Table() {
    chunks[0].store(new Chunk, std::memory_order_release);
    // Slot 0 is pre-constructed empty; register it so Intern("") returns 0.
    ids.emplace(std::string_view(chunks[0].load()->names[0]), 0);
    count.store(1, std::memory_order_release);
  }
};

Table& GlobalTable() {
  // Leaked singleton: interned names must outlive every Document, including
  // ones destroyed during static teardown.
  static Table* table = new Table;
  return *table;
}

}  // namespace

uint32_t NameTable::Intern(std::string_view name) {
  if (name.empty()) return 0;
  Table& t = GlobalTable();
  std::lock_guard<std::mutex> lock(t.mutex);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  uint32_t id = t.count.load(std::memory_order_relaxed);
  uint32_t chunk_index = id >> kChunkBits;
  Chunk* chunk = t.chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk;
    t.chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  std::string& slot = chunk->names[id & (kChunkSize - 1)];
  slot.assign(name);
  t.ids.emplace(std::string_view(slot), id);
  t.bytes.fetch_add(name.size(), std::memory_order_relaxed);
  // The slot write above must be visible before any reader can hold `id`.
  t.count.store(id + 1, std::memory_order_release);
  return id;
}

std::optional<uint32_t> NameTable::Find(std::string_view name) {
  Table& t = GlobalTable();
  std::lock_guard<std::mutex> lock(t.mutex);
  auto it = t.ids.find(name);
  if (it == t.ids.end()) return std::nullopt;
  return it->second;
}

const std::string& NameTable::Get(uint32_t id) {
  Table& t = GlobalTable();
  Chunk* chunk = t.chunks[id >> kChunkBits].load(std::memory_order_acquire);
  return chunk->names[id & (kChunkSize - 1)];
}

uint64_t NameTable::interned_count() {
  return GlobalTable().count.load(std::memory_order_acquire);
}

uint64_t NameTable::interned_bytes() {
  return GlobalTable().bytes.load(std::memory_order_relaxed);
}

}  // namespace lll::xml
