#ifndef LLL_XML_NAME_TABLE_H_
#define LLL_XML_NAME_TABLE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lll::xml {

// Process-wide QName interning: every element/attribute/PI name used by any
// Document is stored exactly once and addressed by a dense uint32 id. Ids are
// stable for the process lifetime and shared across documents, which is what
// lets CloneDocument copy name ids verbatim (no per-document remapping) and
// makes name equality an integer compare.
//
// Id 0 is always the empty string (document/text/comment nodes).
//
// Concurrency: Intern() serializes writers behind a mutex; Get() is lock-free
// and safe concurrently with interning, because names live in fixed-address
// chunks published with release/acquire ordering and a constructed entry is
// never moved or destroyed. The table grows monotonically and is never
// reclaimed -- QName vocabularies are tiny (schemas, not payloads), so the
// cost is a few KB per distinct tag set, paid once per process.
class NameTable {
 public:
  // Returns the id for `name`, interning it on first sight.
  static uint32_t Intern(std::string_view name);

  // The id of `name` if it has been interned, else nullopt. Never interns:
  // query text is untrusted, and the table is never reclaimed.
  static std::optional<uint32_t> Find(std::string_view name);

  // The interned string for `id`. The reference is stable for the process
  // lifetime. `id` must have been returned by Intern().
  static const std::string& Get(uint32_t id);

  // Number of distinct names interned so far (>= 1: the empty string).
  static uint64_t interned_count();

  // Total heap bytes held by interned names (diagnostic, approximate).
  static uint64_t interned_bytes();

 private:
  NameTable() = delete;
};

}  // namespace lll::xml

#endif  // LLL_XML_NAME_TABLE_H_
