#ifndef LLL_PERSIST_FORMAT_H_
#define LLL_PERSIST_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

namespace lll::persist {

// The shared on-disk container for every persisted artifact (compiled plans,
// document snapshots):
//
//   offset  size  field
//        0     4  magic "LLLA"
//        4     4  format version (u32 LE)
//        8     4  artifact kind (u32 LE)
//       12     4  section count (u32 LE)
//       16     8  striped FNV-1a 64 checksum of all post-header bytes (u64 LE)
//       24   20*N section table: {id u32, offset u64, size u64} per section
//      ...        section payloads (offsets are absolute file offsets)
//
// The contract (DESIGN.md section 13): a reader that sees the wrong magic,
// a different format version, a checksum mismatch, an out-of-bounds section,
// or a truncated file returns kInvalidArgument and the caller falls back to
// recompiling/reparsing -- never UB, never a partially loaded artifact. The
// format version covers the ENTIRE artifact family and moves only when the
// encoding of a section payload changes (the container, the plan-key list,
// the document storage image); old files are then rejected cleanly. A
// change to the XQuery AST or to the compiler's passes does not move it:
// plan artifacts hold query text, which every build compiles afresh.
inline constexpr char kMagic[4] = {'L', 'L', 'L', 'A'};
inline constexpr uint32_t kFormatVersion = 5;

// Artifact kinds (the second-level tag under the shared container).
inline constexpr uint32_t kPlanCacheArtifact = 1;  // *.lllp
inline constexpr uint32_t kDocSnapshotArtifact = 2;  // *.llld

// All multi-byte integers in artifact files are little-endian. The engine
// only targets little-endian hosts (x86-64/AArch64), so encode/decode are
// plain memcpy; this static contract is what makes the raw-array sections of
// document snapshots loadable without a per-element pass.
//
// Eight-lane striped FNV-1a (see format.cc): any single corrupted byte is
// guaranteed to change the result, and the lanes pipeline where the classic
// serial chain is latency-bound.
uint64_t Fnv1a64(std::string_view data);

// Append-only encoder for section payloads.
class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  // Length-prefixed string: u32 length + bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

// Bounds-checked cursor over a section payload. Every read that would run
// past the end returns kInvalidArgument; no read ever touches bytes outside
// the view. This is the only way persisted bytes become values, which is
// what makes the corrupt-artifact battery a complete proof.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<std::string> Str() {
    LLL_ASSIGN_OR_RETURN(uint32_t len, U32());
    LLL_ASSIGN_OR_RETURN(std::string_view b, Raw(len));
    return std::string(b);
  }
  Result<std::string_view> Raw(size_t n) {
    if (n > remaining()) {
      return Status::Invalid("artifact truncated: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(remaining()));
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> Fixed() {
    LLL_ASSIGN_OR_RETURN(std::string_view b, Raw(sizeof(T)));
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// Assembles an artifact file from sections.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(uint32_t kind) : kind_(kind) {}

  void AddSection(uint32_t id, std::string payload) {
    sections_.emplace_back(id, std::move(payload));
  }

  // The complete artifact file image (header + table + payloads + checksum).
  std::string Finish() const;

  // Writes Finish() to `path` atomically (temp file + rename), so a crashed
  // or concurrent writer can never leave a half-written artifact behind.
  Status WriteFile(const std::string& path) const;

 private:
  uint32_t kind_;
  std::vector<std::pair<uint32_t, std::string>> sections_;
};

// Extra diagnosis for a failed load: version_mismatch distinguishes "this is
// a valid artifact from another format generation" (recompile, count it in
// persist.*.version_mismatch) from plain corruption.
struct ArtifactLoadInfo {
  bool version_mismatch = false;
};

// A parsed, checksum-verified artifact. Owns its bytes in one heap buffer;
// Section() views alias it and die with the Artifact. Every loader copies
// the sections it needs out at once, so a file is simply read whole.
class Artifact {
 public:
  // Reads the whole file, then validates the frame (magic, version, kind,
  // checksum, section bounds). All failures are kInvalidArgument.
  static Result<Artifact> FromFile(const std::string& path,
                                   uint32_t expected_kind,
                                   ArtifactLoadInfo* info = nullptr);

  // Same validation over an in-memory image (tests, benchmarks).
  static Result<Artifact> FromBytes(std::string bytes, uint32_t expected_kind,
                                    ArtifactLoadInfo* info = nullptr);

  uint32_t kind() const { return kind_; }

  // The payload of section `id`, or nullopt if absent.
  std::optional<std::string_view> Section(uint32_t id) const {
    for (const SectionEntry& s : sections_) {
      if (s.id == id) return std::string_view(owned_).substr(s.offset, s.size);
    }
    return std::nullopt;
  }

 private:
  struct SectionEntry {
    uint32_t id;
    uint64_t offset;
    uint64_t size;
  };

  Status ParseFrame(uint32_t expected_kind, ArtifactLoadInfo* info);

  std::string owned_;
  uint32_t kind_ = 0;
  std::vector<SectionEntry> sections_;
};

// Decodes a raw little-endian u32 array section into a vector; fails unless
// the section size is exactly 4*count-compatible.
Result<std::vector<uint32_t>> DecodeU32Array(std::string_view section);

// Encodes a u32 array as a raw little-endian section payload.
std::string EncodeU32Array(const std::vector<uint32_t>& values);

}  // namespace lll::persist

#endif  // LLL_PERSIST_FORMAT_H_
