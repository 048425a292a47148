#include "persist/format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>

static_assert(std::endian::native == std::endian::little,
              "artifact files are little-endian; big-endian hosts need a "
              "byte-swapping reader");

namespace lll::persist {

namespace {

constexpr size_t kHeaderSize = 24;       // magic + version + kind + count + sum
constexpr size_t kSectionEntrySize = 20; // id u32 + offset u64 + size u64
constexpr uint32_t kMaxSections = 1024;  // sanity bound; real artifacts use ~10

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  // Eight interleaved FNV-1a lanes (byte i feeds lane i%8), folded with one
  // more FNV pass at the end. Classic FNV is a serial xor-multiply chain, so
  // hashing is capped at one multiply LATENCY per byte; striping keeps eight
  // independent chains in flight and the loads checksum at several bytes per
  // cycle. The single-corruption guarantee the tests pin survives: a flipped
  // byte lands in exactly one lane, every later step of that lane is
  // bijective in the running state (xor with a byte, multiply by an odd
  // constant), and so is the final fold in each lane value -- a one-byte
  // change can never cancel out.
  constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t lane[8] = {kOffset ^ 0, kOffset ^ 1, kOffset ^ 2, kOffset ^ 3,
                      kOffset ^ 4, kOffset ^ 5, kOffset ^ 6, kOffset ^ 7};
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  const size_t n = data.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      lane[j] = (lane[j] ^ p[i + j]) * kPrime;
    }
  }
  for (size_t j = 0; i < n; ++i, ++j) {
    lane[j] = (lane[j] ^ p[i]) * kPrime;
  }
  uint64_t h = kOffset;
  for (uint64_t l : lane) {
    h = (h ^ (l & 0xff)) * kPrime;
    h = (h ^ ((l >> 8) & 0xff)) * kPrime;
    h = (h ^ ((l >> 16) & 0xff)) * kPrime;
    h = (h ^ ((l >> 24) & 0xff)) * kPrime;
    h = (h ^ (l >> 32)) * kPrime;
  }
  return h;
}

std::string ArtifactWriter::Finish() const {
  ByteWriter body;  // section table + payloads (the checksummed region)
  uint64_t offset = kHeaderSize + kSectionEntrySize * sections_.size();
  for (const auto& [id, payload] : sections_) {
    body.U32(id);
    body.U64(offset);
    body.U64(payload.size());
    offset += payload.size();
  }
  for (const auto& [id, payload] : sections_) {
    body.Raw(payload.data(), payload.size());
  }

  ByteWriter out;
  out.Raw(kMagic, sizeof(kMagic));
  out.U32(kFormatVersion);
  out.U32(kind_);
  out.U32(static_cast<uint32_t>(sections_.size()));
  out.U64(Fnv1a64(body.bytes()));
  out.Raw(body.bytes().data(), body.bytes().size());
  return out.TakeBytes();
}

Status ArtifactWriter::WriteFile(const std::string& path) const {
  const std::string bytes = Finish();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::Invalid("cannot open '" + tmp + "' for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f) return Status::Invalid("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Invalid("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

Status Artifact::ParseFrame(uint32_t expected_kind, ArtifactLoadInfo* info) {
  const std::string_view bytes = owned_;
  if (bytes.size() < kHeaderSize) {
    return Status::Invalid("artifact too short for a header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader header(bytes);
  LLL_ASSIGN_OR_RETURN(std::string_view magic, header.Raw(4));
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    return Status::Invalid("bad artifact magic (not an LLL artifact)");
  }
  LLL_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kFormatVersion) {
    if (info != nullptr) info->version_mismatch = true;
    return Status::Invalid("artifact format version " +
                           std::to_string(version) + " != supported " +
                           std::to_string(kFormatVersion) + "; recompile");
  }
  LLL_ASSIGN_OR_RETURN(kind_, header.U32());
  if (kind_ != expected_kind) {
    return Status::Invalid("artifact kind " + std::to_string(kind_) +
                           " != expected " + std::to_string(expected_kind));
  }
  LLL_ASSIGN_OR_RETURN(uint32_t section_count, header.U32());
  if (section_count > kMaxSections) {
    return Status::Invalid("implausible section count " +
                           std::to_string(section_count));
  }
  LLL_ASSIGN_OR_RETURN(uint64_t checksum, header.U64());
  if (Fnv1a64(bytes.substr(kHeaderSize)) != checksum) {
    return Status::Invalid("artifact checksum mismatch (corrupt or torn)");
  }
  const uint64_t table_end =
      kHeaderSize + static_cast<uint64_t>(kSectionEntrySize) * section_count;
  if (table_end > bytes.size()) {
    return Status::Invalid("artifact truncated inside the section table");
  }
  sections_.clear();
  sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry e;
    LLL_ASSIGN_OR_RETURN(e.id, header.U32());
    LLL_ASSIGN_OR_RETURN(e.offset, header.U64());
    LLL_ASSIGN_OR_RETURN(e.size, header.U64());
    if (e.offset < table_end || e.offset > bytes.size() ||
        e.size > bytes.size() - e.offset) {
      return Status::Invalid("artifact section " + std::to_string(e.id) +
                             " out of bounds");
    }
    sections_.push_back(e);
  }
  return Status::Ok();
}

Result<Artifact> Artifact::FromBytes(std::string bytes, uint32_t expected_kind,
                                     ArtifactLoadInfo* info) {
  Artifact a;
  a.owned_ = std::move(bytes);
  LLL_RETURN_IF_ERROR(a.ParseFrame(expected_kind, info));
  return a;
}

Result<Artifact> Artifact::FromFile(const std::string& path,
                                    uint32_t expected_kind,
                                    ArtifactLoadInfo* info) {
  Artifact a;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Invalid("cannot open artifact '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Invalid("cannot stat artifact '" + path + "'");
  }
  // Empty and short files read fine here and fail framing below.
  const size_t size = static_cast<size_t>(st.st_size);
  a.owned_.resize(size);
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, a.owned_.data() + got, size - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != size) {
    return Status::Invalid("short read of artifact '" + path + "'");
  }
  Status st_frame = a.ParseFrame(expected_kind, info);
  if (!st_frame.ok()) return st_frame.AddContext("while loading '" + path + "'");
  return a;
}

Result<std::vector<uint32_t>> DecodeU32Array(std::string_view section) {
  if (section.size() % sizeof(uint32_t) != 0) {
    return Status::Invalid("u32-array section size " +
                           std::to_string(section.size()) +
                           " is not a multiple of 4");
  }
  std::vector<uint32_t> out(section.size() / sizeof(uint32_t));
  if (!out.empty()) {
    std::memcpy(out.data(), section.data(), section.size());
  }
  return out;
}

std::string EncodeU32Array(const std::vector<uint32_t>& values) {
  std::string out(values.size() * sizeof(uint32_t), '\0');
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), out.size());
  }
  return out;
}

}  // namespace lll::persist
