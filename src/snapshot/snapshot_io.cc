#include "src/snapshot/snapshot_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define THREESIGMA_CRC32_FOLD 1
#endif

#include "src/common/check.h"
#include "src/snapshot/crc32_internal.h"

namespace threesigma {
namespace {

constexpr char kMagic[8] = {'3', 'S', 'G', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kCrcSize = 4;
constexpr size_t kMaxVarintBytes = 10;  // ceil(64 / 7).

// Fixed-width fields are the host's own bytes: one memcpy each way.
static_assert(std::endian::native == std::endian::little,
              "the snapshot codec stores fixed-width fields as host bytes");

// Appends `v` in one append call.
template <typename T>
void AppendFixed(std::string* buffer, T v) {
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  buffer->append(raw, sizeof(T));
}

template <typename T>
T LoadFixed(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// table[0] is the byte-at-a-time table, and table[k][i] is the CRC of byte i
// followed by k zero bytes, so eight table lookups fold eight input bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
  }
  return table;
}

// Advances the CRC register `c` (pre- and post-inversion are the caller's)
// over `size` bytes with the tables.
uint32_t CrcTableUpdate(uint32_t c, const char* bytes, size_t size) {
  static const CrcTables table = BuildCrcTables();
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint32_t lo = c ^ LoadFixed<uint32_t>(bytes + i);
    const uint32_t hi = LoadFixed<uint32_t>(bytes + i + 4);
    c = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^ table[5][(lo >> 16) & 0xFF] ^
        table[4][lo >> 24] ^ table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
        table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; i < size; ++i) {
    c = table[0][(c ^ static_cast<uint8_t>(bytes[i])) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef THREESIGMA_CRC32_FOLD
// Carry-less multiply folding, after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). Four
// 128-bit accumulators each absorb every fourth 16-byte lane; a fold
// multiplies an accumulator's halves by x^(d+32) and x^(d-32) mod P, with d
// the distance in bits to the lane it is xored into, which moves its
// remainder forward without changing it mod P. The constants are those
// powers for the reflected polynomial, bit-reflected and shifted left one.
#define THREESIGMA_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

THREESIGMA_CRC32_FOLD_TARGET inline __m128i FoldLane(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00), _mm_clmulepi64_si128(acc, k, 0x11)),
      next);
}

THREESIGMA_CRC32_FOLD_TARGET inline __m128i LoadLane(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the CRC register `c` over `size` bytes, a multiple of 16 that is
// at least 64.
THREESIGMA_CRC32_FOLD_TARGET uint32_t CrcFoldUpdate(uint32_t c, const char* p, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // Across 512 bits.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // Across 128 bits.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // 64 bits to 32.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i a0 = _mm_xor_si128(LoadLane(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i a1 = LoadLane(p + 16);
  __m128i a2 = LoadLane(p + 32);
  __m128i a3 = LoadLane(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    a0 = FoldLane(a0, k1k2, LoadLane(p));
    a1 = FoldLane(a1, k1k2, LoadLane(p + 16));
    a2 = FoldLane(a2, k1k2, LoadLane(p + 32));
    a3 = FoldLane(a3, k1k2, LoadLane(p + 48));
  }
  __m128i x = FoldLane(FoldLane(FoldLane(a0, k3k4, a1), k3k4, a2), k3k4, a3);
  for (; size >= 16; p += 16, size -= 16) {
    x = FoldLane(x, k3k4, LoadLane(p));
  }

  // 128 bits to 64: fold the low half onto the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  // 64 bits to 32.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction mod P; poly_mu holds P low and mu high.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasFold() {
  static const bool has = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has;
}
#endif

// Walks the section headers of a verified buffer. Returns false on a
// structural violation.
bool WalkSections(const std::string& buffer, std::vector<SnapshotSection>* out,
                  std::string* error) {
  const size_t end = buffer.size() - kCrcSize;
  size_t pos = kMagicSize;
  while (pos < end) {
    if (pos + 1 > end) {
      *error = "truncated section header";
      return false;
    }
    const size_t name_len = static_cast<uint8_t>(buffer[pos]);
    ++pos;
    if (name_len == 0 || pos + name_len + 4 + 8 > end) {
      *error = "truncated section header";
      return false;
    }
    SnapshotSection section;
    section.name.assign(buffer, pos, name_len);
    pos += name_len;
    section.version = LoadFixed<uint32_t>(buffer.data() + pos);
    pos += 4;
    section.payload_size = LoadFixed<uint64_t>(buffer.data() + pos);
    pos += 8;
    if (section.payload_size > end - pos) {
      *error = "section '" + section.name + "' payload overruns buffer";
      return false;
    }
    section.payload_offset = pos;
    section.hash = HashBytes(buffer.data() + pos, section.payload_size);
    pos += section.payload_size;
    if (out != nullptr) {
      out->push_back(std::move(section));
    }
  }
  return true;
}

// Magic + CRC validation shared by the reader and the enumerators.
bool VerifyEnvelope(std::string_view buffer, std::string* error) {
  if (buffer.size() < kMagicSize + kCrcSize) {
    *error = "snapshot truncated: shorter than header + CRC";
    return false;
  }
  if (std::memcmp(buffer.data(), kMagic, kMagicSize) != 0) {
    *error = "bad snapshot magic";
    return false;
  }
  const size_t body = buffer.size() - kCrcSize;
  const uint32_t stored = LoadFixed<uint32_t>(buffer.data() + body);
  const uint32_t actual = Crc32(buffer.data(), body);
  if (stored != actual) {
    char msg[96];
    std::snprintf(msg, sizeof(msg), "snapshot CRC mismatch: stored %08x, computed %08x", stored,
                  actual);
    *error = msg;
    return false;
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef THREESIGMA_CRC32_FOLD
  if (size >= 64 && CpuHasFold()) {
    const size_t folded = size & ~size_t{15};
    c = CrcFoldUpdate(c, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return CrcTableUpdate(c, bytes, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Table(const void* data, size_t size, uint32_t seed) {
  return CrcTableUpdate(seed ^ 0xFFFFFFFFu, static_cast<const char*>(data), size) ^ 0xFFFFFFFFu;
}

uint64_t HashBytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

SnapshotWriter::SnapshotWriter() { buffer_.append(kMagic, kMagicSize); }

void SnapshotWriter::BeginSection(std::string_view name, uint32_t version) {
  TS_CHECK(!finished_);
  TS_CHECK_MSG(!in_section_, "sections cannot nest");
  TS_CHECK_MSG(!name.empty() && name.size() <= 255, "section name length out of range");
  buffer_.push_back(static_cast<char>(name.size()));
  buffer_.append(name.data(), name.size());
  AppendFixed<uint32_t>(&buffer_, version);
  section_length_at_ = buffer_.size();
  AppendFixed<uint64_t>(&buffer_, 0);  // Patched by EndSection.
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  TS_CHECK(in_section_);
  const uint64_t payload = buffer_.size() - (section_length_at_ + 8);
  std::memcpy(&buffer_[section_length_at_], &payload, sizeof(payload));
  in_section_ = false;
}

void SnapshotWriter::WriteU8(uint8_t v) {
  TS_CHECK(in_section_);
  buffer_.push_back(static_cast<char>(v));
}

void SnapshotWriter::WriteU32(uint32_t v) {
  TS_CHECK(in_section_);
  AppendFixed<uint32_t>(&buffer_, v);
}

void SnapshotWriter::WriteU64(uint64_t v) {
  TS_CHECK(in_section_);
  AppendFixed<uint64_t>(&buffer_, v);
}

void SnapshotWriter::WriteVarU64(uint64_t v) {
  TS_CHECK(in_section_);
  char raw[kMaxVarintBytes];
  size_t n = 0;
  while (v >= 0x80) {
    raw[n++] = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  raw[n++] = static_cast<char>(v);
  buffer_.append(raw, n);
}

void SnapshotWriter::WriteVarI64(int64_t v) {
  // Zigzag: small magnitudes of either sign stay short.
  WriteVarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void SnapshotWriter::WriteDouble(double v) {
  TS_CHECK(in_section_);
  AppendFixed<double>(&buffer_, v);
}

void SnapshotWriter::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void SnapshotWriter::WriteString(std::string_view s) {
  WriteVarU64(s.size());
  buffer_.append(s.data(), s.size());
}

std::string SnapshotWriter::Finish() {
  TS_CHECK(!finished_);
  TS_CHECK_MSG(!in_section_, "Finish() with an open section");
  finished_ = true;
  AppendFixed<uint32_t>(&buffer_, Crc32(buffer_.data(), buffer_.size()));
  return std::move(buffer_);
}

bool SnapshotWriter::FinishToFile(const std::string& path, std::string* error) {
  return WriteFileAtomic(path, Finish(), error);
}

SnapshotReader::SnapshotReader(std::string buffer) : owned_(std::move(buffer)), buffer_(owned_) {
  std::string error;
  if (!VerifyEnvelope(buffer_, &error)) {
    Fail(error);
    return;
  }
  pos_ = section_end_ = kMagicSize;
}

SnapshotReader::SnapshotReader(Borrowed, std::string_view buffer) : buffer_(buffer) {
  std::string error;
  if (!VerifyEnvelope(buffer_, &error)) {
    Fail(error);
    return;
  }
  pos_ = section_end_ = kMagicSize;
}

bool SnapshotReader::HasMoreSections() const {
  return ok_ && !in_section_ && pos_ < buffer_.size() - kCrcSize;
}

std::string SnapshotReader::PeekSectionName() {
  if (!HasMoreSections()) {
    return "";
  }
  const size_t name_len = static_cast<uint8_t>(buffer_[pos_]);
  if (name_len == 0 || pos_ + 1 + name_len > buffer_.size() - kCrcSize) {
    return "";
  }
  return std::string(buffer_.substr(pos_ + 1, name_len));
}

bool SnapshotReader::BeginSection(std::string_view name, uint32_t* version) {
  if (!ok_) {
    return false;
  }
  TS_CHECK_MSG(!in_section_, "BeginSection inside an open section");
  const size_t end = buffer_.size() - kCrcSize;
  if (pos_ + 1 > end) {
    Fail("expected section '" + std::string(name) + "', found end of snapshot");
    return false;
  }
  const size_t name_len = static_cast<uint8_t>(buffer_[pos_]);
  if (name_len == 0 || pos_ + 1 + name_len + 4 + 8 > end) {
    Fail("truncated section header");
    return false;
  }
  const std::string_view found(buffer_.data() + pos_ + 1, name_len);
  if (found != name) {
    Fail("expected section '" + std::string(name) + "', found '" + std::string(found) + "'");
    return false;
  }
  pos_ += 1 + name_len;
  const uint32_t v = LoadFixed<uint32_t>(buffer_.data() + pos_);
  pos_ += 4;
  const uint64_t payload = LoadFixed<uint64_t>(buffer_.data() + pos_);
  pos_ += 8;
  if (payload > end - pos_) {
    Fail("section '" + std::string(name) + "' payload overruns buffer");
    return false;
  }
  section_end_ = pos_ + payload;
  in_section_ = true;
  if (version != nullptr) {
    *version = v;
  }
  return true;
}

void SnapshotReader::EndSection() {
  if (!ok_) {
    return;
  }
  TS_CHECK(in_section_);
  pos_ = section_end_;  // Skip anything this reader did not consume.
  in_section_ = false;
}

void SnapshotReader::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
  section_end_ = pos_;
}

template <typename T>
T SnapshotReader::ReadFixed() {
  if (section_end_ - pos_ < sizeof(T)) {
    Fail("section payload underrun");
    return T{};
  }
  const T v = LoadFixed<T>(buffer_.data() + pos_);
  pos_ += sizeof(T);
  return v;
}

uint8_t SnapshotReader::ReadU8() { return ReadFixed<uint8_t>(); }

uint32_t SnapshotReader::ReadU32() { return ReadFixed<uint32_t>(); }

uint64_t SnapshotReader::ReadU64() { return ReadFixed<uint64_t>(); }

uint64_t SnapshotReader::ReadVarU64() {
  // Decodes straight from the buffer, stopping at the section's end or after
  // ten bytes, whichever comes first, so each byte costs one compare. Ten
  // continuation bytes with more to read overflow 64 bits; otherwise the
  // section ended inside the varint.
  const size_t span = section_end_ - pos_;
  const size_t limit = std::min(span, kMaxVarintBytes);
  const auto* p = reinterpret_cast<const uint8_t*>(buffer_.data() + pos_);
  uint64_t v = 0;
  for (size_t i = 0; i < limit; ++i) {
    v |= static_cast<uint64_t>(p[i] & 0x7F) << (7 * i);
    if (p[i] < 0x80) {
      pos_ += i + 1;
      return v;
    }
  }
  Fail(span > kMaxVarintBytes ? "varint overflow" : "section payload underrun");
  return 0;
}

uint64_t SnapshotReader::ReadVarCount(size_t min_elem_bytes) {
  const uint64_t count = ReadVarU64();
  if (!ok_) {
    return 0;
  }
  const uint64_t elem = min_elem_bytes > 0 ? min_elem_bytes : 1;
  // Divide instead of multiply: count * elem would wrap for adversarial
  // counts near 2^64 and sail past the bound it is meant to enforce.
  if (count > (section_end_ - pos_) / elem) {
    Fail("element count overruns section");
    return 0;
  }
  return count;
}

int64_t SnapshotReader::ReadVarI64() {
  const uint64_t z = ReadVarU64();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double SnapshotReader::ReadDouble() { return ReadFixed<double>(); }

bool SnapshotReader::ReadBool() { return ReadU8() != 0; }

void SnapshotReader::Bool(bool& v) {
  const uint8_t byte = ReadU8();
  if (byte > 1) {
    Fail("bool byte out of range");
  }
  v = byte == 1;
}

void SnapshotReader::Tag(std::string_view tag) {
  const std::string found = ReadString();
  if (ok_ && found != tag) {
    Fail("snapshot kind '" + found + "' does not match configured '" + std::string(tag) + "'");
  }
}

std::string SnapshotReader::ReadString() {
  const uint64_t size = ReadVarU64();
  // Compare against the remaining span, never pos_ + size: the sum wraps for
  // adversarial sizes near 2^64 and would pass the bounds check.
  if (!ok_ || size > section_end_ - pos_) {
    Fail("string overruns section");
    return "";
  }
  std::string s(buffer_, pos_, size);
  pos_ += size;
  return s;
}

size_t SnapshotReader::SectionRemaining() const {
  if (!ok_ || !in_section_) {
    return 0;
  }
  return section_end_ - pos_;
}

bool ListSnapshotSections(const std::string& buffer, std::vector<SnapshotSection>* out,
                          std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  if (out != nullptr) {
    out->clear();
  }
  if (!VerifyEnvelope(buffer, err)) {
    return false;
  }
  return WalkSections(buffer, out, err);
}

std::vector<std::string> DiffSnapshotSections(const std::string& a, const std::string& b,
                                              const std::vector<std::string>& ignore) {
  const auto ignored = [&ignore](const std::string& name) {
    return std::find(ignore.begin(), ignore.end(), name) != ignore.end();
  };
  std::vector<SnapshotSection> sa;
  std::vector<SnapshotSection> sb;
  std::vector<std::string> diff;
  if (!ListSnapshotSections(a, &sa) || !ListSnapshotSections(b, &sb)) {
    diff.push_back("<malformed snapshot>");
    return diff;
  }
  const auto find = [](const std::vector<SnapshotSection>& sections, const std::string& name)
      -> const SnapshotSection* {
    for (const SnapshotSection& s : sections) {
      if (s.name == name) {
        return &s;
      }
    }
    return nullptr;
  };
  for (const SnapshotSection& s : sa) {
    if (ignored(s.name)) {
      continue;
    }
    const SnapshotSection* other = find(sb, s.name);
    if (other == nullptr || other->payload_size != s.payload_size || other->hash != s.hash) {
      diff.push_back(s.name);
    }
  }
  for (const SnapshotSection& s : sb) {
    if (!ignored(s.name) && find(sa, s.name) == nullptr) {
      diff.push_back(s.name);
    }
  }
  return diff;
}

bool ReadFileToString(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for reading";
    }
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  if (in.bad()) {
    if (error != nullptr) {
      *error = "read error on '" + path + "'";
    }
    return false;
  }
  return true;
}

bool WriteFileAtomic(const std::string& path, const std::string& contents, std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot open '" + tmp + "' for writing";
      }
      return false;
    }
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      if (error != nullptr) {
        *error = "write error on '" + tmp + "'";
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename '" + tmp + "' to '" + path + "'";
    }
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace threesigma
