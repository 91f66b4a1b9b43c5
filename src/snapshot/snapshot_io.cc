#include "src/snapshot/snapshot_io.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/common/check.h"

namespace threesigma {
namespace {

constexpr char kMagic[8] = {'3', 'S', 'G', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kCrcSize = 4;

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

void AppendU32(std::string* buffer, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* buffer, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

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
    section.version = LoadU32(buffer.data() + pos);
    pos += 4;
    section.payload_size = LoadU64(buffer.data() + pos);
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
  const uint32_t stored = LoadU32(buffer.data() + body);
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
  static const CrcTables table = BuildCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const char*>(data);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint32_t lo = c ^ LoadU32(bytes + i);
    const uint32_t hi = LoadU32(bytes + i + 4);
    c = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^ table[5][(lo >> 16) & 0xFF] ^
        table[4][lo >> 24] ^ table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
        table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; i < size; ++i) {
    c = table[0][(c ^ static_cast<uint8_t>(bytes[i])) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
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
  AppendU32(&buffer_, version);
  section_length_at_ = buffer_.size();
  AppendU64(&buffer_, 0);  // Patched by EndSection.
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  TS_CHECK(in_section_);
  const uint64_t payload = buffer_.size() - (section_length_at_ + 8);
  for (int i = 0; i < 8; ++i) {
    buffer_[section_length_at_ + i] = static_cast<char>((payload >> (8 * i)) & 0xFF);
  }
  in_section_ = false;
}

void SnapshotWriter::WriteU8(uint8_t v) {
  TS_CHECK(in_section_);
  buffer_.push_back(static_cast<char>(v));
}

void SnapshotWriter::WriteU32(uint32_t v) {
  TS_CHECK(in_section_);
  AppendU32(&buffer_, v);
}

void SnapshotWriter::WriteU64(uint64_t v) {
  TS_CHECK(in_section_);
  AppendU64(&buffer_, v);
}

void SnapshotWriter::WriteVarU64(uint64_t v) {
  TS_CHECK(in_section_);
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void SnapshotWriter::WriteVarI64(int64_t v) {
  // Zigzag: small magnitudes of either sign stay short.
  WriteVarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void SnapshotWriter::WriteDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
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
  AppendU32(&buffer_, Crc32(buffer_.data(), buffer_.size()));
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
  pos_ = kMagicSize;
}

SnapshotReader::SnapshotReader(Borrowed, std::string_view buffer) : buffer_(buffer) {
  std::string error;
  if (!VerifyEnvelope(buffer_, &error)) {
    Fail(error);
    return;
  }
  pos_ = kMagicSize;
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
  const uint32_t v = LoadU32(buffer_.data() + pos_);
  pos_ += 4;
  const uint64_t payload = LoadU64(buffer_.data() + pos_);
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

bool SnapshotReader::TakeBytes(void* out, size_t size) {
  if (!ok_) {
    return false;
  }
  if (!in_section_ || pos_ + size > section_end_) {
    Fail("section payload underrun");
    return false;
  }
  std::memcpy(out, buffer_.data() + pos_, size);
  pos_ += size;
  return true;
}

void SnapshotReader::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
}

uint8_t SnapshotReader::ReadU8() {
  uint8_t v = 0;
  TakeBytes(&v, 1);
  return v;
}

uint32_t SnapshotReader::ReadU32() {
  char raw[4];
  if (!TakeBytes(raw, sizeof(raw))) {
    return 0;
  }
  return LoadU32(raw);
}

uint64_t SnapshotReader::ReadU64() {
  char raw[8];
  if (!TakeBytes(raw, sizeof(raw))) {
    return 0;
  }
  return LoadU64(raw);
}

uint64_t SnapshotReader::ReadVarU64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t byte = 0;
    if (!TakeBytes(&byte, 1)) {
      return 0;
    }
    if (shift >= 64) {
      Fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
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

double SnapshotReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

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
