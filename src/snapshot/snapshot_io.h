// Versioned, CRC-checked binary snapshot codec.
//
// The checkpoint/restore subsystem serializes the complete run state of a
// simulation — simulator clock and event queue, RNG streams, predictor
// histories, scheduler caches, accumulated metrics — into one self-contained
// buffer so a run can be killed and resumed byte-identically, and so two runs
// can be diffed module-by-module (examples/replay_diff.cpp).
//
// Container layout (all integers little-endian):
//
//   magic   "3SGSNAP1"                      8 bytes
//   section*                                repeated
//     u8      name length (1..255)
//     bytes   section name ("sim", "rng", "sched", ...)
//     u32     section version (per-section schema tag)
//     u64     payload length
//     bytes   payload
//   u32     CRC-32 (IEEE) over every preceding byte
//
// Sections are length-prefixed so a reader can skip payload it does not
// understand (EndSection always lands on the next section header, even if
// the payload grew fields in a newer version), and per-section version tags
// let each module evolve its schema independently of the container.
//
// Within a payload, the primitive vocabulary is:
//   - fixed-width little-endian u8/u32/u64/i64,
//   - LEB128 varints (counts, sizes) and zigzag varints (signed),
//   - doubles as their raw IEEE-754 bit pattern (exact round-trip),
//   - strings as varint length + bytes.
//
// Readers are fail-soft: any structural violation (underrun, section name
// mismatch, bad magic, bad CRC) latches ok() == false and every subsequent
// read returns a zero value, so callers validate once at the end instead of
// checking every field.

#ifndef SRC_SNAPSHOT_SNAPSHOT_IO_H_
#define SRC_SNAPSHOT_SNAPSHOT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace threesigma {

// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` chains partial updates.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// FNV-1a 64-bit hash; the per-section state fingerprint replay_diff compares.
uint64_t HashBytes(const void* data, size_t size);

class SnapshotWriter {
 public:
  SnapshotWriter();

  // Opens a named, versioned section. Sections cannot nest.
  void BeginSection(std::string_view name, uint32_t version);
  // Closes the current section and patches its length prefix.
  void EndSection();

  // Primitives; only valid inside a section.
  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteVarU64(uint64_t v);           // LEB128.
  void WriteVarI64(int64_t v);            // Zigzag + LEB128.
  void WriteDouble(double v);             // Raw bit pattern.
  void WriteBool(bool v);
  void WriteString(std::string_view s);   // Varint length + bytes.
  void WriteBytes(const void* data, size_t size);

  // Vector helpers (varint count + elements).
  void WriteDoubleVec(const std::vector<double>& v);
  void WriteIntVec(const std::vector<int>& v);

  // Appends the trailing CRC and returns the finished buffer. The writer is
  // spent afterwards.
  std::string Finish();

  // Finish() + atomic file write (temp file + rename, so a crash mid-write
  // never leaves a torn checkpoint behind). Returns false with `*error` set
  // on IO failure.
  bool FinishToFile(const std::string& path, std::string* error = nullptr);

  size_t bytes_written() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t section_length_at_ = 0;  // Offset of the open section's length field.
  bool in_section_ = false;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  // Tag selecting the non-owning constructor below.
  struct Borrowed {};

  // Verifies magic and CRC up front; ok() is false on a truncated or
  // corrupted buffer and every read then returns zero values.
  explicit SnapshotReader(std::string buffer);

  // Non-owning mode: reads directly out of `buffer`, which must outlive the
  // reader. The digital-twin fork path restores many clones from one live
  // snapshot and uses this to avoid a full buffer copy per fork. Same
  // up-front magic + CRC validation as the owning constructor.
  SnapshotReader(Borrowed, std::string_view buffer);

  // Readers hand out no references into the buffer, but the owning mode's
  // view points at owned_ — copying or moving would dangle it.
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Enters the next section, which must carry `name`; returns its version
  // through `*version` (may be null). On mismatch latches an error and
  // returns false.
  bool BeginSection(std::string_view name, uint32_t* version = nullptr);
  // Leaves the current section, skipping any unread payload (forward
  // compatibility: newer writers may append fields).
  void EndSection();

  // True when the cursor sits on another section header.
  bool HasMoreSections() const;
  // Name of the next section without entering it; empty at end-of-buffer.
  std::string PeekSectionName();

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  uint64_t ReadVarU64();
  // Reads an element count that precedes `count * >= min_elem_bytes` of
  // payload. Fails (returning 0) when the count could not possibly fit in
  // the section's remaining bytes, so callers can reserve()/resize() the
  // returned value without an attacker-controlled length triggering a
  // multi-gigabyte allocation. Use for every length read from an untrusted
  // buffer (network frames, on-disk snapshots).
  uint64_t ReadVarCount(size_t min_elem_bytes = 1);
  int64_t ReadVarI64();
  double ReadDouble();
  bool ReadBool();
  std::string ReadString();

  std::vector<double> ReadDoubleVec();
  std::vector<int> ReadIntVec();

  // Remaining unread bytes in the current section.
  size_t SectionRemaining() const;

  // Latches ok() == false with `message` (the first failure wins); for
  // callers that reject a well-formed but unsupported payload, such as an
  // unknown section version.
  void Fail(const std::string& message);

 private:
  bool TakeBytes(void* out, size_t size);

  std::string owned_;        // Empty in borrowed mode.
  std::string_view buffer_;  // Views owned_ or the caller's buffer.
  size_t pos_ = 0;
  size_t section_end_ = 0;
  bool in_section_ = false;
  bool ok_ = true;
  std::string error_;
};

// One section of a finished snapshot buffer, with its payload fingerprint.
struct SnapshotSection {
  std::string name;
  uint32_t version = 0;
  uint64_t payload_offset = 0;
  uint64_t payload_size = 0;
  uint64_t hash = 0;  // FNV-1a of the payload bytes.
};

// Enumerates a snapshot buffer's sections (verifying magic + CRC). Returns
// false with `*error` set on a malformed buffer.
bool ListSnapshotSections(const std::string& buffer, std::vector<SnapshotSection>* out,
                          std::string* error = nullptr);

// Names of sections whose payload differs between two snapshots, in `a`'s
// section order (sections present on only one side also count as differing).
// Sections named in `ignore` are skipped (e.g. wall-clock timing).
std::vector<std::string> DiffSnapshotSections(const std::string& a, const std::string& b,
                                              const std::vector<std::string>& ignore = {});

// Whole-file helpers.
bool ReadFileToString(const std::string& path, std::string* out, std::string* error = nullptr);
bool WriteFileAtomic(const std::string& path, const std::string& contents,
                     std::string* error = nullptr);

}  // namespace threesigma

#endif  // SRC_SNAPSHOT_SNAPSHOT_IO_H_
