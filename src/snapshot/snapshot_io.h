// Versioned, CRC-checked binary snapshot codec.
//
// The checkpoint/restore subsystem serializes the complete run state of a
// simulation — simulator clock and event queue, RNG streams, predictor
// histories, scheduler caches, accumulated metrics — into one self-contained
// buffer so a run can be killed and resumed byte-identically, and so two runs
// can be diffed module-by-module (examples/replay_diff.cpp).
//
// Container layout (all integers little-endian; the codec copies fixed-width
// fields as host bytes, so it builds only for little-endian hosts):
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
//
// Layouts are written once. SnapshotWriter and SnapshotReader share one set
// of field verbs (Double, Bool, String, VarInt, VarUint, Fixed64, Enum, Tag,
// Nested, Seq, Map); a type lists its fields once, in order, as
//
//   template <typename Io, typename Self> static void Walk(Io& io, Self& self);
//
// which SaveState instantiates with the writer and a const object and
// RestoreState with the reader and a mutable one. Adding a field is one line
// in the walk plus a bump of the owning section's version. Anything only a
// restore needs (version and kind checks, cluster-shape checks, rebuilding
// derived state) runs after the walk. The reader verbs reject, by latching
// Fail(), what a cast would silently accept: an enum byte above the enum's
// last value, a bool byte other than 0/1, a varint that does not fit the
// target integer type, a kind tag that does not match, and any element
// count that cannot fit in the section's remaining bytes.

#ifndef SRC_SNAPSHOT_SNAPSHOT_IO_H_
#define SRC_SNAPSHOT_SNAPSHOT_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
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

  // Appends the trailing CRC and returns the finished buffer. The writer is
  // spent afterwards.
  std::string Finish();

  // Finish() + atomic file write (temp file + rename, so a crash mid-write
  // never leaves a torn checkpoint behind). Returns false with `*error` set
  // on IO failure.
  bool FinishToFile(const std::string& path, std::string* error = nullptr);

  size_t bytes_written() const { return buffer_.size(); }

  // Field verbs; SnapshotReader has the same ones (see "Layouts are written
  // once" above). `min_elem_bytes` only matters to the reader.
  void Double(double v) { WriteDouble(v); }
  void Bool(bool v) { WriteBool(v); }
  void String(std::string_view s) { WriteString(s); }
  template <typename T>
  void VarInt(T v) {
    static_assert(std::is_signed_v<T>, "VarInt takes a signed integer");
    WriteVarI64(v);
  }
  template <typename T>
  void VarUint(T v) {
    static_assert(std::is_unsigned_v<T>, "VarUint takes an unsigned integer");
    WriteVarU64(v);
  }
  void Fixed64(uint64_t v) { WriteU64(v); }
  template <typename E>
  void Enum(E e, E /*last*/) {
    WriteU8(static_cast<uint8_t>(e));
  }
  // A kind tag: a string the reader must find verbatim.
  void Tag(std::string_view tag) { WriteString(tag); }
  // A member with its own SaveState/RestoreState hooks.
  template <typename T>
  void Nested(const T& x) {
    x.SaveState(*this);
  }
  // Count, then `each(element)` per element in container order.
  template <typename C, typename F>
  void Seq(const C& items, F&& each, size_t /*min_elem_bytes*/ = 1) {
    WriteVarU64(items.size());
    for (const auto& x : items) {
      each(x);
    }
  }
  // Count, then `each(key, value)` per entry in ascending key order
  // (unordered maps are sorted first, so the bytes never depend on hashing).
  template <typename M, typename F>
  void Map(const M& m, F&& each, size_t /*min_elem_bytes*/ = 1) {
    std::vector<const typename M::value_type*> entries;
    entries.reserve(m.size());
    for (const auto& entry : m) {
      entries.push_back(&entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    WriteVarU64(entries.size());
    for (const auto* entry : entries) {
      each(entry->first, entry->second);
    }
  }

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

  // Remaining unread bytes in the current section.
  size_t SectionRemaining() const;

  // Latches ok() == false with `message` (the first failure wins); for
  // callers that reject a well-formed but unsupported payload, such as an
  // unknown section version.
  void Fail(const std::string& message);

  // Field verbs, mirroring SnapshotWriter's. On failure the target gets a
  // zero value and ok() latches false.
  void Double(double& v) { v = ReadDouble(); }
  void Bool(bool& v);
  void String(std::string& s) { s = ReadString(); }
  template <typename T>
  void VarInt(T& v) {
    static_assert(std::is_signed_v<T>, "VarInt takes a signed integer");
    const int64_t x = ReadVarI64();
    v = x >= std::numeric_limits<T>::min() && x <= std::numeric_limits<T>::max()
            ? static_cast<T>(x)
            : FailedInt<T>();
  }
  template <typename T>
  void VarUint(T& v) {
    static_assert(std::is_unsigned_v<T>, "VarUint takes an unsigned integer");
    const uint64_t x = ReadVarU64();
    v = x <= std::numeric_limits<T>::max() ? static_cast<T>(x) : FailedInt<T>();
  }
  void Fixed64(uint64_t& v) { v = ReadU64(); }
  template <typename E>
  void Enum(E& e, E last) {
    const uint8_t byte = ReadU8();
    e = byte <= static_cast<uint8_t>(last) ? static_cast<E>(byte) : FailedEnum<E>();
  }
  void Tag(std::string_view tag);
  template <typename T>
  void Nested(T& x) {
    x.RestoreState(*this);
  }
  // Resizes `items` to the stored count and walks every element in place.
  template <typename C, typename F>
  void Seq(C& items, F&& each, size_t min_elem_bytes = 1) {
    items.resize(ReadVarCount(min_elem_bytes));
    for (auto& x : items) {
      if (!ok_) {
        return;
      }
      each(x);
    }
  }
  template <typename K, typename F>
  void Seq(std::set<K>& items, F&& each, size_t min_elem_bytes = 1) {
    items.clear();
    for (uint64_t n = ReadVarCount(min_elem_bytes); n > 0 && ok_; --n) {
      K key{};
      each(key);
      if (ok_) {
        items.insert(std::move(key));
      }
    }
  }
  // Replaces `m` with the stored entries.
  template <typename M, typename F>
  void Map(M& m, F&& each, size_t min_elem_bytes = 1) {
    m.clear();
    for (uint64_t n = ReadVarCount(min_elem_bytes); n > 0 && ok_; --n) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      each(key, value);
      if (ok_) {
        m.insert_or_assign(std::move(key), std::move(value));
      }
    }
  }

 private:
  template <typename T>
  T FailedInt() {
    Fail("integer out of range");
    return 0;
  }
  template <typename E>
  E FailedEnum() {
    Fail("enum value out of range");
    return E{};
  }

  // A fixed-width little-endian field, behind one bounds check.
  template <typename T>
  T ReadFixed();

  std::string owned_;        // Empty in borrowed mode.
  std::string_view buffer_;  // Views owned_ or the caller's buffer.
  // section_end_ - pos_ is the readable span: the open section's unread
  // payload, and 0 outside a section or once a read has failed, so a field
  // read needs no other check.
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
