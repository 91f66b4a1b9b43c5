// Checkpoint/restore subsystem tests.
//
// The headline property: checkpoint a faulty, warm-started
// run at an arbitrary cycle, "kill" it, resume into a freshly built system,
// and the finished trace — every job record, cycle stat, and fault counter —
// is byte-identical to the uninterrupted run. Plus codec unit tests,
// RNG-stream round trips, and rejection of truncated/corrupted snapshots
// (graceful via Try*, aborting via the unchecked forms).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/crc32_internal.h"
#include "src/snapshot/snapshot_io.h"
#include "tests/sim_trace.h"

namespace threesigma {
namespace {

// ---------------------------------------------------------------------------
// Codec primitives.

// Double and int vectors through the Seq verb, as the layouts write them.
void WriteDoubles(SnapshotWriter& writer, const std::vector<double>& v) {
  writer.Seq(v, [&](double x) { writer.Double(x); });
}
void WriteInts(SnapshotWriter& writer, const std::vector<int>& v) {
  writer.Seq(v, [&](int x) { writer.VarInt(x); });
}
std::vector<double> ReadDoubles(SnapshotReader& reader) {
  std::vector<double> v;
  reader.Seq(v, [&](double& x) { reader.Double(x); }, sizeof(double));
  return v;
}
std::vector<int> ReadInts(SnapshotReader& reader) {
  std::vector<int> v;
  reader.Seq(v, [&](int& x) { reader.VarInt(x); });
  return v;
}

TEST(SnapshotCodecTest, Crc32MatchesBytewiseReference) {
  // Crc32 folds 64-byte blocks with PCLMULQDQ where the CPU has it and runs
  // the table loop over the rest; Crc32Table is the table loop alone. Both
  // must give the plain byte-at-a-time CRC-32 (reflected 0xEDB88320) for
  // every length, alignment and seed.
  const auto reference = [](const uint8_t* p, size_t size, uint32_t seed) {
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  using Kernel = uint32_t (*)(const void*, size_t, uint32_t);
  const std::pair<const char*, Kernel> kernels[] = {{"Crc32", &Crc32},
                                                    {"Crc32Table", &Crc32Table}};
  Rng rng(7);
  std::vector<uint8_t> bytes((size_t{1} << 20) + 16);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  for (const auto& [name, crc] : kernels) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc("123456789", 9, 0), 0xCBF43926u);  // The standard check value.
    // One mebibyte: the fold's main loop over 16k blocks.
    for (size_t offset : {0, 5}) {
      const uint8_t* p = bytes.data() + offset;
      EXPECT_EQ(crc(p, size_t{1} << 20, 0), reference(p, size_t{1} << 20, 0)) << offset;
    }
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 1100; ++size) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t whole = reference(p, size, 0);
      // Chaining through the seed equals one pass over the whole buffer, with
      // split points mostly off 16-byte boundaries so both pieces run the
      // table loop after the fold.
      const size_t splits[] = {size / 3, std::min(size, size / 2 + 7)};
      for (const auto& [name, crc] : kernels) {
        ASSERT_EQ(crc(p, size, 0), whole) << name << " " << offset << " " << size;
        for (size_t split : splits) {
          ASSERT_EQ(crc(p + split, size - split, crc(p, split, 0)), whole)
              << name << " " << offset << " " << size << " " << split;
        }
      }
    }
  }
}

TEST(SnapshotCodecTest, ReadsAtSectionEdgesKeepTheirValuesAndErrors) {
  // A varint decodes straight from the buffer, bounded by ten bytes or the
  // section's end, and a fixed-width read checks the span once; each case
  // here pins the value or error text of a byte-at-a-time reader that bounds
  // checks every byte.
  // A section holding `raw` plus `tail` trailing bytes, then a second section
  // so that bytes past the first one's end exist but must not be read.
  const auto build = [](const std::vector<uint8_t>& raw, size_t tail) {
    SnapshotWriter writer;
    writer.BeginSection("edge", 1);
    for (uint8_t b : raw) {
      writer.WriteU8(b);
    }
    for (size_t i = 0; i < tail; ++i) {
      writer.WriteU8(0);
    }
    writer.EndSection();
    writer.BeginSection("next", 1);
    for (int i = 0; i < 16; ++i) {
      writer.WriteU8(0x80);
    }
    writer.EndSection();
    return writer.Finish();
  };
  const auto varint = [](uint64_t v) {
    std::vector<uint8_t> out;
    for (; v >= 0x80; v >>= 7) {
      out.push_back(static_cast<uint8_t>((v & 0x7F) | 0x80));
    }
    out.push_back(static_cast<uint8_t>(v));
    return out;
  };

  // Every varint length, ending anywhere from the section's last byte to
  // twelve bytes before it.
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 1ULL << 35, (1ULL << 56) - 1, ~0ULL}) {
    for (size_t tail = 0; tail <= 12; ++tail) {
      SnapshotReader reader(build(varint(v), tail));
      ASSERT_TRUE(reader.BeginSection("edge"));
      EXPECT_EQ(reader.ReadVarU64(), v) << v << " " << tail;
      EXPECT_EQ(reader.SectionRemaining(), tail);
      EXPECT_TRUE(reader.ok()) << reader.error();
    }
  }

  // A varint cut off by the section's end, with or without ten bytes left.
  for (size_t len : {1, 5, 9, 10}) {
    SnapshotReader reader(build(std::vector<uint8_t>(len, 0x80), 0));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadVarU64(), 0u);
    EXPECT_EQ(reader.error(), "section payload underrun") << len;
  }

  // A 10-byte varint whose last byte exceeds 1: the bits above 2^63 drop.
  for (size_t tail : {0, 4}) {
    std::vector<uint8_t> raw(9, 0xFF);
    raw.push_back(0x7F);
    SnapshotReader all_ones(build(raw, tail));
    ASSERT_TRUE(all_ones.BeginSection("edge"));
    EXPECT_EQ(all_ones.ReadVarU64(), ~0ULL);
    EXPECT_TRUE(all_ones.ok()) << all_ones.error();

    raw.assign(9, 0x80);
    raw.push_back(0x02);
    SnapshotReader dropped(build(raw, tail));
    ASSERT_TRUE(dropped.BeginSection("edge"));
    EXPECT_EQ(dropped.ReadVarU64(), 0u);
    EXPECT_EQ(dropped.SectionRemaining(), tail);
    EXPECT_TRUE(dropped.ok()) << dropped.error();
  }

  // An 11-byte varint overflows, however much of the section follows it.
  for (size_t tail : {0, 3, 12}) {
    std::vector<uint8_t> raw(10, 0x80);
    raw.push_back(0x00);
    SnapshotReader reader(build(raw, tail));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadVarU64(), 0u);
    EXPECT_EQ(reader.error(), "varint overflow") << tail;
    EXPECT_EQ(reader.ReadVarU64(), 0u);  // Fail-soft; the first error stays.
    EXPECT_EQ(reader.error(), "varint overflow");
  }

  // Fixed-width fields one byte short of the section's end.
  const std::vector<uint8_t> seven{1, 2, 3, 4, 5, 6, 7};
  {
    SnapshotReader reader(build(seven, 0));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadU64(), 0u);
    EXPECT_EQ(reader.error(), "section payload underrun");
    EXPECT_EQ(reader.ReadU8(), 0u);  // Fail-soft: nothing more is read.
    EXPECT_EQ(reader.SectionRemaining(), 0u);
  }
  {
    SnapshotReader reader(build(seven, 0));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadDouble(), 0.0);
    EXPECT_EQ(reader.error(), "section payload underrun");
  }
  {
    SnapshotReader reader(build({1, 2, 3}, 0));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadU32(), 0u);
    EXPECT_EQ(reader.error(), "section payload underrun");
  }
  {
    // Exactly enough: the same fields read back.
    SnapshotReader reader(build({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 0));
    ASSERT_TRUE(reader.BeginSection("edge"));
    EXPECT_EQ(reader.ReadU64(), 0x0807060504030201ULL);
    EXPECT_EQ(reader.ReadU32(), 0x0C0B0A09u);
    EXPECT_EQ(reader.SectionRemaining(), 0u);
    EXPECT_TRUE(reader.ok()) << reader.error();
  }
  {
    // Outside any section, every read underruns.
    SnapshotReader reader(build(seven, 0));
    EXPECT_EQ(reader.ReadU8(), 0u);
    EXPECT_EQ(reader.error(), "section payload underrun");
  }
}

TEST(SnapshotCodecTest, PrimitiveRoundTrip) {
  SnapshotWriter writer;
  writer.BeginSection("prim", 3);
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    writer.WriteVarU64(v);
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64}, int64_t{64},
                    std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()}) {
    writer.WriteVarI64(v);
  }
  for (double v : {0.0, -0.0, 0.1, -1e300, std::numeric_limits<double>::infinity()}) {
    writer.WriteDouble(v);
  }
  writer.WriteBool(true);
  writer.WriteBool(false);
  const std::string with_nul("null\0inside", 11);
  writer.WriteString(with_nul);
  WriteDoubles(writer, {1.5, -2.5, 3.25});
  WriteInts(writer, {-7, 0, 42});
  writer.EndSection();

  SnapshotReader reader(writer.Finish());
  ASSERT_TRUE(reader.ok()) << reader.error();
  uint32_t version = 0;
  ASSERT_TRUE(reader.BeginSection("prim", &version));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(reader.ReadU8(), 0xab);
  EXPECT_EQ(reader.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789abcdefULL);
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    EXPECT_EQ(reader.ReadVarU64(), v);
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64}, int64_t{64},
                    std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(reader.ReadVarI64(), v);
  }
  for (double v : {0.0, -0.0, 0.1, -1e300, std::numeric_limits<double>::infinity()}) {
    const double got = reader.ReadDouble();
    EXPECT_EQ(got, v);
    EXPECT_EQ(std::signbit(got), std::signbit(v));  // -0.0 round-trips exactly.
  }
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_FALSE(reader.ReadBool());
  EXPECT_EQ(reader.ReadString(), with_nul);
  EXPECT_EQ(ReadDoubles(reader), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(ReadInts(reader), (std::vector<int>{-7, 0, 42}));
  reader.EndSection();
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_FALSE(reader.HasMoreSections());
}

TEST(SnapshotCodecTest, NanDoubleRoundTripsBitExactly) {
  SnapshotWriter writer;
  writer.BeginSection("nan", 1);
  writer.WriteDouble(std::numeric_limits<double>::quiet_NaN());
  writer.EndSection();
  SnapshotReader reader(writer.Finish());
  reader.BeginSection("nan");
  EXPECT_TRUE(std::isnan(reader.ReadDouble()));
  reader.EndSection();
  EXPECT_TRUE(reader.ok());
}

TEST(SnapshotCodecTest, EndSectionSkipsUnreadPayload) {
  // A newer writer appends fields an old reader does not know; EndSection
  // must land the reader on the next section header regardless.
  SnapshotWriter writer;
  writer.BeginSection("grew", 2);
  writer.WriteVarU64(7);
  writer.WriteString("field the reader never asks for");
  writer.WriteDouble(3.14);
  writer.EndSection();
  writer.BeginSection("next", 1);
  writer.WriteVarU64(99);
  writer.EndSection();

  SnapshotReader reader(writer.Finish());
  ASSERT_TRUE(reader.BeginSection("grew"));
  EXPECT_EQ(reader.ReadVarU64(), 7u);
  EXPECT_GT(reader.SectionRemaining(), 0u);
  reader.EndSection();  // Skips the two unread fields.
  ASSERT_TRUE(reader.BeginSection("next"));
  EXPECT_EQ(reader.ReadVarU64(), 99u);
  reader.EndSection();
  EXPECT_TRUE(reader.ok()) << reader.error();
}

TEST(SnapshotCodecTest, SectionNameMismatchFailsSoft) {
  SnapshotWriter writer;
  writer.BeginSection("alpha", 1);
  writer.WriteVarU64(1);
  writer.EndSection();
  SnapshotReader reader(writer.Finish());
  EXPECT_FALSE(reader.BeginSection("beta"));
  EXPECT_FALSE(reader.ok());
  // Fail-soft: reads after the failure return zeroes, never crash.
  EXPECT_EQ(reader.ReadVarU64(), 0u);
  EXPECT_EQ(reader.ReadString(), "");
}

TEST(SnapshotCodecTest, CorruptionIsDetectedUpFront) {
  SnapshotWriter writer;
  writer.BeginSection("data", 1);
  for (int i = 0; i < 100; ++i) {
    writer.WriteVarU64(static_cast<uint64_t>(i));
  }
  writer.EndSection();
  const std::string good = writer.Finish();

  {
    std::string truncated = good.substr(0, good.size() / 2);
    SnapshotReader reader(truncated);
    EXPECT_FALSE(reader.ok());
  }
  {
    std::string flipped = good;
    flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x40);
    SnapshotReader reader(flipped);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("CRC"), std::string::npos) << reader.error();
  }
  {
    std::string bad_magic = good;
    bad_magic[0] = 'X';
    SnapshotReader reader(bad_magic);
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SnapshotCodecTest, BorrowedReaderRoundTripSharesOneBuffer) {
  // The twin fork fan-out restores many clones from one live snapshot; each
  // borrowed reader must decode the shared bytes without copying or mutating
  // them.
  SnapshotWriter writer;
  writer.BeginSection("shared", 2);
  writer.WriteVarU64(41);
  writer.WriteString("forked");
  WriteDoubles(writer, {2.5, -0.125});
  writer.EndSection();
  const std::string buffer = writer.Finish();
  const std::string before = buffer;

  for (int fork = 0; fork < 3; ++fork) {
    SnapshotReader reader(SnapshotReader::Borrowed{}, buffer);
    ASSERT_TRUE(reader.ok()) << reader.error();
    uint32_t version = 0;
    ASSERT_TRUE(reader.BeginSection("shared", &version));
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(reader.ReadVarU64(), 41u);
    EXPECT_EQ(reader.ReadString(), "forked");
    EXPECT_EQ(ReadDoubles(reader), (std::vector<double>{2.5, -0.125}));
    reader.EndSection();
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_FALSE(reader.HasMoreSections());
  }
  EXPECT_EQ(buffer, before);  // Borrowed readers never touch the bytes.
}

TEST(SnapshotCodecTest, BorrowedReaderDetectsCorruptionUpFront) {
  SnapshotWriter writer;
  writer.BeginSection("data", 1);
  for (int i = 0; i < 100; ++i) {
    writer.WriteVarU64(static_cast<uint64_t>(i));
  }
  writer.EndSection();
  const std::string good = writer.Finish();

  {
    const std::string truncated = good.substr(0, good.size() / 2);
    SnapshotReader reader(SnapshotReader::Borrowed{}, truncated);
    EXPECT_FALSE(reader.ok());
    // Fail-soft, same as the owning mode: reads return zero values.
    EXPECT_FALSE(reader.BeginSection("data"));
    EXPECT_EQ(reader.ReadVarU64(), 0u);
  }
  {
    std::string flipped = good;
    flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x40);
    SnapshotReader reader(SnapshotReader::Borrowed{}, flipped);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("CRC"), std::string::npos) << reader.error();
  }
  {
    std::string bad_magic = good;
    bad_magic[0] = 'X';
    SnapshotReader reader(SnapshotReader::Borrowed{}, bad_magic);
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SnapshotCodecTest, ListAndDiffSections) {
  const auto build = [](uint64_t payload) {
    SnapshotWriter writer;
    writer.BeginSection("same", 1);
    writer.WriteVarU64(11);
    writer.EndSection();
    writer.BeginSection("differs", 1);
    writer.WriteVarU64(payload);
    writer.EndSection();
    writer.BeginSection("timing", 1);
    writer.WriteDouble(static_cast<double>(payload) * 0.5);  // Wall clock.
    writer.EndSection();
    return writer.Finish();
  };
  const std::string a = build(1);
  const std::string b = build(2);

  std::vector<SnapshotSection> sections;
  ASSERT_TRUE(ListSnapshotSections(a, &sections));
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].name, "same");
  EXPECT_EQ(sections[1].name, "differs");

  EXPECT_TRUE(DiffSnapshotSections(a, a).empty());
  EXPECT_EQ(DiffSnapshotSections(a, b, {"timing"}),
            (std::vector<std::string>{"differs"}));
  EXPECT_EQ(DiffSnapshotSections(a, b),
            (std::vector<std::string>{"differs", "timing"}));
}

// ---------------------------------------------------------------------------
// Untrusted-input robustness. Service frames arrive from the network, so the
// reader must survive arbitrary corruption — clean error, never a crash, a
// hang, or an attacker-sized allocation.

std::string BuildRichSnapshot() {
  SnapshotWriter writer;
  writer.BeginSection("alpha", 1);
  writer.WriteVarU64(12);
  writer.WriteString("hello world");
  WriteDoubles(writer, {1.0, 2.0, 3.0, 4.0});
  writer.EndSection();
  writer.BeginSection("beta", 2);
  WriteInts(writer, {5, -6, 7});
  writer.WriteDouble(2.75);
  writer.WriteString(std::string(64, 'x'));
  writer.EndSection();
  writer.BeginSection("gamma", 3);
  for (int i = 0; i < 32; ++i) {
    writer.WriteVarI64(i * 1000 - 7);
  }
  writer.EndSection();
  return writer.Finish();
}

// Repatches the trailing CRC so a mutated body passes envelope validation and
// the corruption reaches the section and primitive decoding layers.
void RepatchCrc(std::string* buffer) {
  const size_t body = buffer->size() - 4;
  const uint32_t crc = Crc32(buffer->data(), body);
  for (int i = 0; i < 4; ++i) {
    (*buffer)[body + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

// Walks every section with a rotating mix of typed reads. Must terminate
// without crashing no matter what bytes are underneath: every iteration
// either consumes at least one byte or latches !ok().
void ExerciseReader(const std::string& buffer) {
  SnapshotReader reader(buffer);
  int step = 0;
  while (reader.ok() && reader.HasMoreSections()) {
    const std::string name = reader.PeekSectionName();
    if (name.empty() || !reader.BeginSection(name)) {
      break;
    }
    while (reader.ok() && reader.SectionRemaining() > 0) {
      switch (step++ % 6) {
        case 0: reader.ReadVarU64(); break;
        case 1: reader.ReadString(); break;
        case 2: ReadDoubles(reader); break;
        case 3: ReadInts(reader); break;
        case 4: reader.ReadDouble(); break;
        default: reader.ReadVarCount(8); break;
      }
    }
    reader.EndSection();
  }
}

TEST(SnapshotRobustnessTest, RandomizedCorruptionFailsCleanly) {
  const std::string good = BuildRichSnapshot();
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = good;
    const int mode = static_cast<int>(rng.UniformInt(0, 2));
    if (mode == 0) {
      const int flips = static_cast<int>(rng.UniformInt(1, 4));
      for (int f = 0; f < flips; ++f) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[at] = static_cast<char>(mutated[at] ^ (1u << rng.UniformInt(0, 7)));
      }
    } else if (mode == 1) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1)));
    } else {
      const int extra = static_cast<int>(rng.UniformInt(1, 32));
      for (int i = 0; i < extra; ++i) {
        mutated.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
    }
    // As mutated: the CRC rejects nearly every one of these up front.
    ExerciseReader(mutated);
    // CRC repatched: the corrupted bytes reach the decoding layers.
    if (mutated.size() >= 12) {
      RepatchCrc(&mutated);
      ExerciseReader(mutated);
      std::vector<SnapshotSection> sections;
      std::string error;
      (void)ListSnapshotSections(mutated, &sections, &error);
    }
  }
}

TEST(SnapshotRobustnessTest, HugeDeclaredLengthsFailCleanly) {
  // A length prefix of 2^64-1 with no payload behind it: every typed read
  // must fail without attempting the allocation.
  SnapshotWriter writer;
  writer.BeginSection("evil", 1);
  writer.WriteVarU64(~0ULL);
  writer.EndSection();
  const std::string buffer = writer.Finish();
  {
    SnapshotReader reader(buffer);
    ASSERT_TRUE(reader.BeginSection("evil"));
    EXPECT_EQ(reader.ReadString(), "");
    EXPECT_FALSE(reader.ok());
  }
  {
    SnapshotReader reader(buffer);
    ASSERT_TRUE(reader.BeginSection("evil"));
    EXPECT_TRUE(ReadDoubles(reader).empty());
    EXPECT_FALSE(reader.ok());
  }
  {
    SnapshotReader reader(buffer);
    ASSERT_TRUE(reader.BeginSection("evil"));
    EXPECT_EQ(reader.ReadVarCount(1), 0u);
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SnapshotRobustnessTest, OverflowingElementCountFailsCleanly) {
  // count * 8 wraps to 8 for this count; the bounds check must divide, not
  // multiply, or the reader attempts a 2^61-element vector.
  SnapshotWriter writer;
  writer.BeginSection("evil", 1);
  writer.WriteVarU64((1ULL << 61) + 1);
  writer.WriteDouble(0.0);
  writer.EndSection();
  const std::string buffer = writer.Finish();
  {
    SnapshotReader reader(buffer);
    ASSERT_TRUE(reader.BeginSection("evil"));
    EXPECT_TRUE(ReadDoubles(reader).empty());
    EXPECT_FALSE(reader.ok());
  }
  {
    SnapshotReader reader(buffer);
    ASSERT_TRUE(reader.BeginSection("evil"));
    EXPECT_EQ(reader.ReadVarCount(8), 0u);
    EXPECT_FALSE(reader.ok());
  }
}

// ---------------------------------------------------------------------------
// RNG stream state.

TEST(RngSnapshotTest, SaveRestoreDrawEqualsUninterrupted) {
  Rng stream(42);
  for (int i = 0; i < 1000; ++i) {
    stream.Uniform(0.0, 1.0);  // Advance to an arbitrary mid-stream position.
  }
  SnapshotWriter writer;
  writer.BeginSection("rng", 1);
  stream.SaveState(writer);
  writer.EndSection();
  const std::string buffer = writer.Finish();

  // The uninterrupted continuation.
  std::vector<double> expected;
  for (int i = 0; i < 200; ++i) {
    expected.push_back(stream.Uniform(0.0, 1.0));
  }

  Rng resumed(7);  // Different seed: everything must come from the snapshot.
  SnapshotReader reader(buffer);
  ASSERT_TRUE(reader.BeginSection("rng"));
  resumed.RestoreState(reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok()) << reader.error();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(resumed.Uniform(0.0, 1.0), expected[static_cast<size_t>(i)]) << "draw " << i;
  }
}

TEST(RngSnapshotTest, MixedDistributionDrawsMatch) {
  Rng stream(99);
  stream.Normal(0.0, 1.0);
  const std::string state = stream.SerializeState();
  const double expected_normal = stream.Normal(5.0, 2.0);
  const int64_t expected_int = stream.UniformInt(0, 1000);
  const double expected_exp = stream.Exponential(3.0);

  Rng resumed(1);
  ASSERT_TRUE(resumed.DeserializeState(state));
  EXPECT_EQ(resumed.Normal(5.0, 2.0), expected_normal);
  EXPECT_EQ(resumed.UniformInt(0, 1000), expected_int);
  EXPECT_EQ(resumed.Exponential(3.0), expected_exp);
}

TEST(RngSnapshotTest, GarbageStateIsRejectedWithoutDamage) {
  Rng stream(5);
  const double before = stream.Uniform(0.0, 1.0);
  (void)before;
  const std::string good = stream.SerializeState();
  EXPECT_FALSE(stream.DeserializeState("not an engine state"));
  // The failed restore left the stream untouched.
  EXPECT_EQ(stream.SerializeState(), good);
}

// ---------------------------------------------------------------------------
// Full-run checkpoint/resume property.

ExperimentConfig CheckpointChaosConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(4, 8);
  config.workload.duration = Minutes(10.0);
  config.workload.load = 1.3;
  config.workload.model_sample_jobs = 400;
  config.workload.pretrain_jobs = 400;
  config.workload.seed = 11;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 11;
  config.sched.cycle_period = config.sim.cycle_period;
  // The headline property's conditions: faults on, basis warm-starting —
  // and no wall-clock budgets (the only legitimately nondeterministic solver
  // input).
  config.sched.solver_time_limit_seconds = 0.0;
  config.sim.faults.node_mttf = 1500.0;
  config.sim.faults.node_mttr = 240.0;
  config.sim.faults.task_kill_prob = 0.05;
  config.sim.faults.straggler_prob = 0.1;
  config.sim.faults.straggler_factor = 2.0;
  config.sim.faults.cycle_stall_prob = 0.05;
  config.sim.faults.seed = 5;
  return config;
}

void Pretrain(SystemInstance& instance, const GeneratedWorkload& workload) {
  for (const JobSpec& job : workload.pretrain) {
    instance.predictor->RecordCompletion(job.features, job.true_runtime);
  }
}

// Both checkpointing scheduler families: 3Sigma persists its own per-job
// state beside the simulator's records, Prio only its pending order.
void ExpectResumeAtRandomCyclesIsByteIdentical(SystemKind kind) {
  SCOPED_TRACE(SystemName(kind));
  const ExperimentConfig config = CheckpointChaosConfig();
  const GeneratedWorkload workload =
      GenerateWorkload(config.cluster, config.workload);

  // Uninterrupted reference run.
  SystemInstance reference = MakeSystem(kind, config.cluster, config.sched);
  Pretrain(reference, workload);
  Simulator ref_sim(config.cluster, reference.scheduler.get(), workload.jobs, config.sim);
  const SimResult ref_result = ref_sim.Run();
  const std::string ref_trace = SimTrace(ref_result);
  ASSERT_GT(ref_result.cycles.size(), 10u) << "config too small to exercise checkpointing";

  Rng cycle_picker(1234);
  for (int trial = 0; trial < 3; ++trial) {
    const uint64_t checkpoint_cycle = static_cast<uint64_t>(
        cycle_picker.UniformInt(1, static_cast<int64_t>(ref_result.cycles.size()) - 1));

    // Run a fresh system up to the checkpoint cycle, snapshot, and "kill" it.
    std::string buffer;
    {
      SystemInstance doomed = MakeSystem(kind, config.cluster, config.sched);
      Pretrain(doomed, workload);
      Simulator sim(config.cluster, doomed.scheduler.get(), workload.jobs, config.sim);
      while (sim.cycles_completed() < checkpoint_cycle) {
        ASSERT_TRUE(sim.Step());
      }
      buffer = sim.SaveStateToBuffer();
      // The simulator and its scheduler are destroyed here: the kill.
    }

    // Resume into a freshly built system. Pretraining again is deliberately
    // harmless — RestoreState replaces predictor histories wholesale.
    SystemInstance resumed = MakeSystem(kind, config.cluster, config.sched);
    Pretrain(resumed, workload);
    Simulator sim(config.cluster, resumed.scheduler.get(), {}, config.sim);
    sim.RestoreStateFromBuffer(buffer);
    EXPECT_EQ(sim.cycles_completed(), checkpoint_cycle);
    const SimResult result = sim.Run();

    EXPECT_EQ(SimTrace(result), ref_trace)
        << "divergence after resuming at cycle " << checkpoint_cycle;
  }
}

TEST(CheckpointResumeTest, ResumeAtRandomCyclesIsByteIdentical) {
  for (const SystemKind kind : {SystemKind::kThreeSigma, SystemKind::kPrio}) {
    ExpectResumeAtRandomCyclesIsByteIdentical(kind);
  }
}

TEST(CheckpointResumeTest, FileRoundTripAndPeek) {
  ExperimentConfig config = CheckpointChaosConfig();
  config.workload.duration = Minutes(4.0);
  const GeneratedWorkload workload =
      GenerateWorkload(config.cluster, config.workload);

  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Pretrain(instance, workload);
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim.Step());
  }
  const std::string path = ::testing::TempDir() + "/snapshot_test_checkpoint.snap";
  std::string error;
  ASSERT_TRUE(sim.WriteCheckpoint(path, &error)) << error;
  const SimResult ref_result = sim.Run();

  CheckpointInfo info;
  ASSERT_TRUE(Simulator::PeekCheckpoint(path, &info, &error)) << error;
  EXPECT_EQ(info.cycles_completed, 5u);
  EXPECT_EQ(info.cluster.num_groups(), config.cluster.num_groups());
  EXPECT_EQ(info.cluster.total_nodes(), config.cluster.total_nodes());
  EXPECT_EQ(info.options.seed, config.sim.seed);

  SimResult result;
  ASSERT_TRUE(ResumeSystem(SystemKind::kThreeSigma, path, config.sched, config.sim, &result,
                           &error))
      << error;
  EXPECT_EQ(SimTrace(result), SimTrace(ref_result));
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, GracefulRejection) {
  const ExperimentConfig config = CheckpointChaosConfig();
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Simulator sim(config.cluster, instance.scheduler.get(), {}, config.sim);

  std::string error;
  EXPECT_FALSE(sim.TryRestoreStateFromBuffer("definitely not a snapshot", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(sim.TryResumeFrom("/nonexistent/path/x.snap", &error));
  EXPECT_FALSE(error.empty());

  // Cluster-shape mismatch is rejected before any state is touched.
  ExperimentConfig small = config;
  small.cluster = ClusterConfig::Uniform(2, 4);
  small.workload.duration = Minutes(2.0);
  small.workload.model_sample_jobs = 100;
  small.workload.pretrain_jobs = 100;
  const GeneratedWorkload workload = GenerateWorkload(small.cluster, small.workload);
  SystemInstance other = MakeSystem(SystemKind::kThreeSigma, small.cluster, small.sched);
  Simulator other_sim(small.cluster, other.scheduler.get(), workload.jobs, small.sim);
  ASSERT_TRUE(other_sim.Step());
  EXPECT_FALSE(sim.TryRestoreStateFromBuffer(other_sim.SaveStateToBuffer(), &error));
  EXPECT_NE(error.find("groups"), std::string::npos) << error;
}

TEST(CheckpointResumeTest, OtherSchedSectionVersionsFailSoft) {
  // Each scheduler reads only its current "sched" layout (3Sigma v8, Prio
  // v2); older and newer versions latch a reader error instead of being
  // misread.
  const ExperimentConfig config = CheckpointChaosConfig();
  const struct {
    SystemKind kind;
    const char* tag;
    std::vector<uint32_t> versions;
  } cases[] = {{SystemKind::kThreeSigma, "3sigma-sched", {6u, 7u, 9u}},
               {SystemKind::kPrio, "prio", {1u, 3u}}};
  for (const auto& c : cases) {
    for (const uint32_t version : c.versions) {
      SnapshotWriter writer;
      writer.BeginSection("sched", version);
      writer.WriteString(c.tag);
      writer.WriteVarU64(0);
      writer.EndSection();
      SnapshotReader reader(writer.Finish());
      ASSERT_TRUE(reader.ok());
      SystemInstance instance = MakeSystem(c.kind, config.cluster, config.sched);
      instance.scheduler->RestoreState(reader);
      EXPECT_FALSE(reader.ok()) << c.tag << " version " << version;
      EXPECT_NE(
          reader.error().find("unsupported sched section version " + std::to_string(version)),
          std::string::npos)
          << reader.error();
    }
  }
}

TEST(SnapshotDeathTest, TruncatedSnapshotAborts) {
  ExperimentConfig config = CheckpointChaosConfig();
  config.workload.duration = Minutes(3.0);
  const GeneratedWorkload workload =
      GenerateWorkload(config.cluster, config.workload);
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Pretrain(instance, workload);
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  ASSERT_TRUE(sim.Step());
  const std::string buffer = sim.SaveStateToBuffer();

  SystemInstance fresh = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Simulator target(config.cluster, fresh.scheduler.get(), {}, config.sim);
  EXPECT_DEATH(target.RestoreStateFromBuffer(buffer.substr(0, buffer.size() / 3)),
               "snapshot restore failed");
}

TEST(SnapshotDeathTest, BadCrcSnapshotAborts) {
  ExperimentConfig config = CheckpointChaosConfig();
  config.workload.duration = Minutes(3.0);
  const GeneratedWorkload workload =
      GenerateWorkload(config.cluster, config.workload);
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Pretrain(instance, workload);
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  ASSERT_TRUE(sim.Step());
  std::string buffer = sim.SaveStateToBuffer();
  buffer[buffer.size() / 2] = static_cast<char>(buffer[buffer.size() / 2] ^ 0x01);

  SystemInstance fresh = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Simulator target(config.cluster, fresh.scheduler.get(), {}, config.sim);
  EXPECT_DEATH(target.RestoreStateFromBuffer(buffer), "snapshot restore failed");
}

// ---------------------------------------------------------------------------
// CRC-valid but inconsistent payloads.

std::vector<std::string> CounterNames() {
  std::vector<std::string> names;
  for (const auto& [name, value] : obs::MetricsRegistry::Global().CounterValues()) {
    names.push_back(name);
  }
  return names;
}

// Fixed-seed mutations of a real checkpoint, in-process: each overwrites 4
// random bytes and re-seals the CRC, so the envelope verifies and only the
// restore-time checks stand between the bytes and the simulator. Every
// mutant must either be refused by TryRestoreStateFromBuffer or restore into
// a state that steps without aborting, and no mutant may add a counter name
// to the registry.
void ExpectCrcValidMutationsFailSoftOrStep(uint64_t seed, int trials) {
  ExperimentConfig config = CheckpointChaosConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  std::string buffer;
  {
    SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    Pretrain(instance, workload);
    Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
    while (sim.cycles_completed() < 20) {
      ASSERT_TRUE(sim.Step());
    }
    buffer = sim.SaveStateToBuffer();
  }

  const std::vector<std::string> names_before = CounterNames();
  Rng rng(seed);
  int restored = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::string mutant = buffer;
    const int64_t last = static_cast<int64_t>(mutant.size()) - 5;
    for (int k = 0; k < 4; ++k) {
      mutant[static_cast<size_t>(rng.UniformInt(8, last))] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    const uint32_t crc = Crc32(mutant.data(), mutant.size() - 4);
    for (size_t i = 0; i < 4; ++i) {
      mutant[mutant.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    SystemInstance fresh = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    Simulator sim(config.cluster, fresh.scheduler.get(), {}, config.sim);
    if (!sim.TryRestoreStateFromBuffer(mutant)) {
      continue;
    }
    ++restored;
    for (int step = 0; step < 30 && sim.Step(); ++step) {
    }
  }
  // Most mutations land in doubles and restore fine; the loop above must
  // have exercised the stepping path, not only the rejections.
  EXPECT_GT(restored, trials / 4);
  EXPECT_EQ(CounterNames(), names_before);
  obs::ResetAll();
}

// `buffer` with its "obs" payload replaced by kNumCounters + `extra` values
// of 1, resealed.
std::string WithObsValueCount(const std::string& buffer, int extra) {
  std::vector<SnapshotSection> sections;
  EXPECT_TRUE(ListSnapshotSections(buffer, &sections));
  SnapshotWriter writer;
  for (const SnapshotSection& section : sections) {
    writer.BeginSection(section.name, section.version);
    if (section.name == "obs") {
      const size_t count = obs::kNumCounters + extra;
      writer.VarUint(count);
      for (size_t i = 0; i < count; ++i) {
        writer.VarInt(int64_t{1});
      }
    } else {
      for (uint64_t i = 0; i < section.payload_size; ++i) {
        writer.WriteU8(static_cast<uint8_t>(buffer[section.payload_offset + i]));
      }
    }
    writer.EndSection();
  }
  return writer.Finish();
}

TEST(CheckpointFuzzTest, ObsSectionOfWrongSizeFailsSoft) {
  ExperimentConfig config = CheckpointChaosConfig();
  config.workload.duration = Minutes(3.0);
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  obs::ResetAll();
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Pretrain(instance, workload);
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim.Step());
  }
  const std::string buffer = sim.SaveStateToBuffer();
  const auto live = obs::MetricsRegistry::Global().CounterValues();

  // One value too few or too many: refused, with the live totals untouched.
  for (const int extra : {-1, 1}) {
    SCOPED_TRACE(extra);
    SystemInstance fresh = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    Simulator target(config.cluster, fresh.scheduler.get(), {}, config.sim);
    std::string error;
    EXPECT_FALSE(target.TryRestoreStateFromBuffer(WithObsValueCount(buffer, extra), &error));
    EXPECT_NE(error.find("counters"), std::string::npos) << error;
    EXPECT_EQ(obs::MetricsRegistry::Global().CounterValues(), live);
  }

  // The same rewrite at the right size restores every value.
  SystemInstance fresh = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  Simulator target(config.cluster, fresh.scheduler.get(), {}, config.sim);
  std::string error;
  ASSERT_TRUE(target.TryRestoreStateFromBuffer(WithObsValueCount(buffer, 0), &error)) << error;
  for (const auto& [name, value] : obs::MetricsRegistry::Global().CounterValues()) {
    EXPECT_EQ(value, 1) << name;
  }
  obs::ResetAll();
}

TEST(CheckpointFuzzTest, CrcValidMutationsFailSoftOrStep) {
  ExpectCrcValidMutationsFailSoftOrStep(77, 600);
}

// The same property over more seeds and trials (label "property"), enough
// to reach mutants whose "sim" and "sched" sections disagree about a job.
class CheckpointFuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointFuzzSeedTest, CrcValidMutationsFailSoftOrStep) {
  ExpectCrcValidMutationsFailSoftOrStep(GetParam(), 1500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzSeedTest, ::testing::Range<uint64_t>(78, 87),
                         [](const ::testing::TestParamInfo<uint64_t>& seed) {
                           return "seed" + std::to_string(seed.param);
                         });

}  // namespace
}  // namespace threesigma
