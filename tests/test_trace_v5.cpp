// Tests of what format version 5 of the trace shard pins
// (dynagraph/trace_io, util/bytes): the shard checksum's known answers
// and its detection of every single-bit flip of a real block, the format
// constants, the rule that a block frame equals its index entry, the
// 1 MiB block cap, the rejection of version-4 shards, and byte goldens of
// the written shard files.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynagraph/trace_io.hpp"
#include "trace_test_helpers.hpp"
#include "util/bytes.hpp"

namespace doda {
namespace {

using dynagraph::TraceShardReader;
using dynagraph::TraceStore;
using dynagraph::TraceWriterOptions;
using namespace trace_test;

std::string shardPath(const std::string& dir, std::uint32_t shard) {
  return (std::filesystem::path(dir) / dynagraph::traceShardFileName(shard))
      .string();
}

/// Opens `path` and reads every trial to its end; the reader must throw
/// std::runtime_error whose message contains `what`.
void expectDecodeFailure(const std::string& path, const std::string& what) {
  try {
    TraceShardReader reader(path);
    while (reader.beginTrial()) reader.skipRest();
    ADD_FAILURE() << "decode succeeded, expected: " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual: " << e.what();
  }
}

// --------------------------------------------------------------- checksum

TEST(TraceV5Checksum, KnownAnswers) {
  // Pins util::wordChecksum as docs/FORMATS.md defines it: byte i of the
  // input is (31 * i + 7) mod 256. The lengths cover the empty input, a
  // tail only (1, 31), one whole chunk (32), a chunk plus a tail byte
  // (33) and a 16 KiB block.
  std::vector<unsigned char> input(std::size_t{1} << 14);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<unsigned char>(31 * i + 7);
  struct Case {
    std::size_t size;
    std::uint64_t checksum;
  };
  const Case cases[] = {
      {0, 0x7290250b6b1a3c6cULL},
      {1, 0x97aa82639058f973ULL},
      {31, 0x9ad9133ea866056eULL},
      {32, 0xa5548362cb802389ULL},
      {33, 0x00fb693bfbd3d669ULL},
      {std::size_t{1} << 14, 0x358c849f66670079ULL},
  };
  for (const Case& c : cases)
    EXPECT_EQ(util::wordChecksum(input.data(), c.size), c.checksum)
        << c.size << " bytes";
}

TEST(TraceV5Checksum, EverySingleBitFlipAndShortTruncationIsDetected) {
  // A raw block written at a 4 KiB capacity, as the writer sealed it:
  // one 3-byte length unit and 818 five-byte pair units (24 nodes keep
  // every field one byte), 4093 bytes, so both the 32-byte chunks and a
  // 29-byte FNV-1a tail are covered. Each step of a lane is a bijection,
  // so flipping any one bit must change the checksum; cutting 1 to 40
  // bytes off the end changes the byte count folded in last.
  TraceWriterOptions options = rawOptions();
  options.block_bytes = 4096;
  const std::string dir = scratchDir("v5_flip");
  writeStore(dir, 24, sampleTrials(24, 1, 4000, 31), 1, options);
  const auto bytes = readFile(shardPath(dir, 0));
  const auto* frame =
      reinterpret_cast<const unsigned char*>(bytes.data()) +
      dynagraph::kTraceHeaderSize;
  const std::uint32_t stored = util::loadU32(frame + 4);
  ASSERT_EQ(stored, 4093u);
  std::vector<unsigned char> block(frame + dynagraph::kTraceBlockFrameBytes,
                                   frame + dynagraph::kTraceBlockFrameBytes +
                                       stored);
  const std::uint64_t sealed = util::loadU64(frame + 9);
  ASSERT_EQ(util::wordChecksum(block.data(), block.size()), sealed);
  std::size_t missed = 0;
  for (std::size_t bit = 0; bit < block.size() * 8; ++bit) {
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    if (util::wordChecksum(block.data(), block.size()) == sealed) ++missed;
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(missed, 0u);
  for (std::size_t cut = 1; cut <= 40; ++cut)
    EXPECT_NE(util::wordChecksum(block.data(), block.size() - cut), sealed)
        << cut << " bytes cut";
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- format

TEST(TraceV5Format, ConstantsAndDefaultHeaderArePinned) {
  EXPECT_EQ(dynagraph::kTraceFormatVersion, 5);
  EXPECT_EQ(dynagraph::kTraceBlockBytes, std::size_t{16384});
  EXPECT_EQ(dynagraph::kTraceMaxBlockBytes, std::size_t{1} << 20);
  const std::string dir = scratchDir("v5_default");
  writeStore(dir, 16, sampleTrials(16, 2, 100, 5), 1, TraceWriterOptions{});
  const auto bytes = readFile(shardPath(dir, 0));
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(util::loadU16(data + 8), 5);
  EXPECT_EQ(util::loadU32(data + 64), 16384u);
  EXPECT_EQ(TraceStore::open(dir).shardHeaders()[0].block_bytes, 16384u);
}

TEST(TraceV5CrossVersion, V4ShardIsRejected) {
  // A shard that is whole but says version 4 (header resealed, so only the
  // version check can object) is refused by name.
  const std::string dir = scratchDir("v5_v4");
  writeStore(dir, 16, sampleTrials(16, 2, 200, 3), 1, TraceWriterOptions{});
  auto bytes = readFile(shardPath(dir, 0));
  util::storeU16(reinterpret_cast<unsigned char*>(bytes.data()) + 8, 4);
  resealHeader(bytes);
  writeFile(shardPath(dir, 0), bytes);
  try {
    TraceStore::open(dir);
    ADD_FAILURE() << "a version-4 shard must not open";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 4"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ corruption

TEST(TraceV5Corruption, FrameThatDisagreesWithItsIndexEntryIsRejected) {
  // Shrink block 0's frame by one byte in both sizes and reseal its
  // checksum over the shorter stored bytes: the frame is consistent in
  // itself, and only its index entry can expose it. The reader must
  // refuse it before it sizes anything from the frame; the offset it
  // reports lies past the entry's stored size, so the one read of frame
  // and stored bytes was sized from the entry.
  TraceWriterOptions options = rawOptions();
  options.block_bytes = 256;
  const std::string dir = scratchDir("v5_frame");
  writeStore(dir, 16, sampleTrials(16, 2, 300, 7), 1, options);
  auto bytes = readFile(shardPath(dir, 0));
  auto* frame = reinterpret_cast<unsigned char*>(bytes.data()) +
                dynagraph::kTraceHeaderSize;
  const std::uint32_t raw = util::loadU32(frame);
  util::storeU32(frame, raw - 1);
  util::storeU32(frame + 4, raw - 1);
  resealBlock(bytes, dynagraph::kTraceHeaderSize);
  writeFile(shardPath(dir, 0), bytes);
  expectDecodeFailure(shardPath(dir, 0),
                      "block frame disagrees with its index entry (corrupt "
                      "block) (at byte " +
                          std::to_string(dynagraph::kTraceHeaderSize +
                                         dynagraph::kTraceBlockFrameBytes +
                                         raw) +
                          ", block 0)");
}

TEST(TraceV5Corruption, BlockCapacityAboveOneMiBIsRejected) {
  // The cap bounds every buffer a reader sizes from a shard. A header
  // (resealed) declaring one byte more is refused at open; a store
  // written at the cap itself opens.
  const std::string dir = scratchDir("v5_cap");
  writeStore(dir, 16, sampleTrials(16, 2, 200, 9), 1, TraceWriterOptions{});
  auto bytes = readFile(shardPath(dir, 0));
  const auto over_cap =
      static_cast<std::uint32_t>(dynagraph::kTraceMaxBlockBytes + 1);
  util::storeU32(reinterpret_cast<unsigned char*>(bytes.data()) + 64,
                 over_cap);
  resealHeader(bytes);
  writeFile(shardPath(dir, 0), bytes);
  expectDecodeFailure(shardPath(dir, 0), "header block size out of range");

  TraceWriterOptions cap;
  cap.block_bytes = dynagraph::kTraceMaxBlockBytes;
  const std::string cap_dir = scratchDir("v5_cap_ok");
  writeStore(cap_dir, 16, sampleTrials(16, 2, 200, 9), 1, cap);
  EXPECT_EQ(TraceStore::open(cap_dir).shardHeaders()[0].block_bytes,
            dynagraph::kTraceMaxBlockBytes);
}

// --------------------------------------------------------- byte goldens

TEST(TraceV5Golden, ShardFileBytesArePinned) {
  // The on-disk format is a compatibility contract: stores recorded by
  // earlier builds must replay unchanged. A fixed workload recorded with
  // the default options (rANS blocks) and with small raw blocks must hash
  // to these FNV-1a values, shard file by shard file. A deliberate format
  // change has to bump the header version and update them.
  const auto trials = sampleTrials(24, 4, 600, 2016);
  TraceWriterOptions raw;
  raw.compress = false;
  raw.block_bytes = 512;
  struct Case {
    const char* tag;
    TraceWriterOptions options;
    std::array<std::uint64_t, 2> shard_fnv;
  };
  const Case cases[] = {
      {"rans", TraceWriterOptions{},
       {0x95f9b5c97a6086baULL, 0xf5e668f3bc5d29eaULL}},
      {"raw512", raw, {0x67a454728e095bdfULL, 0x10a1f4dfa0059786ULL}},
  };
  for (const Case& c : cases) {
    const std::string dir = scratchDir(std::string("golden_") + c.tag);
    writeStore(dir, 24, trials, 2, c.options);
    for (std::uint32_t shard = 0; shard < 2; ++shard) {
      const auto bytes = readFile(shardPath(dir, shard));
      EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), c.shard_fnv[shard])
          << c.tag << " shard " << shard;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace doda
