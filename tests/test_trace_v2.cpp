// Tests of the trace block container (dynagraph/trace_io): rANS and raw
// block round-trips (block-spanning trials), raw-vs-rANS replay identity,
// block-level and header corruption paths (including shards of other
// format versions), randomized decoder fuzz over raw blocks, and the
// external contact-trace importer (dynagraph/trace_import).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "dynagraph/trace_import.hpp"
#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "sim/trace_replay.hpp"
#include "trace_test_helpers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace doda {
namespace {

using dynagraph::Interaction;
using dynagraph::InteractionSequence;
using dynagraph::TraceShardReader;
using dynagraph::TraceStore;
using dynagraph::TraceStoreWriter;
using dynagraph::TraceWriterOptions;
using sim::MeasureConfig;
using namespace trace_test;

/// Rewrites a shard's header version field (re-sealed), so only the
/// version check can reject the result.
void forgeVersion(const std::string& path, std::uint16_t version) {
  auto bytes = readFile(path);
  bytes[8] = static_cast<char>(version);
  bytes[9] = static_cast<char>(version >> 8);
  resealHeader(bytes);
  writeFile(path, bytes);
}

// ------------------------------------------------------------- round trip

TEST(TraceV2RoundTrip, CompressedStorePreservesEveryTrialAndShrinks) {
  const auto trials = sampleTrials(24, 6, 3000, 99);
  const std::string dir_rans = scratchDir("rt_rans");
  const std::string dir_raw = scratchDir("rt_raw");
  writeStore(dir_rans, 24, trials, 3, TraceWriterOptions{});
  writeStore(dir_raw, 24, trials, 3, rawOptions());

  const auto store = TraceStore::open(dir_rans);
  EXPECT_EQ(store.shardHeaders()[0].codec, dynagraph::kTraceCodecRansV4);
  EXPECT_EQ(store.trialCount(), trials.size());
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]) << "trial " << i;

  // The whole point of rANS blocks: the same content takes fewer bytes.
  const auto raw = TraceStore::open(dir_raw);
  EXPECT_EQ(raw.shardHeaders()[0].codec, dynagraph::kTraceCodecRaw);
  EXPECT_LT(store.totalFileBytes(), raw.totalFileBytes());
}

TEST(TraceV2RoundTrip, TinyBlocksSpanTrialsAndVarints) {
  // Minimum block size with raw blocks: every trial straddles many block
  // boundaries, and the record cursor carries across each of them.
  TraceWriterOptions options = rawOptions();
  options.block_bytes = 16;
  const auto trials = sampleTrials(200, 4, 700, 5);
  const std::string dir = scratchDir("tiny_blocks");
  writeStore(dir, 200, trials, 2, options);
  const auto decoded = decodeStore(TraceStore::open(dir));
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]) << "trial " << i;
}

TEST(TraceV2RoundTrip, UncompressedStoreRoundTrips) {
  const auto trials = sampleTrials(24, 5, 800, 7);
  const std::string dir = scratchDir("raw_blocks");
  writeStore(dir, 24, trials, 2, rawOptions());
  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.shardHeaders()[0].codec, dynagraph::kTraceCodecRaw);
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]) << "trial " << i;
}

TEST(TraceV2RoundTrip, EmptyAndSingleInteractionTrials) {
  std::vector<InteractionSequence> trials;
  trials.push_back(InteractionSequence{});
  trials.push_back(InteractionSequence{Interaction(0, 1)});
  trials.push_back(InteractionSequence{});
  const std::string dir = scratchDir("degenerate");
  writeStore(dir, 4, trials, 1, TraceWriterOptions{});
  const auto decoded = decodeStore(TraceStore::open(dir));
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]);
}

// ----------------------------------------------- replay golden bit-identity

TEST(TraceV2Replay, CompressedReplayBitIdenticalToV1AndInMemory) {
  // The block encoding is a container choice, never a semantics choice:
  // an rANS-block store replays bit-identical to the raw-block store of
  // the same workload and to the in-memory synthetic run, at threads 1, 2
  // and 8.
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 12;
  config.seed = 20260728;
  const core::Time length = 2048;

  auto factory = [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
  config.threads = 1;
  const auto in_memory = measureWithCost(config, length, factory);
  ASSERT_EQ(in_memory.failed_trials, 0u);
  ASSERT_GT(in_memory.interactions.count(), 0u);

  const std::string dir_raw = scratchDir("replay_raw");
  const std::string dir_rans = scratchDir("replay_rans");
  sim::recordSynthetic(dir_raw, config, length, 4, rawOptions());
  sim::recordSynthetic(dir_rans, config, length, 4);
  const auto store_raw = TraceStore::open(dir_raw);
  const auto store_rans = TraceStore::open(dir_rans);
  EXPECT_LT(store_rans.totalFileBytes(), store_raw.totalFileBytes());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::ReplayConfig replay;
    replay.threads = threads;
    replay.compute_cost = true;
    expectIdentical(in_memory, replayTrace(store_raw, replay, factory));
    expectIdentical(in_memory, replayTrace(store_rans, replay, factory));
  }
}

// -------------------------------------------------------------- corruption

class TraceV2Corruption : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratchDir("corrupt");
    const auto trials = sampleTrials(12, 3, 400, 13);
    writeStore(dir_, 12, trials, 2, TraceWriterOptions{});
    shard0_ = (std::filesystem::path(dir_) /
               dynagraph::traceShardFileName(0))
                  .string();
    pristine_ = readFile(shard0_);
    ASSERT_GT(pristine_.size(),
              dynagraph::kTraceHeaderSize +
                  dynagraph::kTraceBlockFrameBytes + 8);
  }

  /// Decodes shard 0 fully; the corruption tests expect this to throw
  /// std::runtime_error mentioning `what`.
  void expectDecodeFailure(const std::string& what) {
    try {
      TraceShardReader reader(shard0_);
      while (reader.beginTrial()) reader.skipRest();
      FAIL() << "decode succeeded on " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual: " << e.what();
    }
  }

  static constexpr std::size_t kFrameStart = dynagraph::kTraceHeaderSize;
  static constexpr std::size_t kStoredStart =
      kFrameStart + dynagraph::kTraceBlockFrameBytes;

  std::string dir_;
  std::string shard0_;
  std::vector<char> pristine_;
};

TEST_F(TraceV2Corruption, FlippedPayloadByteFailsBlockChecksum) {
  auto bytes = pristine_;
  bytes[kStoredStart + 2] = static_cast<char>(bytes[kStoredStart + 2] ^ 0x40);
  writeFile(shard0_, bytes);
  expectDecodeFailure("block checksum mismatch");
}

TEST_F(TraceV2Corruption, FlippedChecksumFieldIsDetected) {
  auto bytes = pristine_;
  bytes[kFrameStart + 9] = static_cast<char>(bytes[kFrameStart + 9] ^ 0x01);
  writeFile(shard0_, bytes);
  expectDecodeFailure("block checksum mismatch");
}

TEST_F(TraceV2Corruption, OversizedBlockRawSizeIsRejected) {
  auto bytes = pristine_;
  for (int i = 0; i < 4; ++i)
    bytes[kFrameStart + static_cast<std::size_t>(i)] =
        static_cast<char>(0xff);
  writeFile(shard0_, bytes);
  expectDecodeFailure("corrupt block");
}

TEST_F(TraceV2Corruption, UnknownBlockCodecIsRejected) {
  auto bytes = pristine_;
  bytes[kFrameStart + 8] = 7;
  writeFile(shard0_, bytes);
  expectDecodeFailure("unknown block codec");
}

TEST_F(TraceV2Corruption, TruncatedShardIsDetectedAtOpen) {
  auto bytes = pristine_;
  bytes.resize(bytes.size() - 11);
  writeFile(shard0_, bytes);
  expectDecodeFailure("truncated");
}

TEST_F(TraceV2Corruption, TruncatedToMidHeaderIsDetectedAtOpen) {
  auto bytes = pristine_;
  bytes.resize(dynagraph::kTraceHeaderSize - 6);
  writeFile(shard0_, bytes);
  expectDecodeFailure("truncated");
}

TEST_F(TraceV2Corruption, FutureFormatVersionIsRejected) {
  auto bytes = pristine_;
  bytes[8] = 6;
  writeFile(shard0_, bytes);
  expectDecodeFailure("unsupported format version");
}

TEST_F(TraceV2Corruption, WrongHeaderSizeIsRejected) {
  auto bytes = pristine_;
  bytes[10] = 64;
  writeFile(shard0_, bytes);
  expectDecodeFailure("unexpected header size");
}

TEST_F(TraceV2Corruption, FlippedHeaderFieldFailsHeaderChecksum) {
  auto bytes = pristine_;
  bytes[56] = static_cast<char>(bytes[56] ^ 0x01);  // raw payload bytes
  writeFile(shard0_, bytes);
  expectDecodeFailure("header checksum mismatch");
}

TEST_F(TraceV2Corruption, InflatedRawPayloadDeclarationIsRejected) {
  // Bump the declared raw payload size and re-seal the header checksum:
  // the block index no longer sums to the header, which open must report.
  auto bytes = pristine_;
  auto* raw = reinterpret_cast<unsigned char*>(bytes.data());
  std::uint64_t declared = 0;
  for (int i = 0; i < 8; ++i)
    declared |= static_cast<std::uint64_t>(raw[56 + i]) << (8 * i);
  declared += 2;
  for (int i = 0; i < 8; ++i)
    raw[56 + i] = static_cast<unsigned char>(declared >> (8 * i));
  resealHeader(bytes);
  writeFile(shard0_, bytes);
  expectDecodeFailure("corrupt");
}

// ------------------------------------------------------------ cross-version

TEST(TraceV2CrossVersion, MixedVersionStoreIsRejected) {
  // Readers accept format version 5 only. A store with one shard of an
  // older version (same shape, same content, header otherwise intact) must
  // be refused by the version check.
  const std::string dir = scratchDir("mixed");
  writeStore(dir, 16, sampleTrials(16, 4, 200, 3), 2, TraceWriterOptions{});
  forgeVersion(
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(1)).string(),
      3);
  EXPECT_THROW(
      try { TraceStore::open(dir); } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported format version 3"),
                  std::string::npos)
            << e.what();
        throw;
      },
      std::runtime_error);
}

TEST(TraceV2CrossVersion, WriterRejectsUnknownVersionAndBadBlockSize) {
  // The writer takes no version (it writes the one format); block sizes
  // outside [16, 2^20] bytes are refused.
  TraceWriterOptions small_block;
  small_block.block_bytes = 4;
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad_opt"), 8, 2, 1, small_block),
               std::invalid_argument);
  TraceWriterOptions huge_block;
  huge_block.block_bytes = dynagraph::kTraceMaxBlockBytes + 1;
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad_opt"), 8, 2, 1, huge_block),
               std::invalid_argument);
}

// ------------------------------------------------------------------- fuzz

TEST(TraceV2Fuzz, MutatedShardsFailCleanlyOrDecodeInRange) {
  // Randomized robustness sweep over the decoder: mutate a few bytes of a
  // valid raw-block shard and fully decode it. Every
  // outcome must be either a clean std::runtime_error or a successful
  // decode of in-range interactions — never a crash, hang, or sanitizer
  // finding (the ASan+UBSan CI job runs this with DODA_FUZZ_ITERS=2000).
  // TraceV3Fuzz covers rANS blocks under seek.
  const std::string dir = scratchDir("fuzz");
  {
    TraceWriterOptions options = rawOptions();
    options.block_bytes = 512;  // many small blocks -> frames get mutated too
    writeStore(dir, 24, sampleTrials(24, 4, 600, 77), 1, options);
  }
  const std::string shard0 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(0))
          .string();
  const std::vector<char> pristine = readFile(shard0);

  std::size_t iterations = 64;
  if (const char* env = std::getenv("DODA_FUZZ_ITERS"))
    iterations = std::strtoull(env, nullptr, 10);

  util::Rng rng(0xf022);
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    auto bytes = pristine;
    const std::size_t mutations = 1 + rng.below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(bytes.size());
      bytes[pos] = static_cast<char>(
          bytes[pos] ^ static_cast<char>(1 + rng.below(255)));
    }
    writeFile(shard0, bytes);
    try {
      TraceShardReader reader(shard0);
      while (reader.beginTrial()) {
        while (const auto i = reader.next())
          ASSERT_LT(i->b(), reader.header().node_count);
      }
    } catch (const std::runtime_error&) {
      ++rejected;  // clean rejection is the expected common case
    }
  }
  EXPECT_GT(rejected, 0u);
  writeFile(shard0, pristine);  // leave the store decodable for cleanup
}

// --------------------------------------------------------------- importer

TEST(ContactImport, ParsesCsvWithHeaderCommentsAndSelfLoops) {
  std::istringstream in(
      "# SocioPatterns-style contact list\n"
      "time,i,j\n"
      "40,5,9\r\n"
      "20,9,17\n"
      "20,17,3\n"
      "60,5,5\n"
      "60,17,5\n"
      "80;3;9\n");
  const auto trace = dynagraph::readContactEvents(in);
  EXPECT_EQ(trace.stats.events, 5u);
  EXPECT_EQ(trace.stats.self_loops, 1u);
  EXPECT_EQ(trace.stats.node_count, 4u);
  EXPECT_TRUE(trace.stats.timestamped);
  EXPECT_EQ(trace.stats.t_min, 20.0);
  EXPECT_EQ(trace.stats.t_max, 80.0);
  // External ids {3, 5, 9, 17} -> dense {0, 1, 2, 3}.
  const std::vector<std::uint64_t> ids{3, 5, 9, 17};
  EXPECT_EQ(trace.external_ids, ids);
  // Time-sorted, stable within equal timestamps.
  const std::vector<Interaction> expected{
      Interaction(2, 3), Interaction(3, 0), Interaction(1, 2),
      Interaction(3, 1), Interaction(0, 2)};
  EXPECT_EQ(trace.events, expected);
}

TEST(ContactImport, UntimedPairsKeepFileOrder) {
  std::istringstream in("7 3\n3 9\n9 7\n");
  const auto trace = dynagraph::readContactEvents(in);
  EXPECT_FALSE(trace.stats.timestamped);
  const std::vector<Interaction> expected{Interaction(1, 0),
                                          Interaction(0, 2),
                                          Interaction(2, 1)};
  EXPECT_EQ(trace.events, expected);
}

TEST(ContactImport, RejectsMalformedInput) {
  {
    std::istringstream in("1 2\n3 4 5\n");  // mixed shapes
    EXPECT_THROW(dynagraph::readContactEvents(in), std::runtime_error);
  }
  {
    std::istringstream in("1 2\nx y\n");  // non-numeric after data
    EXPECT_THROW(dynagraph::readContactEvents(in), std::runtime_error);
  }
  {
    std::istringstream in("# only comments\n");
    EXPECT_THROW(dynagraph::readContactEvents(in), std::runtime_error);
  }
  {
    std::istringstream in("5 5\n");  // nothing but a self-loop
    EXPECT_THROW(dynagraph::readContactEvents(in), std::runtime_error);
  }
  {
    dynagraph::ContactImportOptions strict;
    strict.skip_self_loops = false;
    std::istringstream in("1 2\n5 5\n");
    EXPECT_THROW(dynagraph::readContactEvents(in, strict),
                 std::runtime_error);
  }
}

TEST(ContactImport, MaxEventsCapsIngestion) {
  dynagraph::ContactImportOptions options;
  options.max_events = 2;
  std::istringstream in("1 2\n2 3\n3 4\n4 5\n");
  const auto trace = dynagraph::readContactEvents(in, options);
  EXPECT_EQ(trace.stats.events, 2u);
}

TEST(ContactImport, ImportedStoreRoundTripsAndReplays) {
  // End to end: event file -> sharded store -> decoded trials match the
  // parsed segments, and the store replays through the executor.
  const std::string input = scratchDir("events") + ".csv";
  {
    util::Rng rng(123);
    std::ofstream out(input);
    out << "# synthetic contact log\n";
    for (int t = 0; t < 500; ++t) {
      // Zipf-flavored endpoints with external ids offset by 1000.
      const auto u = 1000 + rng.below(5) * rng.below(5);
      auto v = 1000 + rng.below(25);
      out << t / 3 << "\t" << u << "\t" << v << "\n";
    }
  }
  dynagraph::ContactImportOptions options;
  options.trials = 7;
  const std::string dir = scratchDir("import_store");
  const auto stats =
      dynagraph::importContactTrace(input, dir, 3, options);
  ASSERT_GT(stats.events, 400u);
  ASSERT_GE(stats.node_count, 2u);

  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.trialCount(), 7u);
  EXPECT_EQ(store.shardCount(), 3u);
  EXPECT_EQ(store.nodeCount(), stats.node_count);

  const auto reference = dynagraph::loadContactEvents(input, options);
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), 7u);
  std::size_t offset = 0;
  for (const auto& trial : decoded) {
    for (core::Time t = 0; t < trial.length(); ++t)
      EXPECT_EQ(trial.at(t), reference.events[offset + t]);
    offset += trial.length();
  }
  EXPECT_EQ(offset, reference.events.size());

  sim::ReplayConfig replay;
  replay.threads = 2;
  const auto result =
      replayTrace(store, replay, [](sim::TrialContext&) {
        return std::make_unique<algorithms::Gathering>();
      });
  EXPECT_EQ(result.interactions.count() + result.failed_trials, 7u);
}

}  // namespace
}  // namespace doda
