// Tests of the trace store's rANS blocks and block index
// (dynagraph/trace_io + trace_rans): round-trips, the per-shard
// block-index footer (structure, corruption, index/payload mismatch),
// random access (seekToTrial / seekToBlock), ranged replay bit-identity
// against a full replay, mixed-codec stores, the incremental writer API,
// the streaming two-pass importer, and a randomized indexed-seek fuzz
// (DODA_FUZZ_ITERS-scalable).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/gathering.hpp"
#include "dynagraph/trace_import.hpp"
#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "sim/trace_replay.hpp"
#include "trace_test_helpers.hpp"
#include "util/bytes.hpp"
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
using sim::MeasureResult;
using sim::ReplayTrialRange;
using namespace trace_test;

// ------------------------------------------------------------- round trip

TEST(TraceV3RoundTrip, DefaultStoreIsV4AndPreservesEveryTrial) {
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

  // rANS blocks beat raw blocks of the same content.
  EXPECT_LT(store.totalFileBytes(),
            TraceStore::open(dir_raw).totalFileBytes());
}

TEST(TraceV3RoundTrip, TinyBlocksAlignToRecordUnits) {
  // Minimum block size: blocks must never split a record unit, so every
  // block boundary stays describable by the index cursor.
  TraceWriterOptions options;
  options.block_bytes = 16;
  const auto trials = sampleTrials(200, 4, 700, 5);
  const std::string dir = scratchDir("tiny_blocks");
  writeStore(dir, 200, trials, 2, options);
  const auto store = TraceStore::open(dir);
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]) << "trial " << i;
}

TEST(TraceV3RoundTrip, UncompressedStoreRoundTripsWithIndex) {
  const auto trials = sampleTrials(24, 5, 800, 7);
  const std::string dir = scratchDir("raw_blocks");
  writeStore(dir, 24, trials, 2, rawOptions());
  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.shardHeaders()[0].codec, dynagraph::kTraceCodecRaw);
  auto reader = store.openShard(0);
  EXPECT_FALSE(reader.blockIndex().empty());
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]) << "trial " << i;
}

TEST(TraceV3RoundTrip, EmptyAndSingleInteractionTrials) {
  std::vector<InteractionSequence> trials;
  trials.push_back(InteractionSequence{});
  trials.push_back(InteractionSequence{Interaction(0, 1)});
  trials.push_back(InteractionSequence{});
  const std::string dir = scratchDir("degenerate");
  writeStore(dir, 4, trials, 1, TraceWriterOptions{});
  const auto store = TraceStore::open(dir);
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]);
  // Empty trials are seekable too.
  auto reader = store.openShard(0);
  ASSERT_TRUE(reader.seekToTrial(2));
  ASSERT_TRUE(reader.beginTrial());
  EXPECT_EQ(reader.trialLength(), 0u);
}

TEST(TraceV3RoundTrip, IncrementalWriterMatchesAppendTrial) {
  // beginTrial/addInteraction (the streaming-import path) must produce a
  // byte-identical shard to the materialized appendTrial path.
  const auto trials = sampleTrials(32, 4, 600, 17);
  const std::string dir_a = scratchDir("inc_a");
  const std::string dir_b = scratchDir("inc_b");
  writeStore(dir_a, 32, trials, 2, TraceWriterOptions{});
  {
    TraceStoreWriter writer(dir_b, 32, trials.size(), 2,
                            TraceWriterOptions{});
    for (const auto& trial : trials) {
      writer.beginTrial(trial.length());
      for (core::Time t = 0; t < trial.length(); ++t)
        writer.addInteraction(trial.at(t));
    }
    writer.finish();
  }
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    const auto name = dynagraph::traceShardFileName(shard);
    EXPECT_EQ(readFile((std::filesystem::path(dir_a) / name).string()),
              readFile((std::filesystem::path(dir_b) / name).string()))
        << "shard " << shard;
  }
}

TEST(TraceV3RoundTrip, IncrementalWriterRejectsProtocolErrors) {
  const std::string dir = scratchDir("inc_err");
  TraceStoreWriter writer(dir, 8, 2, 1, TraceWriterOptions{});
  EXPECT_THROW(writer.addInteraction(Interaction(0, 1)), std::logic_error);
  writer.beginTrial(2);
  EXPECT_THROW(writer.beginTrial(1), std::logic_error);
  EXPECT_THROW(writer.addInteraction(Interaction(0, 9)),
               std::invalid_argument);  // endpoint >= node_count
  writer.addInteraction(Interaction(0, 1));
  writer.addInteraction(Interaction(1, 2));
  // The first trial is complete but the second never arrives.
  EXPECT_THROW(writer.finish(), std::logic_error);
}

// ------------------------------------------------------------ block index

TEST(TraceV3Index, EntriesDescribeThePayloadExactly) {
  TraceWriterOptions options;
  options.block_bytes = 512;  // many blocks
  const auto trials = sampleTrials(48, 6, 800, 23);
  const std::string dir = scratchDir("index_shape");
  writeStore(dir, 48, trials, 2, options);
  const auto store = TraceStore::open(dir);
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    auto reader = store.openShard(s);
    const auto& index = reader.blockIndex();
    ASSERT_GT(index.size(), 1u);
    const auto& header = reader.header();
    std::uint64_t offset = dynagraph::kTraceHeaderSize;
    std::uint64_t raw = 0;
    std::uint64_t trials_begun = 0;
    for (const auto& entry : index) {
      EXPECT_EQ(entry.offset, offset);
      EXPECT_EQ(entry.raw_start, raw);
      EXPECT_GE(entry.trials_begun, trials_begun);
      EXPECT_LE(entry.decoded, entry.trial_length);
      offset += dynagraph::kTraceBlockFrameBytes + entry.stored_size;
      raw += entry.raw_size;
      trials_begun = entry.trials_begun;
    }
    EXPECT_EQ(offset, dynagraph::kTraceHeaderSize + header.payload_bytes);
    EXPECT_EQ(raw, header.raw_payload_bytes);
  }
}

TEST(TraceV3Index, SeekToEveryTrialMatchesSequentialDecode) {
  TraceWriterOptions options;
  options.block_bytes = 256;  // trials straddle many blocks
  const auto trials = sampleTrials(40, 10, 300, 31);
  const std::string dir = scratchDir("seek_all");
  writeStore(dir, 40, trials, 3, options);
  const auto store = TraceStore::open(dir);
  for (std::uint64_t g = 0; g < store.trialCount(); ++g) {
    bool found = false;
    for (std::size_t s = 0; s < store.shardCount() && !found; ++s) {
      auto reader = store.openShard(s);
      if (!reader.seekToTrial(g)) continue;
      ASSERT_TRUE(reader.beginTrial());
      EXPECT_EQ(reader.readRest(), trials[static_cast<std::size_t>(g)])
          << "trial " << g;
      found = true;
    }
    EXPECT_TRUE(found) << "trial " << g << " not found in any shard";
  }
  // Backward seeks work on one open reader (the index rewinds).
  auto reader = store.openShard(0);
  const std::uint64_t in_shard = reader.header().trial_count;
  ASSERT_TRUE(reader.seekToTrial(in_shard - 1));
  ASSERT_TRUE(reader.seekToTrial(0));
  ASSERT_TRUE(reader.beginTrial());
  EXPECT_EQ(reader.readRest(), trials[0]);
}

TEST(TraceV3Index, SeekToBlockResumesFromEveryBlock) {
  TraceWriterOptions options;
  options.block_bytes = 256;
  const auto trials = sampleTrials(40, 4, 500, 37);
  const std::string dir = scratchDir("seek_block");
  writeStore(dir, 40, trials, 1, options);
  const auto store = TraceStore::open(dir);
  const std::size_t blocks = store.openShard(0).blockIndex().size();
  ASSERT_GT(blocks, 2u);
  for (std::size_t k = 0; k < blocks; ++k) {
    auto reader = store.openShard(0);
    reader.seekToBlock(k);
    // Decoding to the end from any block must terminate cleanly with the
    // end-of-shard accounting intact.
    while (reader.beginTrial()) reader.skipRest();
    EXPECT_EQ(reader.trialsBegun(), reader.header().trial_count);
  }
  auto reader = store.openShard(0);
  EXPECT_THROW(reader.seekToBlock(blocks), std::out_of_range);
}

// ----------------------------------------------------------- ranged replay

TEST(TraceV3RangedReplay, WindowStatsMatchFoldedFullReplay) {
  // The acceptance contract: replaying trials [a, b) produces Stats
  // bit-identical to folding the same trials out of a full replay — on
  // rANS, raw and tiny (many blocks per trial) stores, threads 1/2/8.
  sim::MeasureConfig config;
  config.node_count = 12;
  config.trials = 30;
  config.seed = 20260728;
  const core::Time length = 1024;

  const std::string dir_raw = scratchDir("ranged_raw");
  const std::string dir_tiny = scratchDir("ranged_tiny");
  const std::string dir_rans = scratchDir("ranged_rans");
  sim::recordSynthetic(dir_raw, config, length, 4, rawOptions());
  TraceWriterOptions tiny;
  tiny.block_bytes = 64;
  sim::recordSynthetic(dir_tiny, config, length, 4, tiny);
  sim::recordSynthetic(dir_rans, config, length, 4);

  const auto body = [](std::size_t global, TraceShardReader& reader,
                       core::Engine::Scratch&) {
    sim::TrialOutcome outcome;
    outcome.success = true;
    // A deterministic trial-dependent value with a fractional part, so a
    // wrong fold order or a misaligned window shows up in mean/variance.
    outcome.interactions =
        static_cast<double>(reader.trialLength()) / 3.0 +
        static_cast<double>(global) * 7.0;
    reader.skipRest();
    return outcome;
  };

  const auto store_rans = TraceStore::open(dir_rans);
  const auto full = sim::replayShards(store_rans, 1, body);
  ASSERT_EQ(full.interactions.count(), config.trials);

  // Reference: fold the window's outcomes out of a full replay.
  const ReplayTrialRange window{7, 23};
  std::vector<sim::TrialOutcome> outcomes(config.trials);
  sim::replayShards(store_rans, 1,
                    [&](std::size_t global, TraceShardReader& reader,
                        core::Engine::Scratch& scratch) {
                      const auto outcome = body(global, reader, scratch);
                      outcomes[global] = outcome;
                      return outcome;
                    });
  MeasureResult folded;
  for (std::uint64_t g = window.first; g < window.last; ++g)
    foldOutcome(folded, outcomes[static_cast<std::size_t>(g)]);

  for (const std::string& dir : {dir_raw, dir_tiny, dir_rans}) {
    const auto store = TraceStore::open(dir);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const auto ranged = sim::replayShards(store, threads, body, window);
      expectIdentical(folded, ranged);
    }
  }

  // Degenerate windows.
  expectIdentical(full,
                  sim::replayShards(store_rans, 2, body,
                                    ReplayTrialRange{0, ~std::uint64_t{0}}));
  const auto empty =
      sim::replayShards(store_rans, 2, body, ReplayTrialRange{9, 9});
  EXPECT_EQ(empty.interactions.count(), 0u);
  EXPECT_EQ(empty.failed_trials, 0u);
}

TEST(TraceV3RangedReplay, EngineReplayHonorsTrialRange) {
  // End to end through the real engine: a ranged replay equals the fold of
  // the same trials' outcomes from a full replay.
  sim::MeasureConfig config;
  config.node_count = 10;
  config.trials = 18;
  config.seed = 424242;
  const std::string dir = scratchDir("ranged_engine");
  sim::recordSynthetic(dir, config, 2048, 3);
  const auto store = TraceStore::open(dir);

  const sim::AlgorithmFactory factory = [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
  sim::ReplayConfig full_cfg;
  full_cfg.threads = 1;
  // Capture per-trial outcomes of the full replay via the executor body
  // (replayTrace folds them; re-derive the window's fold).
  std::vector<double> interactions(config.trials, -1.0);
  sim::replayShards(
      store, 1,
      [&](std::size_t global, TraceShardReader& reader,
          core::Engine::Scratch& scratch) {
        sim::ReplayConfig one;
        one.threads = 1;
        one.trial_range = {global, global + 1};
        (void)scratch;
        sim::TrialOutcome outcome;
        // Run Gathering through the engine on the streamed trial.
        core::SystemInfo info{store.nodeCount(), 0};
        auto algorithm = std::make_unique<algorithms::Gathering>();
        core::Engine engine(info, core::AggregationFunction::count());
        class Stream final : public core::Adversary {
         public:
          explicit Stream(TraceShardReader& r) : r_(r) {}
          std::string name() const override { return "s"; }
          std::optional<core::Interaction> next(
              core::Time, const core::ExecutionView&) override {
            return r_.next();
          }

         private:
          TraceShardReader& r_;
        } adversary(reader);
        core::RunOptions options;
        options.max_interactions = reader.trialLength();
        options.capture_schedule = false;
        const auto result =
            engine.runInto(scratch, *algorithm, adversary, options);
        outcome.success = result.terminated;
        outcome.interactions =
            result.terminated
                ? static_cast<double>(result.interactions_to_terminate)
                : 0.0;
        interactions[global] = outcome.interactions;
        return outcome;
      });

  sim::ReplayConfig ranged_cfg;
  ranged_cfg.trial_range = {5, 14};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ranged_cfg.threads = threads;
    const auto ranged = replayTrace(store, ranged_cfg, factory);
    MeasureResult folded;
    for (std::uint64_t g = 5; g < 14; ++g) {
      sim::TrialOutcome outcome;
      outcome.success = true;
      outcome.interactions = interactions[static_cast<std::size_t>(g)];
      foldOutcome(folded, outcome);
    }
    expectIdentical(folded, ranged);
  }
}

// ------------------------------------------------------------- mixed codec

TEST(TraceV3MixedCodec, IncompressibleBlocksFallBackToRawWithinAShard) {
  // Tiny blocks make the per-block tables dominate, forcing raw fallback
  // on some blocks while others stay rANS — the shard must mix codecs and
  // still decode identically.
  TraceWriterOptions options;
  options.block_bytes = 48;
  const auto trials = sampleTrials(180, 3, 400, 41);
  const std::string dir = scratchDir("mixed_blocks");
  writeStore(dir, 180, trials, 1, options);
  const auto store = TraceStore::open(dir);
  auto reader = store.openShard(0);
  const auto shard_path = store.shardPath(0);
  const auto bytes = readFile(shard_path);
  std::set<std::uint8_t> codecs;
  for (const auto& entry : reader.blockIndex())
    codecs.insert(static_cast<std::uint8_t>(
        bytes[static_cast<std::size_t>(entry.offset) + 8]));
  EXPECT_TRUE(codecs.count(static_cast<std::uint8_t>(
      dynagraph::kTraceCodecRaw)))
      << "expected at least one raw-fallback block";
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]);
}

TEST(TraceV3MixedCodec, StoreMayMixRawAndRansShards) {
  // Shards are self-describing: a store whose shards disagree on codec
  // (e.g. a re-compressed shard next to a raw one) still decodes.
  const auto trials = sampleTrials(24, 6, 500, 43);
  const std::string dir_rans = scratchDir("mix_rans");
  const std::string dir_raw = scratchDir("mix_raw");
  writeStore(dir_rans, 24, trials, 2, TraceWriterOptions{});
  writeStore(dir_raw, 24, trials, 2, rawOptions());
  std::filesystem::copy_file(
      std::filesystem::path(dir_raw) / dynagraph::traceShardFileName(1),
      std::filesystem::path(dir_rans) / dynagraph::traceShardFileName(1),
      std::filesystem::copy_options::overwrite_existing);
  const auto store = TraceStore::open(dir_rans);
  EXPECT_EQ(store.shardHeaders()[0].codec, dynagraph::kTraceCodecRansV4);
  EXPECT_EQ(store.shardHeaders()[1].codec, dynagraph::kTraceCodecRaw);
  const auto decoded = decodeStore(store);
  ASSERT_EQ(decoded.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(decoded[i], trials[i]);
}

TEST(TraceV3MixedCodec, MixedVersionStoreIsStillRejected) {
  // Mixing codecs is fine, mixing format versions is not: give shard 1 a
  // checksum-valid header in the 64-byte version-1 layout (the version
  // field, header size, and FNV-1a of bytes [0, 56) at offset 56).
  const std::string dir = scratchDir("franken");
  writeStore(dir, 16, sampleTrials(16, 4, 200, 3), 2, TraceWriterOptions{});
  const std::string shard1 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(1))
          .string();
  auto bytes = readFile(shard1);
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  data[8] = 1;
  data[10] = 64;
  const std::uint64_t checksum = util::fnv1a(data, 56);
  for (int i = 0; i < 8; ++i)
    data[56 + i] = static_cast<unsigned char>(checksum >> (8 * i));
  writeFile(shard1, bytes);
  try {
    TraceStore::open(dir);
    FAIL() << "a store with a version-1 shard must not open";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- footer corruption

class TraceV3FooterCorruption : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratchDir("footer");
    TraceWriterOptions options;
    options.block_bytes = 512;
    const auto trials = sampleTrials(24, 4, 500, 47);
    writeStore(dir_, 24, trials, 1, options);
    shard0_ = (std::filesystem::path(dir_) /
               dynagraph::traceShardFileName(0))
                  .string();
    pristine_ = readFile(shard0_);
    footer_bytes_ = loadU32(68);
    ASSERT_GE(footer_bytes_, dynagraph::kTraceIndexFixedBytes +
                                 dynagraph::kTraceIndexEntryBytes);
    footer_start_ = pristine_.size() - footer_bytes_;
  }

  std::uint32_t loadU32(std::size_t at) const {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                   pristine_[at + static_cast<std::size_t>(i)]))
               << (8 * i);
    return value;
  }

  void expectOpenFailure(const std::string& what) {
    try {
      TraceShardReader reader(shard0_);
      FAIL() << "open succeeded on " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual: " << e.what();
    }
  }

  std::string dir_;
  std::string shard0_;
  std::vector<char> pristine_;
  std::uint32_t footer_bytes_ = 0;
  std::size_t footer_start_ = 0;
};

TEST_F(TraceV3FooterCorruption, TruncatedFooterIsDetectedAtOpen) {
  auto bytes = pristine_;
  bytes.resize(bytes.size() - 5);
  writeFile(shard0_, bytes);
  expectOpenFailure("truncated");
}

TEST_F(TraceV3FooterCorruption, FlippedFooterByteFailsIndexChecksum) {
  auto bytes = pristine_;
  bytes[footer_start_ + 10] ^= 0x20;
  writeFile(shard0_, bytes);
  expectOpenFailure("block index checksum mismatch");
}

TEST_F(TraceV3FooterCorruption, ResealedCountMismatchIsRejected) {
  auto bytes = pristine_;
  bytes[footer_start_] = static_cast<char>(bytes[footer_start_] ^ 0x01);
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  expectOpenFailure("corrupt block index");
}

TEST_F(TraceV3FooterCorruption, ResealedOffsetMismatchIsRejected) {
  // Nudge the second entry's file offset: every field still plausible,
  // but the chain through the payload no longer matches.
  auto bytes = pristine_;
  const std::size_t entry1 = footer_start_ + 4 +
                             dynagraph::kTraceIndexEntryBytes;
  ASSERT_LT(entry1 + 8, bytes.size());
  bytes[entry1] = static_cast<char>(bytes[entry1] ^ 0x02);
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  expectOpenFailure("block index disagrees with payload layout");
}

TEST_F(TraceV3FooterCorruption, ResealedNonOriginFirstEntryIsRejected) {
  // Entry 0 must carry the origin cursor: seekToTrial's binary search
  // assumes entry 0 precedes every trial, so a checksum-resealed footer
  // claiming otherwise has to be rejected at open, not underflow a seek.
  auto bytes = pristine_;
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  data[footer_start_ + 4 + 24] = 1;  // entry 0 trials_begun = 1
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  expectOpenFailure("block index cursor out of range");
}

TEST_F(TraceV3FooterCorruption, ResealedCursorOutOfRangeIsRejected) {
  // An impossible record cursor (trials begun beyond the shard's trial
  // count) must be rejected even with a valid checksum.
  auto bytes = pristine_;
  const std::size_t trials_at = footer_start_ + 4 +
                                dynagraph::kTraceIndexEntryBytes + 24;
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  for (int i = 0; i < 8; ++i)
    data[trials_at + static_cast<std::size_t>(i)] = 0xff;
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  expectOpenFailure("block index cursor out of range");
}

TEST_F(TraceV3FooterCorruption,
       ResealedCursorThatDisagreesWithTheRecordsFailsTheJump) {
  // The entry of the block where trial 1 starts claims trial 0 is one
  // interaction longer. The index still validates at open, but beginTrial
  // cross-checks the entry against the record stream before it jumps over
  // trial 0's unread blocks, and rejects the shard.
  std::size_t k = 0;
  const auto index = TraceShardReader(shard0_).blockIndex();
  for (std::size_t e = 0; e < index.size(); ++e)
    if (index[e].trials_begun <= 1) k = e;
  ASSERT_GT(k, 1u);  // trial 0's remainder spans whole blocks
  ASSERT_EQ(index[k].trial_length, 500u);
  auto bytes = pristine_;
  bytes[footer_start_ + 4 + k * dynagraph::kTraceIndexEntryBytes + 32] += 1;
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  TraceShardReader reader(shard0_);
  ASSERT_TRUE(reader.beginTrial());
  ASSERT_TRUE(reader.next().has_value());
  try {
    reader.beginTrial();
    ADD_FAILURE() << "jumped through a disagreeing index entry";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "block index disagrees with the record stream"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceV3FooterCorruption, ZeroFooterSizeInHeaderIsRejected) {
  // Claim "no footer" in the header (re-sealing the header checksum): the
  // reader requires an index, and the file size no longer lines up.
  auto bytes = pristine_;
  for (std::size_t i = 0; i < 4; ++i) bytes[68 + i] = 0;
  resealHeader(bytes);
  writeFile(shard0_, bytes);
  expectOpenFailure("footer size malformed");
}

TEST_F(TraceV3FooterCorruption, PayloadEditBreaksIndexValidation) {
  // Growing a stored size in the *payload* frame (with the footer intact)
  // must be caught: the index chain no longer matches the frames.
  auto bytes = pristine_;
  const std::size_t frame0 = dynagraph::kTraceHeaderSize;
  bytes[frame0 + 4] = static_cast<char>(bytes[frame0 + 4] ^ 0x01);
  writeFile(shard0_, bytes);
  // Either the index validation or the block checksum fires first — both
  // are clean rejections.
  try {
    TraceShardReader reader(shard0_);
    while (reader.beginTrial()) reader.skipRest();
    FAIL() << "decode succeeded on payload/index mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << "actual: " << e.what();
  }
}

// ------------------------------------------------------------------- fuzz

TEST(TraceV3Fuzz, MutatedShardsFailCleanlyOrDecodeInRangeUnderSeek) {
  // Randomized robustness sweep over the rANS decoder *and* the seek path:
  // mutate a few bytes of a valid shard, then (a) fully decode and (b)
  // seek to a random trial and decode from there. Every
  // outcome must be a clean std::runtime_error or an in-range decode —
  // never a crash, hang, or sanitizer finding (the ASan+UBSan CI job runs
  // this with DODA_FUZZ_ITERS=2000).
  const std::string dir = scratchDir("fuzz");
  {
    TraceWriterOptions options;
    options.block_bytes = 512;  // many blocks -> frames and footer mutate
    writeStore(dir, 24, sampleTrials(24, 6, 600, 77), 1, options);
  }
  const std::string shard0 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(0))
          .string();
  const std::vector<char> pristine = readFile(shard0);

  std::size_t iterations = 64;
  if (const char* env = std::getenv("DODA_FUZZ_ITERS"))
    iterations = std::strtoull(env, nullptr, 10);

  util::Rng rng(0xf033);
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
    const std::uint64_t target = rng.below(6);
    try {
      TraceShardReader reader(shard0);
      if (reader.seekToTrial(reader.header().base_trial + target)) {
        while (reader.beginTrial()) {
          while (const auto i = reader.next())
            ASSERT_LT(i->b(), reader.header().node_count);
        }
      }
    } catch (const std::runtime_error&) {
      ++rejected;  // clean rejection is the expected common case
    }
  }
  EXPECT_GT(rejected, 0u);
  writeFile(shard0, pristine);  // leave the store decodable for cleanup
}

// -------------------------------------------------------- streaming import

TEST(TraceV3StreamingImport, TimeOrderedFileStreamsAndMatchesMaterialized) {
  // A time-sorted CSV takes the streaming two-pass path; its store must
  // decode to exactly the materialized parse.
  const std::string input = scratchDir("stream_events") + ".csv";
  {
    util::Rng rng(321);
    std::ofstream out(input);
    out << "# streamed contact log\n";
    for (int t = 0; t < 600; ++t) {
      const auto u = 500 + rng.below(30);
      const auto v = 500 + rng.below(30);
      out << t / 2 << "\t" << u << "\t" << v << "\n";  // non-decreasing t
    }
  }
  dynagraph::ContactImportOptions options;
  options.trials = 5;
  const std::string dir = scratchDir("stream_store");
  const auto stats = dynagraph::importContactTrace(input, dir, 2, options);
  EXPECT_TRUE(stats.timestamped);
  ASSERT_GT(stats.events, 500u);

  const auto reference = dynagraph::loadContactEvents(input, options);
  EXPECT_EQ(stats.events, reference.stats.events);
  EXPECT_EQ(stats.node_count, reference.stats.node_count);
  EXPECT_EQ(stats.self_loops, reference.stats.self_loops);
  EXPECT_EQ(stats.t_min, reference.stats.t_min);
  EXPECT_EQ(stats.t_max, reference.stats.t_max);

  const auto store = TraceStore::open(dir);
  const auto decoded = decodeStore(store);
  std::size_t offset = 0;
  for (const auto& trial : decoded) {
    for (core::Time t = 0; t < trial.length(); ++t)
      EXPECT_EQ(trial.at(t), reference.events[offset + t]);
    offset += static_cast<std::size_t>(trial.length());
  }
  EXPECT_EQ(offset, reference.events.size());
}

TEST(TraceV3StreamingImport, OutOfOrderTimestampsFallBackToSortedImport) {
  const std::string input = scratchDir("unsorted_events") + ".csv";
  {
    std::ofstream out(input);
    out << "30 1 2\n10 2 3\n20 3 4\n10 4 5\n";  // out of order
  }
  const std::string dir = scratchDir("unsorted_store");
  dynagraph::ContactImportOptions options;
  options.trials = 2;
  const auto stats = dynagraph::importContactTrace(input, dir, 1, options);
  EXPECT_EQ(stats.events, 4u);
  const auto reference = dynagraph::loadContactEvents(input, options);
  const auto decoded = decodeStore(TraceStore::open(dir));
  std::size_t offset = 0;
  for (const auto& trial : decoded) {
    for (core::Time t = 0; t < trial.length(); ++t)
      EXPECT_EQ(trial.at(t), reference.events[offset + t]);
    offset += static_cast<std::size_t>(trial.length());
  }
  EXPECT_EQ(offset, reference.events.size());
}

TEST(TraceV3StreamingImport, MaxEventsCapsBothPasses) {
  const std::string input = scratchDir("capped_events") + ".csv";
  {
    std::ofstream out(input);
    for (int i = 0; i < 100; ++i) out << i << " " << i + 1 << "\n";
  }
  dynagraph::ContactImportOptions options;
  options.max_events = 10;
  options.trials = 2;
  const std::string dir = scratchDir("capped_store");
  const auto stats = dynagraph::importContactTrace(input, dir, 1, options);
  EXPECT_EQ(stats.events, 10u);
  const auto store = TraceStore::open(dir);
  std::uint64_t total = 0;
  auto reader = store.openShard(0);
  while (reader.beginTrial()) {
    total += reader.trialLength();
    reader.skipRest();
  }
  EXPECT_EQ(total, 10u);
}

// ------------------------------------------------------ partial store open

TEST(TraceStorePartial, StrictOpenNamesTheOffendingShardPath) {
  const std::string dir = scratchDir("strict_names_path");
  writeStore(dir, 16, sampleTrials(16, 6, 400, 41), 3, TraceWriterOptions{});
  const std::string shard1 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(1))
          .string();
  auto bytes = readFile(shard1);
  bytes.resize(16);  // truncate inside the header
  writeFile(shard1, bytes);
  try {
    TraceStore::open(dir);
    FAIL() << "strict open must reject the truncated shard";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(shard1), std::string::npos)
        << e.what();
  }
}

TEST(TraceStorePartial, AllowPartialQuarantinesTruncatedShard) {
  const std::string dir = scratchDir("partial_truncated");
  const auto trials = sampleTrials(16, 6, 400, 42);
  writeStore(dir, 16, trials, 3, TraceWriterOptions{});
  const auto full = decodeStore(TraceStore::open(dir));
  const std::string shard1 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(1))
          .string();
  auto bytes = readFile(shard1);
  bytes.resize(bytes.size() / 2);
  writeFile(shard1, bytes);

  const auto store =
      TraceStore::open(dir, dynagraph::TraceStoreOpenOptions{true});
  EXPECT_EQ(store.shardCount(), 2u);
  ASSERT_EQ(store.quarantined().size(), 1u);
  EXPECT_EQ(store.quarantined()[0].path, shard1);
  EXPECT_FALSE(store.quarantined()[0].reason.empty());
  // Trial ids keep their global numbering across the gap.
  EXPECT_EQ(store.trialCount(), trials.size());
  EXPECT_EQ(store.shardHeaders()[1].shard_index, 2u);
  // openShard(1) maps to the on-disk shard 2, past the quarantined file.
  const auto usable = decodeStore(store);
  ASSERT_EQ(usable.size(), 4u);
  EXPECT_EQ(usable[0], full[0]);
  EXPECT_EQ(usable[1], full[1]);
  EXPECT_EQ(usable[2], full[4]);
  EXPECT_EQ(usable[3], full[5]);
}

TEST(TraceStorePartial, AllowPartialProbesForwardPastCorruptShardZero) {
  const std::string dir = scratchDir("partial_shard0");
  const auto trials = sampleTrials(12, 6, 300, 43);
  writeStore(dir, 12, trials, 3, TraceWriterOptions{});
  const std::string shard0 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(0))
          .string();
  auto bytes = readFile(shard0);
  bytes[8] = static_cast<char>(bytes[8] ^ 0x5a);  // break the header
  writeFile(shard0, bytes);

  EXPECT_THROW(TraceStore::open(dir), std::runtime_error);
  const auto store =
      TraceStore::open(dir, dynagraph::TraceStoreOpenOptions{true});
  EXPECT_EQ(store.shardCount(), 2u);
  EXPECT_EQ(store.nodeCount(), 12u);
  ASSERT_EQ(store.quarantined().size(), 1u);
  EXPECT_EQ(store.quarantined()[0].path, shard0);
  EXPECT_EQ(store.trialCount(), trials.size());
  EXPECT_EQ(store.shardHeaders()[0].shard_index, 1u);
}

TEST(TraceStorePartial, AllowPartialStillThrowsWhenNoShardIsUsable) {
  const std::string dir = scratchDir("partial_hopeless");
  writeStore(dir, 8, sampleTrials(8, 2, 200, 44), 1, TraceWriterOptions{});
  const std::string shard0 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(0))
          .string();
  writeFile(shard0, std::vector<char>(24, 'x'));
  try {
    TraceStore::open(dir, dynagraph::TraceStoreOpenOptions{true});
    FAIL() << "a store with no usable shard must not open";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no usable shards"), std::string::npos) << what;
    EXPECT_NE(what.find(shard0), std::string::npos) << what;
  }
}

TEST(TraceStorePartial, ReplayFoldsQuarantinedTrialsAsFailed) {
  const std::string dir = scratchDir("partial_replay");
  const std::size_t n = 16;
  const auto trials = sampleTrials(n, 9, 1500, 45);
  writeStore(dir, n, trials, 3, TraceWriterOptions{});
  const auto factory = [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
  sim::ReplayConfig config;
  config.threads = 1;
  const auto full = sim::replayTrace(TraceStore::open(dir), config, factory);
  ASSERT_EQ(full.failed_trials, 0u);

  const std::string shard1 =
      (std::filesystem::path(dir) / dynagraph::traceShardFileName(1))
          .string();
  auto bytes = readFile(shard1);
  bytes.resize(32);
  writeFile(shard1, bytes);
  const auto store =
      TraceStore::open(dir, dynagraph::TraceStoreOpenOptions{true});
  const auto partial = sim::replayTrace(store, config, factory);
  // The three trials inside the gap fold as failures; the six usable
  // trials replay normally.
  EXPECT_EQ(partial.failed_trials, 3u);
  EXPECT_EQ(partial.interactions.count(), 6u);
  EXPECT_LE(partial.interactions.max(), full.interactions.max());
}

}  // namespace
}  // namespace doda
