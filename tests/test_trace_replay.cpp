// Tests for the binary sharded trace store (dynagraph/trace_io) and the
// shard-parallel replay executor (sim/trace_replay): codec round-trips,
// record -> shard -> replay bit-identity with the in-memory synthetic run
// across thread counts, corrupt/truncated shard error paths, and
// schedule validation on a borrowed sequence view.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
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
using sim::MeasureConfig;
using namespace trace_test;

InteractionSequence randomSequence(std::size_t n, core::Time length,
                                   util::Rng& rng) {
  return dynagraph::traces::uniformRandom(n, length, rng);
}

TEST(TraceStoreRoundTrip, PreservesEveryTrialAcrossShards) {
  const std::string dir = scratchDir("roundtrip");
  util::Rng rng(11);
  std::vector<InteractionSequence> trials;
  trials.push_back(InteractionSequence{});  // empty trial is representable
  trials.push_back(InteractionSequence{Interaction(0, 1)});
  for (std::size_t i = 0; i < 9; ++i)
    trials.push_back(randomSequence(24, 50 + i * 37, rng));

  {
    TraceStoreWriter writer(dir, 24, trials.size(), 4);
    for (const auto& trial : trials) writer.appendTrial(trial);
    writer.finish();
  }

  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.nodeCount(), 24u);
  EXPECT_EQ(store.trialCount(), trials.size());
  EXPECT_EQ(store.shardCount(), 4u);

  std::size_t global = 0;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    auto reader = store.openShard(s);
    EXPECT_EQ(reader.header().base_trial, global);
    while (reader.beginTrial()) {
      ASSERT_LT(global, trials.size());
      EXPECT_EQ(reader.trialLength(), trials[global].length());
      EXPECT_EQ(reader.readRest(), trials[global]) << "trial " << global;
      ++global;
    }
  }
  EXPECT_EQ(global, trials.size());
}

TEST(TraceStoreRoundTrip, StreamingDecodeMatchesMaterialized) {
  const std::string dir = scratchDir("stream");
  util::Rng rng(7);
  const auto trial = randomSequence(50, 400, rng);
  {
    TraceStoreWriter writer(dir, 50, 1, 1);
    writer.appendTrial(trial);
    writer.finish();
  }
  auto reader = TraceStore::open(dir).openShard(0);
  ASSERT_TRUE(reader.beginTrial());
  for (core::Time t = 0; t < trial.length(); ++t) {
    const auto i = reader.next();
    ASSERT_TRUE(i.has_value()) << "t=" << t;
    EXPECT_EQ(*i, trial.at(t));
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.beginTrial());
}

TEST(TraceStoreRoundTrip, PartialConsumptionRealignsAtNextTrial) {
  const std::string dir = scratchDir("realign");
  util::Rng rng(3);
  std::vector<InteractionSequence> trials;
  for (int i = 0; i < 4; ++i) trials.push_back(randomSequence(16, 120, rng));
  {
    TraceStoreWriter writer(dir, 16, trials.size(), 1);
    for (const auto& trial : trials) writer.appendTrial(trial);
    writer.finish();
  }
  auto reader = TraceStore::open(dir).openShard(0);
  // Consume only 5 interactions of each trial; beginTrial must skip the
  // rest and land exactly on the next trial record.
  for (std::size_t k = 0; k < trials.size(); ++k) {
    ASSERT_TRUE(reader.beginTrial());
    for (int j = 0; j < 5; ++j) EXPECT_EQ(*reader.next(), trials[k].at(j));
  }
  EXPECT_FALSE(reader.beginTrial());

  // Small blocks: a trial spans several blocks and beginTrial jumps over
  // the unread ones through the block index. Every trial (the shard's last
  // one included) is consumed 0, 1, up to its first block edge, one past
  // it, L-1 and L interactions deep, mixed across consecutive trials, on
  // raw and rANS blocks.
  std::vector<InteractionSequence> long_trials;
  for (core::Time length : {301, 300, 0, 7, 288, 333})
    long_trials.push_back(randomSequence(16, length, rng));
  for (const bool compress : {false, true}) {
    dynagraph::TraceWriterOptions options;
    options.compress = compress;
    options.block_bytes = 64;
    const std::string small_dir =
        scratchDir(compress ? "realign_rans" : "realign_raw");
    writeStore(small_dir, 16, long_trials, 1, options);
    const auto small_store = TraceStore::open(small_dir);
    // Interactions of each trial decoded before its first block edge.
    std::vector<core::Time> edge(long_trials.size(), 0);
    const auto index = small_store.openShard(0).blockIndex();
    for (const auto& entry : index)
      if (entry.trials_begun > 0 && entry.decoded > 0 &&
          entry.decoded < entry.trial_length &&
          edge[entry.trials_begun - 1] == 0)
        edge[entry.trials_begun - 1] = entry.decoded;
    ASSERT_GT(edge.front(), 0u);
    ASSERT_GT(edge.back(), 0u);
    for (std::size_t pattern = 0; pattern < 6; ++pattern) {
      auto small_reader = small_store.openShard(0);
      for (std::size_t k = 0; k < long_trials.size(); ++k) {
        ASSERT_TRUE(small_reader.beginTrial());
        const core::Time length = long_trials[k].length();
        ASSERT_EQ(small_reader.trialLength(), length);
        const core::Time depths[] = {0,       1,          edge[k],
                                     edge[k] + 1, length - 1, length};
        const core::Time take =
            length == 0 ? 0 : std::min(depths[(pattern + k) % 6], length);
        std::vector<Interaction> got;
        small_reader.read(take, got);
        ASSERT_EQ(got.size(), take);
        for (core::Time t = 0; t < take; ++t)
          ASSERT_EQ(got[t], long_trials[k].at(t))
              << "compress=" << compress << " pattern=" << pattern
              << " trial=" << k << " t=" << t;
      }
      EXPECT_FALSE(small_reader.beginTrial());
    }
    // next() interleaved with read(k): a pair split by a call leaves its
    // second interaction pending, also when its unit ends a block window,
    // and the next call serves it before parsing further.
    for (core::Time k = 1; k <= 5; ++k) {
      auto small_reader = small_store.openShard(0);
      for (std::size_t trial = 0; trial < long_trials.size(); ++trial) {
        ASSERT_TRUE(small_reader.beginTrial());
        const InteractionSequence& expected = long_trials[trial];
        core::Time t = 0;
        while (t < expected.length()) {
          const auto one = small_reader.next();
          ASSERT_TRUE(one.has_value());
          ASSERT_EQ(*one, expected.at(t))
              << "compress=" << compress << " k=" << k << " trial=" << trial
              << " t=" << t;
          ++t;
          const core::Time take = std::min(k, expected.length() - t);
          std::vector<Interaction> got;
          small_reader.read(take, got);
          for (core::Time j = 0; j < take; ++j)
            ASSERT_EQ(got[j], expected.at(t + j))
                << "compress=" << compress << " k=" << k << " trial=" << trial
                << " t=" << t + j;
          t += take;
        }
        EXPECT_FALSE(small_reader.next().has_value());
      }
      EXPECT_FALSE(small_reader.beginTrial());
    }
  }
}

TEST(TraceStoreWriterErrors, RejectsDegenerateShapes) {
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad"), 1, 4, 1),
               std::invalid_argument);  // < 2 nodes
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad"), 8, 0, 1),
               std::invalid_argument);  // zero trials
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad"), 8, 4, 0),
               std::invalid_argument);  // zero shards
  EXPECT_THROW(TraceStoreWriter(scratchDir("bad"), 8, 4, 5),
               std::invalid_argument);  // more shards than trials
}

TEST(TraceStoreWriterErrors, EnforcesDeclaredTrialCountAndNodeRange) {
  const std::string dir = scratchDir("writer_misuse");
  TraceStoreWriter writer(dir, 8, 2, 1);
  EXPECT_THROW(writer.appendTrial(InteractionSequence{Interaction(0, 8)}),
               std::invalid_argument);  // endpoint >= node_count
  writer.appendTrial(InteractionSequence{Interaction(0, 1)});
  EXPECT_THROW(writer.finish(), std::logic_error);  // one trial short
  writer.appendTrial(InteractionSequence{Interaction(2, 3)});
  EXPECT_THROW(writer.appendTrial(InteractionSequence{Interaction(4, 5)}),
               std::logic_error);  // more trials than declared
  writer.finish();

  // The rejected trial must not have left partial bytes behind: the store
  // still decodes cleanly after the caller caught and continued.
  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.trialCount(), 2u);
  auto reader = store.openShard(0);
  ASSERT_TRUE(reader.beginTrial());
  EXPECT_EQ(reader.readRest(), (InteractionSequence{Interaction(0, 1)}));
  ASSERT_TRUE(reader.beginTrial());
  EXPECT_EQ(reader.readRest(), (InteractionSequence{Interaction(2, 3)}));
  EXPECT_FALSE(reader.beginTrial());
}

// Corruption handling of a raw-block shard. The tests that edit the
// record stream re-seal the block checksum afterwards, so the decoder's
// structural checks (not the checksum) must reject the edit. Shard 0 holds
// one block whose record stream starts with trial 0 (one interaction):
//   [0] length control 0x00, [1] length 1,
//   [2] group control 0x00 (one interaction, 1-byte fields),
//   [3] zigzag(a - 0), [4] b - a - 1, then trial 1's length unit.
// Block-level corruption of compressed shards lives in test_trace_v2.cpp.
class TraceStoreCorruption : public testing::Test {
 protected:
  static constexpr std::size_t kFrame = dynagraph::kTraceHeaderSize;
  static constexpr std::size_t kRecord =
      kFrame + dynagraph::kTraceBlockFrameBytes;

  void SetUp() override {
    dir_ = scratchDir("corrupt");
    util::Rng rng(5);
    dynagraph::TraceWriterOptions raw;
    raw.compress = false;
    TraceStoreWriter writer(dir_, 12, 3, 2, raw);
    for (const core::Time length : {1, 200, 201})
      writer.appendTrial(randomSequence(12, length, rng));
    writer.finish();
    shard0_ = (std::filesystem::path(dir_) /
               dynagraph::traceShardFileName(0))
                  .string();
    const auto bytes = readFile(shard0_);
    ASSERT_GT(bytes.size(), kRecord + 5);
    ASSERT_EQ(bytes[kRecord], 0x00);      // 1-byte length unit
    ASSERT_EQ(bytes[kRecord + 1], 0x01);  // trial 0 has one interaction
    ASSERT_EQ(bytes[kRecord + 2], 0x00);  // its one-interaction group
  }

  /// Decodes shard 0 fully; it must throw std::runtime_error mentioning
  /// `what`.
  void expectDecodeFailure(const std::string& what) {
    try {
      TraceShardReader reader(shard0_);
      while (reader.beginTrial()) reader.skipRest();
      ADD_FAILURE() << "decode succeeded on " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual: " << e.what();
    }
  }

  std::string dir_;
  std::string shard0_;
};

TEST_F(TraceStoreCorruption, BadMagicIsRejected) {
  auto bytes = readFile(shard0_);
  bytes[0] = 'X';
  writeFile(shard0_, bytes);
  EXPECT_THROW(
      try { TraceStore::open(dir_); } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
        throw;
      },
      std::runtime_error);
}

TEST_F(TraceStoreCorruption, FlippedHeaderFieldFailsChecksum) {
  auto bytes = readFile(shard0_);
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);  // node count field
  writeFile(shard0_, bytes);
  EXPECT_THROW(
      try { TraceShardReader reader(shard0_); } catch (
          const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
        throw;
      },
      std::runtime_error);
}

TEST_F(TraceStoreCorruption, TruncatedPayloadIsDetectedAtOpen) {
  auto bytes = readFile(shard0_);
  bytes.resize(bytes.size() - 17);
  writeFile(shard0_, bytes);
  EXPECT_THROW(
      try { TraceShardReader reader(shard0_); } catch (
          const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
        throw;
      },
      std::runtime_error);
}

TEST_F(TraceStoreCorruption, TruncatedHeaderIsDetectedAtOpen) {
  auto bytes = readFile(shard0_);
  bytes.resize(dynagraph::kTraceHeaderSize / 2);
  writeFile(shard0_, bytes);
  EXPECT_THROW(TraceShardReader reader(shard0_), std::runtime_error);
}

TEST_F(TraceStoreCorruption, TrailingGarbageIsRejected) {
  auto bytes = readFile(shard0_);
  bytes.push_back('!');
  writeFile(shard0_, bytes);
  EXPECT_THROW(TraceShardReader reader(shard0_), std::runtime_error);
}

TEST_F(TraceStoreCorruption, CorruptPayloadEndpointIsRejected) {
  // zigzag(0xff) = -128: an endpoint below node 0. The decoder must fail
  // loudly, never return a garbage interaction.
  auto bytes = readFile(shard0_);
  bytes[kRecord + 3] = static_cast<char>(0xff);
  resealBlock(bytes, kFrame);
  writeFile(shard0_, bytes);
  expectDecodeFailure("decoded endpoint out of range");
}

TEST_F(TraceStoreCorruption, OversizedTrialLengthIsRejected) {
  // Widen the first trial's length unit to 8 bytes holding a huge value:
  // the reader must reject it against the remaining payload size instead
  // of letting readRest() attempt a giant reserve.
  auto bytes = readFile(shard0_);
  bytes[kRecord] = 0x03;
  for (std::size_t i = 1; i < 8; ++i)
    bytes[kRecord + i] = static_cast<char>(0xff);
  bytes[kRecord + 8] = 0x7f;
  resealBlock(bytes, kFrame);
  writeFile(shard0_, bytes);
  expectDecodeFailure("trial length exceeds remaining payload");
}

TEST_F(TraceStoreCorruption, MalformedLengthControlByteIsRejected) {
  // Bits 2..7 of a length control byte must be zero.
  auto bytes = readFile(shard0_);
  bytes[kRecord] = 0x04;
  resealBlock(bytes, kFrame);
  writeFile(shard0_, bytes);
  expectDecodeFailure("length control byte malformed");
}

TEST_F(TraceStoreCorruption, MalformedGroupControlByteIsRejected) {
  // A one-interaction group uses the control byte's low nibble only.
  auto bytes = readFile(shard0_);
  bytes[kRecord + 2] = 0x10;
  resealBlock(bytes, kFrame);
  writeFile(shard0_, bytes);
  expectDecodeFailure("group control byte malformed");
}

TEST_F(TraceStoreCorruption, UnitSplitAcrossBlocksIsRejected) {
  // The writer never splits a record unit across blocks, and the block
  // index relies on it. Forge a split: one trial of 200 interactions over
  // 12 nodes in 64-byte raw blocks (every field is one byte, so block 0
  // ends 2 bytes short of 64), and move the first byte of block 1 (its
  // first unit's control byte) to the end of block 0. Both frames, both
  // checksums, both index entries and the footer checksum are re-sealed,
  // so only the unit parser can see the split.
  const std::string dir = scratchDir("split");
  dynagraph::TraceWriterOptions options = rawOptions();
  options.block_bytes = 64;
  util::Rng rng(5);
  writeStore(dir, 12, {randomSequence(12, 200, rng)}, 1, options);
  shard0_ = (std::filesystem::path(dir) / dynagraph::traceShardFileName(0))
                .string();
  auto bytes = readFile(shard0_);
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  constexpr std::size_t kBlockFrame = dynagraph::kTraceBlockFrameBytes;
  const std::uint32_t raw0 = util::loadU32(data + kFrame);
  const std::size_t frame1 = kRecord + raw0;
  const std::uint32_t raw1 = util::loadU32(data + frame1);
  ASSERT_LT(raw0, 64u);
  ASSERT_GT(raw1, 1u);
  const unsigned char moved = data[frame1 + kBlockFrame];
  std::memmove(data + frame1 + 1, data + frame1, kBlockFrame);
  data[frame1] = moved;
  const auto resize = [data](std::size_t frame, std::uint32_t raw) {
    util::storeU32(data + frame, raw);
    util::storeU32(data + frame + 4, raw);
  };
  resize(kFrame, raw0 + 1);
  resize(frame1 + 1, raw1 - 1);
  resealBlock(bytes, kFrame);
  resealBlock(bytes, frame1 + 1);
  const std::size_t footer = kFrame + util::loadU64(data + 48);
  unsigned char* entry0 = data + footer + 4;
  unsigned char* entry1 = entry0 + dynagraph::kTraceIndexEntryBytes;
  util::storeU32(entry0 + 8, raw0 + 1);
  util::storeU32(entry0 + 12, raw0 + 1);
  util::storeU64(entry1, util::loadU64(entry1) + 1);
  util::storeU32(entry1 + 8, raw1 - 1);
  util::storeU32(entry1 + 12, raw1 - 1);
  util::storeU64(entry1 + 16, util::loadU64(entry1 + 16) + 1);
  resealFooter(bytes);
  writeFile(shard0_, bytes);
  // The reader stops in block 0, at its end.
  expectDecodeFailure(
      "record unit crosses the block end (corrupt payload) (at byte " +
      std::to_string(kRecord + raw0 + 1) + ", block 0)");
}

TEST_F(TraceStoreCorruption, MissingShardFailsStoreOpen) {
  std::filesystem::remove(std::filesystem::path(dir_) /
                          dynagraph::traceShardFileName(1));
  EXPECT_THROW(TraceStore::open(dir_), std::runtime_error);
}

TEST(TraceStoreErrors, MissingDirectoryFailsOpen) {
  const std::string dir = scratchDir("missing");
  EXPECT_THROW(TraceStore::open(dir), std::runtime_error);
  EXPECT_THROW(TraceShardReader(dir + "/" + dynagraph::traceShardFileName(0)),
               std::runtime_error);
}

TEST(TraceStoreErrors, ShardTruncatedUnderALiveReaderFailsCleanly) {
  // Rewriting a shard in place (fopen "wb", as trace_record --force does)
  // truncates the file under every reader that has it open. The reader's
  // next file read comes up short and fails with a clean error instead of
  // a crash. The shard is many times the stream's buffer, so buffered
  // bytes cannot carry the decode to its end.
  util::Rng rng(41);
  std::vector<InteractionSequence> trials;
  for (int i = 0; i < 8; ++i) trials.push_back(randomSequence(16, 4000, rng));
  dynagraph::TraceWriterOptions options;
  options.block_bytes = 256;
  const std::string dir = scratchDir("truncated_live");
  writeStore(dir, 16, trials, 1, options);
  const std::string shard = dir + "/" + dynagraph::traceShardFileName(0);

  TraceShardReader reader(shard);
  ASSERT_TRUE(reader.beginTrial());
  std::vector<Interaction> head;
  reader.read(10, head);
  std::FILE* rewritten = std::fopen(shard.c_str(), "wb");
  ASSERT_NE(rewritten, nullptr);
  std::fclose(rewritten);
  try {
    reader.readRest();
    while (reader.beginTrial()) reader.readRest();
    ADD_FAILURE() << "decoded a whole shard truncated under the reader";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated shard"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- replay

sim::AlgorithmFactory gatheringFactory() {
  return [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
}

sim::AlgorithmFactory waitingGreedyFactory(core::Time tau) {
  return [tau](sim::TrialContext& context) {
    return std::make_unique<algorithms::WaitingGreedy>(context.meet_time,
                                                       tau);
  };
}

/// Records `config`'s workload in 256-byte rANS blocks and opens it.
TraceStore recordSmallBlocks(const std::string& tag,
                             const MeasureConfig& config, core::Time length,
                             std::uint32_t shards) {
  dynagraph::TraceWriterOptions options;
  options.block_bytes = 256;
  const std::string dir = scratchDir(tag);
  sim::recordSynthetic(dir, config, length, shards, options);
  return TraceStore::open(dir);
}

TEST(TraceReplay, BitIdenticalToInMemorySyntheticRun) {
  // The acceptance contract: record -> shard -> replay reproduces the
  // equivalent in-memory synthetic run (measureWithCost on the same
  // config/length, which draws identical per-trial sequences from the
  // identical pre-drawn seeds) bit-for-bit, for threads 1, 2 and 8.
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 14;
  config.seed = 20260728;
  const core::Time length = 2048;

  config.threads = 1;
  const auto in_memory = measureWithCost(config, length, gatheringFactory());
  ASSERT_EQ(in_memory.failed_trials, 0u)
      << "trace too short: in-memory run extended a sequence";
  ASSERT_GT(in_memory.interactions.count(), 0u);

  const std::string dir = scratchDir("equiv");
  sim::recordSynthetic(dir, config, length, 4);
  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.trialCount(), config.trials);

  sim::ReplayConfig replay;
  replay.compute_cost = true;
  for (std::size_t threads : {1u, 2u, 8u}) {
    replay.threads = threads;
    expectIdentical(in_memory,
                    replayTrace(store, replay, gatheringFactory()));
  }

  // The same workload in 256-byte blocks: each trial spans many blocks,
  // so the replay decodes only the prefix it reads and jumps over the
  // rest.
  const auto small_store = recordSmallBlocks("equiv_small", config, length, 4);
  for (std::size_t threads : {1u, 2u, 8u}) {
    replay.threads = threads;
    expectIdentical(in_memory,
                    replayTrace(small_store, replay, gatheringFactory()));
  }
}

TEST(TraceReplay, OracleAlgorithmBitIdenticalAcrossThreadCounts) {
  // WaitingGreedy replays the recorded randomness through the meetTime
  // oracle inside worker threads.
  MeasureConfig config;
  config.node_count = 12;
  config.trials = 10;
  config.seed = 99;
  const core::Time length = 4096;

  config.threads = 1;
  const auto factory = waitingGreedyFactory(64);
  const auto in_memory = measureWithCost(config, length, factory);
  ASSERT_EQ(in_memory.failed_trials, 0u);

  const std::string dir = scratchDir("oracle");
  sim::recordSynthetic(dir, config, length, 5);
  const auto store = TraceStore::open(dir);
  sim::ReplayConfig replay;
  replay.compute_cost = true;
  for (std::size_t threads : {1u, 2u, 8u}) {
    replay.threads = threads;
    expectIdentical(in_memory, replayTrace(store, replay, factory));
  }

  const auto small_store =
      recordSmallBlocks("oracle_small", config, length, 5);
  for (std::size_t threads : {1u, 2u, 8u}) {
    replay.threads = threads;
    expectIdentical(in_memory, replayTrace(small_store, replay, factory));
  }
}

TEST(TraceReplay, CorruptBlockPastTheReadPrefixIsNeverLoaded) {
  // A WaitingGreedy-with-cost trial reads a short prefix of a long
  // recorded trial. A corrupt block wholly past that prefix is never
  // loaded — beginTrial jumps over it to the next trial — so the replay
  // equals the pristine store's. Store verification and a full decode
  // still reject the store.
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 3;
  config.seed = 17;
  const core::Time length = core::Time{1} << 14;
  sim::ReplayConfig replay;
  replay.threads = 1;
  replay.compute_cost = true;
  const auto factory = waitingGreedyFactory(16);
  for (const bool compress : {false, true}) {
    dynagraph::TraceWriterOptions options;
    options.compress = compress;
    options.block_bytes = 256;
    const std::string dir = scratchDir(compress ? "unread_rans" : "unread_raw");
    sim::recordSynthetic(dir, config, length, 1, options);
    const auto pristine = replayTrace(TraceStore::open(dir), replay, factory);
    ASSERT_EQ(pristine.failed_trials, 0u);
    ASSERT_EQ(pristine.cost.count(), config.trials);

    // The last block holding only trial 0's interactions: trial 1 has
    // not begun at its first byte, nor at the next block's.
    const std::string shard =
        dir + "/" + dynagraph::traceShardFileName(0);
    const auto index = TraceShardReader(shard).blockIndex();
    std::size_t victim = 0;
    for (std::size_t k = 1; k + 1 < index.size(); ++k)
      if (index[k].trials_begun == 1 && index[k + 1].trials_begun == 1)
        victim = k;
    ASSERT_GT(index[victim].decoded, length / 2);
    auto bytes = readFile(shard);
    bytes[index[victim].offset + dynagraph::kTraceBlockFrameBytes +
          index[victim].stored_size / 2] ^= 0x5a;
    writeFile(shard, bytes);

    expectIdentical(pristine,
                    replayTrace(TraceStore::open(dir), replay, factory));

    dynagraph::TraceStoreOpenOptions verify;
    verify.verify_payloads = true;
    try {
      TraceStore::open(dir, verify);
      ADD_FAILURE() << "verify_payloads accepted a corrupt block";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("block checksum mismatch"),
                std::string::npos)
          << e.what();
    }
    try {
      TraceShardReader reader(shard);
      while (reader.beginTrial()) reader.skipRest();
      ADD_FAILURE() << "a full decode accepted a corrupt block";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("block checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceReplay, ZipfWorkloadRoundTrips) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 8;
  config.seed = 31;
  config.zipf_exponent = 0.9;
  const core::Time length = 4096;

  config.threads = 1;
  const auto in_memory = measureWithCost(config, length, gatheringFactory());
  ASSERT_EQ(in_memory.failed_trials, 0u);

  const std::string dir = scratchDir("zipf");
  sim::recordSynthetic(dir, config, length, 2);
  const auto store = TraceStore::open(dir);
  sim::ReplayConfig replay;
  replay.threads = 8;
  replay.compute_cost = true;
  expectIdentical(in_memory, replayTrace(store, replay, gatheringFactory()));
}

TEST(TraceReplay, BodyExceptionsPropagate) {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 6;
  const std::string dir = scratchDir("throwing");
  sim::recordSynthetic(dir, config, 64, 3);
  const auto store = TraceStore::open(dir);

  auto boom = [](std::size_t global_trial, TraceShardReader&,
                 core::Engine::Scratch&) -> sim::TrialOutcome {
    if (global_trial == 4) throw std::runtime_error("trial 4 exploded");
    sim::TrialOutcome outcome;
    outcome.success = true;
    return outcome;
  };
  EXPECT_THROW(sim::replayShards(store, 1, boom), std::runtime_error);
  EXPECT_THROW(sim::replayShards(store, 3, boom), std::runtime_error);
}

TEST(TraceReplay, FoldsInGlobalTrialOrderForAnyShardShape) {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 9;
  config.seed = 8;
  const std::string dir_a = scratchDir("shape_a");
  const std::string dir_b = scratchDir("shape_b");
  sim::recordSynthetic(dir_a, config, 128, 1);
  sim::recordSynthetic(dir_b, config, 128, 4);

  auto lengthOutcome = [](std::size_t, TraceShardReader& reader,
                          core::Engine::Scratch&) {
    sim::TrialOutcome outcome;
    outcome.success = true;
    outcome.interactions = static_cast<double>(reader.trialLength());
    return outcome;
  };
  // Same trials, different shard split, any thread count: identical fold.
  const auto mono = sim::replayShards(TraceStore::open(dir_a), 1, lengthOutcome);
  expectIdentical(mono,
                  sim::replayShards(TraceStore::open(dir_a), 8, lengthOutcome));
  expectIdentical(mono,
                  sim::replayShards(TraceStore::open(dir_b), 8, lengthOutcome));
}

// -------------------------------------------------------- sequence view

TEST(InteractionSequenceView, ValidatesScheduleWithoutOwnedSequence) {
  // A schedule validated against a raw interaction buffer — the streamed
  // consumer path of validateConvergecastSchedule.
  const std::vector<Interaction> raw{Interaction(1, 2), Interaction(0, 1)};
  const dynagraph::InteractionSequenceView view(raw.data(), raw.size());
  const std::vector<core::TransmissionRecord> schedule{{0, 2, 1}, {1, 1, 0}};
  std::string error;
  EXPECT_TRUE(core::validateConvergecastSchedule(schedule, view, {3, 0},
                                                 &error))
      << error;
  EXPECT_EQ(view.materialize(),
            (InteractionSequence{Interaction(1, 2), Interaction(0, 1)}));
}

}  // namespace
}  // namespace doda
