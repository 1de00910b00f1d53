// Tests of the v4 record layout (dynagraph/trace_io): group-unit
// round-trips over both backends, SWAR-vs-scalar decode parity under a
// randomized fuzz (DODA_FUZZ_ITERS-scalable), threaded replay of a
// one-shard store of huge trials, cross-format v1..v4 statistic identity,
// and the v4 writer-side validation (node-count bound).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/gathering.hpp"
#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "sim/trace_replay.hpp"
#include "util/rng.hpp"

namespace doda {
namespace {

using dynagraph::Interaction;
using dynagraph::InteractionSequence;
using dynagraph::TraceReadBackend;
using dynagraph::TraceShardReader;
using dynagraph::TraceStore;
using dynagraph::TraceStoreWriter;
using dynagraph::TraceWriterOptions;
using sim::MeasureResult;

std::string scratchDir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("doda_trace_v4_" + tag + "_" + std::to_string(::getpid()) +
                    "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TraceWriterOptions versionOptions(std::uint16_t version) {
  TraceWriterOptions options;
  options.format_version = version;
  return options;
}

std::vector<InteractionSequence> sampleTrials(std::size_t n,
                                              std::size_t count,
                                              core::Time length,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<InteractionSequence> trials;
  trials.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trials.push_back(dynagraph::traces::uniformRandom(n, length, rng));
  return trials;
}

void writeStore(const std::string& dir, std::size_t n,
                const std::vector<InteractionSequence>& trials,
                std::uint32_t shards, const TraceWriterOptions& options) {
  TraceStoreWriter writer(dir, n, trials.size(), shards, options);
  for (const auto& trial : trials) writer.appendTrial(trial);
  writer.finish();
}

std::vector<InteractionSequence> decodeStore(const TraceStore& store,
                                             TraceReadBackend backend,
                                             bool force_scalar = false) {
  std::vector<InteractionSequence> trials;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    auto reader = store.openShard(s, backend);
    reader.setForceScalarDecode(force_scalar);
    while (reader.beginTrial()) trials.push_back(reader.readRest());
  }
  return trials;
}

void expectTrialsEqual(const std::vector<InteractionSequence>& a,
                       const std::vector<InteractionSequence>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].length(), b[i].length()) << "trial " << i;
    for (core::Time t = 0; t < a[i].length(); ++t)
      ASSERT_EQ(a[i].at(t), b[i].at(t)) << "trial " << i << " t=" << t;
  }
}

void expectIdentical(const MeasureResult& a, const MeasureResult& b) {
  EXPECT_EQ(a.interactions.count(), b.interactions.count());
  EXPECT_EQ(a.interactions.mean(), b.interactions.mean());
  EXPECT_EQ(a.interactions.variance(), b.interactions.variance());
  EXPECT_EQ(a.interactions.min(), b.interactions.min());
  EXPECT_EQ(a.interactions.max(), b.interactions.max());
  EXPECT_EQ(a.failed_trials, b.failed_trials);
}

// ------------------------------------------------------------ round trip

TEST(TraceV4RoundTrip, GroupUnitsPreserveEveryTrialOnBothBackends) {
  // Odd and even lengths (the final group unit carries one vs two
  // interactions), zero-length and single-interaction trials, and a
  // length crossing several blocks.
  util::Rng rng(11);
  std::vector<InteractionSequence> trials;
  for (core::Time length : {0, 1, 2, 3, 16, 17, 4096, 4097})
    trials.push_back(dynagraph::traces::uniformRandom(20, length, rng));
  const std::string dir = scratchDir("rt");
  TraceWriterOptions options;
  options.block_bytes = 512;  // force many blocks
  writeStore(dir, 20, trials, 2, options);

  const auto store = TraceStore::open(dir);
  EXPECT_EQ(store.formatVersion(), dynagraph::kTraceFormatVersionV4);
  for (const auto backend :
       {TraceReadBackend::kAuto, TraceReadBackend::kStream})
    expectTrialsEqual(decodeStore(store, backend), trials);
}

TEST(TraceV4RoundTrip, WideNodeIdsRoundTrip) {
  // Nodes near 2^20 exercise the 3-byte delta/gap fields; the zigzag
  // deltas swing across the whole range.
  const auto trials = sampleTrials(std::size_t{1} << 20, 3, 400, 5);
  const std::string dir = scratchDir("wide");
  writeStore(dir, std::size_t{1} << 20, trials, 1, TraceWriterOptions{});
  const auto store = TraceStore::open(dir);
  for (const auto backend :
       {TraceReadBackend::kAuto, TraceReadBackend::kStream})
    expectTrialsEqual(decodeStore(store, backend), trials);
}

TEST(TraceV4RoundTrip, UncompressedBlocksRoundTrip) {
  auto trials = sampleTrials(24, 4, 700, 9);
  const std::string dir = scratchDir("rawblocks");
  TraceWriterOptions options;
  options.compress = false;
  options.block_bytes = 256;
  writeStore(dir, 24, trials, 1, options);
  const auto store = TraceStore::open(dir);
  for (const auto backend :
       {TraceReadBackend::kAuto, TraceReadBackend::kStream})
    expectTrialsEqual(decodeStore(store, backend), trials);
}

TEST(TraceV4Writer, RejectsNodeCountAboveRecordLayoutBound) {
  // v4 group fields are at most 4 bytes, so the writer refuses stores it
  // could not encode; v3 still accepts the same node count.
  const std::size_t too_many = (std::size_t{1} << 31) + 1;
  EXPECT_THROW(TraceStoreWriter(scratchDir("huge"), too_many, 1, 1,
                                TraceWriterOptions{}),
               std::invalid_argument);
  EXPECT_NO_THROW(TraceStoreWriter(
      scratchDir("huge_v3"), too_many, 1, 1,
      versionOptions(dynagraph::kTraceFormatVersionV3)));
}

// --------------------------------------------------- SWAR/scalar parity

TEST(TraceV4Decode, ScalarFallbackMatchesSwarFastPath) {
  // Fuzz: random node counts (1-4 byte fields), random trial lengths
  // (odd/even/empty), random block sizes (units straddling block
  // boundaries and the SWAR window-slack gate). The forced-scalar decode
  // must agree with the default decode interaction for interaction.
  std::size_t iters = 30;
  if (const char* env = std::getenv("DODA_FUZZ_ITERS"))
    iters = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  util::Rng rng(20260808);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t n = 2 + rng.below((iter % 4 == 0) ? 2000000 : 64);
    std::vector<InteractionSequence> trials;
    const std::size_t count = 1 + rng.below(5);
    for (std::size_t i = 0; i < count; ++i)
      trials.push_back(dynagraph::traces::uniformRandom(
          n, rng.below(600), rng));
    const std::string dir = scratchDir("fuzz");
    TraceWriterOptions options;
    options.block_bytes = 128 + rng.below(1024);
    options.compress = rng.below(4) != 0;
    writeStore(dir, n, trials, 1, options);

    const auto store = TraceStore::open(dir);
    for (const auto backend :
         {TraceReadBackend::kAuto, TraceReadBackend::kStream}) {
      const auto fast = decodeStore(store, backend, false);
      const auto scalar = decodeStore(store, backend, true);
      expectTrialsEqual(fast, trials);
      expectTrialsEqual(scalar, trials);
    }
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------ threaded replay

TEST(TraceV4Parallel, ThreadedOneShardReplayMatchesSerial) {
  // Two huge trials in one shard, replayed at 2 and 8 threads on both
  // backends: the statistics must be bit-identical to the serial replay.
  const auto trials = sampleTrials(64, 2, 60000, 2026);
  const std::string dir = scratchDir("replay");
  TraceWriterOptions options;
  options.block_bytes = 4096;
  writeStore(dir, 64, trials, 1, options);

  const auto store = TraceStore::open(dir);
  const sim::AlgorithmFactory factory = [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
  sim::ReplayConfig serial;
  serial.threads = 1;
  const MeasureResult reference = sim::replayTrace(store, serial, factory);
  EXPECT_EQ(reference.interactions.count() + reference.failed_trials,
            trials.size());
  for (const auto backend :
       {TraceReadBackend::kAuto, TraceReadBackend::kStream}) {
    for (const std::size_t threads : {2u, 8u}) {
      sim::ReplayConfig config;
      config.threads = threads;
      config.backend = backend;
      expectIdentical(sim::replayTrace(store, config, factory), reference);
    }
  }
}

// ------------------------------------------------------- cross format

TEST(TraceV4CrossVersion, AllFormatsDecodeToIdenticalTrials) {
  const auto trials = sampleTrials(40, 5, 3000, 55);
  std::vector<std::vector<InteractionSequence>> decoded;
  for (const std::uint16_t version :
       {dynagraph::kTraceFormatVersionV1, dynagraph::kTraceFormatVersionV2,
        dynagraph::kTraceFormatVersionV3,
        dynagraph::kTraceFormatVersionV4}) {
    const std::string dir =
        scratchDir("xfmt_v" + std::to_string(version));
    writeStore(dir, 40, trials, 2, versionOptions(version));
    const auto store = TraceStore::open(dir);
    EXPECT_EQ(store.formatVersion(), version);
    decoded.push_back(decodeStore(store, TraceReadBackend::kAuto));
    expectTrialsEqual(decoded.back(), trials);
    std::filesystem::remove_all(dir);
  }
  for (std::size_t i = 1; i < decoded.size(); ++i)
    expectTrialsEqual(decoded[i], decoded[0]);
}

}  // namespace
}  // namespace doda
