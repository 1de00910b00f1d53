// Tests of the trace record layout (dynagraph/trace_io): group-unit
// round-trips, a randomized round-trip fuzz over node counts, trial
// lengths, block sizes and both block codecs (DODA_FUZZ_ITERS-scalable),
// threaded replay of a one-shard store of huge trials, and the
// writer-side validation (node-count bound). The byte goldens of written
// shard files live in test_trace_v5.cpp.

#include <gtest/gtest.h>

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
#include "trace_test_helpers.hpp"
#include "util/rng.hpp"

namespace doda {
namespace {

using dynagraph::Interaction;
using dynagraph::InteractionSequence;
using dynagraph::TraceShardReader;
using dynagraph::TraceStore;
using dynagraph::TraceStoreWriter;
using dynagraph::TraceWriterOptions;
using sim::MeasureResult;
using namespace trace_test;

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
  expectTrialsEqual(decodeStore(store), trials);
}

TEST(TraceV4RoundTrip, WideNodeIdsRoundTrip) {
  // Nodes near 2^20 exercise the 3-byte delta/gap fields; the zigzag
  // deltas swing across the whole range.
  const auto trials = sampleTrials(std::size_t{1} << 20, 3, 400, 5);
  const std::string dir = scratchDir("wide");
  writeStore(dir, std::size_t{1} << 20, trials, 1, TraceWriterOptions{});
  const auto store = TraceStore::open(dir);
  expectTrialsEqual(decodeStore(store), trials);
}

TEST(TraceV4RoundTrip, UncompressedBlocksRoundTrip) {
  auto trials = sampleTrials(24, 4, 700, 9);
  const std::string dir = scratchDir("rawblocks");
  TraceWriterOptions options;
  options.compress = false;
  options.block_bytes = 256;
  writeStore(dir, 24, trials, 1, options);
  const auto store = TraceStore::open(dir);
  expectTrialsEqual(decodeStore(store), trials);
}

TEST(TraceV4Writer, RejectsNodeCountAboveRecordLayoutBound) {
  // Group fields are at most 4 bytes, so the writer refuses stores it
  // could not encode; the bound itself is accepted.
  const std::size_t bound = std::size_t{1} << 31;
  EXPECT_THROW(TraceStoreWriter(scratchDir("huge"), bound + 1, 1, 1,
                                TraceWriterOptions{}),
               std::invalid_argument);
  EXPECT_NO_THROW(TraceStoreWriter(scratchDir("bound"), bound, 1, 1,
                                   TraceWriterOptions{}));
}

// ------------------------------------------------------- decode fuzz

TEST(TraceV4Decode, RandomShapesRoundTrip) {
  // Fuzz: random node counts (1-4 byte fields), random trial lengths
  // (odd/even/empty), random block sizes (units ending at or near a
  // block's end, where the last field's load reads the window slack) and
  // both block codecs. Every trial must decode as written.
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

    expectTrialsEqual(decodeStore(TraceStore::open(dir)), trials);
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------ threaded replay

TEST(TraceV4Parallel, ThreadedOneShardReplayMatchesSerial) {
  // Two huge trials in one shard, replayed at 2 and 8 threads: the
  // statistics must be bit-identical to the serial replay.
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
  for (const std::size_t threads : {2u, 8u}) {
    sim::ReplayConfig config;
    config.threads = threads;
    expectIdentical(sim::replayTrace(store, config, factory), reference);
  }
}

}  // namespace
}  // namespace doda
