#pragma once

// Shared fixtures of the trace-store test files: unique scratch
// directories, sampled uniform trials, store write and decode round trips,
// raw file access and checksum reseals for the corruption tests, and
// bit-exact comparison of trials and replayed statistics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "sim/parallel.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace doda::trace_test {

/// Fresh scratch directory under the test temp root. ctest runs each test
/// in its own process, possibly concurrently, so the name must be unique
/// per call *and* per process (tag + pid + counter).
inline std::string scratchDir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("doda_trace_" + tag + "_" + std::to_string(::getpid()) +
                    "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// `count` uniform trials of `length` interactions over `n` nodes.
inline std::vector<dynagraph::InteractionSequence> sampleTrials(
    std::size_t n, std::size_t count, core::Time length, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dynagraph::InteractionSequence> trials;
  trials.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trials.push_back(dynagraph::traces::uniformRandom(n, length, rng));
  return trials;
}

/// Raw (uncompressed) blocks; the default options write rANS blocks.
inline dynagraph::TraceWriterOptions rawOptions() {
  dynagraph::TraceWriterOptions options;
  options.compress = false;
  return options;
}

inline void writeStore(const std::string& dir, std::size_t n,
                       const std::vector<dynagraph::InteractionSequence>& trials,
                       std::uint32_t shards,
                       const dynagraph::TraceWriterOptions& options) {
  dynagraph::TraceStoreWriter writer(dir, n, trials.size(), shards, options);
  for (const auto& trial : trials) writer.appendTrial(trial);
  writer.finish();
}

/// Every trial of the store, in global order.
inline std::vector<dynagraph::InteractionSequence> decodeStore(
    const dynagraph::TraceStore& store) {
  std::vector<dynagraph::InteractionSequence> trials;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    auto reader = store.openShard(s);
    while (reader.beginTrial()) trials.push_back(reader.readRest());
  }
  return trials;
}

inline std::vector<char> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

inline void writeFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The reseal helpers recompute a shard checksum after an intentional edit
// of the bytes it covers, so a structural check (not the checksum) must
// catch the edit. They seal with the library's shard checksum.

/// Re-seals the header checksum (offset 72, over bytes [0, 72)).
inline void resealHeader(std::vector<char>& bytes) {
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  util::storeU64(data + 72, util::wordChecksum(data, 72));
}

/// Re-seals the checksum (frame offset 9) of the block whose frame starts
/// at byte `frame`, over the stored size that frame declares.
inline void resealBlock(std::vector<char>& bytes, std::size_t frame) {
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  const std::uint32_t stored = util::loadU32(data + frame + 4);
  util::storeU64(data + frame + 9,
                 util::wordChecksum(
                     data + frame + dynagraph::kTraceBlockFrameBytes, stored));
}

/// Re-seals the footer checksum (the file's last 8 bytes) over the footer
/// bytes before it; the footer starts after the payload the header
/// declares.
inline void resealFooter(std::vector<char>& bytes) {
  auto* data = reinterpret_cast<unsigned char*>(bytes.data());
  const std::size_t footer =
      dynagraph::kTraceHeaderSize + util::loadU64(data + 48);
  util::storeU64(data + bytes.size() - 8,
                 util::wordChecksum(data + footer, bytes.size() - 8 - footer));
}

inline void expectTrialsEqual(
    const std::vector<dynagraph::InteractionSequence>& a,
    const std::vector<dynagraph::InteractionSequence>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].length(), b[i].length()) << "trial " << i;
    for (core::Time t = 0; t < a[i].length(); ++t)
      ASSERT_EQ(a[i].at(t), b[i].at(t)) << "trial " << i << " t=" << t;
  }
}

/// EXPECT_EQ on doubles on purpose: the fold order is fixed, so results
/// must be bit-identical, not merely close.
inline void expectIdentical(const sim::MeasureResult& a,
                            const sim::MeasureResult& b) {
  EXPECT_EQ(a.interactions.count(), b.interactions.count());
  EXPECT_EQ(a.interactions.mean(), b.interactions.mean());
  EXPECT_EQ(a.interactions.variance(), b.interactions.variance());
  EXPECT_EQ(a.interactions.min(), b.interactions.min());
  EXPECT_EQ(a.interactions.max(), b.interactions.max());
  EXPECT_EQ(a.cost.count(), b.cost.count());
  EXPECT_EQ(a.cost.mean(), b.cost.mean());
  EXPECT_EQ(a.cost.variance(), b.cost.variance());
  EXPECT_EQ(a.failed_trials, b.failed_trials);
}

}  // namespace doda::trace_test
