// Tests for the extension modules: edge-Markov traces, trace I/O, and
// schedule metrics.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "analysis/schedule_metrics.hpp"
#include "dynagraph/edge_markov.hpp"
#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace doda {
namespace {

using core::NodeId;
using core::Time;
using dynagraph::Interaction;
using dynagraph::InteractionSequence;
using dynagraph::kNever;
using testing::ix;
using testing::runOn;

TEST(EdgeMarkov, ProducesValidInteractions) {
  util::Rng rng(1);
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = 10;
  config.steps = 200;
  const auto seq = dynagraph::traces::edgeMarkovTrace(config, rng);
  ASSERT_GT(seq.length(), 0u);
  for (Time t = 0; t < seq.length(); ++t) EXPECT_LT(seq.at(t).b(), 10u);
}

TEST(EdgeMarkov, StationaryDensityMatches) {
  util::Rng rng(2);
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = 12;
  config.p_on = 0.10;
  config.p_off = 0.30;
  config.steps = 4000;
  const auto seq = dynagraph::traces::edgeMarkovTrace(config, rng);
  const double pairs = 12.0 * 11.0 / 2.0;
  const double density = static_cast<double>(seq.length()) /
                         (static_cast<double>(config.steps) * pairs);
  // Stationary density p_on / (p_on + p_off) = 0.25.
  EXPECT_NEAR(density, 0.25, 0.02);
}

TEST(EdgeMarkov, PersistentEdgesRepeat) {
  // With tiny p_off, an edge that appears tends to stay: consecutive steps
  // share most edges. We check temporal correlation via repeat fraction.
  util::Rng rng(3);
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = 8;
  config.p_on = 0.02;
  config.p_off = 0.02;
  config.steps = 500;
  const auto seq = dynagraph::traces::edgeMarkovTrace(config, rng);
  std::map<Interaction, std::size_t> counts;
  for (Time t = 0; t < seq.length(); ++t) ++counts[seq.at(t)];
  // Some edge must persist for many steps.
  std::size_t max_count = 0;
  for (const auto& [edge, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 20u);
}

TEST(EdgeMarkov, ColdStartBeginsEmpty) {
  util::Rng rng(4);
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = 6;
  config.p_on = 0.01;
  config.p_off = 0.5;
  config.steps = 1;
  config.stationary_start = false;
  const auto seq = dynagraph::traces::edgeMarkovTrace(config, rng);
  // One step from empty: expected edges = 15 * 0.01 = 0.15.
  EXPECT_LE(seq.length(), 3u);
}

TEST(EdgeMarkov, ValidatesConfig) {
  util::Rng rng(5);
  dynagraph::traces::EdgeMarkovConfig bad;
  bad.nodes = 1;
  EXPECT_THROW(dynagraph::traces::edgeMarkovTrace(bad, rng),
               std::invalid_argument);
  dynagraph::traces::EdgeMarkovConfig bad2;
  bad2.p_on = 0.0;
  EXPECT_THROW(dynagraph::traces::edgeMarkovTrace(bad2, rng),
               std::invalid_argument);
}

TEST(EdgeMarkov, GatheringAggregatesOverIt) {
  util::Rng rng(6);
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = 10;
  config.steps = 2000;
  const auto seq = dynagraph::traces::edgeMarkovTrace(config, rng);
  algorithms::Gathering ga;
  const auto r = runOn(ga, seq, 10, 0);
  EXPECT_TRUE(r.terminated);
}

TEST(TraceIo, RoundTripsThroughStream) {
  util::Rng rng(7);
  const auto seq = dynagraph::traces::uniformRandom(9, 150, rng);
  std::stringstream ss;
  dynagraph::writeTrace(ss, seq, 9);
  const auto loaded = dynagraph::readTrace(ss);
  EXPECT_EQ(loaded.sequence, seq);
  EXPECT_EQ(loaded.node_count, 9u);
}

TEST(TraceIo, RoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "/doda_trace_test.txt";
  util::Rng rng(8);
  const auto seq = dynagraph::traces::uniformRandom(5, 40, rng);
  dynagraph::saveTrace(path, seq);
  const auto loaded = dynagraph::loadTrace(path);
  EXPECT_EQ(loaded.sequence, seq);
  EXPECT_EQ(loaded.node_count, 5u);
  std::remove(path.c_str());
}

TEST(TraceIo, InfersNodeCountWithoutHeader) {
  std::stringstream ss("0 1\n2 7\n");
  const auto loaded = dynagraph::readTrace(ss);
  EXPECT_EQ(loaded.node_count, 8u);
  EXPECT_EQ(loaded.sequence.length(), 2u);
}

TEST(TraceIo, SkipsCommentsAndBlanks) {
  std::stringstream ss("# a comment\n\n0 1\n# another\n1 2\n");
  const auto loaded = dynagraph::readTrace(ss);
  EXPECT_EQ(loaded.sequence.length(), 2u);
}

TEST(TraceIo, HandlesCrlf) {
  std::stringstream ss("0 1\r\n1 2\r\n");
  const auto loaded = dynagraph::readTrace(ss);
  EXPECT_EQ(loaded.sequence.length(), 2u);
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::stringstream ss("0\n");
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error);
  }
  {
    std::stringstream ss("0 0\n");
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error);
  }
  {
    std::stringstream ss("0 1 junk\n");
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error);
  }
  {
    std::stringstream ss("-1 2\n");
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error);
  }
  {
    std::stringstream ss("# nodes 2\n0 5\n");
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error);
  }
  // Ids and counts beyond the 32-bit NodeId range are rejected, not
  // wrapped: 4294967301 would read as node 5, 4294967297 as node 1.
  for (const char* text :
       {"0 4294967301\n", "4294967297 1\n", "# nodes -1\n0 1\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(dynagraph::readTrace(ss), std::runtime_error) << text;
  }
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(dynagraph::loadTrace("/no/such/file.trace"),
               std::runtime_error);
}

TEST(ScheduleMetrics, WaitingIsAllSingleHop) {
  util::Rng rng(9);
  const std::size_t n = 8;
  const auto seq = dynagraph::traces::uniformRandom(n, 100 * n * n, rng);
  algorithms::Waiting w;
  const auto r = runOn(w, seq, n, 0);
  ASSERT_TRUE(r.terminated);
  const auto m = analysis::analyzeSchedule(r.schedule, {n, 0});
  EXPECT_EQ(m.delivered_count, n - 1);
  EXPECT_EQ(m.max_hops, 1u);
  EXPECT_DOUBLE_EQ(m.mean_hops, 1.0);
}

TEST(ScheduleMetrics, GatheringFormsChains) {
  util::Rng rng(10);
  const std::size_t n = 24;
  const auto seq = dynagraph::traces::uniformRandom(n, 400 * n, rng);
  algorithms::Gathering ga;
  const auto r = runOn(ga, seq, n, 0);
  ASSERT_TRUE(r.terminated);
  const auto m = analysis::analyzeSchedule(r.schedule, {n, 0});
  EXPECT_EQ(m.delivered_count, n - 1);
  EXPECT_GT(m.max_hops, 1u);  // some datum was relayed
  EXPECT_GT(m.mean_hops, 1.0);
  EXPECT_EQ(m.completion_time, r.last_transmission_time);
}

TEST(ScheduleMetrics, PartialScheduleCountsParkedData) {
  // 2 -> 1 but 1 never delivers: origin 2's datum is parked at node 1.
  const std::vector<core::TransmissionRecord> schedule{{0, 2, 1}};
  const auto m = analysis::analyzeSchedule(schedule, {3, 0});
  EXPECT_EQ(m.delivered_count, 0u);
  EXPECT_FALSE(m.delivered[1]);
  EXPECT_FALSE(m.delivered[2]);
  EXPECT_TRUE(m.delivered[0]);  // the sink trivially holds its own datum
}

TEST(ScheduleMetrics, HandCraftedChain) {
  // 3 -> 2 (t0), 2 -> 1 (t1), 1 -> 0 (t2): origin 3 takes 3 hops.
  const std::vector<core::TransmissionRecord> schedule{
      {0, 3, 2}, {1, 2, 1}, {2, 1, 0}};
  const auto m = analysis::analyzeSchedule(schedule, {4, 0});
  EXPECT_EQ(m.delivered_count, 3u);
  EXPECT_EQ(m.hops[3], 3u);
  EXPECT_EQ(m.hops[2], 2u);
  EXPECT_EQ(m.hops[1], 1u);
  EXPECT_EQ(m.delivery_time[3], 2u);
  EXPECT_EQ(m.max_hops, 3u);
  EXPECT_DOUBLE_EQ(m.mean_hops, 2.0);
}

TEST(ScheduleMetrics, RejectsDoubleTransmit) {
  const std::vector<core::TransmissionRecord> schedule{{0, 1, 2}, {1, 1, 0}};
  EXPECT_THROW(analysis::analyzeSchedule(schedule, {3, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace doda
