#include "dynagraph/oracles.hpp"

#include <gtest/gtest.h>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "dynagraph/traces.hpp"
#include "fault/fault_oracles.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace doda::dynagraph {
namespace {

using testing::ix;
using testing::runOn;

InteractionSequence sampleSeq() {
  // Node 1 meets sink at t=4; node 2 at t=9.
  std::vector<Interaction> v;
  for (int k = 0; k < 4; ++k) v.push_back(ix(1, 2));
  v.push_back(ix(0, 1));  // t=4
  for (int k = 0; k < 4; ++k) v.push_back(ix(1, 2));
  v.push_back(ix(0, 2));  // t=9
  return InteractionSequence(std::move(v));
}

TEST(ExactOracle, MatchesIndex) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  ExactMeetTimeOracle oracle(index);
  EXPECT_EQ(oracle.meetTime(1, 0), 4u);
  EXPECT_EQ(oracle.meetTime(2, 0), 9u);
  EXPECT_EQ(oracle.meetTime(0, 7), 7u);
}

TEST(WindowedOracle, HidesMeetingsBeyondWindow) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  WindowedMeetTimeOracle oracle(index, /*window=*/5);
  EXPECT_EQ(oracle.meetTime(1, 0), 4u);       // 4 - 0 <= 5: visible
  EXPECT_EQ(oracle.meetTime(2, 0), kNever);   // 9 - 0 > 5: hidden
  EXPECT_EQ(oracle.meetTime(2, 5), 9u);       // 9 - 5 <= 5: visible now
  EXPECT_EQ(oracle.window(), 5u);
}

TEST(WindowedOracle, ZeroWindowHidesEverything) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  WindowedMeetTimeOracle oracle(index, 0);
  EXPECT_EQ(oracle.meetTime(1, 0), kNever);
  EXPECT_EQ(oracle.meetTime(1, 3), kNever);  // even one step ahead is hidden
  // The sink's identity meetTime is never hidden (exact == t).
  EXPECT_EQ(oracle.meetTime(0, 6), 6u);
}

TEST(WindowedOracle, InfiniteWindowIsExact) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  WindowedMeetTimeOracle oracle(index, kNever);
  EXPECT_EQ(oracle.meetTime(1, 0), 4u);
  EXPECT_EQ(oracle.meetTime(2, 0), 9u);
}

TEST(QuantizedOracle, RoundsUpToBucket) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  QuantizedMeetTimeOracle oracle(index, /*bucket=*/4);
  EXPECT_EQ(oracle.meetTime(1, 0), 4u);   // exact multiple stays
  EXPECT_EQ(oracle.meetTime(2, 0), 12u);  // 9 -> ceil to 12
  EXPECT_EQ(oracle.bucket(), 4u);
}

TEST(QuantizedOracle, NeverStaysNever) {
  const auto seq = sampleSeq();
  MeetTimeIndex index(seq, 0, 3);
  QuantizedMeetTimeOracle oracle(index, 8);
  EXPECT_EQ(oracle.meetTime(1, 100), kNever);
}

TEST(QuantizedOracle, BucketOnePreservesExactness) {
  util::Rng rng(5);
  const auto seq = traces::uniformRandom(6, 300, rng);
  MeetTimeIndex index(seq, 0, 6);
  QuantizedMeetTimeOracle quantized(index, 1);
  ExactMeetTimeOracle exact(index);
  for (int probe = 0; probe < 100; ++probe) {
    const NodeId u = static_cast<NodeId>(rng.below(6));
    const Time t = rng.below(300);
    EXPECT_EQ(quantized.meetTime(u, t), exact.meetTime(u, t));
  }
}

TEST(QuantizedOracle, PreservesOrderWeakly) {
  // Rounding up is monotone: m1 <= m2 implies round(m1) <= round(m2).
  util::Rng rng(6);
  const auto seq = traces::uniformRandom(8, 500, rng);
  MeetTimeIndex index(seq, 0, 8);
  ExactMeetTimeOracle exact(index);
  QuantizedMeetTimeOracle q(index, 16);
  for (int probe = 0; probe < 200; ++probe) {
    const NodeId u = static_cast<NodeId>(rng.below(8));
    const NodeId v = static_cast<NodeId>(rng.below(8));
    const Time t = rng.below(500);
    const Time mu = exact.meetTime(u, t), mv = exact.meetTime(v, t);
    if (mu <= mv) {
      EXPECT_LE(q.meetTime(u, t), q.meetTime(v, t));
    }
  }
}

TEST(MeetOrder, EveryOracleAnswersAsTwoMeetTimeCalls) {
  // The degraded oracles keep their meetTime semantics in WaitingGreedy's
  // decision query, ties included (quantized buckets, hidden meetings,
  // Byzantine lies); the exact one settles it from its index.
  util::Rng rng(10);
  const std::size_t n = 8;
  const auto seq = traces::uniformRandom(n, 3000, rng);
  MeetTimeIndex index(seq, 0, n);
  ExactMeetTimeOracle exact(index);
  WindowedMeetTimeOracle windowed(index, 40);
  QuantizedMeetTimeOracle quantized(index, 64);
  fault::FaultPlan plan;
  plan.crash_times.assign(n, kNever);
  plan.byzantine.assign(n, 0);
  plan.crash_times[2] = 1500;
  plan.byzantine[5] = 1;
  fault::FaultyMeetTimeOracle faulty(exact, plan);
  MeetTimeOracle* const oracles[] = {&exact, &windowed, &quantized, &faulty};
  for (MeetTimeOracle* oracle : oracles) {
    Time t = 0;
    for (int probe = 0; probe < 300; ++probe) {
      const NodeId a = static_cast<NodeId>(rng.below(n));
      const NodeId b = static_cast<NodeId>((a + 1 + rng.below(n - 1)) % n);
      t += rng.below(12);
      const Time horizon = rng.below(4) == 0 ? kNever : t + rng.below(200);
      const Time ma = oracle->meetTime(a, t);
      const Time mb = oracle->meetTime(b, t);
      EXPECT_EQ(oracle->meetOrder(a, b, t, horizon),
                (MeetOrder{ma <= mb, std::max(ma, mb) > horizon}))
          << "a=" << a << " b=" << b << " t=" << t << " horizon=" << horizon;
    }
  }
}

TEST(WaitingGreedyWithOracle, DegradedOracleStillTerminates) {
  util::Rng rng(7);
  const std::size_t n = 10;
  const auto seq = traces::uniformRandom(n, 200 * n * n, rng);
  MeetTimeIndex index(seq, 0, n);
  WindowedMeetTimeOracle oracle(index, 50);
  algorithms::WaitingGreedy wg(oracle, /*tau=*/300);
  const auto r = runOn(wg, seq, n, 0);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.schedule.size(), n - 1);
}

TEST(WaitingGreedyWithOracle, ZeroWindowBehavesLikeAlwaysTransmit) {
  // With no foresight every meetTime is kNever > tau: the later... both
  // equal kNever, so m1 <= m2 and tau < m2: u1 (smaller id) receives —
  // exactly Gathering's tie-break.
  util::Rng rng(8);
  const std::size_t n = 8;
  const auto seq = traces::uniformRandom(n, 100 * n * n, rng);
  MeetTimeIndex index(seq, 0, n);
  WindowedMeetTimeOracle blind(index, 0);
  algorithms::WaitingGreedy wg(blind, 100);
  algorithms::Gathering ga;
  const auto r_wg = runOn(wg, seq, n, 0);
  const auto r_ga = runOn(ga, seq, n, 0);
  ASSERT_TRUE(r_wg.terminated);
  ASSERT_TRUE(r_ga.terminated);
  // Non-sink interactions behave identically; sink interactions also
  // transmit (identity meetTime <= anything, kNever > tau). So the whole
  // schedule coincides with Gathering's.
  EXPECT_EQ(r_wg.schedule, r_ga.schedule);
}

}  // namespace
}  // namespace doda::dynagraph
