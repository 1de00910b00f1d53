#include <gtest/gtest.h>

#include <set>

#include "adversary/randomized_adversary.hpp"
#include "algorithms/full_knowledge.hpp"
#include "algorithms/future_aware.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/random_policy.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "analysis/convergecast.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace doda::algorithms {
namespace {

using core::NodeId;
using core::Time;
using dynagraph::InteractionSequence;
using dynagraph::kNever;
using dynagraph::MeetTimeIndex;
using testing::ix;
using testing::runOn;

TEST(Waiting, OnlyTransmitsToSink) {
  Waiting w;
  const InteractionSequence seq{ix(1, 2), ix(2, 3), ix(0, 2), ix(0, 1),
                                ix(0, 3)};
  const auto r = runOn(w, seq, 4, 0);
  EXPECT_TRUE(r.terminated);
  for (const auto& rec : r.schedule) EXPECT_EQ(rec.receiver, 0u);
  EXPECT_EQ(r.schedule.size(), 3u);
}

TEST(Waiting, NeverTerminatesWithoutSinkContact) {
  Waiting w;
  const auto seq = InteractionSequence{ix(1, 2), ix(2, 3)}.repeated(50);
  const auto r = runOn(w, seq, 4, 0);
  EXPECT_FALSE(r.terminated);
  EXPECT_TRUE(r.schedule.empty());
}

TEST(Gathering, AlwaysTransmitsTowardSinkOrSmallerId) {
  Gathering ga;
  const InteractionSequence seq{ix(2, 3), ix(1, 2), ix(0, 1)};
  const auto r = runOn(ga, seq, 4, 0);
  EXPECT_TRUE(r.terminated);
  ASSERT_EQ(r.schedule.size(), 3u);
  // {2,3}: u1 = 2 receives; {1,2}: 1 receives; {0,1}: sink receives.
  EXPECT_EQ(r.schedule[0], (core::TransmissionRecord{0, 3, 2}));
  EXPECT_EQ(r.schedule[1], (core::TransmissionRecord{1, 2, 1}));
  EXPECT_EQ(r.schedule[2], (core::TransmissionRecord{2, 1, 0}));
}

TEST(Gathering, ExactlyNMinusOneTransmissions) {
  util::Rng rng(4);
  for (std::size_t n : {3u, 5u, 9u, 17u}) {
    Gathering ga;
    const auto seq = dynagraph::traces::uniformRandom(n, 200 * n, rng);
    const auto r = runOn(ga, seq, n, 0);
    ASSERT_TRUE(r.terminated) << "n=" << n;
    EXPECT_EQ(r.schedule.size(), n - 1);
  }
}

TEST(Metadata, NamesAndKnowledge) {
  Waiting w;
  Gathering ga;
  EXPECT_EQ(w.name(), "Waiting");
  EXPECT_EQ(ga.name(), "Gathering");
  EXPECT_EQ(w.knowledge(), "none");
  EXPECT_TRUE(w.isOblivious());
  EXPECT_TRUE(ga.isOblivious());
}

TEST(WaitingGreedy, LaterMeeterTransmits) {
  // Sink 0. Node 1 meets sink at t=3; node 2 meets sink at t=5.
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(1, 2), ix(0, 1),
                                ix(1, 2), ix(0, 2)};
  MeetTimeIndex idx(seq, 0, 3);
  WaitingGreedy wg(idx, /*tau=*/4);
  // At t=0: m1=3 <= m2=5, tau=4 < 5 -> receiver is node 1 (2 transmits).
  const auto r = runOn(wg, seq, 3, 0);
  ASSERT_TRUE(r.terminated);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0], (core::TransmissionRecord{0, 2, 1}));
  EXPECT_EQ(r.schedule[1], (core::TransmissionRecord{3, 1, 0}));
  EXPECT_EQ(wg.tau(), 4u);
}

TEST(WaitingGreedy, BothMeetEarlyMeansWait) {
  // Both nodes meet the sink before tau: nobody transmits at {1,2}.
  const InteractionSequence seq{ix(1, 2), ix(0, 1), ix(0, 2)};
  MeetTimeIndex idx(seq, 0, 3);
  WaitingGreedy wg(idx, /*tau=*/10);
  const auto r = runOn(wg, seq, 3, 0);
  EXPECT_TRUE(r.terminated);
  ASSERT_EQ(r.schedule.size(), 2u);
  // Each node delivered its own datum directly.
  EXPECT_EQ(r.schedule[0], (core::TransmissionRecord{1, 1, 0}));
  EXPECT_EQ(r.schedule[1], (core::TransmissionRecord{2, 2, 0}));
}

TEST(WaitingGreedy, SinkInteractionUsesIdentityMeetTime) {
  // At {0,1} with node 1 never meeting the sink again: m(1)=kNever > tau,
  // so node 1 transmits to the sink.
  const InteractionSequence seq{ix(0, 1), ix(0, 2)};
  MeetTimeIndex idx(seq, 0, 3);
  WaitingGreedy wg(idx, 1);
  const auto r = runOn(wg, seq, 3, 0);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.schedule.size(), 2u);
}

TEST(WaitingGreedy, SinkRefusedWhenNodeMeetsAgainSoon) {
  // Node 1 meets the sink at t=0 AND t=1 (before tau=5): at t=0 the
  // algorithm waits (m1 = 1 <= tau); at t=1, m1 = kNever > tau: transmit.
  const InteractionSequence seq{ix(0, 1), ix(0, 1), ix(0, 2)};
  MeetTimeIndex idx(seq, 0, 3);
  WaitingGreedy wg(idx, 5);
  const auto r = runOn(wg, seq, 3, 0);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0].time, 1u);  // waited at t=0
}

TEST(WaitingGreedy, TauZeroActsLikeGathering) {
  util::Rng rng(6);
  const std::size_t n = 8;
  const auto seq = dynagraph::traces::uniformRandom(n, 100 * n * n, rng);
  MeetTimeIndex idx(seq, 0, n);
  WaitingGreedy wg(idx, 0);
  const auto r = runOn(wg, seq, n, 0);
  ASSERT_TRUE(r.terminated);
  EXPECT_EQ(r.schedule.size(), n - 1);
}

TEST(WaitingGreedy, HugeTauActsLikeWaiting) {
  // With tau beyond every meeting, only direct-to-sink transfers happen.
  util::Rng rng(7);
  const std::size_t n = 6;
  const auto seq = dynagraph::traces::uniformRandom(n, 200 * n * n, rng);
  MeetTimeIndex idx(seq, 0, n);
  WaitingGreedy wg(idx, seq.length() + 1);
  const auto r = runOn(wg, seq, n, 0);
  ASSERT_TRUE(r.terminated);
  for (const auto& rec : r.schedule) EXPECT_EQ(rec.receiver, 0u);
}

TEST(WaitingGreedy, ReadsOnlyThePrefixThatDecidesIt) {
  // One paper-tau trial dispatches 1,035 interactions; the oracle commits
  // and indexes 13 LazySequence chunks to decide them. Pinned so that
  // read-ahead cannot creep back unnoticed.
  const std::size_t n = 64;
  adversary::RandomizedAdversary adversary(n, 3);
  MeetTimeIndex index = adversary.makeMeetTimeIndex(0);
  WaitingGreedy wg(index,
                   static_cast<Time>(util::closed_form::waitingGreedyTau(n)));
  core::Engine engine({n, 0}, core::AggregationFunction::count());
  const auto r = engine.run(wg, adversary);
  ASSERT_TRUE(r.terminated);
  EXPECT_EQ(r.interactions_dispatched, 1035u);
  EXPECT_EQ(adversary.lazySequence().generatedLength(), 3328u);
  EXPECT_EQ(index.indexedLength(), 3328u);
}

TEST(WaitingGreedy, KnowledgeIsMeetTime) {
  const InteractionSequence seq{ix(0, 1)};
  MeetTimeIndex idx(seq, 0, 2);
  WaitingGreedy wg(idx, 1);
  EXPECT_EQ(wg.knowledge(), "meetTime");
}

TEST(RandomPolicy, TerminatesOnLongRandomSequences) {
  util::Rng rng(8);
  const std::size_t n = 6;
  const auto seq = dynagraph::traces::uniformRandom(n, 500 * n * n, rng);
  RandomPolicy rp(/*seed=*/99);
  const auto r = runOn(rp, seq, n, 0);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.schedule.size(), n - 1);
}

TEST(RandomPolicy, ResetIsReproducible) {
  util::Rng rng(9);
  const auto seq = dynagraph::traces::uniformRandom(5, 4000, rng);
  RandomPolicy rp(1234);
  const auto r1 = runOn(rp, seq, 5, 0);
  const auto r2 = runOn(rp, seq, 5, 0);
  EXPECT_EQ(r1.schedule, r2.schedule);
}

TEST(FullKnowledge, CostIsAlwaysOne) {
  util::Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.below(6);
    const auto seq = dynagraph::traces::uniformRandom(n, 100 * n, rng);
    if (analysis::optCompletion(seq, n, 0) == kNever) continue;
    FullKnowledgeOptimal fk(seq);
    const auto r = runOn(fk, seq, n, 0);
    ASSERT_TRUE(r.terminated);
    EXPECT_EQ(analysis::costOf(seq, n, 0, r.last_transmission_time), 1u);
    EXPECT_EQ(r.last_transmission_time,
              analysis::optCompletion(seq, n, 0));
  }
}

TEST(FullKnowledge, InfeasibleSequenceMeansNoTransmissions) {
  const InteractionSequence seq{ix(1, 2)};
  FullKnowledgeOptimal fk(seq);
  const auto r = runOn(fk, seq, 3, 0);
  EXPECT_FALSE(r.terminated);
  EXPECT_TRUE(r.schedule.empty());
  EXPECT_FALSE(fk.feasible());
}

TEST(FullKnowledge, HonorsStartOffset) {
  const InteractionSequence seq{ix(0, 1), ix(1, 2), ix(1, 2), ix(0, 1)};
  FullKnowledgeOptimal fk(seq, /*start=*/1);
  const auto r = runOn(fk, seq, 3, 0);
  ASSERT_TRUE(r.terminated);
  for (const auto& rec : r.schedule) EXPECT_GE(rec.time, 1u);
}

TEST(FutureAware, DisseminationTimeMatchesNaiveSimulation) {
  util::Rng rng(11);
  const std::size_t n = 8;
  const auto seq = dynagraph::traces::uniformRandom(n, 500, rng);
  FutureAware fa(seq);
  fa.reset({n, 0});

  // Naive reference: set-based epidemic merge.
  std::vector<std::set<NodeId>> knows(n);
  for (NodeId u = 0; u < n; ++u) knows[u].insert(u);
  Time t_star = kNever;
  for (Time t = 0; t < seq.length(); ++t) {
    const auto& i = seq.at(t);
    knows[i.a()].insert(knows[i.b()].begin(), knows[i.b()].end());
    knows[i.b()] = knows[i.a()];
    bool all = true;
    for (const auto& k : knows) all = all && k.size() == n;
    if (all) {
      t_star = t;
      break;
    }
  }
  EXPECT_EQ(fa.disseminationComplete(), t_star);
}

TEST(FutureAware, NoTransmissionBeforeDisseminationCompletes) {
  util::Rng rng(12);
  const std::size_t n = 6;
  const auto seq = dynagraph::traces::uniformRandom(n, 4000, rng);
  FutureAware fa(seq);
  const auto r = runOn(fa, seq, n, 0);
  ASSERT_TRUE(r.terminated);
  fa.reset({n, 0});
  for (const auto& rec : r.schedule)
    EXPECT_GT(rec.time, fa.disseminationComplete());
}

TEST(FutureAware, TerminatesAndScheduleValidates) {
  util::Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 4 + rng.below(6);
    const auto seq = dynagraph::traces::uniformRandom(n, 300 * n, rng);
    FutureAware fa(seq);
    const auto r = runOn(fa, seq, n, 0);
    ASSERT_TRUE(r.terminated);
    std::string err;
    EXPECT_TRUE(core::validateConvergecastSchedule(r.schedule, seq,
                                                   {n, 0}, &err))
        << err;
  }
}

TEST(FutureAware, IsNotOblivious) {
  const InteractionSequence seq{ix(0, 1)};
  FutureAware fa(seq);
  EXPECT_FALSE(fa.isOblivious());
  EXPECT_EQ(fa.knowledge(), "future");
}

}  // namespace
}  // namespace doda::algorithms
