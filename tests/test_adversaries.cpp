#include <gtest/gtest.h>

#include "adversary/adaptive_adversaries.hpp"
#include "adversary/randomized_adversary.hpp"
#include "adversary/sequence_adversary.hpp"
#include "adversary/thm2_builder.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/random_policy.hpp"
#include "algorithms/spanning_tree_aggregation.hpp"
#include "algorithms/waiting.hpp"
#include "analysis/convergecast.hpp"
#include "core/engine.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace doda::adversary {
namespace {

using core::Engine;
using core::NodeId;
using core::RunOptions;
using core::Time;
using dynagraph::InteractionSequence;
using dynagraph::kNever;
using testing::ix;
using testing::runOn;

/// Runs `algorithm` against an adaptive adversary for `horizon`
/// interactions and returns the result.
core::ExecutionResult runAdaptive(core::DodaAlgorithm& algorithm,
                                  core::Adversary& adversary,
                                  std::size_t node_count, Time horizon) {
  Engine engine({node_count, 0}, core::AggregationFunction::count());
  RunOptions options;
  options.max_interactions = horizon;
  return engine.run(algorithm, adversary, options);
}

/// Materializes what an adaptive adversary emitted against an algorithm by
/// replaying through a recording engine run. We re-run and capture via a
/// wrapper adversary.
class RecordingAdversary final : public core::Adversary {
 public:
  explicit RecordingAdversary(core::Adversary& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void reset(const core::SystemInfo& info) override { inner_->reset(info); }
  std::optional<core::Interaction> next(
      Time t, const core::ExecutionView& view) override {
    auto i = inner_->next(t, view);
    if (i) emitted_.append(*i);
    return i;
  }
  const InteractionSequence& emitted() const noexcept { return emitted_; }

 private:
  core::Adversary* inner_;
  InteractionSequence emitted_;
};

class Thm1Param : public ::testing::TestWithParam<int> {};

std::unique_ptr<core::DodaAlgorithm> makeVictim(int which) {
  switch (which) {
    case 0:
      return std::make_unique<algorithms::Waiting>();
    case 1:
      return std::make_unique<algorithms::Gathering>();
    default:
      return std::make_unique<algorithms::RandomPolicy>(123 + which);
  }
}

TEST_P(Thm1Param, NoAlgorithmTerminatesAndConvergecastsRemainPossible) {
  const auto victim = makeVictim(GetParam());
  Thm1Adversary adv;
  RecordingAdversary rec(adv);
  constexpr Time kHorizon = 600;
  const auto r = runAdaptive(*victim, rec, 3, kHorizon);
  // Paper Thm 1: the execution never terminates...
  EXPECT_FALSE(r.terminated) << victim->name();
  EXPECT_EQ(r.interactions_dispatched, kHorizon);
  // ...while a convergecast is always possible, so the cost (the number of
  // back-to-back convergecasts fitting in the emitted sequence) keeps
  // growing with the horizon.
  const auto chain =
      analysis::convergecastChain(rec.emitted(), 3, 0);
  EXPECT_GE(chain.size(), 100u) << victim->name();
}

INSTANTIATE_TEST_SUITE_P(Victims, Thm1Param, ::testing::Values(0, 1, 2));

TEST(Thm1Adversary, RequiresExactlyThreeNodes) {
  Thm1Adversary adv;
  algorithms::Waiting w;
  Engine engine({4, 0}, core::AggregationFunction::count());
  EXPECT_THROW(engine.run(w, adv), std::invalid_argument);
}

TEST(Thm1Adversary, AtMostOneTransferEverHappens) {
  for (int which = 0; which < 3; ++which) {
    const auto victim = makeVictim(which);
    Thm1Adversary adv;
    const auto r = runAdaptive(*victim, adv, 3, 500);
    EXPECT_LE(r.schedule.size(), 1u) << victim->name();
  }
}

class Thm3Param : public ::testing::TestWithParam<int> {};

TEST_P(Thm3Param, DefeatsAlgorithmsKnowingTheUnderlyingGraph) {
  // Paper Thm 3: even knowing G̅ (the 4-cycle), no algorithm terminates.
  std::unique_ptr<core::DodaAlgorithm> victim;
  switch (GetParam()) {
    case 0:
      victim = std::make_unique<algorithms::SpanningTreeAggregation>(
          dynagraph::traces::ringGraph(4));
      break;
    case 1:
      victim = std::make_unique<algorithms::Gathering>();
      break;
    case 2:
      victim = std::make_unique<algorithms::Waiting>();
      break;
    default:
      victim = std::make_unique<algorithms::RandomPolicy>(7);
  }
  Thm3Adversary adv;
  RecordingAdversary rec(adv);
  constexpr Time kHorizon = 900;
  const auto r = runAdaptive(*victim, rec, 4, kHorizon);
  EXPECT_FALSE(r.terminated) << victim->name();
  // The emitted underlying graph stays within the 4-cycle the nodes were
  // promised.
  const auto g = rec.emitted().underlyingGraph(4);
  EXPECT_FALSE(g.hasEdge(0, 2));  // the cycle's chords never appear
  EXPECT_FALSE(g.hasEdge(1, 3));
  // Convergecasts remain possible: the cost grows with the horizon.
  const auto chain = analysis::convergecastChain(rec.emitted(), 4, 0);
  EXPECT_GE(chain.size(), 80u) << victim->name();
}

INSTANTIATE_TEST_SUITE_P(Victims, Thm3Param, ::testing::Values(0, 1, 2, 3));

TEST(Thm3Adversary, RequiresExactlyFourNodes) {
  Thm3Adversary adv;
  algorithms::Waiting w;
  Engine engine({3, 0}, core::AggregationFunction::count());
  EXPECT_THROW(engine.run(w, adv), std::invalid_argument);
}

class Thm2Param : public ::testing::TestWithParam<int> {};

TEST_P(Thm2Param, ObliviousSequenceDefeatsDeterministicAlgorithms) {
  std::unique_ptr<core::DodaAlgorithm> victim =
      GetParam() == 0
          ? std::unique_ptr<core::DodaAlgorithm>(
                std::make_unique<algorithms::Waiting>())
          : std::make_unique<algorithms::Gathering>();
  const core::SystemInfo info{6, 0};
  const auto built = buildThm2Sequence(*victim, info, /*repeats=*/60);
  ASSERT_GT(built.sequence.length(), 0u);

  const auto r = runOn(*victim, built.sequence, 6, 0);
  // Paper Thm 2: the algorithm never terminates...
  EXPECT_FALSE(r.terminated) << victim->name();
  // ...and the designated stuck node still owns data: it never transmitted.
  for (const auto& rec : r.schedule)
    EXPECT_NE(rec.sender, built.stuck_node);
  // ...while convergecasts remain possible on the ring rounds.
  const auto chain = analysis::convergecastChain(built.sequence, 6, 0);
  EXPECT_GE(chain.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Victims, Thm2Param, ::testing::Values(0, 1));

TEST(Thm2Builder, PrefixMatchesFirstTransmission) {
  algorithms::Waiting w;
  const auto built = buildThm2Sequence(w, {5, 0}, 3);
  // Waiting transmits at its very first sink interaction: l0 = 1.
  EXPECT_EQ(built.prefix_length, 1u);
  EXPECT_EQ(built.sequence.at(0), ix(0, 1));
}

TEST(Thm2Builder, RejectsTinySystems) {
  algorithms::Waiting w;
  EXPECT_THROW(buildThm2Sequence(w, {3, 0}, 1), std::invalid_argument);
}

/// An algorithm that never transmits: the star itself defeats it.
class NeverTransmit final : public core::DodaAlgorithm {
 public:
  std::string name() const override { return "NeverTransmit"; }
  std::optional<NodeId> decide(const core::Interaction&, Time,
                               const core::ExecutionView&) override {
    return std::nullopt;
  }
};

TEST(Thm2Builder, HandlesSilentAlgorithms) {
  NeverTransmit silent;
  const auto built = buildThm2Sequence(silent, {5, 0}, 2, /*max_prefix=*/64);
  EXPECT_EQ(built.prefix_length, 0u);
  const auto r = runOn(silent, built.sequence, 5, 0);
  EXPECT_FALSE(r.terminated);
}

TEST(RandomizedAdversary, ServesItsCommittedSequence) {
  RandomizedAdversary adv(6, /*seed=*/321);
  algorithms::Gathering ga;
  Engine engine({6, 0}, core::AggregationFunction::count());
  const auto r = engine.run(ga, adv);
  ASSERT_TRUE(r.terminated);
  // Every applied transfer matches the committed randomness.
  for (const auto& rec : r.schedule)
    EXPECT_EQ(adv.lazySequence().committed().at(rec.time),
              core::Interaction(rec.sender, rec.receiver));
}

TEST(RandomizedAdversary, SameSeedSameExecution) {
  algorithms::Gathering ga;
  core::ExecutionResult results[2];
  for (int k = 0; k < 2; ++k) {
    RandomizedAdversary adv(8, 777);
    Engine engine({8, 0}, core::AggregationFunction::count());
    results[k] = engine.run(ga, adv);
  }
  EXPECT_EQ(results[0].schedule, results[1].schedule);
  EXPECT_EQ(results[0].interactions_to_terminate,
            results[1].interactions_to_terminate);
}

TEST(RandomizedAdversary, MeetTimeIndexReadsSameRandomness) {
  RandomizedAdversary adv(5, 999);
  auto idx = adv.makeMeetTimeIndex(0);
  const Time m = idx.meetTime(2, 0);
  ASSERT_NE(m, kNever);
  EXPECT_EQ(adv.lazySequence().committed().at(m), ix(0, 2));
}

TEST(RandomizedAdversary, CommittedStreamPastThePairTableIsPinned) {
  // n = 4096 lies past the sampler's row table (n <= 1448), so every pair
  // comes from the sqrt decode. Pinned: FNV-1a 64 over the ids (a then b,
  // each as 4 little-endian bytes) of the first 2^20 committed
  // interactions, as SeedFormat v2 has committed them since it landed.
  RandomizedAdversary adv(4096, 0x5EED);
  const Time length = Time{1} << 20;
  adv.lazySequence().ensure(length - 1);
  const auto& committed = adv.lazySequence().committed();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto eat = [&hash](NodeId id) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (id >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (Time t = 0; t < length; ++t) {
    eat(committed.at(t).a());
    eat(committed.at(t).b());
  }
  EXPECT_EQ(hash, 0xedba1bbd71362cf6ULL);
}

TEST(NonUniformAdversary, SkewsInteractionsTowardPopularNodes) {
  NonUniformAdversary adv(10, /*zipf=*/1.5, /*seed=*/55);
  adv.lazySequence().ensure(20000 - 1);
  std::vector<int> involvement(10, 0);
  for (Time t = 0; t < 20000; ++t) {
    const auto& i = adv.lazySequence().committed().at(t);
    ++involvement[i.a()];
    ++involvement[i.b()];
  }
  EXPECT_GT(involvement[0], involvement[9] * 2);
}

TEST(SequenceAdversary, ReplaysExactlyAndExhausts) {
  const InteractionSequence seq{ix(0, 1), ix(1, 2)};
  SequenceAdversary adv(seq);
  algorithms::Waiting w;
  Engine engine({3, 0}, core::AggregationFunction::count());
  const auto r = engine.run(w, adv);
  EXPECT_EQ(r.interactions_dispatched, 2u);
  EXPECT_EQ(adv.sequence(), seq);
}

}  // namespace
}  // namespace doda::adversary
