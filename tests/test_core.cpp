#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "adversary/randomized_adversary.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "core/data.hpp"
#include "core/engine.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace doda::core {
namespace {

using dynagraph::InteractionSequence;
using dynagraph::kNever;
using testing::ix;
using testing::runOn;

TEST(Datum, OriginHasSingleSource) {
  const auto d = Datum::origin(3, 7.5);
  EXPECT_DOUBLE_EQ(d.value, 7.5);
  EXPECT_EQ(d.sources.toSortedVector(), std::vector<NodeId>{3});
  EXPECT_TRUE(d.containsSource(3));
  EXPECT_FALSE(d.containsSource(2));
}

TEST(AggregationFunction, SumCombinesValuesAndSources) {
  const auto agg = AggregationFunction::sum();
  auto a = Datum::origin(0, 2.0);
  const auto b = Datum::origin(2, 3.0);
  agg.aggregateInto(a, b);
  EXPECT_DOUBLE_EQ(a.value, 5.0);
  EXPECT_EQ(a.sources.toSortedVector(), (std::vector<NodeId>{0, 2}));
}

TEST(AggregationFunction, MinMaxBehave) {
  auto lo = Datum::origin(0, 2.0);
  AggregationFunction::min().aggregateInto(lo, Datum::origin(1, 5.0));
  EXPECT_DOUBLE_EQ(lo.value, 2.0);
  auto hi = Datum::origin(2, 2.0);
  AggregationFunction::max().aggregateInto(hi, Datum::origin(3, 5.0));
  EXPECT_DOUBLE_EQ(hi.value, 5.0);
}

TEST(AggregationFunction, OverlappingSourcesThrow) {
  const auto agg = AggregationFunction::sum();
  auto a = Datum::origin(0, 1.0);
  const auto dup = Datum::origin(0, 1.0);
  EXPECT_THROW(agg.aggregateInto(a, dup), std::invalid_argument);
}

TEST(AggregationFunction, CustomFunctionAndName) {
  AggregationFunction xorish("xor-ish",
                             [](double a, double b) { return a * b; });
  EXPECT_EQ(xorish.name(), "xor-ish");
  auto a = Datum::origin(0, 3.0);
  xorish.aggregateInto(a, Datum::origin(1, 4.0));
  EXPECT_DOUBLE_EQ(a.value, 12.0);
  EXPECT_THROW(AggregationFunction("bad", nullptr), std::invalid_argument);
}

TEST(Engine, RejectsDegenerateSystems) {
  EXPECT_THROW(Engine({1, 0}, AggregationFunction::sum()),
               std::invalid_argument);
  EXPECT_THROW(Engine({3, 5}, AggregationFunction::sum()),
               std::invalid_argument);
}

TEST(Engine, GatheringStyleRunAggregatesEverything) {
  algorithms::Gathering ga;
  // 0 is sink: 2->1 at t0, 1->0 at t1.
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  const auto r = runOn(ga, seq, 3, 0);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.interactions_to_terminate, 2u);
  EXPECT_EQ(r.last_transmission_time, 1u);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0], (TransmissionRecord{0, 2, 1}));
  EXPECT_EQ(r.schedule[1], (TransmissionRecord{1, 1, 0}));
  // count() aggregation: sink ends with all 3 origins.
  EXPECT_DOUBLE_EQ(r.sink_datum.value, 3.0);
  EXPECT_EQ(r.sink_datum.sources.toSortedVector(),
            (std::vector<NodeId>{0, 1, 2}));
}

TEST(Engine, InitialValuesFlowThroughAggregation) {
  algorithms::Gathering ga;
  Engine engine({3, 0}, AggregationFunction::sum());
  adversary::SequenceAdversary adv(InteractionSequence{ix(1, 2), ix(0, 1)});
  RunOptions options;
  options.initial_values = {10.0, 20.0, 30.0};
  const auto r = engine.run(ga, adv, options);
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.sink_datum.value, 60.0);
}

TEST(Engine, RunIntoReusesScratchAcrossTrials) {
  // The same scratch serves many runs; every run must behave exactly like
  // a fresh-state run (no leakage of ownership flags, data, or schedule).
  algorithms::Gathering ga;
  Engine engine({3, 0}, AggregationFunction::count());
  Engine::Scratch scratch;
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  for (int trial = 0; trial < 3; ++trial) {
    adversary::SequenceAdversary adv(seq);
    const auto r = engine.runInto(scratch, ga, adv);
    EXPECT_TRUE(r.terminated);
    EXPECT_EQ(r.interactions_to_terminate, 2u);
    ASSERT_EQ(r.schedule.size(), 2u);
    EXPECT_DOUBLE_EQ(r.sink_datum.value, 3.0);
    EXPECT_EQ(r.sink_datum.sources.toSortedVector(),
              (std::vector<NodeId>{0, 1, 2}));
  }
  // The scratch also adapts to a different system size.
  Engine bigger({5, 0}, AggregationFunction::count());
  algorithms::Gathering ga2;
  adversary::SequenceAdversary adv(
      InteractionSequence{ix(3, 4), ix(2, 3), ix(1, 2), ix(0, 1)});
  const auto r = bigger.runInto(scratch, ga2, adv);
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.sink_datum.value, 5.0);
}

TEST(Engine, CaptureScheduleOffOmitsOnlyTheSchedule) {
  algorithms::Gathering ga;
  Engine engine({3, 0}, AggregationFunction::count());
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  RunOptions options;
  options.capture_schedule = false;
  adversary::SequenceAdversary adv(seq);
  const auto r = engine.run(ga, adv, options);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(r.schedule.empty());
  // Everything else matches the capturing run.
  adversary::SequenceAdversary adv2(seq);
  const auto full = engine.run(ga, adv2);
  EXPECT_EQ(r.interactions_to_terminate, full.interactions_to_terminate);
  EXPECT_EQ(r.last_transmission_time, full.last_transmission_time);
  EXPECT_DOUBLE_EQ(r.sink_datum.value, full.sink_datum.value);
  EXPECT_EQ(full.schedule.size(), 2u);
}

TEST(Engine, InitialValuesSizeMismatchThrows) {
  algorithms::Gathering ga;
  Engine engine({3, 0}, AggregationFunction::sum());
  adversary::SequenceAdversary adv(InteractionSequence{ix(1, 2)});
  RunOptions options;
  options.initial_values = {1.0};
  EXPECT_THROW(engine.run(ga, adv, options), std::invalid_argument);
}

TEST(Engine, NoTransferWhenOneEndpointHasNoData) {
  algorithms::Gathering ga;
  // 2->1, then {1,2} again: 2 has no data, nothing must happen.
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(1, 2)};
  const auto r = runOn(ga, seq, 3, 0);
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.schedule.size(), 1u);
  EXPECT_EQ(r.interactions_dispatched, 3u);
}

TEST(Engine, TransmitOnceIsStructural) {
  algorithms::Gathering ga;
  // After 1 transmits to 0, later {0,1} and {1,2} interactions are inert.
  const InteractionSequence seq{ix(0, 1), ix(0, 1), ix(1, 2)};
  const auto r = runOn(ga, seq, 3, 0);
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_EQ(r.schedule[0].sender, 1u);
  EXPECT_FALSE(r.terminated);  // node 2 still owns data
}

/// Algorithm that tries to make the sink transmit (model violation).
class EvilSinkSender final : public DodaAlgorithm {
 public:
  std::string name() const override { return "EvilSinkSender"; }
  std::optional<NodeId> decide(const Interaction& i, Time,
                               const ExecutionView& view) override {
    const auto sink = view.system().sink;
    if (i.involves(sink)) return i.other(sink);  // sink would be the sender
    return std::nullopt;
  }
};

TEST(Engine, SinkTransmissionIsRejected) {
  EvilSinkSender evil;
  Engine engine({3, 0}, AggregationFunction::sum());
  adversary::SequenceAdversary adv(InteractionSequence{ix(0, 1)});
  EXPECT_THROW(engine.run(evil, adv), ModelViolation);
}

/// Algorithm that names a non-endpoint as receiver.
class EvilOutsider final : public DodaAlgorithm {
 public:
  std::string name() const override { return "EvilOutsider"; }
  std::optional<NodeId> decide(const Interaction& i, Time,
                               const ExecutionView& view) override {
    for (NodeId u = 0; u < view.system().node_count; ++u)
      if (!i.involves(u)) return u;
    return std::nullopt;
  }
};

TEST(Engine, NonEndpointReceiverIsRejected) {
  EvilOutsider evil;
  Engine engine({3, 0}, AggregationFunction::sum());
  adversary::SequenceAdversary adv(InteractionSequence{ix(1, 2)});
  EXPECT_THROW(engine.run(evil, adv), ModelViolation);
}

TEST(Engine, OutOfRangeInteractionIsRejected) {
  algorithms::Gathering ga;
  Engine engine({3, 0}, AggregationFunction::sum());
  adversary::SequenceAdversary adv(InteractionSequence{ix(1, 7)});
  EXPECT_THROW(engine.run(ga, adv), ModelViolation);
}

TEST(Engine, StopsAtMaxInteractions) {
  algorithms::Waiting w;
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(1, 2), ix(1, 2)};
  const auto r = runOn(w, seq, 3, 0, /*max_interactions=*/2);
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.interactions_dispatched, 2u);
}

TEST(Engine, StopsImmediatelyAfterTermination) {
  algorithms::Gathering ga;
  const InteractionSequence seq{ix(1, 2), ix(0, 1), ix(1, 2), ix(1, 2)};
  const auto r = runOn(ga, seq, 3, 0);
  EXPECT_TRUE(r.terminated);
  // No interactions are consumed after the terminating one.
  EXPECT_EQ(r.interactions_dispatched, 2u);
}

TEST(Engine, AdversaryExhaustionEndsRun) {
  algorithms::Waiting w;
  const InteractionSequence seq{ix(1, 2)};
  const auto r = runOn(w, seq, 3, 0);
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.interactions_dispatched, 1u);
  EXPECT_EQ(r.last_transmission_time, kNever);

  const auto empty = runOn(w, InteractionSequence{}, 3, 0);
  EXPECT_FALSE(empty.terminated);
  EXPECT_EQ(empty.interactions_dispatched, 0u);
}

TEST(Engine, LazyGuardExhaustionThrowsUnlessCapped) {
  // A max_length guard below the termination point: the generator throws
  // std::length_error rather than handing the engine a truncated run.
  const std::size_t n = 16;
  Engine engine({n, 0}, AggregationFunction::count());
  algorithms::Waiting w;
  Engine::Scratch scratch;
  adversary::RandomizedAdversary guarded(n, 7, /*max_length=*/50);
  EXPECT_THROW(engine.runInto(scratch, w, guarded), std::length_error);

  // With max_interactions at the guard the run stops cleanly instead.
  RunOptions options;
  options.max_interactions = 50;
  adversary::RandomizedAdversary capped(n, 7, /*max_length=*/50);
  const auto r = engine.runInto(scratch, w, capped, options);
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.interactions_dispatched, 50u);
}

/// Forwards only next() to the adversary it wraps, so the engine dispatches
/// the same interactions one next() call at a time instead of walking the
/// committed blocks.
class NextOnly final : public Adversary {
 public:
  explicit NextOnly(Adversary& inner) : inner_(inner) {}
  std::string name() const override { return "next-only"; }
  void reset(const SystemInfo& info) override { inner_.reset(info); }
  std::optional<Interaction> next(Time t, const ExecutionView& view) override {
    return inner_.next(t, view);
  }

 private:
  Adversary& inner_;
};

/// The adversary the engine runs against: `adversary` itself, or
/// `forward`, a NextOnly around it.
Adversary& dispatchedBy(bool next_only, NextOnly& forward,
                        Adversary& adversary) {
  return next_only ? forward : adversary;
}

void expectSameExecution(const ExecutionResult& block,
                         const ExecutionResult& single) {
  EXPECT_EQ(block.terminated, single.terminated);
  EXPECT_EQ(block.schedule, single.schedule);
  EXPECT_EQ(block.last_transmission_time, single.last_transmission_time);
  EXPECT_EQ(block.interactions_to_terminate, single.interactions_to_terminate);
  EXPECT_EQ(block.interactions_dispatched, single.interactions_dispatched);
  EXPECT_EQ(block.sink_datum.value, single.sink_datum.value);
  EXPECT_EQ(block.sink_datum.sources.toSortedVector(),
            single.sink_datum.sources.toSortedVector());
}

enum class Algo { kGathering, kWaiting, kWaitingGreedy };

std::unique_ptr<DodaAlgorithm> makeAlgorithm(Algo algo,
                                             dynagraph::MeetTimeIndex& index,
                                             std::size_t n) {
  switch (algo) {
    case Algo::kGathering:
      return std::make_unique<algorithms::Gathering>();
    case Algo::kWaiting:
      return std::make_unique<algorithms::Waiting>();
    case Algo::kWaitingGreedy:
      break;
  }
  return std::make_unique<algorithms::WaitingGreedy>(
      index, static_cast<Time>(util::closed_form::waitingGreedyTau(n)));
}

/// Runs `algo` twice over fresh lazy adversaries from `make` (same seed),
/// once walking committed blocks and once through NextOnly, on a fresh
/// thread: no committed buffer is parked there, so every extension of the
/// backing reallocates it. With `oracle_reads_ahead`, the run must show
/// that WaitingGreedy's oracle extended the backing inside decide(), in
/// the middle of a block: the engine alone commits only the chunks it
/// dispatches from.
template <typename Make>
void expectBlockPathMatchesNextOnly(const std::string& label, Algo algo,
                                    std::size_t n, Make make,
                                    const RunOptions& options = {},
                                    bool oracle_reads_ahead = false) {
  std::thread([&] {
    SCOPED_TRACE(label);  // scoped traces are per thread
    Engine engine({n, 0}, AggregationFunction::count());
    ExecutionResult results[2];
    Time committed[2] = {0, 0};
    for (const bool next_only : {false, true}) {
      const auto adversary = make();
      dynagraph::MeetTimeIndex index = adversary->makeMeetTimeIndex(0);
      const auto algorithm = makeAlgorithm(algo, index, n);
      NextOnly forward(*adversary);
      results[next_only] = engine.run(
          *algorithm, dispatchedBy(next_only, forward, *adversary), options);
      committed[next_only] = adversary->lazySequence().generatedLength();
    }
    expectSameExecution(results[0], results[1]);
    EXPECT_EQ(committed[0], committed[1]);
    if (oracle_reads_ahead) {
      constexpr Time kChunk = dynagraph::LazySequence::kChunk;
      const Time engine_chunks =
          (results[0].interactions_dispatched + kChunk - 1) / kChunk * kChunk;
      EXPECT_GT(committed[0], engine_chunks) << "the oracle read no further "
                                                "than the engine";
    }
  }).join();
}

TEST(EngineBlocks, RandomizedBlocksMatchNextOnly) {
  for (const Algo algo :
       {Algo::kGathering, Algo::kWaiting, Algo::kWaitingGreedy})
    for (const std::uint64_t seed : {3u, 4u})
      expectBlockPathMatchesNextOnly(
          "algo " + std::to_string(static_cast<int>(algo)) + " seed " +
              std::to_string(seed),
          algo, 24, [seed] {
            return std::make_unique<adversary::RandomizedAdversary>(24, seed);
          });
  // At n = 64 the decision query reads past the engine's chunks: 3,328
  // and 2,560 committed for 1,035 and 1,041 dispatched.
  for (const std::uint64_t seed : {3u, 4u})
    expectBlockPathMatchesNextOnly(
        "read ahead, seed " + std::to_string(seed), Algo::kWaitingGreedy, 64,
        [seed] {
          return std::make_unique<adversary::RandomizedAdversary>(64, seed);
        },
        {}, /*oracle_reads_ahead=*/true);
}

TEST(EngineBlocks, NonUniformBlocksMatchNextOnly) {
  for (const Algo algo :
       {Algo::kGathering, Algo::kWaiting, Algo::kWaitingGreedy})
    expectBlockPathMatchesNextOnly(
        "algo " + std::to_string(static_cast<int>(algo)), algo, 16, [] {
          return std::make_unique<adversary::NonUniformAdversary>(16, 0.8,
                                                                  11);
        });
  // 2,048 committed for 1,035 dispatched.
  expectBlockPathMatchesNextOnly(
      "read ahead", Algo::kWaitingGreedy, 64,
      [] {
        return std::make_unique<adversary::NonUniformAdversary>(64, 0.8, 17);
      },
      {}, /*oracle_reads_ahead=*/true);
}

TEST(EngineBlocks, FixedSequenceBlocksMatchNextOnly) {
  const std::size_t n = 12;
  util::Rng rng(21);
  const auto seq = dynagraph::traces::uniformRandom(n, 40 * n * n, rng);
  Engine engine({n, 0}, AggregationFunction::count());
  for (const Algo algo :
       {Algo::kGathering, Algo::kWaiting, Algo::kWaitingGreedy}) {
    SCOPED_TRACE(::testing::Message() << "algo " << static_cast<int>(algo));
    ExecutionResult results[2];
    for (const bool next_only : {false, true}) {
      dynagraph::MeetTimeIndex index(seq, 0, n);
      const auto algorithm = makeAlgorithm(algo, index, n);
      adversary::SequenceAdversary adversary(seq);
      NextOnly forward(adversary);
      results[next_only] = engine.run(
          *algorithm, dispatchedBy(next_only, forward, adversary));
    }
    EXPECT_TRUE(results[0].terminated);
    expectSameExecution(results[0], results[1]);
  }
}

TEST(EngineBlocks, CapInsideABlockStopsThere) {
  // 300 lands inside the second 256-interaction chunk of the lazy backing.
  RunOptions options;
  options.max_interactions = 300;
  expectBlockPathMatchesNextOnly(
      "cap 300", Algo::kWaiting, 32,
      [] { return std::make_unique<adversary::RandomizedAdversary>(32, 9); },
      options);
  Engine engine({32, 0}, AggregationFunction::count());
  algorithms::Waiting waiting;
  adversary::RandomizedAdversary adversary(32, 9);
  const auto r = engine.run(waiting, adversary, options);
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.interactions_dispatched, 300u);
}

TEST(EngineBlocks, OutOfRangeIdInsideABlockThrowsAtItsTime) {
  // After the transfer at t=0, one endpoint of every {1,2} owns nothing,
  // so the engine walks the block from t=1 without calling the algorithm
  // and meets {1,7} at its position 5 (t=6).
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(1, 2), ix(1, 2),
                                ix(1, 2), ix(1, 2), ix(1, 7), ix(1, 3)};
  Engine engine({4, 0}, AggregationFunction::count());
  for (const bool next_only : {false, true}) {
    SCOPED_TRACE(next_only ? "next-only" : "blocks");
    algorithms::Gathering gathering;
    adversary::SequenceAdversary adversary(seq);
    NextOnly forward(adversary);
    try {
      engine.run(gathering, dispatchedBy(next_only, forward, adversary));
      ADD_FAILURE() << "no ModelViolation";
    } catch (const ModelViolation& e) {
      EXPECT_STREQ(e.what(), "node id out of range");
    }

    RunOptions options;
    options.max_interactions = 6;  // stops just before {1,7}
    adversary::SequenceAdversary capped(seq);
    NextOnly capped_forward(capped);
    const auto r = engine.run(
        gathering, dispatchedBy(next_only, capped_forward, capped), options);
    EXPECT_EQ(r.interactions_dispatched, 6u);
    EXPECT_EQ(r.schedule.size(), 1u);
  }
}

TEST(EngineBlocks, FiniteSequenceRunsOut) {
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(2, 3), ix(1, 2)};
  Engine engine({5, 0}, AggregationFunction::count());
  ExecutionResult results[2];
  for (const bool next_only : {false, true}) {
    algorithms::Gathering gathering;
    adversary::SequenceAdversary adversary(seq);
    NextOnly forward(adversary);
    results[next_only] =
        engine.run(gathering, dispatchedBy(next_only, forward, adversary));
  }
  EXPECT_FALSE(results[0].terminated);
  EXPECT_EQ(results[0].interactions_dispatched, 4u);
  expectSameExecution(results[0], results[1]);
}

TEST(ValidateSchedule, AcceptsValidConvergecast) {
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  const std::vector<TransmissionRecord> sched{{0, 2, 1}, {1, 1, 0}};
  std::string err;
  EXPECT_TRUE(validateConvergecastSchedule(sched, seq, {3, 0}, &err)) << err;
}

TEST(ValidateSchedule, RejectsIncomplete) {
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  const std::vector<TransmissionRecord> sched{{0, 2, 1}};
  EXPECT_FALSE(validateConvergecastSchedule(sched, seq, {3, 0}));
}

TEST(ValidateSchedule, RejectsMismatchedInteraction) {
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  const std::vector<TransmissionRecord> sched{{0, 2, 0}, {1, 1, 0}};
  std::string err;
  EXPECT_FALSE(validateConvergecastSchedule(sched, seq, {3, 0}, &err));
  EXPECT_NE(err.find("does not match"), std::string::npos);
}

TEST(ValidateSchedule, RejectsSinkSender) {
  const InteractionSequence seq{ix(0, 1), ix(0, 2)};
  const std::vector<TransmissionRecord> sched{{0, 0, 1}, {1, 2, 0}};
  EXPECT_FALSE(validateConvergecastSchedule(sched, seq, {3, 0}));
}

TEST(ValidateSchedule, RejectsNonIncreasingTimes) {
  const InteractionSequence seq{ix(1, 2), ix(0, 1)};
  const std::vector<TransmissionRecord> sched{{1, 1, 0}, {0, 2, 1}};
  EXPECT_FALSE(validateConvergecastSchedule(sched, seq, {3, 0}));
}

TEST(ValidateSchedule, RejectsSendAfterTransmit) {
  // 2 sends to 1, then 1 receives from... then 2 "receives" — invalid.
  const InteractionSequence seq{ix(1, 2), ix(1, 2), ix(0, 1)};
  const std::vector<TransmissionRecord> sched{
      {0, 2, 1}, {1, 1, 2}, {2, 1, 0}};
  EXPECT_FALSE(validateConvergecastSchedule(sched, seq, {3, 0}));
}

TEST(EngineSchedule, EveryTerminatedRunValidates) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.below(8);
    const auto seq = dynagraph::traces::uniformRandom(n, 40 * n, rng);
    algorithms::Gathering ga;
    const auto r = runOn(ga, seq, n, 0);
    if (!r.terminated) continue;
    std::string err;
    EXPECT_TRUE(validateConvergecastSchedule(r.schedule, seq,
                                             {n, 0}, &err))
        << err;
  }
}

}  // namespace
}  // namespace doda::core
