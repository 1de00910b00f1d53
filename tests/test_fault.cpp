// Fault-injection subsystem: FaultModel/FaultPlan determinism,
// the engine's faulty loop semantics (retry-on-loss, crash-stop stranding,
// Byzantine ghosts and poisoning), the fault-aware meetTime oracle, and
// golden-pinned measureWithFaults statistics at threads 1/2/8.

#include <gtest/gtest.h>

#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "analysis/degradation.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_oracles.hpp"
#include "sim/fault_experiment.hpp"
#include "test_helpers.hpp"

namespace doda {
namespace {

using core::FaultOutcome;
using core::NodeId;
using core::Time;
using dynagraph::InteractionSequence;
using dynagraph::kNever;
using fault::FaultModel;
using fault::FaultPlan;
using fault::FaultSession;
using testing::ix;

// ---------------------------------------------------------------- model --

TEST(FaultModel, ValidateRejectsBadProbabilities) {
  FaultModel m = FaultModel::bernoulliLoss(1.5);
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = FaultModel::bernoulliLoss(-0.1);
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = FaultModel::byzantine(2.0);
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = FaultModel::crashStop(0.5, 0);  // fraction without a horizon
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_NO_THROW(FaultModel::crashStop(0.5, 100).validate());
  EXPECT_NO_THROW(FaultModel::none().validate());
}

TEST(FaultModel, ValidateRejectsBothLossProcesses) {
  // The loss process follows from the parameters, so a model may set
  // Bernoulli loss or a Gilbert-Elliott channel that can lose, not both.
  FaultModel m = FaultModel::gilbertElliott(0.1, 0.5, 0.0, 1.0);
  m.loss_p = 0.2;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = FaultModel::gilbertElliott(0.0, 0.5, 0.05, 1.0);
  m.loss_p = 0.2;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  // A channel that never leaves a lossless good state is no loss process.
  m = FaultModel::gilbertElliott(0.0, 0.5, 0.0, 1.0);
  m.loss_p = 0.2;
  EXPECT_NO_THROW(m.validate());
}

TEST(FaultModel, FaultFreeDetection) {
  EXPECT_TRUE(FaultModel::none().faultFree());
  EXPECT_TRUE(FaultModel::bernoulliLoss(0.0).faultFree());
  EXPECT_FALSE(FaultModel::bernoulliLoss(0.1).faultFree());
  EXPECT_FALSE(FaultModel::crashStop(0.2, 100).faultFree());
  EXPECT_FALSE(FaultModel::byzantine(0.1).faultFree());
  // A GE channel that can never lose anything is fault-free.
  EXPECT_TRUE(FaultModel::gilbertElliott(0.0, 0.5, 0.0, 1.0).faultFree());
  EXPECT_FALSE(FaultModel::gilbertElliott(0.1, 0.5, 0.0, 1.0).faultFree());
}

TEST(FaultPlan, DrawIsDeterministicAndSparesTheSink) {
  FaultModel model = FaultModel::crashStop(0.5, 1000);
  model.byzantine_fraction = 0.3;
  model.loss_p = 0.25;
  const FaultPlan a = FaultPlan::draw(model, 64, 3, 42);
  const FaultPlan b = FaultPlan::draw(model, 64, 3, 42);
  EXPECT_EQ(a, b);
  const FaultPlan c = FaultPlan::draw(model, 64, 3, 43);
  EXPECT_NE(a, c);

  EXPECT_EQ(a.crash_times[3], kNever);  // the sink never crashes
  EXPECT_EQ(a.byzantine[3], 0);         // and is never Byzantine
  bool any_crash = false, any_byz = false;
  for (NodeId u = 0; u < 64; ++u) {
    if (a.byzantine[u]) {
      any_byz = true;
      // Byzantine nodes never crash — they stay around to do damage.
      EXPECT_EQ(a.crash_times[u], kNever) << "node " << u;
    }
    if (a.crash_times[u] != kNever) {
      any_crash = true;
      EXPECT_LT(a.crash_times[u], 1000u) << "node " << u;
    }
  }
  EXPECT_TRUE(any_crash);
  EXPECT_TRUE(any_byz);
}

TEST(FaultSession, LossStreamIsReplayedAcrossResets) {
  FaultModel model = FaultModel::bernoulliLoss(0.5);
  FaultSession session(FaultPlan::draw(model, 4, 0, 99));
  const core::SystemInfo info{4, 0};
  std::vector<bool> first;
  session.reset(info);
  for (Time t = 0; t < 64; ++t) {
    session.beginInteraction(t);
    first.push_back(session.transmissionLost(t));
  }
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  session.reset(info);
  for (Time t = 0; t < 64; ++t) {
    session.beginInteraction(t);
    EXPECT_EQ(session.transmissionLost(t), first[t]) << "t=" << t;
  }
}

TEST(FaultSession, RejectsMismatchedNodeCount) {
  FaultSession session(
      FaultPlan::draw(FaultModel::bernoulliLoss(0.5), 4, 0, 1));
  EXPECT_THROW(session.reset(core::SystemInfo{8, 0}),
               std::invalid_argument);
}

// --------------------------------------------------------------- engine --

/// Hand-scripted injector: loss verdicts by interaction time, explicit
/// crash times and Byzantine flags.
class ScriptedFaults final : public core::FaultInjector {
 public:
  std::vector<Time> crash;
  std::vector<std::uint8_t> byz;
  std::vector<std::uint8_t> lost_at;  // indexed by time, default deliver

  explicit ScriptedFaults(std::size_t n) : crash(n, kNever), byz(n, 0) {}

  void reset(const core::SystemInfo&) override {}
  Time crashTime(NodeId u) const override { return crash[u]; }
  bool isByzantine(NodeId u) const override { return byz[u] != 0; }
  void beginInteraction(Time t) override { now_ = t; }
  bool transmissionLost(Time) override {
    return now_ < lost_at.size() && lost_at[now_] != 0;
  }

 private:
  Time now_ = 0;
};

core::ExecutionResult runFaulty(core::DodaAlgorithm& algorithm,
                                const InteractionSequence& seq,
                                std::size_t n, NodeId sink,
                                core::FaultInjector& faults) {
  core::Engine engine({n, sink}, core::AggregationFunction::count());
  adversary::SequenceAdversary adv(seq);
  core::RunOptions options;
  options.faults = &faults;
  return engine.run(algorithm, adv, options);
}

TEST(FaultyEngine, LostTransmissionRetriesAndCompletes) {
  // t=0: 1->0 lost; t=1: 1->0 retransmitted; t=2: 2->0 delivered.
  algorithms::Waiting waiting;
  ScriptedFaults faults(3);
  faults.lost_at = {1, 0, 0};
  const auto result = runFaulty(
      waiting, InteractionSequence{ix(1, 0), ix(1, 0), ix(2, 0)}, 3, 0,
      faults);
  ASSERT_TRUE(result.fault.has_value());
  const FaultOutcome& fo = *result.fault;
  EXPECT_TRUE(result.terminated);
  EXPECT_TRUE(fo.completed);
  EXPECT_FALSE(fo.blocked);
  EXPECT_EQ(fo.attempted_transmissions, 3u);
  EXPECT_EQ(fo.lost_transmissions, 1u);
  EXPECT_EQ(fo.retransmissions, 1u);
  EXPECT_EQ(fo.honest_total, 3u);
  EXPECT_EQ(fo.delivered_honest, 3u);
  EXPECT_EQ(fo.residual(), 0u);
  EXPECT_EQ(result.interactions_to_terminate, 3u);
  EXPECT_FALSE(fo.sink_poisoned);
}

TEST(FaultyEngine, CrashStrandsDataAndBlocksTheRun) {
  // Node 2 crashes at t=1, before it ever meets the sink.
  algorithms::Waiting waiting;
  ScriptedFaults faults(3);
  faults.crash[2] = 1;
  const auto result = runFaulty(
      waiting, InteractionSequence{ix(1, 0), ix(2, 0), ix(2, 0)}, 3, 0,
      faults);
  ASSERT_TRUE(result.fault.has_value());
  const FaultOutcome& fo = *result.fault;
  EXPECT_FALSE(result.terminated);
  EXPECT_FALSE(fo.completed);
  EXPECT_TRUE(fo.blocked);
  EXPECT_EQ(fo.crash_blocked_interactions, 1u);
  EXPECT_EQ(fo.delivered_honest, 2u);  // sink's own origin + node 1
  EXPECT_EQ(fo.residual(), 1u);
  EXPECT_EQ(fo.stranded_honest, 1u);  // node 2's origin died with it
}

TEST(FaultyEngine, CrashedDataCarriedByLiveNodeIsNotStranded) {
  // Node 2 hands its datum to node 1 at t=0, crashes at t=1; node 1
  // delivers both origins at t=2 — the crash strands nothing.
  algorithms::Gathering gathering;
  ScriptedFaults faults(3);
  faults.crash[2] = 1;
  const auto result = runFaulty(
      gathering, InteractionSequence{ix(2, 1), ix(2, 0), ix(1, 0)}, 3, 0,
      faults);
  ASSERT_TRUE(result.fault.has_value());
  const FaultOutcome& fo = *result.fault;
  EXPECT_TRUE(fo.completed);
  EXPECT_EQ(fo.stranded_honest, 0u);
  EXPECT_EQ(fo.delivered_honest, 3u);
}

TEST(FaultyEngine, ByzantineSenderPoisonsKeepsGhostAndIsRolledBack) {
  // Node 1 is Byzantine. t=0: 1->0 delivers poisoned data but keeps a
  // ghost copy; t=1: the replay 1->0 overlaps the sink's set and is
  // rejected; t=2: 2->0 completes the honest collection.
  algorithms::Waiting waiting;
  ScriptedFaults faults(3);
  faults.byz[1] = 1;
  const auto result = runFaulty(
      waiting, InteractionSequence{ix(1, 0), ix(1, 0), ix(2, 0)}, 3, 0,
      faults);
  ASSERT_TRUE(result.fault.has_value());
  const FaultOutcome& fo = *result.fault;
  EXPECT_TRUE(fo.completed);
  EXPECT_TRUE(fo.sink_poisoned);
  EXPECT_EQ(fo.honest_total, 2u);
  EXPECT_EQ(fo.delivered_honest, 2u);
  EXPECT_EQ(fo.rejected_transfers, 1u);
  EXPECT_EQ(fo.attempted_transmissions, 3u);
  // The terminating transfer is the honest one at t=2.
  EXPECT_EQ(result.interactions_to_terminate, 3u);
}

TEST(FaultyEngine, ByzantineReplayRollbackAtSourceSetCrossover) {
  // The rejected-replay rollback exercised exactly at the SourceSet
  // inline->bitset crossover: the sink's set is rejected-into at exactly
  // kInlineCapacity (8) ids, spills to 9 via an honest transfer, and is
  // rejected-into again just past the boundary. Both rollbacks must
  // leave the set intact and the run must still complete honestly.
  const std::size_t n = 10;
  algorithms::Waiting waiting;
  ScriptedFaults faults(n);
  faults.byz[1] = 1;
  const InteractionSequence seq{
      ix(2, 0), ix(3, 0), ix(4, 0), ix(5, 0), ix(6, 0),
      ix(7, 0),            // sink now holds 7 sources
      ix(1, 0),            // Byzantine delivery: exactly 8, inline-full
      ix(1, 0),            // ghost replay rejected AT the crossover
      ix(8, 0),            // honest: 9 sources, set just spilled
      ix(1, 0),            // ghost replay rejected past the crossover
      ix(9, 0),            // honest: completes the collection
  };
  const auto result = runFaulty(waiting, seq, n, 0, faults);
  ASSERT_TRUE(result.fault.has_value());
  const FaultOutcome& fo = *result.fault;
  EXPECT_TRUE(fo.completed);
  EXPECT_TRUE(fo.sink_poisoned);
  EXPECT_EQ(fo.rejected_transfers, 2u);
  EXPECT_EQ(fo.honest_total, 9u);
  EXPECT_EQ(fo.delivered_honest, 9u);
  EXPECT_EQ(result.interactions_to_terminate, seq.length());
  // Every origin reached the sink exactly once despite the two replays.
  EXPECT_EQ(result.sink_datum.sources.size(), n);
  for (NodeId u = 0; u < n; ++u)
    EXPECT_TRUE(result.sink_datum.sources.contains(u)) << "origin " << u;
}

TEST(FaultyEngine, FaultFreeInjectorMatchesNullInjector) {
  // An injector that faults nothing must produce the exact fault-free
  // schedule (the faulty loop only diverges when a fault fires).
  const InteractionSequence seq{ix(2, 1), ix(1, 0), ix(2, 0), ix(1, 0)};
  algorithms::Gathering gathering;
  const auto clean = testing::runOn(gathering, seq, 3, 0);
  ScriptedFaults faults(3);
  const auto faulted = runFaulty(gathering, seq, 3, 0, faults);
  EXPECT_EQ(faulted.terminated, clean.terminated);
  EXPECT_EQ(faulted.interactions_to_terminate,
            clean.interactions_to_terminate);
  EXPECT_EQ(faulted.last_transmission_time, clean.last_transmission_time);
  ASSERT_TRUE(faulted.fault.has_value());
  EXPECT_EQ(faulted.fault->lost_transmissions, 0u);
  EXPECT_EQ(faulted.fault->rejected_transfers, 0u);
  EXPECT_FALSE(faulted.fault->sink_poisoned);
}

TEST(FaultyEngine, RejectsPlansThatFaultTheSink) {
  algorithms::Waiting waiting;
  const InteractionSequence seq{ix(1, 0)};
  {
    ScriptedFaults faults(2);
    faults.crash[0] = 5;
    EXPECT_THROW(runFaulty(waiting, seq, 2, 0, faults),
                 core::ModelViolation);
  }
  {
    ScriptedFaults faults(2);
    faults.byz[0] = 1;
    EXPECT_THROW(runFaulty(waiting, seq, 2, 0, faults),
                 core::ModelViolation);
  }
}

// --------------------------------------------------------------- oracle --

TEST(FaultyMeetTimeOracle, CrashAwareAndByzantineLies) {
  // Sequence: node 1 meets the sink at t=2, node 2 at t=4.
  const InteractionSequence seq{ix(1, 2), ix(2, 3), ix(1, 0), ix(1, 2),
                                ix(2, 0)};
  dynagraph::MeetTimeIndex index(seq, 0, 4);
  dynagraph::ExactMeetTimeOracle exact(index);

  FaultPlan plan;
  plan.crash_times.assign(4, kNever);
  plan.byzantine.assign(4, 0);
  plan.crash_times[2] = 3;  // node 2 dies before its t=4 sink meeting
  plan.byzantine[3] = 1;
  fault::FaultyMeetTimeOracle oracle(exact, plan);

  EXPECT_EQ(oracle.meetTime(1, 0), exact.meetTime(1, 0));  // honest, alive
  EXPECT_EQ(oracle.meetTime(2, 0), kNever);  // dead by its meeting time
  EXPECT_EQ(oracle.meetTime(3, 7), 8u);      // the Byzantine lie: t + 1
}

// --------------------------------------------------------- degradation --

TEST(Degradation, AccumulatorCountsAndProbability) {
  analysis::DegradationAccumulator acc;
  FaultOutcome completed;
  completed.honest_total = 8;
  completed.delivered_honest = 8;
  completed.completed = true;
  completed.lost_transmissions = 3;
  completed.retransmissions = 2;
  FaultOutcome blocked;
  blocked.honest_total = 8;
  blocked.delivered_honest = 5;
  blocked.stranded_honest = 3;
  blocked.blocked = true;
  blocked.sink_poisoned = true;

  acc.add(completed, 1.5, true);
  acc.add(blocked, 0.0, false);
  EXPECT_EQ(acc.trials(), 2u);
  EXPECT_EQ(acc.completed(), 1u);
  EXPECT_EQ(acc.blocked(), 1u);
  EXPECT_EQ(acc.poisoned(), 1u);
  EXPECT_DOUBLE_EQ(acc.completionProbability(), 0.5);
  EXPECT_GT(acc.completionCi95HalfWidth(), 0.0);
  EXPECT_DOUBLE_EQ(acc.residual().mean(), 1.5);  // (0 + 3) / 2
  EXPECT_DOUBLE_EQ(acc.stranded().mean(), 1.5);
  EXPECT_DOUBLE_EQ(acc.deliveredFraction().mean(), (1.0 + 5.0 / 8.0) / 2);
  EXPECT_EQ(acc.costInflation().count(), 1u);
  EXPECT_DOUBLE_EQ(acc.costInflation().mean(), 1.5);
}

// ------------------------------------------------------------- goldens --

/// Hexfloat-pinned measureWithFaults statistics, checked at threads 1, 2
/// and 8: every faulted measurement must be bit-identical for any thread
/// count (per-trial plans are pre-drawn from the trial seed; outcomes are
/// folded in trial order).
struct FaultGolden {
  std::size_t count;
  double mean, variance, min, max;
  std::size_t trials, completed, blocked, poisoned, timed_out;
  double residual_mean, delivered_fraction_mean, lost_mean, retrans_mean;
  std::size_t inflation_count;
  double inflation_mean, inflation_variance;
};

void expectMatches(const sim::FaultMeasureResult& r, const FaultGolden& g,
                   std::size_t threads) {
  const auto& d = r.degradation;
  EXPECT_EQ(r.interactions.count(), g.count) << "threads=" << threads;
  EXPECT_EQ(r.interactions.mean(), g.mean) << "threads=" << threads;
  EXPECT_EQ(r.interactions.variance(), g.variance) << "threads=" << threads;
  EXPECT_EQ(r.interactions.min(), g.min) << "threads=" << threads;
  EXPECT_EQ(r.interactions.max(), g.max) << "threads=" << threads;
  EXPECT_EQ(d.trials(), g.trials) << "threads=" << threads;
  EXPECT_EQ(d.completed(), g.completed) << "threads=" << threads;
  EXPECT_EQ(d.blocked(), g.blocked) << "threads=" << threads;
  EXPECT_EQ(d.poisoned(), g.poisoned) << "threads=" << threads;
  EXPECT_EQ(r.timed_out_trials, g.timed_out) << "threads=" << threads;
  EXPECT_EQ(d.residual().mean(), g.residual_mean) << "threads=" << threads;
  EXPECT_EQ(d.deliveredFraction().mean(), g.delivered_fraction_mean)
      << "threads=" << threads;
  EXPECT_EQ(d.lost().mean(), g.lost_mean) << "threads=" << threads;
  EXPECT_EQ(d.retransmissions().mean(), g.retrans_mean)
      << "threads=" << threads;
  EXPECT_EQ(d.costInflation().count(), g.inflation_count)
      << "threads=" << threads;
  EXPECT_EQ(d.costInflation().mean(), g.inflation_mean)
      << "threads=" << threads;
  EXPECT_EQ(d.costInflation().variance(), g.inflation_variance)
      << "threads=" << threads;
}

TEST(GoldenFaultStats, BernoulliLossWaiting) {
  const FaultGolden golden{16,
                           0x1.4fap+7,
                           0x1.9866ddddddddfp+12,
                           0x1.78p+6,
                           0x1.acp+8,
                           16,
                           16,
                           0,
                           0,
                           0,
                           0x0p+0,
                           0x1p+0,
                           0x1.38p+1,
                           0x1.ep+0,
                           16,
                           0x1.b6f636b6cfaf6p+2,
                           0x1.c8e1f9b604987p+2};
  for (std::size_t threads : {1u, 2u, 8u}) {
    sim::MeasureConfig config;
    config.node_count = 10;
    config.trials = 16;
    config.seed = 2026;
    config.threads = threads;
    config.faults = FaultModel::bernoulliLoss(0.2);
    const auto r = sim::measureWithFaults(
        config, 256, [](sim::TrialContext&) {
          return std::make_unique<algorithms::Waiting>();
        });
    expectMatches(r, golden, threads);
  }
}

TEST(GoldenFaultStats, MixedFaultsWaitingGreedy) {
  // Gilbert–Elliott bursts + crash-stop + Byzantine, with WaitingGreedy on
  // the fault-aware oracle: under the v2 seed format every trial completes
  // but several poisoned aggregates reach the sink.
  const FaultGolden golden{16,
                           0x1.ac6p+7,
                           0x1.af67555555556p+11,
                           0x1.4ap+7,
                           0x1.69p+8,
                           16,
                           16,
                           0,
                           6,
                           0,
                           0x0p+0,
                           0x1p+0,
                           0x1.b000000000001p+0,
                           0x1.7ffffffffffffp+0,
                           16,
                           0x1.c5291fb69c222p+2,
                           0x1.321cf7295f52ap+3};
  for (std::size_t threads : {1u, 2u, 8u}) {
    sim::MeasureConfig config;
    config.node_count = 12;
    config.trials = 16;
    config.seed = 7;
    config.threads = threads;
    config.faults = FaultModel::gilbertElliott(0.1, 0.5, 0.02, 0.8);
    config.faults.crash_fraction = 0.15;
    config.faults.crash_horizon = 400;
    config.faults.byzantine_fraction = 0.1;
    const auto r = sim::measureWithFaults(
        config, 256, [](sim::TrialContext& ctx) {
          return std::make_unique<algorithms::WaitingGreedy>(*ctx.oracle,
                                                             180);
        });
    expectMatches(r, golden, threads);
  }
}

TEST(GoldenFaultStats, CrashStopGathering) {
  const FaultGolden golden{10,
                           0x1.2e66666666667p+6,
                           0x1.d511111111112p+10,
                           0x1.7p+4,
                           0x1.2p+7,
                           12,
                           10,
                           2,
                           0,
                           0,
                           0x1.2aaaaaaaaaaabp-1,
                           0x1.e222222222222p-1,
                           0x0p+0,
                           0x0p+0,
                           10,
                           0x1.5b1737ac1324cp+1,
                           0x1.0c05ac9c272a4p+1};
  for (std::size_t threads : {1u, 2u, 8u}) {
    sim::MeasureConfig config;
    config.node_count = 10;
    config.trials = 12;
    config.seed = 99;
    config.threads = threads;
    config.faults = FaultModel::crashStop(0.3, 200);
    const auto r = sim::measureWithFaults(
        config, 128, [](sim::TrialContext&) {
          return std::make_unique<algorithms::Gathering>();
        });
    expectMatches(r, golden, threads);
  }
}

TEST(GoldenFaultStats, LegacySeedFormatV1Pinned) {
  // The pre-v2 BernoulliLossWaiting golden, reproduced via the explicit
  // SeedFormat::v1 knob: fault plans draw from the same trial seed, so a
  // legacy faulted experiment replays bit-exactly under the pin.
  const FaultGolden golden{16,
                           0x1.384p+7,
                           0x1.45ee666666664p+11,
                           0x1.24p+6,
                           0x1.bep+7,
                           16,
                           16,
                           0,
                           0,
                           0,
                           0x0p+0,
                           0x1p+0,
                           0x1.dp+0,
                           0x1.8fffffffffffep+0,
                           16,
                           0x1.7f0f74c394ab5p+2,
                           0x1.b0f9ca5c426cfp+2};
  for (std::size_t threads : {1u, 8u}) {
    sim::MeasureConfig config;
    config.node_count = 10;
    config.trials = 16;
    config.seed = 2026;
    config.threads = threads;
    config.seed_format = dynagraph::traces::SeedFormat::v1;
    config.faults = FaultModel::bernoulliLoss(0.2);
    const auto r = sim::measureWithFaults(
        config, 256, [](sim::TrialContext&) {
          return std::make_unique<algorithms::Waiting>();
        });
    expectMatches(r, golden, threads);
  }
}

TEST(FaultSweep, MeasureUnderFaultsKeepsLabelsAndSeverityOrder) {
  const std::vector<sim::FaultSweepPoint> sweep = {
      {"none", FaultModel::none()},
      {"loss10", FaultModel::bernoulliLoss(0.10)},
      {"loss40", FaultModel::bernoulliLoss(0.40)},
  };
  sim::MeasureConfig config;
  config.node_count = 8;
  config.trials = 12;
  config.seed = 11;
  config.threads = 2;
  const auto curve = sim::measureUnderFaults(
      config, 128, sweep, [](sim::TrialContext&) {
        return std::make_unique<algorithms::Waiting>();
      });
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].label, "none");
  EXPECT_EQ(curve[2].label, "loss40");
  // The fault-free point completes every trial with no losses.
  EXPECT_EQ(curve[0].result.degradation.completed(), 12u);
  EXPECT_EQ(curve[0].result.degradation.lost().mean(), 0.0);
  // Heavier loss costs strictly more interactions on average.
  EXPECT_GT(curve[2].result.interactions.mean(),
            curve[0].result.interactions.mean());
  EXPECT_GT(curve[2].result.degradation.lost().mean(),
            curve[1].result.degradation.lost().mean());
}

TEST(FaultMatrix, LossCrashByzantineCrossProductSmoke) {
  // The full 2x2x2 severity cross-product at small n — the CI Debug+ASan
  // fault-matrix leg drives exactly this test. Every combination must
  // measure cleanly, satisfy the accounting invariants, and be
  // bit-identical serial vs pooled.
  for (const double loss : {0.0, 0.2}) {
    for (const double crash : {0.0, 0.3}) {
      for (const double byz : {0.0, 0.2}) {
        FaultModel model;
        if (loss > 0.0) model = FaultModel::bernoulliLoss(loss);
        if (crash > 0.0) {
          model.crash_fraction = crash;
          model.crash_horizon = 300;
        }
        model.byzantine_fraction = byz;
        sim::MeasureConfig config;
        config.node_count = 10;
        config.trials = 8;
        config.seed = 0x3a7'0000 + static_cast<std::uint64_t>(
            loss * 100 + crash * 10000 + byz * 1000000);
        config.threads = 1;
        config.faults = model;
        const auto factory = [](sim::TrialContext&) {
          return std::make_unique<algorithms::Waiting>();
        };
        const auto serial = sim::measureWithFaults(config, 256, factory);
        const auto& d = serial.degradation;
        const std::string tag = "loss=" + std::to_string(loss) +
                                " crash=" + std::to_string(crash) +
                                " byz=" + std::to_string(byz);
        EXPECT_EQ(d.trials(), config.trials) << tag;
        EXPECT_LE(d.completed() + d.blocked() + serial.timed_out_trials,
                  config.trials)
            << tag;
        if (model.faultFree()) {
          EXPECT_EQ(d.completed(), config.trials) << tag;
        }
        if (crash == 0.0) {
          EXPECT_EQ(d.blocked(), 0u) << tag;  // only crashes strand data
        }
        config.threads = 2;
        const auto pooled = sim::measureWithFaults(config, 256, factory);
        EXPECT_EQ(pooled.interactions.count(), serial.interactions.count())
            << tag;
        EXPECT_EQ(pooled.interactions.mean(), serial.interactions.mean())
            << tag;
        EXPECT_EQ(pooled.degradation.completed(), d.completed()) << tag;
        EXPECT_EQ(pooled.degradation.residual().mean(), d.residual().mean())
            << tag;
      }
    }
  }
}

}  // namespace
}  // namespace doda
