#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>

#include "algorithms/full_knowledge.hpp"
#include "algorithms/future_aware.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "sim/fault_experiment.hpp"

namespace doda::sim {
namespace {

AlgorithmFactory gatheringFactory() {
  return [](TrialContext&) { return std::make_unique<algorithms::Gathering>(); };
}

TEST(MeasureRandomized, RunsRequestedTrials) {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 10;
  const auto r = measureRandomized(config, gatheringFactory());
  EXPECT_EQ(r.interactions.count() + r.failed_trials, 10u);
  EXPECT_EQ(r.failed_trials, 0u);
  EXPECT_GT(r.interactions.mean(), 0.0);
}

TEST(MeasureRandomized, SameSeedIsReproducible) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 8;
  config.seed = 42;
  const auto a = measureRandomized(config, gatheringFactory());
  const auto b = measureRandomized(config, gatheringFactory());
  EXPECT_DOUBLE_EQ(a.interactions.mean(), b.interactions.mean());
  EXPECT_DOUBLE_EQ(a.interactions.stddev(), b.interactions.stddev());
}

TEST(MeasureRandomized, DifferentSeedsDiffer) {
  MeasureConfig a, b;
  a.node_count = b.node_count = 10;
  a.trials = b.trials = 8;
  a.seed = 1;
  b.seed = 2;
  const auto ra = measureRandomized(a, gatheringFactory());
  const auto rb = measureRandomized(b, gatheringFactory());
  EXPECT_NE(ra.interactions.mean(), rb.interactions.mean());
}

TEST(MeasureRandomized, CapCausesFailures) {
  MeasureConfig config;
  config.node_count = 12;
  config.trials = 5;
  config.max_interactions = 3;  // far below any plausible termination
  const auto r = measureRandomized(config, gatheringFactory());
  EXPECT_EQ(r.failed_trials, 5u);
  EXPECT_EQ(r.interactions.count(), 0u);
}

TEST(MeasureRandomized, WaitingGreedyFactoryGetsWorkingOracle) {
  MeasureConfig config;
  config.node_count = 12;
  config.trials = 6;
  const auto r = measureRandomized(config, [](TrialContext& ctx) {
    return std::make_unique<algorithms::WaitingGreedy>(ctx.meet_time, 200);
  });
  EXPECT_EQ(r.failed_trials, 0u);
}

TEST(MeasureRandomized, ZipfAdversaryWorks) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 6;
  config.zipf_exponent = 1.0;
  const auto r = measureRandomized(config, gatheringFactory());
  EXPECT_EQ(r.failed_trials, 0u);
}

TEST(MeasureOfflineOptimal, ProducesCostOne) {
  MeasureConfig config;
  config.node_count = 12;
  config.trials = 6;
  const auto r = measureOfflineOptimal(config);
  EXPECT_EQ(r.failed_trials, 0u);
  EXPECT_DOUBLE_EQ(r.cost.mean(), 1.0);
  // The offline optimum can never beat n-1 interactions.
  EXPECT_GE(r.interactions.min(), static_cast<double>(config.node_count - 1));
}

TEST(MeasureOfflineOptimal, HonoursMaxInteractions) {
  // opt(0) + 1 at n = 64 is about 300 interactions, so a cap of 100 fails
  // (nearly) every trial, and a trial that succeeds fits the cap.
  MeasureConfig config;
  config.node_count = 64;
  config.trials = 8;
  config.seed = 3;
  config.max_interactions = 100;
  const auto capped = measureOfflineOptimal(config);
  EXPECT_EQ(capped.interactions.count() + capped.failed_trials, 8u);
  if (capped.interactions.count() > 0) {
    EXPECT_LE(capped.interactions.max(), 100.0);
  }

  // A trial succeeds exactly when opt(0) + 1 fits the cap, and then
  // reports the uncapped value.
  config.trials = 1;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    config.seed = seed;
    config.max_interactions = core::Time{1} << 32;
    const auto uncapped = measureOfflineOptimal(config);
    ASSERT_EQ(uncapped.interactions.count(), 1u);
    const auto opt_plus_one =
        static_cast<core::Time>(uncapped.interactions.mean());
    config.max_interactions = opt_plus_one;
    const auto at_cap = measureOfflineOptimal(config);
    EXPECT_EQ(at_cap.interactions.count(), 1u) << "seed " << seed;
    EXPECT_EQ(at_cap.interactions.mean(), uncapped.interactions.mean());
    config.max_interactions = opt_plus_one - 1;
    EXPECT_EQ(measureOfflineOptimal(config).failed_trials, 1u)
        << "seed " << seed;
  }

  // A zero cap fails every trial without throwing.
  config.trials = 8;
  config.max_interactions = 0;
  MeasureResult zero;
  EXPECT_NO_THROW(zero = measureOfflineOptimal(config));
  EXPECT_EQ(zero.failed_trials, 8u);
}

TEST(MeasureMaterialized, FullKnowledgeHasCostOne) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 6;
  const auto r = measureMaterialized(
      config, /*initial_length=*/600,
      [](const dynagraph::InteractionSequence& seq, const core::SystemInfo&) {
        return std::make_unique<algorithms::FullKnowledgeOptimal>(seq);
      });
  EXPECT_EQ(r.failed_trials, 0u);
  EXPECT_DOUBLE_EQ(r.cost.mean(), 1.0);
}

TEST(MeasureMaterialized, FullKnowledgeEqualsOfflineOptimalAtEveryLength) {
  // A trial that fails extends its committed prefix, so every initial
  // length reads the same random sequence and FullKnowledgeOptimal ends
  // after opt(0) + 1 of its interactions, exactly as measureOfflineOptimal
  // counts them. Short initial lengths force the doubling path.
  const SequenceAlgorithmFactory full_knowledge =
      [](const dynagraph::InteractionSequence& seq, const core::SystemInfo&) {
        return std::make_unique<algorithms::FullKnowledgeOptimal>(seq);
      };
  for (const std::size_t n : {10u, 32u}) {
    MeasureConfig config;
    config.node_count = n;
    config.trials = 100;
    config.seed = 77;
    const auto offline = measureOfflineOptimal(config);
    ASSERT_EQ(offline.failed_trials, 0u);
    for (const core::Time initial : {4u, 32u, 4096u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " initial=" << initial);
      const auto r = measureMaterialized(config, initial, full_knowledge);
      EXPECT_EQ(r.failed_trials, 0u);
      EXPECT_EQ(r.interactions.count(), offline.interactions.count());
      EXPECT_EQ(r.interactions.mean(), offline.interactions.mean());
      EXPECT_EQ(r.interactions.variance(), offline.interactions.variance());
      EXPECT_EQ(r.cost.mean(), 1.0);
    }
  }
}

TEST(MeasureMaterialized, FutureAwareCostIsSmall) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 6;
  const auto r = measureMaterialized(
      config, /*initial_length=*/1200,
      [](const dynagraph::InteractionSequence& seq, const core::SystemInfo&) {
        return std::make_unique<algorithms::FutureAware>(seq);
      });
  EXPECT_EQ(r.failed_trials, 0u);
  // Paper Thm 6: cost <= n.
  EXPECT_LE(r.cost.max(), static_cast<double>(config.node_count));
}

TEST(MeasureWithCost, GatheringCostAtLeastOne) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 6;
  const auto r = measureWithCost(config, /*length_hint=*/2000,
                                 gatheringFactory());
  EXPECT_EQ(r.failed_trials, 0u);
  EXPECT_GE(r.cost.min(), 1.0);
  EXPECT_EQ(r.cost.count(), r.interactions.count());
}

TEST(MeasureDoubling, StopsOnceTheBoundReachesMaxInteractions) {
  // Waiting at n = 64 never terminates within 64 interactions, so every
  // attempt fails. From length_hint 16 the bounds are 16, 32 and 64; a
  // fourth attempt would rerun the same capped trial, so each trial calls
  // the factory 3 times, however many doublings are allowed. A zero hint
  // never grows and is rejected. The measureMaterialized row allows 12
  // doublings, not 30: each of its attempts commits the whole bound.
  MeasureConfig config;
  config.node_count = 64;
  config.trials = 4;
  config.threads = 1;
  config.max_interactions = 64;
  std::size_t calls = 0;
  const auto waiting = [&calls] {
    ++calls;
    return std::make_unique<algorithms::Waiting>();
  };
  using Measure = std::function<void(core::Time hint)>;
  const std::pair<const char*, Measure> entry_points[] = {
      {"measureWithCost",
       [&](core::Time hint) {
         const auto r = measureWithCost(
             config, hint, [&](TrialContext&) { return waiting(); }, 30);
         EXPECT_EQ(r.failed_trials, config.trials);
       }},
      {"measureWithFaults",
       [&](core::Time hint) {
         const auto r = measureWithFaults(
             config, hint, [&](TrialContext&) { return waiting(); }, 30);
         EXPECT_EQ(r.timed_out_trials, config.trials);
       }},
      {"measureMaterialized",
       [&](core::Time hint) {
         const auto r = measureMaterialized(
             config, hint,
             [&](const dynagraph::InteractionSequence&,
                 const core::SystemInfo&) { return waiting(); },
             12);
         EXPECT_EQ(r.failed_trials, config.trials);
       }},
  };
  for (const auto& [name, measure] : entry_points) {
    calls = 0;
    measure(16);
    EXPECT_EQ(calls, 3 * config.trials) << name;
    EXPECT_THROW(measure(0), std::invalid_argument) << name;
  }
}

}  // namespace
}  // namespace doda::sim
