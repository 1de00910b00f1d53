#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_experiment.hpp"
#include "sim/trace_replay.hpp"
#include "trace_test_helpers.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DODA_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DODA_TEST_SANITIZED 1
#endif
#endif

namespace doda::sim {
namespace {

AlgorithmFactory gatheringFactory() {
  return [](TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
}

AlgorithmFactory waitingGreedyFactory(core::Time tau) {
  return [tau](TrialContext& context) {
    return std::make_unique<algorithms::WaitingGreedy>(context.meet_time,
                                                       tau);
  };
}

/// The executor's headline contract: identical statistics for every thread
/// count. EXPECT_EQ on doubles on purpose — the fold order is fixed, so
/// the results must be bit-identical, not merely close.
void expectIdentical(const MeasureResult& a, const MeasureResult& b) {
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

TEST(ParallelDeterminism, MeasureRandomizedIdenticalAcrossThreadCounts) {
  MeasureConfig config;
  config.node_count = 12;
  config.trials = 24;
  config.seed = 2026;
  config.threads = 1;
  const auto serial = measureRandomized(config, gatheringFactory());
  ASSERT_GT(serial.interactions.count(), 0u);
  for (std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    expectIdentical(serial, measureRandomized(config, gatheringFactory()));
  }
}

TEST(ParallelDeterminism, MeasureRandomizedWithOracleAlgorithm) {
  // WaitingGreedy exercises the meetTime oracle (and thus the monotone
  // cursors) inside worker threads.
  MeasureConfig config;
  config.node_count = 16;
  config.trials = 16;
  config.seed = 7;
  config.threads = 1;
  const auto factory = waitingGreedyFactory(180);
  const auto serial = measureRandomized(config, factory);
  for (std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    expectIdentical(serial, measureRandomized(config, factory));
  }
}

TEST(ParallelDeterminism, MeasureWithCostIdenticalAcrossThreadCounts) {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 12;
  config.seed = 99;
  config.threads = 1;
  const auto serial = measureWithCost(config, 64, gatheringFactory());
  ASSERT_GT(serial.cost.count(), 0u);
  for (std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    expectIdentical(serial, measureWithCost(config, 64, gatheringFactory()));
  }
}

TEST(ParallelDeterminism, MeasureOfflineOptimalIdenticalAcrossThreadCounts) {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 10;
  config.seed = 123;
  config.threads = 1;
  const auto serial = measureOfflineOptimal(config);
  ASSERT_GT(serial.interactions.count(), 0u);
  for (std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    expectIdentical(serial, measureOfflineOptimal(config));
  }
}

TEST(ParallelDeterminism, ZipfAdversaryIdenticalAcrossThreadCounts) {
  MeasureConfig config;
  config.node_count = 10;
  config.trials = 12;
  config.seed = 5;
  config.zipf_exponent = 0.8;
  config.threads = 1;
  const auto serial = measureRandomized(config, gatheringFactory());
  config.threads = 8;
  expectIdentical(serial, measureRandomized(config, gatheringFactory()));
}

TEST(RunTrials, SeedsDependOnIndexOnly) {
  // Record the seed each trial sees and check it matches the master draw.
  util::Rng master(4242);
  std::vector<std::uint64_t> expected(20);
  for (auto& s : expected) s = master();

  std::vector<std::uint64_t> seen(20, 0);
  runTrials(20, 4242, 4,
            [&](std::size_t trial, std::uint64_t seed,
                core::Engine::Scratch&) {
              seen[trial] = seed;
              TrialOutcome outcome;
              outcome.success = true;
              outcome.interactions = static_cast<double>(trial);
              return outcome;
            });
  EXPECT_EQ(seen, expected);
}

TEST(RunTrials, FoldsFailuresAndCosts) {
  const auto result = runTrials(
      10, 1, 4,
      [](std::size_t trial, std::uint64_t, core::Engine::Scratch&) {
        if (trial % 2 == 0) return TrialOutcome::failure();
        TrialOutcome outcome;
        outcome.success = true;
        outcome.interactions = static_cast<double>(trial);
        outcome.cost = 2.0;
        outcome.has_cost = true;
        return outcome;
      });
  EXPECT_EQ(result.failed_trials, 5u);
  EXPECT_EQ(result.interactions.count(), 5u);
  EXPECT_DOUBLE_EQ(result.interactions.mean(), 5.0);  // (1+3+5+7+9)/5
  EXPECT_EQ(result.cost.count(), 5u);
  EXPECT_DOUBLE_EQ(result.cost.mean(), 2.0);
}

TEST(RunTrials, PropagatesTrialExceptions) {
  auto boom = [](std::size_t trial, std::uint64_t,
                 core::Engine::Scratch&) -> TrialOutcome {
    if (trial == 3) throw std::runtime_error("trial 3 exploded");
    TrialOutcome outcome;
    outcome.success = true;
    return outcome;
  };
  EXPECT_THROW(runTrials(8, 1, 4, boom), std::runtime_error);
  EXPECT_THROW(runTrials(8, 1, 1, boom), std::runtime_error);
}

TEST(RunTrials, ZeroTrialsIsEmpty) {
  const auto result =
      runTrials(0, 1, 0, [](std::size_t, std::uint64_t,
                            core::Engine::Scratch&) { return TrialOutcome(); });
  EXPECT_EQ(result.interactions.count(), 0u);
  EXPECT_EQ(result.failed_trials, 0u);
}

TEST(ResolveThreads, KnobSemantics) {
  EXPECT_EQ(resolveThreads(1, 100), 1u);
  EXPECT_EQ(resolveThreads(4, 100), 4u);
  EXPECT_EQ(resolveThreads(4, 2), 2u);   // clamp to trial count
  EXPECT_GE(resolveThreads(0, 100), 1u);  // auto resolves to >= 1
}

// ------------------------------------------------------ RunControl contract

/// Called inside every trial of a ControlledExecutor before the trial
/// finishes, with the trial's index.
using TrialHold = std::function<void(std::size_t trial)>;

/// One executor driven through RunControl: `run` executes a fixed workload
/// of `trials` trials at `threads` workers and returns its statistics as a
/// progress observer sees them.
struct ControlledExecutor {
  std::string name;
  std::size_t trials = 0;
  std::function<MeasureResult(std::size_t threads, const RunControl* control,
                              const TrialHold& hold)>
      run;
};

constexpr std::size_t kControlTrials = 24;

/// A deterministic outcome per trial, with failures, whose fold depends on
/// the order it runs in.
TrialOutcome syntheticOutcome(std::uint64_t value) {
  if (value % 5 == 0) return TrialOutcome::failure();
  TrialOutcome outcome;
  outcome.success = true;
  outcome.interactions = static_cast<double>(value % 100003) / 7.0;
  outcome.cost = static_cast<double>(value % 13) / 3.0;
  outcome.has_cost = true;
  return outcome;
}

ControlledExecutor runTrialsExecutor() {
  return {"runTrials", kControlTrials,
          [](std::size_t threads, const RunControl* control,
             const TrialHold& hold) {
            return runTrials(
                kControlTrials, 0xc0ffee, threads,
                [&](std::size_t trial, std::uint64_t seed,
                    core::Engine::Scratch&) {
                  hold(trial);
                  return syntheticOutcome(seed);
                },
                control);
          }};
}

ControlledExecutor replayShardsExecutor(const dynagraph::TraceStore& store) {
  return {"replayShards", kControlTrials,
          [&store](std::size_t threads, const RunControl* control,
                   const TrialHold& hold) {
            return replayShards(
                store, threads,
                [&](std::size_t global, dynagraph::TraceShardReader& reader,
                    core::Engine::Scratch&) {
                  hold(global);
                  std::uint64_t value = global;
                  for (int k = 0; k < 16; ++k) {
                    const auto interaction = reader.next();
                    value = value * 31 + interaction->a() * 7 +
                            interaction->b();
                  }
                  return syntheticOutcome(value);
                },
                {}, control);
          }};
}

/// measureWithFaults hands its factory no trial index, so the executor
/// recognises each trial by the sink-meeting times of its first attempt's
/// sequence. That sequence is drawn after the trial's FaultPlan seed
/// (sim/fault_experiment.hpp).
ControlledExecutor measureWithFaultsExecutor() {
  MeasureConfig config;
  config.node_count = 8;
  config.trials = kControlTrials;
  config.seed = 99;
  config.faults.loss_p = 0.2;
  config.faults.crash_fraction = 0.25;
  config.faults.crash_horizon = 64;
  const core::Time length_hint = 256;

  const auto fingerprint = [config](dynagraph::MeetTimeIndex& index) {
    std::vector<core::Time> meetings;
    for (core::NodeId u = 1; u < config.node_count; ++u)
      meetings.push_back(index.meetTime(u, 0));
    return meetings;
  };
  auto trial_of =
      std::make_shared<std::map<std::vector<core::Time>, std::size_t>>();
  util::Rng master(config.seed);
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    util::Rng rng(master());
    rng();  // the FaultPlan seed
    const auto sequence = drawAdversarySequence(config, length_hint, rng);
    dynagraph::MeetTimeIndex index(sequence, config.sink, config.node_count);
    trial_of->emplace(fingerprint(index), trial);
  }
  EXPECT_EQ(trial_of->size(), config.trials) << "fingerprints collide";

  return {"measureWithFaults", kControlTrials,
          [=](std::size_t threads, const RunControl* control,
              const TrialHold& hold) {
            MeasureConfig run_config = config;
            run_config.threads = threads;
            run_config.control = control;
            const auto result = measureWithFaults(
                run_config, length_hint, [&](TrialContext& context) {
                  // A doubled attempt may read a new meeting; only the
                  // first attempt needs to be held.
                  const auto it =
                      trial_of->find(fingerprint(context.meet_time));
                  if (it != trial_of->end()) hold(it->second);
                  return std::make_unique<algorithms::Gathering>();
                });
            MeasureResult seen;
            seen.interactions = result.interactions;
            seen.failed_trials =
                run_config.trials - result.interactions.count();
            return seen;
          }};
}

TEST(RunControlContract, ProgressFoldsInTrialOrderAndCancelStopsTheRun) {
  MeasureConfig record;
  record.node_count = 8;
  record.trials = kControlTrials;
  record.seed = 5;
  const std::string dir = trace_test::scratchDir("run_control");
  recordSynthetic(dir, record, 512, 3);
  const auto store = dynagraph::TraceStore::open(dir);

  const std::vector<ControlledExecutor> executors = {
      runTrialsExecutor(), replayShardsExecutor(store),
      measureWithFaultsExecutor()};
  const TrialHold no_hold = [](std::size_t) {};
  // The observer cancels at this fold. Later trials wait for the flag, so
  // whatever the interleaving, trials remain to be claimed once it is set.
  constexpr std::size_t kCancelAt = 5;

  for (const ControlledExecutor& executor : executors) {
    SCOPED_TRACE(executor.name);
    const MeasureResult unobserved = executor.run(1, nullptr, no_hold);
    ASSERT_GT(unobserved.interactions.count(), 0u);
    ASSERT_GT(unobserved.failed_trials, 0u);

    std::vector<std::vector<MeasureResult>> snapshots_by_threads;
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      std::vector<std::size_t> folded;
      std::vector<MeasureResult> snapshots;
      RunControl observe;
      observe.progress = [&](std::size_t count, const MeasureResult& prefix) {
        folded.push_back(count);
        snapshots.push_back(prefix);
      };
      const MeasureResult result = executor.run(threads, &observe, no_hold);
      ASSERT_EQ(folded.size(), executor.trials);
      for (std::size_t i = 0; i < folded.size(); ++i)
        EXPECT_EQ(folded[i], i + 1);
      expectIdentical(snapshots.back(), result);
      expectIdentical(result, unobserved);
      snapshots_by_threads.push_back(snapshots);

      std::atomic<bool> cancel{false};
      RunControl cancelling;
      cancelling.cancel = &cancel;
      cancelling.progress = [&](std::size_t count, const MeasureResult&) {
        if (count == kCancelAt) cancel.store(true);
      };
      const TrialHold hold = [&](std::size_t trial) {
        if (trial < kCancelAt) return;
        while (!cancel.load()) std::this_thread::yield();
      };
      EXPECT_THROW(executor.run(threads, &cancelling, hold), RunCancelled);
    }
    const auto& serial = snapshots_by_threads[0];
    const auto& pooled = snapshots_by_threads[1];
    for (std::size_t i = 0; i < serial.size() && i < pooled.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "snapshot " << i);
      expectIdentical(serial[i], pooled[i]);
    }
  }
}

/// This process's VmSize in bytes (0 if /proc/self/status has none).
/// Unused in sanitizer builds, which skip the address-space tests.
[[maybe_unused]] std::size_t virtualMemoryBytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0)
      return static_cast<std::size_t>(std::stoull(line.substr(7))) * 1024;
  return 0;
}

TEST(RunTrialsDeathTest, WorkerThatCannotStartThrowsInsteadOfAborting) {
#ifdef DODA_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory defeats the address-space cap";
#else
  // A child process caps its address space at VmSize plus two and a half
  // default thread stacks (20 MiB with 8 MiB stacks), so at most two of
  // eight workers can start. The pool must join the workers it started
  // and throw std::system_error, not end in std::terminate.
  EXPECT_EXIT(
      {
        pthread_attr_t attr;
        std::size_t stack = 0;
        if (pthread_attr_init(&attr) != 0 ||
            pthread_attr_getstacksize(&attr, &stack) != 0)
          std::_Exit(2);
        pthread_attr_destroy(&attr);
        const std::size_t vm = virtualMemoryBytes();
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = vm + stack * 5 / 2;
        if (vm == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
        try {
          runTrials(64, 1, 8,
                    [](std::size_t, std::uint64_t, core::Engine::Scratch&) {
                      return TrialOutcome::failure();
                    });
        } catch (const std::system_error&) {
          std::_Exit(0);
        }
        std::_Exit(3);  // every worker started: the cap did not bite
      },
      testing::ExitedWithCode(0), "");
#endif
}

TEST(MeasureWithFaultsDeathTest, HugeLengthHintAllocatesOnlyWhatTrialsRead) {
#ifdef DODA_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory defeats the address-space cap";
#else
  // A faults trial reads its sequence up to length_hint, but generates it
  // only as far as the engine, the oracle and opt read it. A child process
  // capped at 512 MiB above its VmSize measures with a bound of 2^36
  // interactions (512 GiB if generated up front) and must get the
  // statistics of a 2^12 bound, which every trial here fits.
  MeasureConfig config;
  config.node_count = 8;
  config.trials = 4;
  config.threads = 1;
  config.faults = fault::FaultModel::bernoulliLoss(0.1);
  const FaultMeasureResult reference =
      measureWithFaults(config, core::Time{1} << 12, gatheringFactory());
  ASSERT_EQ(reference.interactions.count(), config.trials);
  EXPECT_EXIT(
      {
        const std::size_t vm = virtualMemoryBytes();
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = vm + (std::size_t{512} << 20);
        if (vm == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
        try {
          const FaultMeasureResult huge = measureWithFaults(
              config, core::Time{1} << 36, gatheringFactory());
          const bool same =
              huge.interactions.count() == reference.interactions.count() &&
              huge.interactions.mean() == reference.interactions.mean() &&
              huge.degradation.costInflation().mean() ==
                  reference.degradation.costInflation().mean();
          std::_Exit(same ? 0 : 3);
        } catch (const std::bad_alloc&) {
          std::_Exit(4);  // sized something by the bound
        }
      },
      testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace doda::sim
