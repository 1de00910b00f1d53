#include "sim/fault_experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "adversary/sequence_adversary.hpp"
#include "dynagraph/oracles.hpp"
#include "fault/fault_oracles.hpp"
#include "util/rng.hpp"

namespace doda::sim {

using core::SystemInfo;
using core::Time;
using dynagraph::kNever;
using dynagraph::LazySequence;

namespace {

/// Per-trial slot filled by the workers and folded in trial order.
struct FaultTrialSlot {
  core::FaultOutcome outcome;
  double interactions = 0.0;
  double cost_inflation = 0.0;
  bool has_inflation = false;
  bool timed_out = false;
};

FaultTrialSlot runFaultTrial(const MeasureConfig& config,
                             const SystemInfo& info, Time length_hint,
                             const AlgorithmFactory& factory,
                             std::size_t max_doublings, std::uint64_t seed,
                             core::Engine::Scratch& scratch) {
  util::Rng rng(seed);
  // The plan seed is drawn FIRST so the trial's faults are committed before
  // any sequence randomness: every attempt reads the same sequence under
  // the exact same plan (and, via the reseeded loss stream, the exact same
  // per-interaction loss verdicts on the shared prefix).
  const std::uint64_t plan_seed = rng();
  fault::FaultSession session(fault::FaultPlan::draw(
      config.faults, config.node_count, config.sink, plan_seed));
  FaultTrialSlot slot;
  // Every attempt regenerates the same committed sequence from the Rng
  // state after the plan seed; only the bound doubles.
  const bool stopped = runDoublingAttempts(
      length_hint, config.max_interactions, max_doublings, [&](Time bound) {
        LazySequence sequence(adversaryGenerator(config, rng), bound);
        adversary::LazySequenceAdversary adversary(sequence);
        dynagraph::MeetTimeIndex index(sequence, config.sink,
                                       config.node_count);
        dynagraph::ExactMeetTimeOracle exact(index);
        fault::FaultyMeetTimeOracle oracle(exact, session.plan());
        TrialContext context{info, adversary, index, &oracle, &sequence};
        const auto algorithm = factory(context);
        core::Engine engine(info, core::AggregationFunction::count());
        core::RunOptions options;
        options.max_interactions = std::min(bound, config.max_interactions);
        options.capture_schedule = false;
        options.faults = &session;
        const auto result =
            engine.runInto(scratch, *algorithm, adversary, options);
        slot.outcome = *result.fault;
        if (slot.outcome.completed) {
          slot.interactions =
              static_cast<double>(result.interactions_to_terminate);
          const Time opt =
              optCompletionWithin(sequence, config.node_count, config.sink);
          if (opt != kNever) {
            slot.cost_inflation =
                slot.interactions / static_cast<double>(opt + 1);
            slot.has_inflation = true;
          }
          return true;
        }
        return slot.outcome.blocked;  // no future progress possible
      });
  slot.timed_out = !stopped;
  return slot;
}

}  // namespace

FaultMeasureResult measureWithFaults(const MeasureConfig& config,
                                     Time length_hint,
                                     const AlgorithmFactory& factory,
                                     std::size_t max_doublings) {
  config.faults.validate();
  if (length_hint == 0)
    throw std::invalid_argument(
        "measureWithFaults: length_hint must be positive");
  const SystemInfo info{config.node_count, config.sink};
  const std::vector<std::uint64_t> seeds =
      drawTrialSeeds(config.seed, config.trials);
  std::vector<FaultTrialSlot> slots(config.trials);
  FaultMeasureResult out;
  // What a progress observer sees of the folded prefix: interactions over
  // completed trials, and every trial that did not complete as failed.
  MeasureResult prefix;
  foldInOrder(
      config.trials, config.trials, config.threads, config.control,
      [&](std::size_t trial, core::Engine::Scratch& scratch,
          const SlotFilled& filled) {
        slots[trial] = runFaultTrial(config, info, length_hint, factory,
                                     max_doublings, seeds[trial], scratch);
        filled(trial);
      },
      [&](std::size_t trial) -> const MeasureResult& {
        const FaultTrialSlot& slot = slots[trial];
        out.degradation.add(slot.outcome, slot.cost_inflation,
                            slot.has_inflation);
        if (slot.outcome.completed) out.interactions.add(slot.interactions);
        if (slot.timed_out) ++out.timed_out_trials;
        prefix.interactions = out.interactions;
        prefix.failed_trials = trial + 1 - out.interactions.count();
        return prefix;
      });
  return out;
}

std::vector<FaultSweepResult> measureUnderFaults(
    const MeasureConfig& config, Time length_hint,
    std::span<const FaultSweepPoint> sweep, const AlgorithmFactory& factory,
    std::size_t max_doublings) {
  std::vector<FaultSweepResult> out;
  out.reserve(sweep.size());
  for (const FaultSweepPoint& point : sweep) {
    MeasureConfig point_config = config;
    point_config.faults = point.model;
    out.push_back({point.label, point.model,
                   measureWithFaults(point_config, length_hint, factory,
                                     max_doublings)});
  }
  return out;
}

}  // namespace doda::sim
