#include "sim/fault_experiment.hpp"

#include <algorithm>
#include <utility>

#include "adversary/sequence_adversary.hpp"
#include "analysis/convergecast.hpp"
#include "dynagraph/oracles.hpp"
#include "fault/fault_oracles.hpp"
#include "util/rng.hpp"

namespace doda::sim {

using core::SystemInfo;
using core::Time;
using dynagraph::InteractionSequence;
using dynagraph::kNever;

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
  // any sequence randomness: extending the sequence by doubling replays the
  // exact same plan (and, via the reseeded loss stream, the exact same
  // per-interaction loss verdicts on the shared prefix).
  const std::uint64_t plan_seed = rng();
  fault::FaultSession session(fault::FaultPlan::draw(
      config.faults, config.node_count, config.sink, plan_seed));

  InteractionSequence seq = drawAdversarySequence(config, length_hint, rng);
  FaultTrialSlot slot;
  for (std::size_t attempt = 0; attempt <= max_doublings; ++attempt) {
    adversary::SequenceViewAdversary seq_adversary{seq};
    dynagraph::MeetTimeIndex index(seq, config.sink, config.node_count);
    dynagraph::ExactMeetTimeOracle exact(index);
    fault::FaultyMeetTimeOracle oracle(exact, session.plan());
    TrialContext context{info, seq_adversary, index, &oracle};
    const auto algorithm = factory(context);
    core::Engine engine(info, core::AggregationFunction::count());
    core::RunOptions options;
    options.max_interactions =
        std::min<Time>(seq.length(), config.max_interactions);
    options.capture_schedule = false;
    options.faults = &session;
    const auto result =
        engine.runInto(scratch, *algorithm, seq_adversary, options);
    slot.outcome = *result.fault;
    if (slot.outcome.completed) {
      slot.interactions =
          static_cast<double>(result.interactions_to_terminate);
      const Time opt = analysis::optCompletion(seq, config.node_count,
                                               config.sink, 0);
      if (opt != kNever) {
        slot.cost_inflation =
            slot.interactions / static_cast<double>(opt + 1);
        slot.has_inflation = true;
      }
      return slot;
    }
    if (slot.outcome.blocked) return slot;  // no future progress possible
    if (seq.length() >= config.max_interactions) break;
    // Extend the committed prefix with fresh randomness and rerun (the
    // faulty prefix replays identically: same plan, same loss stream).
    seq.appendAll(drawAdversarySequence(config, seq.length(), rng));
  }
  slot.timed_out = true;
  return slot;
}

}  // namespace

FaultMeasureResult measureWithFaults(const MeasureConfig& config,
                                     Time length_hint,
                                     const AlgorithmFactory& factory,
                                     std::size_t max_doublings) {
  config.faults.validate();
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
