#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "adversary/sequence_adversary.hpp"
#include "analysis/convergecast.hpp"
#include "dynagraph/traces.hpp"
#include "util/rng.hpp"

namespace doda::sim {

using core::SystemInfo;
using core::Time;
using dynagraph::InteractionSequence;
using dynagraph::kNever;
using dynagraph::LazySequence;

namespace {

SystemInfo systemOf(const MeasureConfig& config) {
  return SystemInfo{config.node_count, config.sink};
}

core::RunOptions measurementRunOptions(Time max_interactions) {
  core::RunOptions options;
  options.max_interactions = max_interactions;
  options.capture_schedule = false;  // only the scalar outcome is folded
  return options;
}

}  // namespace

LazySequence::BlockGenerator adversaryGenerator(const MeasureConfig& config,
                                                util::Rng rng) {
  using Block = std::vector<core::Interaction>;
  if (config.zipf_exponent > 0.0)
    return [distribution = dynagraph::traces::ZipfPairDistribution(
                config.node_count, config.zipf_exponent),
            rng](Time, std::size_t count, Block& out) mutable {
      distribution.append(count, rng, out);
    };
  return [node_count = config.node_count, format = config.seed_format,
          rng](Time, std::size_t count, Block& out) mutable {
    dynagraph::traces::appendUniform(node_count, count, rng, out, format);
  };
}

TrialOutcome runOnlineTrial(const SystemInfo& info, LazySequence& sequence,
                            const AlgorithmFactory& factory,
                            Time max_interactions, bool compute_cost,
                            core::Engine::Scratch& scratch) {
  adversary::LazySequenceAdversary adversary(sequence);
  dynagraph::MeetTimeIndex index(sequence, info.sink, info.node_count);
  TrialContext context{info, adversary, index, nullptr, &sequence};
  const auto algorithm = factory(context);
  core::Engine engine(info, core::AggregationFunction::count());
  const auto result = engine.runInto(
      scratch, *algorithm, adversary,
      measurementRunOptions(std::min(sequence.maxLength(), max_interactions)));
  if (!result.terminated) return TrialOutcome::failure();
  TrialOutcome outcome;
  outcome.success = true;
  outcome.interactions = static_cast<double>(result.interactions_to_terminate);
  if (compute_cost) {
    outcome.cost = static_cast<double>(
        analysis::costOf(sequence.committed(), info.node_count, info.sink,
                         result.last_transmission_time));
    outcome.has_cost = true;
  }
  return outcome;
}

MeasureResult measureRandomized(const MeasureConfig& config,
                                const AlgorithmFactory& factory) {
  const SystemInfo info = systemOf(config);
  return runTrials(
      config.trials, config.seed, config.threads,
      [&](std::size_t /*trial*/, std::uint64_t seed,
          core::Engine::Scratch& scratch) {
        LazySequence sequence(adversaryGenerator(config, util::Rng(seed)));
        return runOnlineTrial(info, sequence, factory,
                              config.max_interactions,
                              /*compute_cost=*/false, scratch);
      },
      config.control);
}

Time optCompletionWithin(LazySequence& sequence, std::size_t node_count,
                         core::NodeId sink) {
  while (true) {
    const Time opt =
        analysis::optCompletion(sequence.committed(), node_count, sink, 0);
    const Time length = sequence.generatedLength();
    if (opt != kNever || length >= sequence.maxLength()) return opt;
    const Time doubled = std::max<Time>(2 * length, LazySequence::kChunk);
    sequence.ensure(std::min(doubled, sequence.maxLength()) - 1);
  }
}

MeasureResult measureOfflineOptimal(const MeasureConfig& config) {
  // E[opt] = (n-1)H(n-1) (Thm 8): commit a 1.25x margin so that most
  // trials find opt in one pass. The margin only affects how often the
  // doubling path runs, never the measured statistic: opt is read from
  // the committed prefix either way.
  const Time margin = std::max<Time>(
      16, static_cast<Time>(
              1.25 * util::closed_form::broadcastExpected(config.node_count)));
  return runTrials(
      config.trials, config.seed, config.threads,
      [&, margin](std::size_t /*trial*/, std::uint64_t seed,
                  core::Engine::Scratch& /*scratch*/) {
        LazySequence sequence(adversaryGenerator(config, util::Rng(seed)),
                              config.max_interactions);
        const Time fill = std::min(margin, sequence.maxLength());
        if (fill > 0) sequence.ensure(fill - 1);
        const Time opt =
            optCompletionWithin(sequence, config.node_count, config.sink);
        if (opt == kNever) return TrialOutcome::failure();
        TrialOutcome outcome;
        outcome.success = true;
        outcome.interactions = static_cast<double>(opt + 1);
        outcome.cost = 1.0;  // the offline optimum has cost 1 by definition
        outcome.has_cost = true;
        return outcome;
      },
      config.control);
}

MeasureResult measureMaterialized(const MeasureConfig& config,
                                  Time initial_length,
                                  const SequenceAlgorithmFactory& factory,
                                  std::size_t max_doublings) {
  return measureWithCost(
      config, initial_length,
      [&factory](TrialContext& context) {
        LazySequence& sequence = *context.sequence;
        sequence.ensure(sequence.maxLength() - 1);
        return factory(sequence.committed(), context.info);
      },
      max_doublings);
}

bool runDoublingAttempts(Time length_hint, Time max_interactions,
                         std::size_t max_doublings,
                         const std::function<bool(Time bound)>& attempt) {
  Time bound = length_hint;
  for (std::size_t doublings = 0;; ++doublings) {
    if (attempt(bound)) return true;
    if (doublings == max_doublings || bound >= max_interactions) return false;
    bound = bound > kNever / 2 ? kNever : 2 * bound;
  }
}

MeasureResult measureWithCost(const MeasureConfig& config, Time length_hint,
                              const AlgorithmFactory& factory,
                              std::size_t max_doublings) {
  if (length_hint == 0)
    throw std::invalid_argument(
        "measureWithCost: length_hint must be positive");
  const SystemInfo info = systemOf(config);
  return runTrials(
      config.trials, config.seed, config.threads,
      [&, length_hint](std::size_t /*trial*/, std::uint64_t seed,
                       core::Engine::Scratch& scratch) {
        // Every attempt regenerates the same committed sequence from the
        // trial seed; only the bound doubles.
        TrialOutcome outcome = TrialOutcome::failure();
        runDoublingAttempts(
            length_hint, config.max_interactions, max_doublings,
            [&](Time bound) {
              LazySequence sequence(
                  adversaryGenerator(config, util::Rng(seed)), bound);
              outcome = runOnlineTrial(info, sequence, factory,
                                       config.max_interactions,
                                       /*compute_cost=*/true, scratch);
              return outcome.success;
            });
        return outcome;
      },
      config.control);
}

InteractionSequence drawAdversarySequence(const MeasureConfig& config,
                                          Time length, util::Rng& rng) {
  if (config.zipf_exponent > 0.0)
    return dynagraph::traces::zipfRandom(config.node_count, length,
                                         config.zipf_exponent, rng);
  return dynagraph::traces::uniformRandom(config.node_count, length, rng,
                                          config.seed_format);
}

}  // namespace doda::sim
