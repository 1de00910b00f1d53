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
  TrialContext context{info, adversary, index};
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

MeasureResult measureOfflineOptimal(const MeasureConfig& config) {
  // E[opt] = (n-1)H(n-1) (Thm 8); draw a 1.25x margin and extend by
  // doubling on the rare trial whose convergecast doesn't fit. The margin
  // only affects how often the doubling path runs, never the measured
  // statistic: opt is read from the committed prefix either way.
  const Time initial = std::max<Time>(
      16, static_cast<Time>(
              1.25 * util::closed_form::broadcastExpected(config.node_count)));
  return runTrials(
      config.trials, config.seed, config.threads,
      [&, initial](std::size_t /*trial*/, std::uint64_t seed,
                   core::Engine::Scratch& /*scratch*/) {
        util::Rng rng(seed);
        InteractionSequence seq = drawAdversarySequence(config, initial, rng);
        Time opt = kNever;
        while (true) {
          opt = analysis::optCompletion(seq, config.node_count, config.sink,
                                        0);
          if (opt != kNever || seq.length() >= config.max_interactions)
            break;
          // Double by appending fresh randomness (the prefix stays
          // committed).
          InteractionSequence more =
              drawAdversarySequence(config, seq.length(), rng);
          seq.appendAll(more);
        }
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
  const SystemInfo info = systemOf(config);
  return runTrials(
      config.trials, config.seed, config.threads,
      [&, initial_length](std::size_t /*trial*/, std::uint64_t seed,
                          core::Engine::Scratch& scratch) {
        util::Rng rng(seed);
        InteractionSequence seq =
            drawAdversarySequence(config, initial_length, rng);
        for (std::size_t attempt = 0; attempt <= max_doublings; ++attempt) {
          const auto algorithm = factory(seq, info);
          adversary::SequenceViewAdversary seq_adversary{seq};
          core::Engine engine(info, core::AggregationFunction::count());
          const auto result = engine.runInto(
              scratch, *algorithm, seq_adversary,
              measurementRunOptions(
                  std::min<Time>(seq.length(), config.max_interactions)));
          if (result.terminated) {
            TrialOutcome outcome;
            outcome.success = true;
            outcome.interactions =
                static_cast<double>(result.interactions_to_terminate);
            outcome.cost = static_cast<double>(
                analysis::costOf(seq, config.node_count, config.sink,
                                 result.last_transmission_time));
            outcome.has_cost = true;
            return outcome;
          }
          // Extend the committed prefix with fresh randomness and rerun.
          seq.appendAll(drawAdversarySequence(config, seq.length(), rng));
        }
        return TrialOutcome::failure();
      },
      config.control);
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
