#pragma once

#include <functional>
#include <memory>

#include "core/engine.hpp"
#include "dynagraph/lazy_sequence.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/traces.hpp"
#include "fault/fault_model.hpp"
#include "sim/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace doda::dynagraph {
class MeetTimeOracle;  // abstract meetTime knowledge (dynagraph/oracles.hpp)
}

namespace doda::sim {

/// Per-trial context handed to algorithm factories: the adversary serving
/// this trial plus a meetTime oracle reading its committed sequence.
struct TrialContext {
  core::SystemInfo info;
  core::Adversary& adversary;
  dynagraph::MeetTimeIndex& meet_time;
  /// Non-null only under measureWithFaults: the fault-aware view of
  /// meet_time (crashed nodes never meet the sink again, Byzantine nodes
  /// lie). Fault-tolerant factories should prefer it over meet_time.
  dynagraph::MeetTimeOracle* oracle = nullptr;
  /// The committed sequence that `adversary` and `meet_time` read, bounded
  /// at the attempt's length. Filled by runOnlineTrial and the
  /// measureWithFaults trial; measureMaterialized commits it whole for its
  /// sequence-knowledge factory.
  dynagraph::LazySequence* sequence = nullptr;
};

/// Builds the algorithm instance for one trial. Invoked concurrently from
/// worker threads when MeasureConfig::threads != 1, so the factory must not
/// mutate shared state (returning a fresh algorithm per call, as every
/// existing factory does, is safe).
using AlgorithmFactory =
    std::function<std::unique_ptr<core::DodaAlgorithm>(TrialContext&)>;

/// Builds an algorithm that needs the materialized sequence up front
/// (FullKnowledgeOptimal, FutureAware). Same concurrency contract as
/// AlgorithmFactory.
using SequenceAlgorithmFactory =
    std::function<std::unique_ptr<core::DodaAlgorithm>(
        const dynagraph::InteractionSequence&, const core::SystemInfo&)>;

/// Configuration of a randomized-adversary measurement (paper §4 setting).
struct MeasureConfig {
  std::size_t node_count = 16;
  core::NodeId sink = 0;
  std::size_t trials = 32;
  std::uint64_t seed = 0x5eed;
  /// Per-trial cap on dispatched interactions (failed trials are counted,
  /// not included in the interaction statistics).
  core::Time max_interactions = core::Time{1} << 32;
  /// Zipf popularity exponent; 0 = the paper's uniform adversary.
  double zipf_exponent = 0.0;
  /// Committed random-stream format of the uniform adversary (see
  /// dynagraph/traces.hpp). The default (v2, one draw per pair) changes the
  /// sequence a given seed commits to; pin SeedFormat::v1 to reproduce
  /// streams and goldens recorded before the v2 sampler landed. Ignored by
  /// the Zipf adversary (its draw order never changed).
  dynagraph::traces::SeedFormat seed_format = dynagraph::traces::kSeedFormat;
  /// Worker threads for the trial fan-out: 0 = hardware concurrency,
  /// 1 = the legacy serial path. Results are bit-identical for every
  /// value (per-trial seeds are pre-drawn and outcomes folded in trial
  /// order — see sim/parallel.hpp).
  std::size_t threads = 0;
  /// Fault regime for measureWithFaults / measureUnderFaults (ignored by
  /// the fault-free measure* family). Defaults to no faults.
  fault::FaultModel faults;
  /// Optional cooperative control (progress observer + cancel flag) for
  /// long-running measurements — the dodad server's job layer hooks in
  /// here. Never affects the statistics (see sim::RunControl). Not owned;
  /// must outlive the measurement.
  const RunControl* control = nullptr;
};

// MeasureResult lives in sim/parallel.hpp (it is the executor's fold type).

/// Runs `trials` independent executions of the factory-built algorithm
/// against the (uniform or Zipf) randomized adversary and aggregates the
/// number of interactions to termination.
MeasureResult measureRandomized(const MeasureConfig& config,
                                const AlgorithmFactory& factory);

/// Measures the offline optimum opt(0) under the randomized adversary
/// (paper Thm 8) and records opt(0) + 1 interactions per trial, with cost
/// 1. A trial reads the adversary's committed sequence as a LazySequence
/// bounded at config.max_interactions: it commits a 1.25 * E[opt] margin
/// first and then doubles the committed prefix until a convergecast fits
/// (optCompletionWithin). A trial whose opt(0) + 1 exceeds
/// max_interactions fails, and a zero cap fails every trial.
MeasureResult measureOfflineOptimal(const MeasureConfig& config);

/// Runs a sequence-knowledge algorithm (FullKnowledgeOptimal, FutureAware)
/// under the randomized adversary and also computes the paper cost of each
/// successful trial. It is measureWithCost with an adapter factory: each
/// attempt commits its whole bounded sequence (`initial_length`, then
/// doubled) and builds the algorithm from it. A trial that does not
/// terminate reruns on the same sequence extended to the doubled bound,
/// up to `max_doublings` times and no further once the bound has reached
/// config.max_interactions, so the initial length never changes which
/// sequence a trial reads, only how often it reruns. Throws
/// std::invalid_argument on a zero `initial_length`, as measureWithCost.
MeasureResult measureMaterialized(const MeasureConfig& config,
                                  core::Time initial_length,
                                  const SequenceAlgorithmFactory& factory,
                                  std::size_t max_doublings = 8);

/// Measures an online algorithm under the randomized adversary and
/// additionally computes the paper cost of each successful trial. A trial
/// reads the adversary's committed sequence bounded at `length_hint`
/// interactions: the engine stops at the bound and the meetTime oracle
/// answers kNever past it, as on a fixed sequence of that length. A trial
/// that does not terminate reruns with the bound doubled
/// (runDoublingAttempts), up to `max_doublings` times and no further once
/// the bound has reached config.max_interactions; the sequence is
/// generated only as far as the engine and the oracle read it. Throws
/// std::invalid_argument on a zero `length_hint`, which never grows.
MeasureResult measureWithCost(const MeasureConfig& config,
                              core::Time length_hint,
                              const AlgorithmFactory& factory,
                              std::size_t max_doublings = 8);

/// The attempt loop of measureWithCost (so measureMaterialized) and
/// measureWithFaults: calls
/// `attempt(bound)` with bound = `length_hint` first, doubled (saturating
/// at kNever) after each attempt that returns false. It stops at the
/// first attempt that returns true, after `max_doublings` doublings, or
/// after the first attempt whose bound reached `max_interactions`: a
/// longer bound reruns the same capped trial. Returns whether an attempt
/// returned true.
bool runDoublingAttempts(core::Time length_hint, core::Time max_interactions,
                         std::size_t max_doublings,
                         const std::function<bool(core::Time bound)>& attempt);

/// The online trial behind measureRandomized, measureWithCost,
/// measureMaterialized and replayTrace (sim/trace_replay). It builds the
/// meetTime oracle on `sequence` and the factory's algorithm on that
/// context (TrialContext::sequence points at `sequence`), and runs the
/// engine until termination, the sequence's max_length or
/// `max_interactions`. With `compute_cost`, a successful trial also
/// carries its paper cost, read from the committed prefix: that prefix
/// holds the last transmission, and the cost chain stops at the first
/// T(i) at or after it, so interactions past the prefix cannot change it.
TrialOutcome runOnlineTrial(const core::SystemInfo& info,
                            dynagraph::LazySequence& sequence,
                            const AlgorithmFactory& factory,
                            core::Time max_interactions, bool compute_cost,
                            core::Engine::Scratch& scratch);

/// opt(0) of `sequence` up to its max_length (kNever if no convergecast
/// fits), read from as short a committed prefix as holds it: a
/// convergecast that fits a prefix is the whole sequence's earliest too,
/// so the prefix doubles toward max_length only while none fits. The
/// offline optimum of measureOfflineOptimal and the cost-inflation
/// baseline of measureWithFaults.
core::Time optCompletionWithin(dynagraph::LazySequence& sequence,
                               std::size_t node_count, core::NodeId sink);

/// The committed randomness of every measure* trial: `config`'s (uniform
/// or Zipf) adversary drawing from `rng`. Chunked draws equal one long
/// draw, so every prefix equals drawAdversarySequence(config, length, rng).
dynagraph::LazySequence::BlockGenerator adversaryGenerator(
    const MeasureConfig& config, util::Rng rng);

/// One fixed-length sequence of the (uniform or Zipf) randomized adversary
/// of `config`, drawn at once: the workload of the trace recorder
/// (sim/trace_replay, trace_record) and of the benches that need a whole
/// sequence up front. The measure* trials read adversaryGenerator instead.
dynagraph::InteractionSequence drawAdversarySequence(
    const MeasureConfig& config, core::Time length, util::Rng& rng);

}  // namespace doda::sim
