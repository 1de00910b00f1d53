#pragma once

#include <functional>
#include <string>

#include "dynagraph/trace_io.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace doda::sim {

/// Half-open window [first, last) of *global* trial indices to replay.
/// The default covers every recorded trial; bounds are clamped to the
/// store, so {10'000, 20'000} reads "trials 10k-20k only".
struct ReplayTrialRange {
  std::uint64_t first = 0;
  std::uint64_t last = ~std::uint64_t{0};
};

/// Configuration of a recorded-trace replay measurement.
struct ReplayConfig {
  core::NodeId sink = 0;
  /// Worker threads fanning over trace shards: 0 = hardware concurrency,
  /// 1 = serial. Results are bit-identical for every value (outcomes are
  /// folded in global trial order, exactly like the synthetic path).
  std::size_t threads = 0;
  /// Per-trial cap on dispatched interactions.
  core::Time max_interactions = core::Time{1} << 32;
  /// Whether replayTrace additionally computes the paper cost (§2.3) of
  /// each successful trial.
  bool compute_cost = false;
  /// Partial replay window. The statistics of a ranged replay are
  /// bit-identical to folding the same trials out of a full replay: the
  /// reader seeks straight to the window through each shard's block index
  /// — the range never changes the statistics, only the work.
  ReplayTrialRange trial_range;
  /// Optional cooperative control (progress observer + cancel flag), as
  /// MeasureConfig::control. Not owned; must outlive the replay.
  const RunControl* control = nullptr;
};

/// The work of one replayed trial. `reader` is positioned at the start of
/// the trial's payload (trialLength() interactions pending); the body
/// decodes interactions on demand with next() or read(), and need not
/// consume the remainder — the next beginTrial realigns the shard cursor,
/// jumping over unread blocks through the block index. replayTrace's body
/// is runOnlineTrial (sim/experiment.hpp) on a LazySequence fed by
/// `reader`. Same purity contract as TrialBody: runs concurrently, keyed
/// by `global_trial` only.
using ReplayTrialBody = std::function<TrialOutcome(
    std::size_t global_trial, dynagraph::TraceShardReader& reader,
    core::Engine::Scratch& scratch)>;

/// Deterministic shard-parallel replay executor — the recorded-trace
/// counterpart of runTrials.
///
/// Work splits by the shards' *block indices*: a shard's selected trials
/// are carved into several contiguous spans (a few per worker) that each
/// seek to their first trial, so trial-level parallelism load-balances
/// inside a shard instead of stopping at shard granularity. The spans are
/// foldInOrder's tasks: each trial stores its outcome in a per-trial slot,
/// and the slots are folded into the MeasureResult in global trial order.
/// Results are therefore bit-identical for every thread count and every
/// span shape. An exception thrown by any trial body (or a corrupt shard)
/// stops the run and is rethrown.
///
/// `range` restricts the replay to a half-open window of global trials
/// (clamped to the store; empty windows return an empty result).
MeasureResult replayShards(const dynagraph::TraceStore& store,
                           std::size_t threads, const ReplayTrialBody& body,
                           ReplayTrialRange range = {},
                           const RunControl* control = nullptr);

/// Replays every recorded trial through a factory-built algorithm, with
/// runOnlineTrial (sim/experiment.hpp), the trial body of the synthetic
/// measureRandomized and measureWithCost. Each trial is decoded on demand
/// into a LazySequence bounded by its recorded length: the engine's
/// adversary, the meetTime oracle (extending one LazySequence::kChunk at a
/// time) and, with `config.compute_cost`, the paper cost of successful
/// trials all read one growing prefix, and the unread remainder is
/// skipped. The statistics equal those of decoding every trial to its end:
/// oracle answers and finite cost-chain terms depend only on the
/// interactions up to them. The prefix read stays in memory until the
/// trial ends (8 bytes per interaction).
MeasureResult replayTrace(const dynagraph::TraceStore& store,
                          const ReplayConfig& config,
                          const AlgorithmFactory& factory);

/// Generates the sequence of one recorded trial from its pre-drawn
/// per-trial RNG.
using TrialGenerator = std::function<dynagraph::InteractionSequence(
    std::size_t trial, util::Rng& rng)>;

/// Appends trials [first, last) of a generator-built workload to `writer`.
/// Trial i's RNG is seeded with the i-th seed of drawTrialSeeds(master_seed),
/// the seed scheme of runTrials and the determinism anchor every recorded
/// workload shares: a plain store, a durable store and one recorded in
/// several segments hold the same trials and replay alike.
void appendTrials(dynagraph::TraceStoreWriter& writer,
                  std::uint64_t master_seed, std::size_t first,
                  std::size_t last, const TrialGenerator& generator);

/// Records `trials` generator-built sequences into a sharded store under
/// `directory`, seeded as appendTrials. `writer_options` picks the block
/// encoding (rANS by default, raw with compress = false); the recorded
/// *content* is identical for every choice.
void recordTrials(const std::string& directory, std::size_t node_count,
                  std::size_t trials, std::uint64_t master_seed,
                  std::uint32_t shard_count, const TrialGenerator& generator,
                  dynagraph::TraceWriterOptions writer_options = {});

/// Records the randomized-adversary workload of `config` (uniform or Zipf)
/// as `config.trials` sequences of `length` interactions each, sharded
/// into `shard_count` files under `directory`. Replaying the store is
/// bit-identical to the equivalent in-memory run (measureWithCost with the
/// same config and length, provided no trial needs extension).
void recordSynthetic(const std::string& directory,
                     const MeasureConfig& config, core::Time length,
                     std::uint32_t shard_count,
                     dynagraph::TraceWriterOptions writer_options = {});

}  // namespace doda::sim
