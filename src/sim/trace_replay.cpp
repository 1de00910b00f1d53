#include "sim/trace_replay.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/convergecast.hpp"
#include "dynagraph/lazy_sequence.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "util/rng.hpp"

namespace doda::sim {

using core::SystemInfo;
using core::Time;
using dynagraph::TraceShardReader;
using dynagraph::TraceStore;

namespace {

/// One contiguous run of selected trials inside one shard — the unit of
/// pool work. A shard contributes several spans so workers load-balance
/// within it.
struct ReplaySpan {
  std::size_t shard = 0;
  std::uint64_t begin = 0;  // global trial ids, half-open
  std::uint64_t end = 0;
};

/// Runs one span: seek to its first trial through the shard's block index,
/// then stream its trials through `body`, storing outcomes into the
/// window's slot array. The reader realigns itself at each beginTrial, so
/// a body that stops decoding early (streamed replay terminating before
/// the trace ends) cannot desync the cursor.
void runSpan(const TraceStore& store, const ReplaySpan& span,
             std::uint64_t window_first, const ReplayTrialBody& body,
             core::Engine::Scratch& scratch,
             std::vector<TrialOutcome>& slots,
             const std::atomic<bool>* cancel,
             const std::function<void(std::uint64_t)>& trial_done) {
  TraceShardReader reader = store.openShard(span.shard);
  if (!reader.seekToTrial(span.begin))
    throw std::runtime_error("replayShards: trial " +
                             std::to_string(span.begin) +
                             " not in shard " + std::to_string(span.shard));
  for (std::uint64_t global = span.begin; global < span.end; ++global) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      throw RunCancelled();
    if (!reader.beginTrial())
      throw std::runtime_error("replayShards: shard " +
                               std::to_string(span.shard) +
                               " ended before trial " +
                               std::to_string(global));
    slots[static_cast<std::size_t>(global - window_first)] =
        body(static_cast<std::size_t>(global), reader, scratch);
    if (trial_done) trial_done(global);
  }
}

/// The engine's side of a replayed trial: serves the trial's on-demand
/// sequence and reports exhaustion past the recorded length.
class LazyTrialAdversary final : public core::Adversary {
 public:
  explicit LazyTrialAdversary(dynagraph::LazySequence& sequence)
      : sequence_(sequence) {}

  std::string name() const override { return "trace-replay"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    if (t >= sequence_.maxLength()) return std::nullopt;
    return sequence_.at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    if (t >= sequence_.maxLength()) return {};
    return sequence_.committedFrom(t);
  }

 private:
  dynagraph::LazySequence& sequence_;
};

core::RunOptions replayRunOptions(const ReplayConfig& config,
                                  std::uint64_t trial_length) {
  core::RunOptions options;
  options.max_interactions =
      std::min<Time>(trial_length, config.max_interactions);
  options.capture_schedule = false;  // only the scalar outcome is folded
  return options;
}

}  // namespace

MeasureResult replayShards(const TraceStore& store, std::size_t threads,
                           const ReplayTrialBody& body,
                           ReplayTrialRange range,
                           const RunControl* control) {
  const std::uint64_t first = std::min(range.first, store.trialCount());
  const std::uint64_t last = std::min(range.last, store.trialCount());
  if (first >= last) return {};
  const auto selected = static_cast<std::size_t>(last - first);

  // Carve the window into spans: a few per worker, so a handful of shards
  // (or one huge one) still feeds the whole pool. Each span seeks through
  // its shard's block index, so extra spans cost one partial block decode.
  const std::size_t workers = resolveThreads(threads, selected);
  const std::uint64_t span_target =
      std::max<std::uint64_t>(1, (last - first) / (workers * 4));
  std::vector<ReplaySpan> spans;
  for (std::size_t shard = 0; shard < store.shardCount(); ++shard) {
    const auto& header = store.shardHeaders()[shard];
    std::uint64_t begin = std::max(first, header.base_trial);
    const std::uint64_t end =
        std::min(last, header.base_trial + header.trial_count);
    while (begin < end) {
      const std::uint64_t stop = std::min(end, begin + span_target);
      spans.push_back({shard, begin, stop});
      begin = stop;
    }
  }

  std::vector<TrialOutcome> slots(selected);

  // Incremental in-order fold for observed runs: spans complete their
  // trials out of global order, so completion flags park each outcome
  // until the folded prefix reaches it — same fold order (global trial
  // first, first+1, ...) as the batch path below, bit-identical result.
  const bool observed = control != nullptr && control->progress != nullptr;
  const std::atomic<bool>* cancel =
      control != nullptr ? control->cancel : nullptr;
  MeasureResult out;
  std::vector<std::uint8_t> done(observed ? selected : 0, 0);
  std::size_t folded = 0;
  std::mutex fold_mutex;
  std::function<void(std::uint64_t)> trial_done;
  if (observed)
    trial_done = [&](std::uint64_t global) {
      const std::lock_guard<std::mutex> lock(fold_mutex);
      done[static_cast<std::size_t>(global - first)] = 1;
      while (folded < selected && done[folded]) {
        foldOutcome(out, slots[folded]);
        ++folded;
        control->progress(folded, out);
      }
    };

  runIndexedTasks(spans.size(), threads,
                  [&](std::size_t span, core::Engine::Scratch& scratch) {
                    runSpan(store, spans[span], first, body, scratch, slots,
                            cancel, trial_done);
                  });
  if (observed) return out;

  // Ordered fold: global trial first, first+1, ... regardless of span
  // placement, so the floating-point accumulation matches the synthetic
  // executor's (and a full replay restricted to the same window).
  for (const auto& outcome : slots) foldOutcome(out, outcome);
  return out;
}

MeasureResult replayTrace(const TraceStore& store, const ReplayConfig& config,
                          const AlgorithmFactory& factory) {
  const SystemInfo info{store.nodeCount(), config.sink};
  return replayShards(
      store, config.threads,
      [&](std::size_t /*global_trial*/, TraceShardReader& reader,
          core::Engine::Scratch& scratch) {
        const std::uint64_t length = reader.trialLength();
        // The trial is decoded only as far as the engine and the oracle
        // read it; the next beginTrial jumps over the rest.
        dynagraph::LazySequence sequence(
            [&reader](Time, std::size_t count,
                      std::vector<core::Interaction>& out) {
              reader.read(count, out);
            },
            length);
        LazyTrialAdversary trial_adversary(sequence);
        dynagraph::MeetTimeIndex index(sequence, config.sink, info.node_count);
        TrialContext context{info, trial_adversary, index};
        const auto algorithm = factory(context);
        core::Engine engine(info, core::AggregationFunction::count());
        const auto result =
            engine.runInto(scratch, *algorithm, trial_adversary,
                           replayRunOptions(config, length));
        if (!result.terminated) return TrialOutcome::failure();
        TrialOutcome outcome;
        outcome.success = true;
        outcome.interactions =
            static_cast<double>(result.interactions_to_terminate);
        if (config.compute_cost) {
          // The committed prefix holds the last transmission, and the cost
          // chain stops at the first T(i) >= it. Finite T(i) on the prefix
          // are those of the whole trial, and a T(i) infinite on the prefix
          // is at least its length either way, so the prefix gives the
          // whole trial's cost without decoding further.
          outcome.cost = static_cast<double>(analysis::costOf(
              sequence.committed(), info.node_count, config.sink,
              result.last_transmission_time));
          outcome.has_cost = true;
        }
        return outcome;
      },
      config.trial_range, config.control);
}

namespace {

/// Single-use adversary pulling interactions straight from a shard
/// reader's block buffer — the streamed InteractionSequence view the
/// engine consumes during zero-materialization replay.
class StreamedTrialAdversary final : public core::Adversary {
 public:
  explicit StreamedTrialAdversary(TraceShardReader& reader)
      : reader_(reader) {}

  std::string name() const override { return "trace-replay-stream"; }

  std::optional<core::Interaction> next(
      core::Time /*t*/, const core::ExecutionView& /*view*/) override {
    return reader_.next();
  }

 private:
  TraceShardReader& reader_;
};

}  // namespace

MeasureResult replayTraceStreaming(const TraceStore& store,
                                   const ReplayConfig& config,
                                   const StreamedAlgorithmFactory& factory) {
  const SystemInfo info{store.nodeCount(), config.sink};
  return replayShards(
      store, config.threads,
      [&](std::size_t /*global_trial*/, TraceShardReader& reader,
          core::Engine::Scratch& scratch) {
        StreamedTrialAdversary adversary(reader);
        const auto algorithm = factory(info);
        core::Engine engine(info, core::AggregationFunction::count());
        const auto result =
            engine.runInto(scratch, *algorithm, adversary,
                           replayRunOptions(config, reader.trialLength()));
        if (!result.terminated) return TrialOutcome::failure();
        TrialOutcome outcome;
        outcome.success = true;
        outcome.interactions =
            static_cast<double>(result.interactions_to_terminate);
        return outcome;
      },
      config.trial_range, config.control);
}

void recordTrials(const std::string& directory, std::size_t node_count,
                  std::size_t trials, std::uint64_t master_seed,
                  std::uint32_t shard_count,
                  const TrialGenerator& generator,
                  dynagraph::TraceWriterOptions writer_options) {
  // Identical seed scheme to runTrials: trial i's randomness is the i-th
  // draw from the master RNG, so recorded sequences match what the
  // in-memory synthetic run generates from the same master seed.
  util::Rng master(master_seed);
  std::vector<std::uint64_t> seeds(trials);
  for (auto& seed : seeds) seed = master();

  dynagraph::TraceStoreWriter writer(directory, node_count, trials,
                                     shard_count, writer_options);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    util::Rng rng(seeds[trial]);
    writer.appendTrial(generator(trial, rng));
  }
  writer.finish();
}

void recordSynthetic(const std::string& directory,
                     const MeasureConfig& config, Time length,
                     std::uint32_t shard_count,
                     dynagraph::TraceWriterOptions writer_options) {
  recordTrials(
      directory, config.node_count, config.trials, config.seed, shard_count,
      [&](std::size_t /*trial*/, util::Rng& rng) {
        return drawAdversarySequence(config, length, rng);
      },
      writer_options);
}

}  // namespace doda::sim
