#include "sim/trace_replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynagraph/lazy_sequence.hpp"
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
/// a body that stops decoding early (a trial terminating before the trace
/// ends) cannot desync the cursor.
void runSpan(const TraceStore& store, const ReplaySpan& span,
             std::uint64_t window_first, const ReplayTrialBody& body,
             core::Engine::Scratch& scratch,
             std::vector<TrialOutcome>& slots, const SlotFilled& filled) {
  TraceShardReader reader = store.openShard(span.shard);
  if (!reader.seekToTrial(span.begin))
    throw std::runtime_error("replayShards: trial " +
                             std::to_string(span.begin) +
                             " not in shard " + std::to_string(span.shard));
  for (std::uint64_t global = span.begin; global < span.end; ++global) {
    if (!reader.beginTrial())
      throw std::runtime_error("replayShards: shard " +
                               std::to_string(span.shard) +
                               " ended before trial " +
                               std::to_string(global));
    const auto slot = static_cast<std::size_t>(global - window_first);
    slots[slot] = body(static_cast<std::size_t>(global), reader, scratch);
    filled(slot);
  }
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
  MeasureResult out;
  foldInOrder(
      selected, spans.size(), threads, control,
      [&](std::size_t span, core::Engine::Scratch& scratch,
          const SlotFilled& filled) {
        runSpan(store, spans[span], first, body, scratch, slots, filled);
      },
      [&](std::size_t slot) -> const MeasureResult& {
        foldOutcome(out, slots[slot]);
        return out;
      });
  return out;
}

MeasureResult replayTrace(const TraceStore& store, const ReplayConfig& config,
                          const AlgorithmFactory& factory) {
  const SystemInfo info{store.nodeCount(), config.sink};
  return replayShards(
      store, config.threads,
      [&](std::size_t /*global_trial*/, TraceShardReader& reader,
          core::Engine::Scratch& scratch) {
        // The trial is decoded only as far as the engine and the oracle
        // read it; the next beginTrial jumps over the rest.
        dynagraph::LazySequence sequence(
            [&reader](Time, std::size_t count,
                      std::vector<core::Interaction>& out) {
              reader.read(count, out);
            },
            reader.trialLength());
        return runOnlineTrial(info, sequence, factory,
                              config.max_interactions, config.compute_cost,
                              scratch);
      },
      config.trial_range, config.control);
}

void appendTrials(dynagraph::TraceStoreWriter& writer,
                  std::uint64_t master_seed, std::size_t first,
                  std::size_t last, const TrialGenerator& generator) {
  // Identical seed scheme to runTrials, so recorded sequences match what
  // the in-memory synthetic run generates from the same master seed.
  const std::vector<std::uint64_t> seeds = drawTrialSeeds(master_seed, last);
  for (std::size_t trial = first; trial < last; ++trial) {
    util::Rng rng(seeds[trial]);
    writer.appendTrial(generator(trial, rng));
  }
}

void recordTrials(const std::string& directory, std::size_t node_count,
                  std::size_t trials, std::uint64_t master_seed,
                  std::uint32_t shard_count,
                  const TrialGenerator& generator,
                  dynagraph::TraceWriterOptions writer_options) {
  dynagraph::TraceStoreWriter writer(directory, node_count, trials,
                                     shard_count, writer_options);
  appendTrials(writer, master_seed, 0, trials, generator);
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
