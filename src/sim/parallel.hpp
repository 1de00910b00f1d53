#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "util/stats.hpp"

namespace doda::sim {

/// Aggregate outcome of a measurement (declared here, shared with
/// experiment.hpp).
struct MeasureResult {
  /// Interactions to terminate, over successful trials.
  util::RunningStats interactions;
  /// The paper's cost (§2.3) — only filled by measure functions documented
  /// to compute it (it reads each trial's committed sequence).
  util::RunningStats cost;
  std::size_t failed_trials = 0;
};

/// Scalar outcome of one trial, produced by a TrialBody.
struct TrialOutcome {
  bool success = false;
  double interactions = 0.0;
  /// Paper cost of the trial; folded only when has_cost is set.
  double cost = 0.0;
  bool has_cost = false;

  static TrialOutcome failure() { return {}; }
};

/// The work of one trial. Must be a pure function of (trial, seed) — it
/// runs concurrently with other trials and must not touch shared mutable
/// state. `scratch` is a per-worker core::Engine::Scratch for allocation
/// reuse across the trials a worker executes.
using TrialBody = std::function<TrialOutcome(
    std::size_t trial, std::uint64_t seed, core::Engine::Scratch& scratch)>;

/// Thrown by the executors when RunControl::cancel flips to true: the run
/// stops claiming new trials and unwinds to the caller. A cancelled run has
/// no result — partial statistics are never returned.
struct RunCancelled : std::runtime_error {
  RunCancelled() : std::runtime_error("measurement cancelled") {}
};

/// Cooperative control of a long-running measurement, threaded from the
/// dodad server's job layer (src/server/) into the deterministic executors
/// (runTrials, replayShards, measureWithFaults), which all hand it to
/// foldInOrder. Neither hook ever changes the statistics: the progress
/// observer watches the same trial-order fold that produces the final
/// result, and cancellation aborts the whole run by throwing RunCancelled.
struct RunControl {
  /// Invoked each time the in-order fold advances: `folded` trials have
  /// been folded (in trial order, exactly as the final result folds them)
  /// and `snapshot` is that folded prefix. Called under the executor's fold
  /// lock from worker threads — must be fast, must not throw, and must not
  /// re-enter the executor.
  std::function<void(std::size_t folded, const MeasureResult& snapshot)>
      progress;
  /// Polled between trials (before each one and after each one finishes);
  /// when it reads true the run throws RunCancelled. Not owned; may be
  /// null.
  const std::atomic<bool>* cancel = nullptr;
};

/// Resolves a MeasureConfig::threads knob: 0 means
/// std::thread::hardware_concurrency(), and the result is clamped to
/// [1, trials] (no point spawning idle workers).
std::size_t resolveThreads(std::size_t requested, std::size_t trials);

/// Folds one trial outcome into the aggregate: failures count, successes
/// add interactions (and cost when present). Shared by every executor so
/// the synthetic and trace-replay folds are the same code.
void foldOutcome(MeasureResult& out, const TrialOutcome& outcome);

/// Per-trial seeds: seed i is the i-th draw of a util::Rng seeded with
/// `master_seed`, so a trial's randomness depends only on its index, never
/// on scheduling. The determinism anchor of runTrials, measureWithFaults
/// and the trace recorder (sim/trace_replay).
std::vector<std::uint64_t> drawTrialSeeds(std::uint64_t master_seed,
                                          std::size_t trials);

/// Reports a filled trial slot to foldInOrder (see SlotTask).
using SlotFilled = std::function<void(std::size_t slot)>;

/// One unit of foldInOrder's pool work. It stores the outcome of each
/// trial it runs in the caller's slot for that trial and then calls
/// `filled(slot)`. Each worker thread supplies one reusable
/// core::Engine::Scratch. Tasks run concurrently and must not touch shared
/// mutable state beyond their own slots.
using SlotTask = std::function<void(
    std::size_t task, core::Engine::Scratch& scratch,
    const SlotFilled& filled)>;

/// Folds slot `slot` into the caller's accumulator and returns the
/// MeasureResult a progress observer sees for the folded prefix.
using SlotFold = std::function<const MeasureResult&(std::size_t slot)>;

/// The in-order fold every executor shares (runTrials, replayShards,
/// measureWithFaults).
///
/// Runs `tasks` tasks that together fill `slots` per-trial slots, inline
/// in task order when the resolved thread count is 1, otherwise on a pool
/// of workers pulling task indices from a shared counter. Slots are then
/// folded in slot order through `fold`, whichever worker filled them
/// first, so the floating-point accumulation is identical for every thread
/// count and every task shape.
///
/// With a RunControl::progress observer the fold advances as the filled
/// prefix grows, and the observer sees each folded prefix. Without one,
/// slots are folded once every task has finished. RunControl::cancel is
/// polled before each task and after each filled slot. A set flag throws
/// RunCancelled.
///
/// The first exception from a task, or from starting a worker thread,
/// stops the pool (workers drain quickly) and is rethrown to the caller
/// once every started worker has been joined.
void foldInOrder(std::size_t slots, std::size_t tasks, std::size_t threads,
                 const RunControl* control, const SlotTask& task,
                 const SlotFold& fold);

/// Deterministic parallel trial executor — the experiment subsystem's core.
///
/// Trial i runs `body` with the i-th seed of drawTrialSeeds(master_seed),
/// and the outcomes are folded in trial order by foldInOrder. Results are
/// therefore bit-identical for every thread count, including 1 (which
/// runs inline without spawning).
///
/// An exception thrown by any trial body stops the run (workers drain
/// quickly) and is rethrown to the caller.
///
/// `control` (optional) attaches a progress observer and a cancel flag.
/// With an observer, the fold advances incrementally as the completed
/// prefix grows — same order, same floating-point accumulation, bit-
/// identical final result.
MeasureResult runTrials(std::size_t trials, std::uint64_t master_seed,
                        std::size_t threads, const TrialBody& body,
                        const RunControl* control = nullptr);

}  // namespace doda::sim
