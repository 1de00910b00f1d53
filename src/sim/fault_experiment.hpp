#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/degradation.hpp"
#include "sim/experiment.hpp"

namespace doda::sim {

/// Aggregate outcome of a faulted measurement. `interactions` covers
/// completed trials only (under faults a trial may never complete);
/// everything else lives in the degradation accumulator, folded over all
/// trials in trial order — bit-identical for every thread count.
struct FaultMeasureResult {
  /// Interactions to complete, over completed trials.
  util::RunningStats interactions;
  analysis::DegradationAccumulator degradation;
  /// Trials that hit max_interactions (or the doubling cap) neither
  /// completed nor blocked.
  std::size_t timed_out_trials = 0;
};

/// One point of a fault-severity sweep.
struct FaultSweepPoint {
  std::string label;
  fault::FaultModel model;
};

/// FaultSweepPoint plus its measurement.
struct FaultSweepResult {
  std::string label;
  fault::FaultModel model;
  FaultMeasureResult result;
};

/// Measures the factory-built algorithm on fixed per-trial sequences under
/// `config.faults`. Per trial, one FaultPlan is pre-drawn from the trial
/// seed (before any sequence randomness, so the plan is invariant under the
/// doubling extension) and the engine runs its faulty loop; completed
/// trials additionally record cost inflation = interactions-to-complete
/// divided by the fault-free offline optimum (opt(0) + 1) of the same
/// sequence. A trial reads its sequence bounded at `length_hint` and
/// doubles the bound like measureWithCost (runDoublingAttempts): it stops
/// extending as soon as it completes or blocks (a blocked run can never
/// make further progress), after `max_doublings` doublings, or once the
/// bound has reached config.max_interactions. Throws
/// std::invalid_argument on a zero `length_hint`, which never grows.
FaultMeasureResult measureWithFaults(const MeasureConfig& config,
                                     core::Time length_hint,
                                     const AlgorithmFactory& factory,
                                     std::size_t max_doublings = 8);

/// Runs measureWithFaults once per sweep point (same seed for every point,
/// so the severity axis is the only thing that varies) and returns the
/// degradation curve.
std::vector<FaultSweepResult> measureUnderFaults(
    const MeasureConfig& config, core::Time length_hint,
    std::span<const FaultSweepPoint> sweep, const AlgorithmFactory& factory,
    std::size_t max_doublings = 8);

}  // namespace doda::sim
