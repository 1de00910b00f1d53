#pragma once

/// Shared helpers for the reproduction benches.
///
/// Every bench binary reproduces one experiment of the paper's experiment
/// grid (E1..E12, see "Experiments" in PAPER.md). The scientific
/// quantities (interaction counts, ratios to the paper's closed forms,
/// fitted exponents) are exported as benchmark counters so the "rows" of
/// each reproduced result appear directly in the benchmark output;
/// wall-clock timing is incidental.

#include <benchmark/benchmark.h>

#include <memory>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"

namespace doda::bench {

/// Default trial count per design point: enough for stable means, small
/// enough that the full suite stays fast.
inline constexpr std::size_t kTrials = 48;

inline sim::MeasureConfig configFor(std::size_t n, std::uint64_t seed,
                                    std::size_t trials = kTrials) {
  sim::MeasureConfig config;
  config.node_count = n;
  config.trials = trials;
  config.seed = seed;
  return config;
}

inline sim::AlgorithmFactory gathering() {
  return [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
}

inline sim::AlgorithmFactory waiting() {
  return [](sim::TrialContext&) {
    return std::make_unique<algorithms::Waiting>();
  };
}

inline sim::AlgorithmFactory waitingGreedy(core::Time tau) {
  return [tau](sim::TrialContext& ctx) {
    return std::make_unique<algorithms::WaitingGreedy>(ctx.meet_time, tau);
  };
}

}  // namespace doda::bench
