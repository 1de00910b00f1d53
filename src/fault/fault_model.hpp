#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "util/rng.hpp"

namespace doda::fault {

using core::NodeId;
using core::Time;

/// Declarative description of a fault regime. A FaultModel is the sweep
/// axis (what kind/severity of faults); the randomness is only committed
/// when a FaultPlan is drawn from it for one trial.
///
/// The loss process applied to individual transmissions follows from the
/// parameters: independent (Bernoulli) loss when `loss_p` > 0; the
/// Gilbert–Elliott burst channel when `ge_enter_bad` > 0 or
/// `ge_loss_good` > 0; otherwise no loss. validate() rejects a model that
/// sets both.
struct FaultModel {
  /// Bernoulli per-attempt loss probability.
  double loss_p = 0.0;
  /// Gilbert–Elliott transition probabilities (good->bad, bad->good) and
  /// per-state loss rates: a good/bad channel Markov chain, starting good
  /// and advanced once per interaction. The defaults, with `ge_enter_bad`
  /// left at 0, never lose anything.
  double ge_enter_bad = 0.0;
  double ge_exit_bad = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;
  /// Each non-sink, non-Byzantine node crash-stops independently with this
  /// probability, at a time drawn uniformly from [0, crash_horizon).
  double crash_fraction = 0.0;
  Time crash_horizon = 0;
  /// Each non-sink node is Byzantine with this probability (drawn before
  /// the crash draw; a Byzantine node never crashes — it stays around to
  /// do damage).
  double byzantine_fraction = 0.0;

  /// True iff a plan drawn from this model can never fault anything: no
  /// transmission is ever lost, no node crashes and none is Byzantine.
  /// measureWithFaults does not consult it: a fault-free model runs the
  /// same faulty engine loop as any other.
  bool faultFree() const noexcept;

  static FaultModel none() noexcept { return {}; }
  static FaultModel bernoulliLoss(double p) noexcept;
  static FaultModel gilbertElliott(double enter_bad, double exit_bad,
                                   double loss_good, double loss_bad) noexcept;
  static FaultModel crashStop(double fraction, Time horizon) noexcept;
  static FaultModel byzantine(double fraction) noexcept;

  /// Throws std::invalid_argument unless every probability is a finite
  /// value in [0, 1], at most one loss process is set and crash parameters
  /// are consistent.
  void validate() const;
};

/// The committed randomness of one trial's faults, pre-drawn from a single
/// plan seed so every injector answer is a pure function of the plan —
/// trials stay bit-identical for any thread count.
struct FaultPlan {
  /// Loss process parameters copied from the model (the loss stream itself
  /// is generated online from `loss_seed`, one draw per interaction).
  double loss_p = 0.0;
  double ge_enter_bad = 0.0;
  double ge_exit_bad = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;
  std::uint64_t loss_seed = 0;
  /// Per-node crash times (dynagraph::kNever = never crashes) and
  /// Byzantine flags; the sink's entries are always kNever / 0.
  std::vector<Time> crash_times;
  std::vector<std::uint8_t> byzantine;

  std::size_t nodeCount() const noexcept { return crash_times.size(); }

  /// Draws a plan for an n-node system from `plan_seed`. Deterministic:
  /// the draw order is fixed (per node: Byzantine flag, then crash), so a
  /// given (model, n, sink, seed) always yields the same plan.
  static FaultPlan draw(const FaultModel& model, std::size_t node_count,
                        NodeId sink, std::uint64_t plan_seed);

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) = default;
};

/// core::FaultInjector over a pre-drawn FaultPlan. The loss stream is
/// re-seeded from the plan on every reset(), so one session can serve many
/// runs of the same trial (doubling extensions replay the same faults for
/// the shared prefix of interactions).
class FaultSession final : public core::FaultInjector {
 public:
  explicit FaultSession(FaultPlan plan);

  void reset(const core::SystemInfo& info) override;
  Time crashTime(NodeId u) const override { return plan_.crash_times[u]; }
  bool isByzantine(NodeId u) const override {
    return plan_.byzantine[u] != 0;
  }
  void beginInteraction(Time t) override;
  bool transmissionLost(Time t) override;

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  util::Rng loss_rng_{0};  // reseeded from plan_.loss_seed on reset()
  bool ge_bad_ = false;
  bool verdict_ = false;
};

}  // namespace doda::fault
