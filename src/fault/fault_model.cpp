#include "fault/fault_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace doda::fault {

using dynagraph::kNever;

namespace {

bool isProbability(double p) noexcept {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

void requireProbability(double p, const char* what) {
  if (!isProbability(p))
    throw std::invalid_argument(std::string("FaultModel: ") + what +
                                " must be a probability in [0, 1]");
}

/// Whether the loss process is the Gilbert–Elliott channel (see
/// FaultModel): only a channel that can leave the good state or lose in it
/// ever loses anything.
bool gilbertElliottChannel(double enter_bad, double loss_good) noexcept {
  return enter_bad > 0.0 || loss_good > 0.0;
}

}  // namespace

bool FaultModel::faultFree() const noexcept {
  const bool lossy = loss_p > 0.0 || ge_loss_good > 0.0 ||
                     (ge_enter_bad > 0.0 && ge_loss_bad > 0.0);
  return !lossy && crash_fraction <= 0.0 && byzantine_fraction <= 0.0;
}

FaultModel FaultModel::bernoulliLoss(double p) noexcept {
  FaultModel m;
  m.loss_p = p;
  return m;
}

FaultModel FaultModel::gilbertElliott(double enter_bad, double exit_bad,
                                      double loss_good,
                                      double loss_bad) noexcept {
  FaultModel m;
  m.ge_enter_bad = enter_bad;
  m.ge_exit_bad = exit_bad;
  m.ge_loss_good = loss_good;
  m.ge_loss_bad = loss_bad;
  return m;
}

FaultModel FaultModel::crashStop(double fraction, Time horizon) noexcept {
  FaultModel m;
  m.crash_fraction = fraction;
  m.crash_horizon = horizon;
  return m;
}

FaultModel FaultModel::byzantine(double fraction) noexcept {
  FaultModel m;
  m.byzantine_fraction = fraction;
  return m;
}

void FaultModel::validate() const {
  requireProbability(loss_p, "loss_p");
  requireProbability(ge_enter_bad, "ge_enter_bad");
  requireProbability(ge_exit_bad, "ge_exit_bad");
  requireProbability(ge_loss_good, "ge_loss_good");
  requireProbability(ge_loss_bad, "ge_loss_bad");
  requireProbability(crash_fraction, "crash_fraction");
  requireProbability(byzantine_fraction, "byzantine_fraction");
  if (loss_p > 0.0 && gilbertElliottChannel(ge_enter_bad, ge_loss_good))
    throw std::invalid_argument(
        "FaultModel: loss_p and the Gilbert-Elliott channel are mutually "
        "exclusive");
  if (crash_fraction > 0.0 && crash_horizon == 0)
    throw std::invalid_argument(
        "FaultModel: crash_fraction > 0 needs crash_horizon > 0");
}

FaultPlan FaultPlan::draw(const FaultModel& model, std::size_t node_count,
                          NodeId sink, std::uint64_t plan_seed) {
  model.validate();
  if (node_count < 2)
    throw std::invalid_argument("FaultPlan::draw: need at least 2 nodes");
  if (sink >= node_count)
    throw std::invalid_argument("FaultPlan::draw: sink out of range");

  FaultPlan plan;
  plan.loss_p = model.loss_p;
  plan.ge_enter_bad = model.ge_enter_bad;
  plan.ge_exit_bad = model.ge_exit_bad;
  plan.ge_loss_good = model.ge_loss_good;
  plan.ge_loss_bad = model.ge_loss_bad;
  plan.crash_times.assign(node_count, kNever);
  plan.byzantine.assign(node_count, 0);

  // Fixed draw order (loss stream seed, then per non-sink node: Byzantine
  // flag, then crash flag + time) makes the plan a pure function of
  // (model, node_count, sink, plan_seed).
  util::Rng rng(plan_seed);
  plan.loss_seed = rng();
  for (NodeId u = 0; u < node_count; ++u) {
    if (u == sink) continue;
    if (model.byzantine_fraction > 0.0 &&
        rng.chance(model.byzantine_fraction)) {
      plan.byzantine[u] = 1;
      continue;  // Byzantine nodes never crash — they stay to do damage
    }
    if (model.crash_fraction > 0.0 && rng.chance(model.crash_fraction))
      plan.crash_times[u] = static_cast<Time>(
          rng.below(static_cast<std::uint64_t>(model.crash_horizon)));
  }
  return plan;
}

FaultSession::FaultSession(FaultPlan plan) : plan_(std::move(plan)) {
  if (plan_.crash_times.size() != plan_.byzantine.size())
    throw std::invalid_argument("FaultSession: inconsistent plan sizes");
}

void FaultSession::reset(const core::SystemInfo& info) {
  if (plan_.nodeCount() != info.node_count)
    throw std::invalid_argument("FaultSession: plan drawn for " +
                                std::to_string(plan_.nodeCount()) +
                                " nodes, run has " +
                                std::to_string(info.node_count));
  loss_rng_ = util::Rng(plan_.loss_seed);
  ge_bad_ = false;
  verdict_ = false;
}

void FaultSession::beginInteraction(Time /*t*/) {
  // Exactly one advance per dispatched interaction, transfer or not: the
  // verdict for time t is a pure function of (loss_seed, t), independent of
  // what the algorithm does — the determinism contract the golden tests pin.
  // Without a loss process verdict_ stays false from reset().
  if (plan_.loss_p > 0.0) {
    verdict_ = loss_rng_.chance(plan_.loss_p);
  } else if (gilbertElliottChannel(plan_.ge_enter_bad, plan_.ge_loss_good)) {
    verdict_ =
        loss_rng_.chance(ge_bad_ ? plan_.ge_loss_bad : plan_.ge_loss_good);
    ge_bad_ = loss_rng_.chance(ge_bad_ ? 1.0 - plan_.ge_exit_bad
                                       : plan_.ge_enter_bad);
  }
}

bool FaultSession::transmissionLost(Time /*t*/) { return verdict_; }

}  // namespace doda::fault
