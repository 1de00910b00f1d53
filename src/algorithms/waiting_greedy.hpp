#pragma once

#include <optional>

#include "core/algorithm.hpp"
#include "dynagraph/oracles.hpp"

namespace doda::algorithms {

/// The Waiting Greedy algorithm WG_tau (paper §4), using the meetTime
/// knowledge: at interaction {u1, u2} at time t, with m_i = u_i.meetTime(t)
/// (the time of u_i's next interaction with the sink; identity for the sink
/// itself):
///
///   WG_tau(u1, u2, t) = u1 if m1 <= m2 and tau < m2
///                       u2 if m1 >  m2 and tau < m1
///                       ⊥  otherwise
///
/// i.e. the node with the later sink meeting transmits, but only if that
/// meeting falls beyond the horizon tau; nodes meeting the sink before tau
/// keep their data (they will deliver it directly). After time tau the
/// algorithm degenerates to Gathering in whether a transfer happens, but
/// the earlier meeting still picks the receiver.
///
/// decide() asks the oracle only these two facts (MeetTimeOracle::
/// meetOrder), so the exact oracle reads the sequence only up to
/// min(m_later, max(m_earlier, tau + 1)): once the earlier meeting is known
/// and the later one is known to lie beyond tau, it need not be found.
/// On a tie m1 = m2 (with the exact oracle, both kNever) u1 receives.
///
/// With tau = Theta(n^{3/2} sqrt(log n)) the algorithm terminates within
/// tau interactions w.h.p. (paper Thm 10 / Cor 3), optimal among all
/// algorithms knowing only meetTime (Thm 11).
///
/// The knowledge is abstracted behind dynagraph::MeetTimeOracle, so the
/// same algorithm runs with exact, windowed (bounded-foresight) or
/// quantized (fixed-memory) meetTime — the ablations suggested by the
/// paper's concluding remarks #1 and #2. A meeting the oracle does not
/// know (kNever) behaves as "later than everything" — the correct limit.
class WaitingGreedy final : public core::DodaAlgorithm {
 public:
  /// Runs with the exact oracle backed by `index` (the paper's setting).
  /// The index must outlive the algorithm and must be backed by the very
  /// sequence the adversary plays.
  WaitingGreedy(dynagraph::MeetTimeIndex& index, core::Time tau)
      : exact_(std::in_place, index), oracle_(&*exact_), tau_(tau) {}

  /// Runs with an arbitrary (possibly degraded) meetTime oracle.
  WaitingGreedy(dynagraph::MeetTimeOracle& oracle, core::Time tau)
      : oracle_(&oracle), tau_(tau) {}

  std::string name() const override { return "WaitingGreedy"; }
  bool isOblivious() const override { return true; }
  std::string knowledge() const override { return "meetTime"; }

  core::Time tau() const noexcept { return tau_; }

  std::optional<core::NodeId> decide(const core::Interaction& i,
                                     core::Time t,
                                     const core::ExecutionView& /*view*/)
      override {
    const dynagraph::MeetOrder order =
        oracle_->meetOrder(i.a(), i.b(), t, tau_);
    if (!order.later_beyond) return std::nullopt;
    return order.a_first ? i.a() : i.b();
  }

 private:
  std::optional<dynagraph::ExactMeetTimeOracle> exact_;
  dynagraph::MeetTimeOracle* oracle_;
  core::Time tau_;
};

}  // namespace doda::algorithms
