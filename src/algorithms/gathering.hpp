#pragma once

#include "core/algorithm.hpp"

namespace doda::algorithms {

/// The Gathering algorithm GA (paper §4): a node transmits whenever it is
/// connected to the sink or to another node owning data. Oblivious, no
/// knowledge. Symmetry is broken by node identifiers: the smaller-id node
/// (the paper's u1) receives.
///
///   GA(u1, u2, t) = u_i  if u_i.isSink,   u1 otherwise.
///
/// Under the randomized adversary, GA terminates in
/// E[X_G] = n(n-1) * sum 1/(i(i+1)) = O(n^2) interactions (paper Thm 9) —
/// which is optimal for algorithms with no knowledge (Thm 7 / Cor 2).
class Gathering final : public core::DodaAlgorithm {
 public:
  std::string name() const override { return "Gathering"; }
  bool isOblivious() const override { return true; }
  std::string knowledge() const override { return "none"; }

  std::optional<core::NodeId> decide(const core::Interaction& i,
                                     core::Time /*t*/,
                                     const core::ExecutionView& view) override {
    const auto sink = view.system().sink;
    if (i.involves(sink)) return sink;
    return i.a();  // interaction endpoints are ordered by id: a() is u1
  }
};

}  // namespace doda::algorithms
