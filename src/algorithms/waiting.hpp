#pragma once

#include "core/algorithm.hpp"

namespace doda::algorithms {

/// The Waiting algorithm W (paper §4): a node transmits only when it is
/// connected to the sink. Oblivious, no knowledge.
///
///   W(u1, u2, t) = u_i  if u_i.isSink,   ⊥ otherwise.
///
/// Under the randomized adversary, W terminates in
/// E[X_W] = n(n-1)/2 * H(n-1) = O(n^2 log n) interactions (paper Thm 9).
class Waiting final : public core::DodaAlgorithm {
 public:
  std::string name() const override { return "Waiting"; }
  bool isOblivious() const override { return true; }
  std::string knowledge() const override { return "none"; }

  std::optional<core::NodeId> decide(const core::Interaction& i,
                                     core::Time /*t*/,
                                     const core::ExecutionView& view) override {
    const auto sink = view.system().sink;
    if (i.involves(sink)) return sink;
    return std::nullopt;
  }
};

}  // namespace doda::algorithms
