#pragma once

#include <optional>
#include <string>

#include "core/execution_view.hpp"

namespace doda::core {

/// Interface of a distributed online data aggregation (DODA) algorithm
/// (paper §2.1).
///
/// A DODA algorithm is invoked on each interaction I_t = {u, v} in which
/// *both* endpoints still own data, and outputs either the receiver (the
/// other node transmits, aggregates its datum into the receiver, and is out
/// of the computation for good) or nothing (no transfer).
///
/// The engine guarantees:
///  * decide() is only called when both endpoints own data;
///  * the interaction is normalized with a() < b() (the paper's "nodes are
///    given ordered by their identifiers" symmetry-breaking convention).
///
/// The engine enforces (throws ModelViolation on): returning a node that is
/// not an endpoint, and making the sink transmit.
///
/// Implementations that keep no per-node state between interactions are
/// *oblivious* (the paper's D∅ODA class) and report it via isOblivious().
class DodaAlgorithm {
 public:
  virtual ~DodaAlgorithm() = default;

  virtual std::string name() const = 0;

  /// True when the algorithm uses no persistent node memory (D∅ODA).
  virtual bool isOblivious() const { return true; }

  /// Human-readable description of the knowledge oracle(s) used, e.g.
  /// "none", "meetTime", "underlying graph", "future", "full".
  virtual std::string knowledge() const { return "none"; }

  /// Called once before each execution; resets any per-execution state.
  virtual void reset(const SystemInfo& /*info*/) {}

  /// Decision for interaction `i` at time `t`: the receiver id, or
  /// std::nullopt for no transfer.
  virtual std::optional<NodeId> decide(const Interaction& i, Time t,
                                       const ExecutionView& view) = 0;
};

}  // namespace doda::core
