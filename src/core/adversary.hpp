#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/execution_view.hpp"

namespace doda::core {

/// Interface of the adversary that controls the dynamic graph (paper §2.2):
/// the adversary decides which pairwise interaction occurs at each time.
///
/// The engine pulls interaction t from the adversary *after* the effects of
/// interaction t-1 are visible in the ExecutionView, which is exactly the
/// power of the online adaptive adversary. Oblivious and randomized
/// adversaries simply ignore the view.
class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::string name() const = 0;

  /// Called once before each execution.
  virtual void reset(const SystemInfo& /*info*/) {}

  /// The interaction at time t, or std::nullopt if the adversary has no
  /// further interactions to offer (finite sequences only; the engine then
  /// stops without termination).
  virtual std::optional<Interaction> next(Time t,
                                          const ExecutionView& view) = 0;

  /// The interactions at times t, t+1, ... that are already fixed whatever
  /// the execution does (an oblivious or randomized adversary's committed
  /// sequence), so the engine can walk them without a call per
  /// interaction. Each element must equal what next() returns at its time.
  /// Empty (the default) when nothing is committed at t: an adaptive
  /// adversary, or the end of a finite sequence; the engine then asks
  /// next(). The span is valid until the next call into the adversary, the
  /// algorithm or an oracle that may extend the committed sequence.
  virtual std::span<const Interaction> committedFrom(Time /*t*/) {
    return {};
  }
};

}  // namespace doda::core
