#pragma once

#include "core/adversary.hpp"
#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/lazy_sequence.hpp"

namespace doda::adversary {

/// The oblivious adversary (paper §2.2): the whole sequence of interactions
/// is fixed before the execution starts. Also used to replay traces
/// (body-sensor, vehicular) and crafted counterexample sequences.
class SequenceAdversary final : public core::Adversary {
 public:
  /// The sequence is copied; replays I_0, I_1, ... then reports exhaustion.
  explicit SequenceAdversary(dynagraph::InteractionSequence sequence)
      : sequence_(std::move(sequence)) {}

  std::string name() const override { return "oblivious-sequence"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    if (t >= sequence_.length()) return std::nullopt;
    return sequence_.at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    return dynagraph::InteractionSequenceView(sequence_).from(t);
  }

  const dynagraph::InteractionSequence& sequence() const noexcept {
    return sequence_;
  }

 private:
  dynagraph::InteractionSequence sequence_;
};

/// Zero-copy variant of SequenceAdversary: replays a borrowed
/// InteractionSequenceView. The measurement loops use it to replay
/// per-trial materialized sequences (and decoded trace-shard trials)
/// without the per-trial copy SequenceAdversary would take. The viewed
/// storage must outlive the adversary.
class SequenceViewAdversary final : public core::Adversary {
 public:
  explicit SequenceViewAdversary(dynagraph::InteractionSequenceView view)
      : view_(view) {}

  std::string name() const override { return "oblivious-sequence-view"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    if (t >= view_.length()) return std::nullopt;
    return view_.at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    return view_.from(t);
  }

  dynagraph::InteractionSequenceView sequence() const noexcept {
    return view_;
  }

 private:
  dynagraph::InteractionSequenceView view_;
};

/// The engine's side of an online trial: serves a LazySequence, which
/// commits the randomized adversary's sequence only as far as it is read,
/// and reports exhaustion at its max_length. The sequence must outlive the
/// adversary.
class LazySequenceAdversary final : public core::Adversary {
 public:
  explicit LazySequenceAdversary(dynagraph::LazySequence& sequence)
      : sequence_(sequence) {}

  std::string name() const override { return "lazy-sequence"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    if (t >= sequence_.maxLength()) return std::nullopt;
    return sequence_.at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    if (t >= sequence_.maxLength()) return {};
    return sequence_.committedFrom(t);
  }

 private:
  dynagraph::LazySequence& sequence_;
};

}  // namespace doda::adversary
