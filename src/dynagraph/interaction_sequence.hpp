#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "dynagraph/interaction.hpp"
#include "graph/static_graph.hpp"

namespace doda::dynagraph {

/// A finite prefix of a dynamic graph: the sequence (I_0, I_1, ..., I_{T-1}).
///
/// The index of an interaction is its time of occurrence (paper §2). This is
/// the oblivious-adversary object: the whole execution is fixed up front.
class InteractionSequence {
 public:
  InteractionSequence() = default;
  explicit InteractionSequence(std::vector<Interaction> interactions)
      : interactions_(std::move(interactions)) {}
  InteractionSequence(std::initializer_list<Interaction> interactions)
      : interactions_(interactions) {}

  Time length() const noexcept { return interactions_.size(); }
  bool empty() const noexcept { return interactions_.empty(); }

  const Interaction& at(Time t) const;
  void append(Interaction i) { interactions_.push_back(i); }
  void appendAll(const InteractionSequence& other);

  const std::vector<Interaction>& interactions() const noexcept {
    return interactions_;
  }

  /// Subsequence [from, to) as a new sequence. Clamps to bounds.
  InteractionSequence slice(Time from, Time to) const;

  /// Time-reversed copy. Reversal turns a convergecast into a broadcast and
  /// vice versa (used by the offline-optimal computation, paper Thm 8).
  InteractionSequence reversed() const;

  /// Concatenation of `copies` copies of this sequence.
  InteractionSequence repeated(std::size_t copies) const;

  /// The underlying graph G̅ = (V, E) with E = { {u,v} | ∃t, I_t = {u,v} }
  /// (paper §3.2). `node_count` fixes |V| (ids beyond the max seen are
  /// isolated). Throws if an interaction references a node >= node_count.
  graph::StaticGraph underlyingGraph(std::size_t node_count) const;

  /// Largest node id appearing in the sequence plus one (0 when empty).
  std::size_t minNodeCount() const;

  /// Two sequences are equal iff their interactions are equal.
  friend bool operator==(const InteractionSequence&,
                         const InteractionSequence&) = default;

 private:
  // LazySequence generates straight into its committed sequence's storage.
  friend class LazySequence;

  std::vector<Interaction> interactions_;
};

/// Non-owning, trivially copyable window onto a run of interactions — the
/// streamed counterpart of InteractionSequence. The engine-facing consumers
/// (schedule validation, replay adversaries) take this view so a trial can
/// be served from a block-read trace shard or a borrowed sequence without
/// copying into an owned vector. The viewed storage must outlive the view
/// (and must not be appended to while viewed: vector growth relocates the
/// buffer).
class InteractionSequenceView {
 public:
  constexpr InteractionSequenceView() = default;
  constexpr InteractionSequenceView(const Interaction* data,
                                    std::size_t size) noexcept
      : data_(data), size_(size) {}
  /// Implicit on purpose: every API taking a view keeps accepting an
  /// InteractionSequence unchanged.
  InteractionSequenceView(const InteractionSequence& sequence) noexcept
      : data_(sequence.interactions().data()),
        size_(sequence.interactions().size()) {}

  Time length() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bounds-checked access, mirroring InteractionSequence::at.
  const Interaction& at(Time t) const;

  const Interaction* begin() const noexcept { return data_; }
  const Interaction* end() const noexcept { return data_ + size_; }

  /// The interactions at times [t, length()); empty when t >= length().
  std::span<const Interaction> from(Time t) const noexcept {
    if (t >= size_) return {};
    return {data_ + t, static_cast<std::size_t>(size_ - t)};
  }

  /// Owned copy (for callers that need to outlive the backing storage).
  InteractionSequence materialize() const {
    return InteractionSequence(std::vector<Interaction>(begin(), end()));
  }

 private:
  const Interaction* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace doda::dynagraph
