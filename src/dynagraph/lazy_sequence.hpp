#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "dynagraph/interaction_sequence.hpp"

namespace doda::dynagraph {

/// A growable interaction sequence backed by a block generator.
///
/// The randomized adversary (paper §4) conceptually commits to an infinite
/// random sequence; algorithms with `meetTime` or `future` knowledge read
/// that committed randomness. LazySequence realizes this: interactions are
/// generated on demand and, once generated, never change — so the oracle
/// answers and the actual execution always agree. A replayed trace trial is
/// served the same way, its generator decoding from the shard reader, so a
/// trial is realized only as far as it is read.
///
/// The generator produces whole chunks, amortizing the std::function
/// dispatch over kChunk interactions — the engine hot path's
/// per-interaction cost collapses to a bounds check. Chunked generation
/// commits slightly ahead of demand, which is exactly the
/// committed-randomness model (the values at any given time are fixed;
/// only how far the prefix has been realized depends on the chunking).
class LazySequence {
 public:
  /// Appends exactly `count` interactions (times begin, begin+1, ...) to
  /// `out`. Must be a pure function of its own captured state called with
  /// contiguous, strictly increasing blocks.
  using BlockGenerator =
      std::function<void(Time begin, std::size_t count,
                         std::vector<Interaction>& out)>;

  /// Interactions generated per BlockGenerator call (fewer only at
  /// max_length).
  static constexpr std::size_t kChunk = 256;

  /// `generator(begin, count, out)` appends the block [begin, begin +
  /// count) in one call. `max_length` bounds total generation (throws
  /// std::length_error beyond it): a runaway-experiment guard, or a
  /// replayed trial's recorded length.
  explicit LazySequence(BlockGenerator generator,
                        Time max_length = Time{1} << 34);

  /// The interaction at time t, generating it (and everything before it)
  /// if needed.
  const Interaction& at(Time t);

  /// Extends generation so that times [0, t] exist (up to a chunk further,
  /// never past max_length).
  void ensure(Time t);

  /// How many interactions exist so far.
  Time generatedLength() const noexcept { return buffer_.length(); }

  Time maxLength() const noexcept { return max_length_; }

  /// Read-only view of the committed prefix.
  const InteractionSequence& committed() const noexcept { return buffer_; }

 private:
  BlockGenerator generator_;
  InteractionSequence buffer_;
  std::vector<Interaction> chunk_scratch_;
  Time max_length_;
};

}  // namespace doda::dynagraph
