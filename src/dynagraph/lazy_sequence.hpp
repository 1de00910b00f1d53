#pragma once

#include <functional>
#include <span>
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
/// dispatch over kChunk interactions, and appends them straight into the
/// committed buffer; the engine walks that buffer a block at a time
/// (committedFrom). Chunked generation commits slightly ahead of demand,
/// which is exactly the committed-randomness model (the values at any
/// given time are fixed; only how far the prefix has been realized depends
/// on the chunking).
///
/// The committed buffer's capacity outlives the sequence: on destruction it
/// is parked on its thread, and the next LazySequence built on that thread
/// grows into it instead of faulting in fresh pages. A thread keeps the
/// largest buffer it has parked until it exits.
class LazySequence {
 public:
  /// Appends exactly `count` interactions (times begin, begin+1, ...) to
  /// `out`, the committed buffer itself (which already holds [0, begin)).
  /// Must be a pure function of its own captured state called with
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
  ~LazySequence();
  LazySequence(const LazySequence&) = delete;
  LazySequence& operator=(const LazySequence&) = delete;

  /// The interaction at time t, generating it (and everything before it)
  /// if needed.
  const Interaction& at(Time t);

  /// Extends generation so that times [0, t] exist (up to a chunk further,
  /// never past max_length).
  void ensure(Time t);

  /// The committed interactions at times [t, generatedLength()), after
  /// ensure(t): never empty. The span is invalidated by the next extension
  /// (a later ensure, or a meetTime oracle growing the sequence).
  std::span<const Interaction> committedFrom(Time t) {
    ensure(t);
    return InteractionSequenceView(buffer_).from(t);
  }

  /// How many interactions exist so far.
  Time generatedLength() const noexcept { return buffer_.length(); }

  Time maxLength() const noexcept { return max_length_; }

  /// Read-only view of the committed prefix.
  const InteractionSequence& committed() const noexcept { return buffer_; }

 private:
  BlockGenerator generator_;
  InteractionSequence buffer_;
  Time max_length_;
};

}  // namespace doda::dynagraph
