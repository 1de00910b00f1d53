#pragma once

#include <vector>

#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/lazy_sequence.hpp"

namespace doda::dynagraph {

/// Realizes the `meetTime` knowledge of the paper (§2.1):
///
///   u.meetTime(t) = smallest t' > t with I_{t'} = {u, s}
///   s.meetTime(t) = t (identity, by definition)
///
/// Two backings are supported:
///  * a fixed InteractionSequence (oblivious adversary), where a query
///    past the last meeting returns kNever;
///  * a LazySequence (randomized adversary, trace replay), where the index
///    extends the committed sequence on demand until a meeting is found or
///    the sequence reaches its max_length (then kNever, exactly as a fixed
///    backing of that length would answer).
///
/// Queries keep a monotone cursor per node: during an execution, meetTime
/// is queried with nondecreasing t (the engine's clock only advances), so
/// each query advances the node's cursor by at most the number of meetings
/// skipped — amortized O(1) per query instead of a binary search over the
/// full meeting list. Queries that go *back* in time (tests, analysis) fall
/// back to a binary search and reposition the cursor.
class MeetTimeIndex {
 public:
  /// Index over a fixed sequence. The sequence must outlive the index.
  MeetTimeIndex(const InteractionSequence& sequence, NodeId sink,
                std::size_t node_count);

  /// Index over a lazily generated sequence. The sequence must outlive the
  /// index. `extension_chunk` controls how much of the sequence is
  /// committed per failed lookup round (the last round stops at
  /// max_length).
  MeetTimeIndex(LazySequence& sequence, NodeId sink, std::size_t node_count,
                Time extension_chunk = 1 << 16);

  NodeId sink() const noexcept { return sink_; }

  /// The paper's u.meetTime(t). May extend a lazy backing sequence.
  Time meetTime(NodeId u, Time t);

  /// All sink-meeting times of `u` discovered so far (ascending). Mostly
  /// for tests and analysis (Lemma 1 experiments).
  const std::vector<Time>& knownMeetings(NodeId u) const;

  /// How far the index has scanned the backing sequence.
  Time indexedLength() const noexcept { return scanned_; }

 private:
  void scanUpTo(Time end);       // index [scanned_, end) of the fixed view
  bool tryExtendBacking();       // lazy backing only; false if exhausted
  const InteractionSequence& view() const;

  const InteractionSequence* fixed_ = nullptr;
  LazySequence* lazy_ = nullptr;
  NodeId sink_;
  Time extension_chunk_ = 0;
  Time scanned_ = 0;
  std::vector<std::vector<Time>> meetings_;  // per node, ascending
  // Monotone query cursors: every meeting of u at an index < cursor_[u] is
  // known to be <= last_query_[u], so a query at t >= last_query_[u] only
  // advances the cursor.
  std::vector<std::size_t> cursor_;
  std::vector<Time> last_query_;
};

}  // namespace doda::dynagraph
