#pragma once

#include <vector>

#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/lazy_sequence.hpp"

namespace doda::dynagraph {

/// What WG_tau (paper §4) needs to know at an interaction {a, b} at time
/// t, with m_x = x.meetTime(t): which endpoint meets the sink first, and
/// whether the later meeting lies beyond the horizon tau.
struct MeetOrder {
  bool a_first = false;       // m_a <= m_b
  bool later_beyond = false;  // max(m_a, m_b) > horizon

  friend bool operator==(const MeetOrder&, const MeetOrder&) = default;
};

/// Realizes the `meetTime` knowledge of the paper (§2.1):
///
///   u.meetTime(t) = smallest t' > t with I_{t'} = {u, s}
///   s.meetTime(t) = t (identity, by definition)
///
/// Two backings are supported:
///  * a fixed InteractionSequence (oblivious adversary), where a query
///    past the last meeting returns kNever;
///  * a LazySequence (randomized adversary, trace replay), which the index
///    commits as it scans, up to the sequence's max_length (then kNever,
///    exactly as a fixed backing of that length would answer).
///
/// Either backing is indexed on demand, one LazySequence::kChunk at a
/// time, only as far as a query needs: meetTime(u, t) stops at u's next
/// meeting, and meetOrder at the point that settles WG_tau's decision. So
/// a trial generates and indexes little more than the prefix that decides
/// it.
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
  /// index. A query that scans past the committed prefix commits the next
  /// LazySequence::kChunk interactions (the last step stops at
  /// max_length).
  MeetTimeIndex(LazySequence& sequence, NodeId sink, std::size_t node_count);

  NodeId sink() const noexcept { return sink_; }

  /// The paper's u.meetTime(t). May extend a lazy backing sequence.
  Time meetTime(NodeId u, Time t);

  /// WG_tau's decision facts for {a, b} at t, equal to comparing
  /// meetTime(a, t) and meetTime(b, t), but scanning only to
  /// min(later, max(earlier, horizon + 1)): the later meeting need not be
  /// found once the earlier one is known and the scanned prefix shows that
  /// the later one lies beyond the horizon. May extend a lazy backing.
  MeetOrder meetOrder(NodeId a, NodeId b, Time t, Time horizon);

  /// All sink-meeting times of `u` discovered so far (ascending). Mostly
  /// for tests and analysis (Lemma 1 experiments).
  const std::vector<Time>& knownMeetings(NodeId u) const;

  /// How far the index has scanned the backing sequence.
  Time indexedLength() const noexcept { return scanned_; }

 private:
  void checkNode(NodeId u) const;
  /// u's first meeting after t among those indexed so far; kNever if it
  /// lies past the indexed prefix. Advances u's cursor.
  Time knownMeetTime(NodeId u, Time t);
  /// Indexes the next kChunk interactions, committing them first on a lazy
  /// backing; false if the backing is exhausted.
  bool indexNextChunk();
  InteractionSequenceView view() const;

  const InteractionSequence* fixed_ = nullptr;
  LazySequence* lazy_ = nullptr;
  NodeId sink_;
  Time scanned_ = 0;
  std::vector<std::vector<Time>> meetings_;  // per node, ascending
  // Monotone query cursors: every meeting of u at an index < cursor_[u] is
  // known to be <= last_query_[u], so a query at t >= last_query_[u] only
  // advances the cursor.
  std::vector<std::size_t> cursor_;
  std::vector<Time> last_query_;
};

}  // namespace doda::dynagraph
