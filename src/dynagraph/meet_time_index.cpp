#include "dynagraph/meet_time_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace doda::dynagraph {

MeetTimeIndex::MeetTimeIndex(const InteractionSequence& sequence, NodeId sink,
                             std::size_t node_count)
    : fixed_(&sequence),
      sink_(sink),
      meetings_(node_count),
      cursor_(node_count, 0),
      last_query_(node_count, 0) {
  if (sink >= node_count)
    throw std::out_of_range("MeetTimeIndex: sink out of range");
}

MeetTimeIndex::MeetTimeIndex(LazySequence& sequence, NodeId sink,
                             std::size_t node_count)
    : lazy_(&sequence),
      sink_(sink),
      meetings_(node_count),
      cursor_(node_count, 0),
      last_query_(node_count, 0) {
  if (sink >= node_count)
    throw std::out_of_range("MeetTimeIndex: sink out of range");
}

InteractionSequenceView MeetTimeIndex::view() const {
  return lazy_ ? lazy_->committed() : *fixed_;
}

void MeetTimeIndex::checkNode(NodeId u) const {
  if (u >= meetings_.size())
    throw std::out_of_range("MeetTimeIndex: node out of range");
}

bool MeetTimeIndex::indexNextChunk() {
  Time end = scanned_ + LazySequence::kChunk;
  if (lazy_) {
    // The last step commits the final, possibly partial, chunk: a meeting
    // there is as real as any other (a replayed trial's backing ends
    // exactly at its recorded length).
    end = std::min(end, lazy_->maxLength());
    if (end > lazy_->generatedLength()) lazy_->ensure(end - 1);
  }
  const InteractionSequenceView seq = view();
  end = std::min(end, seq.length());
  if (end <= scanned_) return false;
  const Interaction* interactions = seq.begin();
  for (Time t = scanned_; t < end; ++t) {
    const Interaction& i = interactions[t];
    if (i.involves(sink_)) {
      const NodeId u = i.other(sink_);
      if (u < meetings_.size()) meetings_[u].push_back(t);
    }
  }
  scanned_ = end;
  return true;
}

Time MeetTimeIndex::knownMeetTime(NodeId u, Time t) {
  if (u == sink_) return t;  // s.meetTime is the identity (paper §2.1)
  const auto& times = meetings_[u];
  std::size_t& cursor = cursor_[u];
  if (t < last_query_[u]) {
    // Backwards query (not the engine's access pattern): binary search
    // and reposition the cursor.
    cursor = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), t) - times.begin());
  } else {
    while (cursor < times.size() && times[cursor] <= t) ++cursor;
  }
  last_query_[u] = t;
  return cursor < times.size() ? times[cursor] : kNever;
}

Time MeetTimeIndex::meetTime(NodeId u, Time t) {
  checkNode(u);
  for (;;) {
    const Time m = knownMeetTime(u, t);
    if (m != kNever || !indexNextChunk()) return m;
  }
}

MeetOrder MeetTimeIndex::meetOrder(NodeId a, NodeId b, Time t, Time horizon) {
  checkNode(a);
  checkNode(b);
  for (;;) {
    // A meeting not indexed yet lies after t and past the indexed prefix,
    // so after every known one, and it reads as kNever here: the
    // comparison below is exact once the later meeting is known, once the
    // earlier one is known and the unknown one must lie beyond the
    // horizon, and once the backing is exhausted.
    const Time ma = knownMeetTime(a, t);
    const Time mb = knownMeetTime(b, t);
    const Time later = std::max(ma, mb);
    const bool settled =
        later != kNever || (std::min(ma, mb) != kNever &&
                            (scanned_ > horizon || t >= horizon));
    if (settled || !indexNextChunk()) return {ma <= mb, later > horizon};
  }
}

const std::vector<Time>& MeetTimeIndex::knownMeetings(NodeId u) const {
  checkNode(u);
  return meetings_[u];
}

}  // namespace doda::dynagraph
