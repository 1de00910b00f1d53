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
                             std::size_t node_count, Time extension_chunk)
    : lazy_(&sequence),
      sink_(sink),
      extension_chunk_(extension_chunk),
      meetings_(node_count),
      cursor_(node_count, 0),
      last_query_(node_count, 0) {
  if (sink >= node_count)
    throw std::out_of_range("MeetTimeIndex: sink out of range");
  if (extension_chunk_ == 0)
    throw std::invalid_argument("MeetTimeIndex: zero extension chunk");
}

const InteractionSequence& MeetTimeIndex::view() const {
  return lazy_ ? lazy_->committed() : *fixed_;
}

void MeetTimeIndex::scanUpTo(Time end) {
  const auto& seq = view();
  end = std::min(end, seq.length());
  for (Time t = scanned_; t < end; ++t) {
    const Interaction& i = seq.at(t);
    if (i.involves(sink_)) {
      const NodeId u = i.other(sink_);
      if (u < meetings_.size()) meetings_[u].push_back(t);
    }
  }
  scanned_ = std::max(scanned_, end);
}

bool MeetTimeIndex::tryExtendBacking() {
  if (!lazy_) return false;
  const Time length = lazy_->generatedLength();
  if (length >= lazy_->maxLength()) return false;
  // The last extension commits the final, possibly partial, chunk: a
  // meeting there is as real as any other (a replayed trial's backing ends
  // exactly at its recorded length).
  const Time target =
      std::min(lazy_->maxLength(), length + extension_chunk_);
  lazy_->ensure(target - 1);
  return true;
}

Time MeetTimeIndex::meetTime(NodeId u, Time t) {
  if (u >= meetings_.size())
    throw std::out_of_range("MeetTimeIndex: node out of range");
  if (u == sink_) return t;  // s.meetTime is the identity (paper §2.1)
  for (;;) {
    scanUpTo(view().length());
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
    if (cursor < times.size()) return times[cursor];
    if (!tryExtendBacking()) return kNever;
  }
}

const std::vector<Time>& MeetTimeIndex::knownMeetings(NodeId u) const {
  if (u >= meetings_.size())
    throw std::out_of_range("MeetTimeIndex: node out of range");
  return meetings_[u];
}

}  // namespace doda::dynagraph
