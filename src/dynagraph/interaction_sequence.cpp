#include "dynagraph/interaction_sequence.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace doda::dynagraph {

std::ostream& operator<<(std::ostream& os, const Interaction& i) {
  return os << '{' << i.a() << ',' << i.b() << '}';
}

const Interaction& InteractionSequence::at(Time t) const {
  if (t >= interactions_.size())
    throw std::out_of_range("InteractionSequence::at: time out of range");
  return interactions_[static_cast<std::size_t>(t)];
}

const Interaction& InteractionSequenceView::at(Time t) const {
  if (t >= size_)
    throw std::out_of_range("InteractionSequenceView::at: time out of range");
  return data_[static_cast<std::size_t>(t)];
}

void InteractionSequence::appendAll(const InteractionSequence& other) {
  // Self-append must read the pre-append contents; iterators into
  // interactions_ would be invalidated by the growth, so index instead.
  const std::size_t n = other.interactions_.size();
  interactions_.reserve(interactions_.size() + n);
  for (std::size_t i = 0; i < n; ++i)
    interactions_.push_back(other.interactions_[i]);
}

InteractionSequence InteractionSequence::slice(Time from, Time to) const {
  from = std::min<Time>(from, interactions_.size());
  to = std::clamp<Time>(to, from, interactions_.size());
  return InteractionSequence(std::vector<Interaction>(
      interactions_.begin() + static_cast<std::ptrdiff_t>(from),
      interactions_.begin() + static_cast<std::ptrdiff_t>(to)));
}

InteractionSequence InteractionSequence::reversed() const {
  std::vector<Interaction> rev(interactions_.rbegin(), interactions_.rend());
  return InteractionSequence(std::move(rev));
}

InteractionSequence InteractionSequence::repeated(std::size_t copies) const {
  InteractionSequence out;
  out.interactions_.reserve(interactions_.size() * copies);
  for (std::size_t i = 0; i < copies; ++i) out.appendAll(*this);
  return out;
}

graph::StaticGraph InteractionSequence::underlyingGraph(
    std::size_t node_count) const {
  graph::StaticGraph g(node_count);
  for (const auto& i : interactions_) g.addEdge(i.a(), i.b());
  return g;
}

std::size_t InteractionSequence::minNodeCount() const {
  std::size_t max_id = 0;
  bool any = false;
  for (const auto& i : interactions_) {
    // Consider both endpoints: Interaction normalizes a() < b() today, but
    // minNodeCount must not silently depend on that representation detail.
    max_id = std::max<std::size_t>(max_id, i.a());
    max_id = std::max<std::size_t>(max_id, i.b());
    any = true;
  }
  return any ? max_id + 1 : 0;
}

}  // namespace doda::dynagraph
