#include "dynagraph/lazy_sequence.hpp"

#include <algorithm>

namespace doda::dynagraph {

namespace {

/// The committed buffer parked by the last LazySequence destroyed on this
/// thread: empty, keeping its capacity for the next sequence to grow into.
std::vector<Interaction>& parkedBuffer() {
  thread_local std::vector<Interaction> parked;
  return parked;
}

}  // namespace

LazySequence::LazySequence(BlockGenerator generator, Time max_length)
    : generator_(std::move(generator)), max_length_(max_length) {
  if (!generator_)
    throw std::invalid_argument("LazySequence: null generator");
  buffer_.interactions_.swap(parkedBuffer());
}

LazySequence::~LazySequence() {
  std::vector<Interaction>& parked = parkedBuffer();
  if (buffer_.interactions_.capacity() > parked.capacity()) {
    buffer_.interactions_.clear();
    parked.swap(buffer_.interactions_);
  }
}

void LazySequence::ensure(Time t) {
  if (t >= max_length_)
    throw std::length_error("LazySequence: exceeded max_length guard");
  std::vector<Interaction>& out = buffer_.interactions_;
  while (out.size() <= t) {
    const Time begin = out.size();
    const Time want =
        std::min(max_length_, std::max<Time>(t + 1, begin + kChunk));
    generator_(begin, static_cast<std::size_t>(want - begin), out);
    if (out.size() != want)
      throw std::logic_error(
          "LazySequence: block generator produced a wrong-sized chunk");
  }
}

const Interaction& LazySequence::at(Time t) {
  ensure(t);
  return buffer_.at(t);
}

}  // namespace doda::dynagraph
