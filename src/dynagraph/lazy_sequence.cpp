#include "dynagraph/lazy_sequence.hpp"

#include <algorithm>

namespace doda::dynagraph {

LazySequence::LazySequence(BlockGenerator generator, Time max_length)
    : generator_(std::move(generator)), max_length_(max_length) {
  if (!generator_)
    throw std::invalid_argument("LazySequence: null generator");
}

void LazySequence::ensure(Time t) {
  if (t >= max_length_)
    throw std::length_error("LazySequence: exceeded max_length guard");
  while (buffer_.length() <= t) {
    const Time begin = buffer_.length();
    const Time want =
        std::min(max_length_, std::max<Time>(t + 1, begin + kChunk));
    chunk_scratch_.clear();
    chunk_scratch_.reserve(static_cast<std::size_t>(want - begin));
    generator_(begin, static_cast<std::size_t>(want - begin), chunk_scratch_);
    if (chunk_scratch_.size() != static_cast<std::size_t>(want - begin))
      throw std::logic_error(
          "LazySequence: block generator produced a wrong-sized chunk");
    buffer_.appendSpan(chunk_scratch_);
  }
}

const Interaction& LazySequence::at(Time t) {
  ensure(t);
  return buffer_.at(t);
}

}  // namespace doda::dynagraph
