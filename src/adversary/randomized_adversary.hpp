#pragma once

#include <memory>

#include "core/adversary.hpp"
#include "dynagraph/lazy_sequence.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/traces.hpp"
#include "util/rng.hpp"

namespace doda::adversary {

/// The randomized adversary (paper §2.2/§4): every interaction is an
/// unordered pair drawn uniformly at random among the n(n-1)/2 pairs.
///
/// The adversary conceptually commits to an infinite random sequence up
/// front; knowledge oracles (meetTime, future) read that committed
/// randomness. This class therefore owns a LazySequence and serves the
/// execution from it, so oracle answers and delivered interactions always
/// agree. Create one instance per trial (reuse would replay the same
/// randomness, which is occasionally exactly what a test wants).
class RandomizedAdversary final : public core::Adversary {
 public:
  RandomizedAdversary(
      std::size_t node_count, std::uint64_t seed,
      core::Time max_length = core::Time{1} << 34,
      dynagraph::traces::SeedFormat seed_format = dynagraph::traces::kSeedFormat);

  std::string name() const override { return "randomized-uniform"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    return sequence_->at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    return sequence_->committedFrom(t);
  }

  /// The committed-randomness backing store (shared with oracles).
  dynagraph::LazySequence& lazySequence() noexcept { return *sequence_; }

  /// Builds the paper's meetTime oracle reading this adversary's committed
  /// randomness.
  dynagraph::MeetTimeIndex makeMeetTimeIndex(core::NodeId sink);

 private:
  std::size_t node_count_;
  dynagraph::traces::SeedFormat seed_format_;
  util::Rng rng_;
  std::unique_ptr<dynagraph::LazySequence> sequence_;
};

/// The non-uniform randomized adversary of the paper's concluding remark
/// #3: interactions are drawn with Zipf-weighted node popularity.
class NonUniformAdversary final : public core::Adversary {
 public:
  NonUniformAdversary(std::size_t node_count, double zipf_exponent,
                      std::uint64_t seed,
                      core::Time max_length = core::Time{1} << 34);

  std::string name() const override { return "randomized-zipf"; }

  std::optional<core::Interaction> next(
      core::Time t, const core::ExecutionView& /*view*/) override {
    return sequence_->at(t);
  }

  std::span<const core::Interaction> committedFrom(core::Time t) override {
    return sequence_->committedFrom(t);
  }

  dynagraph::LazySequence& lazySequence() noexcept { return *sequence_; }

  dynagraph::MeetTimeIndex makeMeetTimeIndex(core::NodeId sink);

 private:
  std::size_t node_count_;
  dynagraph::traces::ZipfPairDistribution distribution_;
  util::Rng rng_;
  std::unique_ptr<dynagraph::LazySequence> sequence_;
};

}  // namespace doda::adversary
