#include "dynagraph/meet_time_index.hpp"

#include <gtest/gtest.h>

#include "dynagraph/traces.hpp"
#include "util/rng.hpp"

namespace doda::dynagraph {
namespace {

/// A block generator drawing uniform pairs over `n` nodes from `rng`.
LazySequence::BlockGenerator uniformBlocks(std::size_t n, util::Rng& rng) {
  return [n, &rng](Time, std::size_t count, std::vector<Interaction>& out) {
    traces::appendUniform(n, count, rng, out);
  };
}

/// A block generator whose interaction at time t is {0, 2} when t equals
/// `meeting` and {0, 1} otherwise (kNever: always {0, 1}).
LazySequence::BlockGenerator onlyMeetingAt(Time meeting) {
  return [meeting](Time begin, std::size_t count,
                   std::vector<Interaction>& out) {
    for (Time t = begin; t < begin + count; ++t)
      out.push_back(t == meeting ? Interaction(0, 2) : Interaction(0, 1));
  };
}

/// A block generator replaying `seq` (which must outlive it).
LazySequence::BlockGenerator copyOf(const InteractionSequence& seq) {
  return [&seq](Time begin, std::size_t count,
                std::vector<Interaction>& out) {
    for (Time t = begin; t < begin + count; ++t) out.push_back(seq.at(t));
  };
}

/// Reference implementation: linear scan for the smallest t' > t with
/// I_{t'} = {u, sink}.
Time naiveMeetTime(const InteractionSequence& seq, NodeId sink, NodeId u,
                   Time t) {
  if (u == sink) return t;
  for (Time x = t + 1; x < seq.length(); ++x)
    if (seq.at(x) == Interaction(u, sink)) return x;
  return kNever;
}

/// Probes idx.meetOrder, over `full` or a lazy sequence generating it,
/// against two naive scans of `full`. t sweeps from 0 to past the end of a
/// 3,000-interaction sequence, mostly forward as the engine queries, with
/// short steps back. Each query may index no further than the larger of
/// how far the index had got and one kChunk past min(later, max(earlier,
/// horizon + 1)), or the backing's end when that is kNever.
void expectMeetOrderMatchesNaive(MeetTimeIndex& idx,
                                 const InteractionSequence& full,
                                 std::size_t n, util::Rng& rng) {
  const NodeId sink = idx.sink();
  Time t = 0;
  for (int probe = 0; probe < 600; ++probe) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>(rng.below(n - 1));
    if (b >= a) ++b;
    if (probe % 4 == 1) (probe % 8 == 1 ? a : b) = sink;
    if (a == b) b = (a + 1) % n;
    t = rng.below(8) == 0 ? t - std::min<Time>(t, rng.below(64))
                          : t + rng.below(24);
    const Time ma = naiveMeetTime(full, sink, a, t);
    const Time mb = naiveMeetTime(full, sink, b, t);
    const Time near = rng.below(2) == 0 ? ma : mb;
    Time horizon = kNever;
    switch (rng.below(4)) {
      case 0: horizon = rng.below(t + 1); break;  // at or below t
      case 1:
        if (near != kNever) horizon = near - 1 + rng.below(3);
        break;
      case 2: horizon = t + rng.below(4 * n * n); break;
      default: break;  // kNever
    }
    const Time earlier = std::min(ma, mb), later = std::max(ma, mb);
    const Time past_horizon = horizon == kNever ? kNever : horizon + 1;
    const Time bound = std::min(later, std::max(earlier, past_horizon));
    const Time limit =
        bound == kNever ? full.length() : bound + LazySequence::kChunk;
    const Time before = idx.indexedLength();
    EXPECT_EQ(idx.meetOrder(a, b, t, horizon),
              (MeetOrder{ma <= mb, later > horizon}))
        << "a=" << a << " b=" << b << " t=" << t << " horizon=" << horizon
        << " sink=" << sink;
    EXPECT_LE(idx.indexedLength(), std::max(before, limit))
        << "a=" << a << " b=" << b << " t=" << t << " horizon=" << horizon;
  }
}

TEST(MeetTimeIndex, SinkMeetTimeIsIdentity) {
  InteractionSequence seq{Interaction(0, 1)};
  MeetTimeIndex idx(seq, 0, 3);
  EXPECT_EQ(idx.meetTime(0, 0), 0u);
  EXPECT_EQ(idx.meetTime(0, 17), 17u);
}

TEST(MeetTimeIndex, StrictlyGreaterThanQueryTime) {
  // Paper: meetTime(t) is the smallest t' > t — a meeting AT t does not
  // count.
  InteractionSequence seq{Interaction(0, 1), Interaction(0, 1)};
  MeetTimeIndex idx(seq, 0, 2);
  EXPECT_EQ(idx.meetTime(1, 0), 1u);
  EXPECT_EQ(idx.meetTime(1, 1), kNever);
}

TEST(MeetTimeIndex, NeverWhenNoMeeting) {
  InteractionSequence seq{Interaction(1, 2), Interaction(1, 2)};
  MeetTimeIndex idx(seq, 0, 3);
  EXPECT_EQ(idx.meetTime(1, 0), kNever);
  EXPECT_EQ(idx.meetTime(2, 0), kNever);
}

TEST(MeetTimeIndex, RejectsBadArguments) {
  InteractionSequence seq{Interaction(0, 1)};
  EXPECT_THROW(MeetTimeIndex(seq, 9, 3), std::out_of_range);
  MeetTimeIndex idx(seq, 0, 2);
  EXPECT_THROW(idx.meetTime(5, 0), std::out_of_range);
}

class MeetTimeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeetTimeProperty, MatchesNaiveScanOnRandomSequences) {
  util::Rng rng(GetParam());
  const std::size_t n = 4 + rng.below(12);
  const NodeId sink = static_cast<NodeId>(rng.below(n));
  const auto seq = traces::uniformRandom(n, 300, rng);
  MeetTimeIndex idx(seq, sink, n);
  for (int probe = 0; probe < 200; ++probe) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const Time t = rng.below(320);
    EXPECT_EQ(idx.meetTime(u, t), naiveMeetTime(seq, sink, u, t))
        << "u=" << u << " t=" << t << " sink=" << sink;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetTimeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class MeetOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeetOrderProperty, MatchesTwoNaiveScansOnFixedAndLazyBackings) {
  util::Rng rng(GetParam());
  // Up to 40 nodes, so a node's meetings lie several chunks apart.
  const std::size_t n = 4 + rng.below(37);
  const NodeId sink = static_cast<NodeId>(rng.below(n));
  const auto full = traces::uniformRandom(n, 12 * LazySequence::kChunk, rng);
  {
    SCOPED_TRACE("fixed");
    MeetTimeIndex idx(full, sink, n);
    expectMeetOrderMatchesNaive(idx, full, n, rng);
  }
  SCOPED_TRACE("lazy");
  LazySequence lazy(copyOf(full), full.length());
  MeetTimeIndex idx(lazy, sink, n);
  expectMeetOrderMatchesNaive(idx, full, n, rng);
}

TEST_P(MeetOrderProperty, MatchesTwoNaiveScansOnAnExhaustedLazyBacking) {
  // Node 2 never meets the sink: only exhausting the backing settles a
  // decision that needs its meeting.
  util::Rng rng(GetParam());
  const Time length = 3 * LazySequence::kChunk + 17;
  std::vector<Interaction> interactions;
  onlyMeetingAt(kNever)(0, length, interactions);
  const InteractionSequence full(std::move(interactions));
  LazySequence lazy(onlyMeetingAt(kNever), length);
  MeetTimeIndex idx(lazy, 0, 3);
  expectMeetOrderMatchesNaive(idx, full, 3, rng);
  EXPECT_EQ(lazy.generatedLength(), length);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MeetTimeIndex, MeetOrderLaterMeetingAtTheHorizonIsNotBeyond) {
  // Node 2 meets the sink only at the horizon, the first time past the
  // first chunk: a prefix that ends at the horizon does not settle the
  // decision, since a meeting at the horizon is not beyond it.
  const Time horizon = LazySequence::kChunk;
  LazySequence lazy(onlyMeetingAt(horizon), 1 << 20);
  MeetTimeIndex idx(lazy, 0, 3);
  EXPECT_EQ(idx.meetOrder(1, 2, 0, horizon), (MeetOrder{true, false}));
  EXPECT_EQ(idx.meetOrder(1, 2, 0, horizon - 1), (MeetOrder{true, true}));
}

TEST(MeetTimeIndex, SinkDecisionPastTheHorizonScansNothing) {
  // s.meetTime(t) = t, and the other endpoint meets the sink after t: past
  // the horizon the sink receives, whatever lies ahead.
  LazySequence lazy(onlyMeetingAt(kNever), 1 << 20);
  MeetTimeIndex idx(lazy, 0, 3);
  EXPECT_EQ(idx.meetOrder(2, 0, 500, 499), (MeetOrder{false, true}));
  EXPECT_EQ(idx.indexedLength(), 0u);
  EXPECT_EQ(lazy.generatedLength(), 0u);
}

TEST(MeetTimeIndex, MeetTimeIndexesOnlyToTheMeeting) {
  // A fixed backing is indexed one kChunk at a time, not in full.
  std::vector<Interaction> interactions(8 * LazySequence::kChunk,
                                        Interaction(1, 2));
  interactions[5] = Interaction(0, 1);
  const InteractionSequence seq(std::move(interactions));
  MeetTimeIndex idx(seq, 0, 3);
  EXPECT_EQ(idx.meetTime(1, 0), 5u);
  EXPECT_EQ(idx.indexedLength(), LazySequence::kChunk);
  EXPECT_EQ(idx.meetTime(2, 0), kNever);
  EXPECT_EQ(idx.indexedLength(), seq.length());
}

TEST(MeetTimeIndex, KnownMeetingsAreAscendingAndComplete) {
  util::Rng rng(77);
  const auto seq = traces::uniformRandom(6, 200, rng);
  MeetTimeIndex idx(seq, 0, 6);
  idx.meetTime(1, 200);  // force a full scan
  for (NodeId u = 1; u < 6; ++u) {
    const auto& times = idx.knownMeetings(u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    for (Time t : times) EXPECT_EQ(seq.at(t), Interaction(0, u));
  }
}

TEST(MeetTimeIndex, LazyBackingExtendsOnDemand) {
  util::Rng rng(42);
  LazySequence lazy(uniformBlocks(6, rng), 1 << 20);
  MeetTimeIndex idx(lazy, 0, 6);
  // The sequence starts empty; the query must commit randomness until node
  // 3 meets the sink.
  const Time m = idx.meetTime(3, 0);
  ASSERT_NE(m, kNever);
  EXPECT_EQ(lazy.committed().at(m), Interaction(0, 3));
  EXPECT_GT(lazy.generatedLength(), m);
  // The answer agrees with a naive scan over the now-committed prefix.
  EXPECT_EQ(naiveMeetTime(lazy.committed(), 0, 3, 0), m);
}

TEST(MeetTimeIndex, LazyAnswersAreStableAcrossExtensions) {
  util::Rng rng(43);
  LazySequence lazy(uniformBlocks(5, rng), 1 << 20);
  MeetTimeIndex idx(lazy, 0, 5);
  const Time first = idx.meetTime(2, 0);
  lazy.ensure(first + 500);
  EXPECT_EQ(idx.meetTime(2, 0), first);
}

TEST(MeetTimeIndex, MonotoneCursorMatchesBinarySearchReference) {
  // The engine queries meetTime with nondecreasing t; the monotone cursor
  // must agree with the old upper_bound-over-the-full-list implementation
  // (naiveMeetTime is that reference, one scan per query).
  util::Rng rng(2024);
  const std::size_t n = 10;
  const auto seq = traces::uniformRandom(n, 500, rng);
  MeetTimeIndex idx(seq, 0, n);
  Time t = 0;
  while (t < 520) {
    for (NodeId u = 0; u < n; ++u)
      EXPECT_EQ(idx.meetTime(u, t), naiveMeetTime(seq, 0, u, t))
          << "u=" << u << " t=" << t;
    t += 1 + rng.below(7);
  }
}

TEST(MeetTimeIndex, CursorRecoversFromBackwardsQueries) {
  // Interleave forward and backward queries per node: the cursor must
  // reposition on a backwards query and stay correct afterwards.
  util::Rng rng(31337);
  const auto seq = traces::uniformRandom(6, 300, rng);
  MeetTimeIndex idx(seq, 2, 6);
  const Time probes[] = {0, 50, 250, 10, 11, 290, 0, 299, 5};
  for (NodeId u = 0; u < 6; ++u)
    for (Time t : probes)
      EXPECT_EQ(idx.meetTime(u, t), naiveMeetTime(seq, 2, u, t))
          << "u=" << u << " t=" << t;
}

TEST(MeetTimeIndex, RepeatedQueryAtSameTimeIsStable) {
  InteractionSequence seq{Interaction(0, 1), Interaction(0, 1),
                          Interaction(0, 1)};
  MeetTimeIndex idx(seq, 0, 2);
  EXPECT_EQ(idx.meetTime(1, 0), 1u);
  EXPECT_EQ(idx.meetTime(1, 0), 1u);  // cursor must not over-advance
  EXPECT_EQ(idx.meetTime(1, 1), 2u);
  EXPECT_EQ(idx.meetTime(1, 1), 2u);
}

TEST(MeetTimeIndex, LazyExhaustionReturnsNever) {
  // A backing sequence that can never contain a sink meeting for node 2.
  LazySequence lazy(onlyMeetingAt(kNever), 256);
  MeetTimeIndex idx(lazy, 0, 3);
  EXPECT_EQ(idx.meetTime(2, 0), kNever);
}

TEST(MeetTimeIndex, LazyExtensionCommitsFinalPartialChunk) {
  // Node 2's only sink meeting lies in the backing's final extension
  // round, which is shorter than LazySequence::kChunk. The index must
  // commit that partial chunk instead of answering kNever: a replayed
  // trial's backing ends exactly at its recorded length.
  {
    LazySequence lazy(onlyMeetingAt(90), 100);
    MeetTimeIndex idx(lazy, 0, 3);
    EXPECT_EQ(idx.meetTime(2, 0), 90u);
  }
  // The first round commits one whole LazySequence chunk, so here the
  // partial round is the second one.
  const Time max_length = LazySequence::kChunk + 44;
  LazySequence lazy(onlyMeetingAt(max_length - 10), max_length);
  MeetTimeIndex idx(lazy, 0, 3);
  EXPECT_EQ(idx.meetTime(2, 0), max_length - 10);
  EXPECT_EQ(lazy.generatedLength(), max_length);
  EXPECT_EQ(idx.meetTime(2, max_length - 10), kNever);
}

}  // namespace
}  // namespace doda::dynagraph
