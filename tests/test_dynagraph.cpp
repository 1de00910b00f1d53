#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/lazy_sequence.hpp"
#include "dynagraph/traces.hpp"
#include "util/rng.hpp"

namespace doda::dynagraph {
namespace {

TEST(Interaction, NormalizesEndpointOrder) {
  const Interaction i(5, 2);
  EXPECT_EQ(i.a(), 2u);
  EXPECT_EQ(i.b(), 5u);
  EXPECT_EQ(i, Interaction(2, 5));
}

TEST(Interaction, RejectsSelfInteraction) {
  EXPECT_THROW(Interaction(3, 3), std::invalid_argument);
}

TEST(Interaction, InvolvesAndOther) {
  const Interaction i(1, 4);
  EXPECT_TRUE(i.involves(1));
  EXPECT_TRUE(i.involves(4));
  EXPECT_FALSE(i.involves(2));
  EXPECT_EQ(i.other(1), 4u);
  EXPECT_EQ(i.other(4), 1u);
  EXPECT_THROW(i.other(2), std::invalid_argument);
}

TEST(InteractionSequence, BasicAccess) {
  InteractionSequence seq{Interaction(0, 1), Interaction(1, 2)};
  EXPECT_EQ(seq.length(), 2u);
  EXPECT_EQ(seq.at(0), Interaction(0, 1));
  EXPECT_THROW(seq.at(2), std::out_of_range);
  EXPECT_FALSE(seq.empty());
  EXPECT_TRUE(InteractionSequence{}.empty());
}

TEST(InteractionSequence, SliceClampsBounds) {
  InteractionSequence seq{Interaction(0, 1), Interaction(1, 2),
                          Interaction(2, 3)};
  const auto mid = seq.slice(1, 2);
  ASSERT_EQ(mid.length(), 1u);
  EXPECT_EQ(mid.at(0), Interaction(1, 2));
  EXPECT_EQ(seq.slice(2, 100).length(), 1u);
  EXPECT_EQ(seq.slice(5, 10).length(), 0u);
  EXPECT_EQ(seq.slice(2, 1).length(), 0u);
}

TEST(InteractionSequence, ReversedIsInvolution) {
  util::Rng rng(3);
  const auto seq = traces::uniformRandom(6, 40, rng);
  const auto rev = seq.reversed();
  EXPECT_EQ(rev.length(), seq.length());
  EXPECT_EQ(rev.at(0), seq.at(39));
  EXPECT_EQ(rev.reversed(), seq);
}

TEST(InteractionSequence, RepeatedConcatenates) {
  InteractionSequence seq{Interaction(0, 1), Interaction(1, 2)};
  const auto triple = seq.repeated(3);
  EXPECT_EQ(triple.length(), 6u);
  EXPECT_EQ(triple.at(4), Interaction(0, 1));
  EXPECT_EQ(seq.repeated(0).length(), 0u);
}

TEST(InteractionSequence, UnderlyingGraphCollectsEdges) {
  InteractionSequence seq{Interaction(0, 1), Interaction(0, 1),
                          Interaction(2, 1)};
  const auto g = seq.underlyingGraph(4);
  EXPECT_EQ(g.edgeCount(), 2u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_THROW(seq.underlyingGraph(2), std::out_of_range);
}

TEST(InteractionSequence, MinNodeCount) {
  EXPECT_EQ(InteractionSequence{}.minNodeCount(), 0u);
  InteractionSequence seq{Interaction(0, 7)};
  EXPECT_EQ(seq.minNodeCount(), 8u);
}

TEST(InteractionSequence, MinNodeCountConsidersBothEndpoints) {
  // Regression: minNodeCount used to read only i.b(), relying on the
  // Interaction normalization a() < b(). The largest id must be found no
  // matter which constructor argument carried it or which endpoint it
  // lands on.
  InteractionSequence seq{Interaction(9, 1), Interaction(2, 3)};
  EXPECT_EQ(seq.minNodeCount(), 10u);
  InteractionSequence lone{Interaction(5, 0)};
  EXPECT_EQ(lone.minNodeCount(), 6u);
}

TEST(InteractionSequence, EqualityComparesInteractions) {
  InteractionSequence a{Interaction(0, 1), Interaction(1, 2)};
  InteractionSequence b{Interaction(0, 1), Interaction(1, 2)};
  EXPECT_TRUE(a == b);
  b.append(Interaction(0, 2));
  EXPECT_FALSE(a == b);
}

TEST(LazySequence, GeneratesOnDemand) {
  int calls = 0;
  LazySequence seq(
      [&calls](Time begin, std::size_t count, std::vector<Interaction>& out) {
        ++calls;
        for (Time t = begin; t < begin + count; ++t)
          out.push_back(Interaction(static_cast<NodeId>(t % 3),
                                    static_cast<NodeId>(t % 3 + 1)));
      },
      1000);
  EXPECT_EQ(seq.generatedLength(), 0u);
  EXPECT_EQ(seq.at(4), Interaction(1, 2));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seq.generatedLength(), LazySequence::kChunk);  // one chunk
  // Re-reading does not regenerate.
  EXPECT_EQ(seq.at(2), Interaction(2, 3));
  EXPECT_EQ(calls, 1);
}

TEST(LazySequence, CommittedPrefixIsStable) {
  util::Rng rng(5);
  LazySequence seq(
      [&rng](Time, std::size_t count, std::vector<Interaction>& out) {
        traces::appendUniform(8, count, rng, out);
      },
      1 << 20);
  seq.ensure(99);
  const auto snapshot = seq.committed();
  seq.ensure(499);
  for (Time t = 0; t < 100; ++t)
    EXPECT_EQ(seq.committed().at(t), snapshot.at(t));
}

TEST(LazySequence, MaxLengthGuardThrows) {
  LazySequence seq(
      [](Time, std::size_t count, std::vector<Interaction>& out) {
        out.insert(out.end(), count, Interaction(0, 1));
      },
      10);
  seq.ensure(9);
  EXPECT_THROW(seq.ensure(10), std::length_error);
}

TEST(LazySequence, NullGeneratorThrows) {
  EXPECT_THROW(LazySequence(LazySequence::BlockGenerator{}),
               std::invalid_argument);
}

TEST(LazySequence, BlockGeneratorCommitsIdenticalPrefix) {
  // The chunked generator must realize the same committed sequence as
  // per-pair draws from the same seed — only how far ahead it commits
  // depends on the chunk granularity.
  util::Rng per_pair_rng(77), block_rng(77);
  LazySequence block(LazySequence::BlockGenerator(
      [&block_rng](Time, std::size_t count, std::vector<Interaction>& out) {
        traces::appendUniform(9, count, block_rng, out);
      }));
  block.ensure(999);
  EXPECT_GE(block.generatedLength(), 1000u);
  for (Time t = 0; t < 1000; ++t)
    EXPECT_EQ(traces::uniformPair(9, per_pair_rng), block.at(t))
        << "t=" << t;
}

TEST(LazySequence, BlockGeneratorRespectsMaxLengthGuard) {
  util::Rng rng(5);
  LazySequence seq(LazySequence::BlockGenerator(
                       [&rng](Time, std::size_t count,
                              std::vector<Interaction>& out) {
                         traces::appendUniform(4, count, rng, out);
                       }),
                   10);
  seq.ensure(9);
  EXPECT_EQ(seq.generatedLength(), 10u);  // clamped to max_length
  EXPECT_THROW(seq.ensure(10), std::length_error);
}

TEST(Traces, UniformPairIsValidAndCoversAll) {
  util::Rng rng(11);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto p = traces::uniformPair(5, rng);
    EXPECT_LT(p.a(), p.b());
    EXPECT_LT(p.b(), 5u);
    seen.emplace(p.a(), p.b());
  }
  EXPECT_EQ(seen.size(), 10u);  // all C(5,2) pairs appear
}

TEST(Traces, UniformPairIsUniform) {
  util::Rng rng(13);
  constexpr int kDraws = 90000;
  std::map<std::pair<NodeId, NodeId>, int> counts;
  for (int i = 0; i < kDraws; ++i) {
    const auto p = traces::uniformPair(4, rng);
    ++counts[{p.a(), p.b()}];
  }
  ASSERT_EQ(counts.size(), 6u);
  const double expected = kDraws / 6.0;
  for (const auto& [pair, c] : counts) {
    EXPECT_GT(c, expected * 0.93);
    EXPECT_LT(c, expected * 1.07);
  }
}

TEST(Traces, BulkUniformMatchesSingleDrawDecode) {
  // appendUniform's cached pair-table lookup must realize exactly the
  // sequence the sqrt decode of uniformPair commits to: same one
  // below(total) draw per pair, same lexicographic index mapping.
  for (const std::size_t n : {2u, 3u, 17u, 64u, 256u}) {
    util::Rng bulk_rng(0xB01D + n), single_rng(0xB01D + n);
    std::vector<Interaction> bulk;
    traces::appendUniform(n, 512, bulk_rng, bulk);
    ASSERT_EQ(bulk.size(), 512u);
    for (std::size_t k = 0; k < bulk.size(); ++k)
      EXPECT_EQ(bulk[k], traces::uniformPair(n, single_rng))
          << "n=" << n << " k=" << k;
  }
}

TEST(Traces, PairDecodeHitsEveryRowBoundary) {
  // Past the row table (n > 1448) the v2 sampler decodes each draw with
  // the sqrt formula. Row u of the lexicographic pair order starts at
  // rowStart(u) = (n-1) + (n-2) + ... + (n-u) with (u, u+1) and ends with
  // (u, n-1); both ends must decode exactly in every row.
  for (const std::size_t n : {1449u, 2048u, 4096u, 65536u}) {
    const auto last = static_cast<NodeId>(n - 1);
    std::uint64_t row_start = 0;
    for (NodeId u = 0; u < last; ++u) {
      const std::uint64_t next_start = row_start + (last - u);
      ASSERT_EQ(traces::pairFromIndex(row_start, n), Interaction(u, u + 1))
          << "n=" << n << " u=" << u;
      ASSERT_EQ(traces::pairFromIndex(next_start - 1, n),
                Interaction(u, last))
          << "n=" << n << " u=" << u;
      row_start = next_start;
    }
    EXPECT_EQ(row_start, std::uint64_t{n} * (n - 1) / 2);
    EXPECT_THROW(traces::pairFromIndex(row_start, n), std::out_of_range);
  }
}

TEST(Traces, UniformPairNeedsTwoNodes) {
  util::Rng rng(1);
  EXPECT_THROW(traces::uniformPair(1, rng), std::invalid_argument);
}

TEST(Traces, ZipfExponentZeroIsUniformWeights) {
  traces::ZipfPairDistribution d(5, 0.0);
  for (double w : d.weights()) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(Traces, ZipfSkewsTowardLowIds) {
  util::Rng rng(17);
  traces::ZipfPairDistribution d(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 30000; ++i) {
    const auto p = d.sample(rng);
    ++counts[p.a()];
    ++counts[p.b()];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[1], counts[9]);
}

TEST(Traces, RoundRobinActivatesEveryEdgeEachRound) {
  const auto g = traces::ringGraph(5);
  const auto seq = traces::roundRobin(g, 3);
  EXPECT_EQ(seq.length(), 15u);
  // Round boundaries contain every edge exactly once.
  std::set<Interaction> first_round;
  for (Time t = 0; t < 5; ++t) first_round.insert(seq.at(t));
  EXPECT_EQ(first_round.size(), 5u);
  EXPECT_EQ(seq.at(0), seq.at(5));  // deterministic repetition
}

TEST(Traces, ShuffledRoundsPermutesEdges) {
  util::Rng rng(23);
  const auto g = traces::completeGraph(6);
  const auto seq = traces::shuffledRounds(g, 2, rng);
  EXPECT_EQ(seq.length(), 30u);
  std::set<Interaction> round;
  for (Time t = 0; t < 15; ++t) round.insert(seq.at(t));
  EXPECT_EQ(round.size(), 15u);  // each round is a permutation of edges
}

TEST(Traces, BodySensorProducesHubContactsForEverySensor) {
  util::Rng rng(29);
  traces::BodySensorConfig config;
  config.sensors = 6;
  config.slots = 400;
  const auto seq = traces::bodySensorTrace(config, rng);
  ASSERT_GT(seq.length(), 0u);
  std::set<NodeId> met_hub;
  for (Time t = 0; t < seq.length(); ++t) {
    const auto& i = seq.at(t);
    EXPECT_LE(i.b(), 6u);
    if (i.involves(0)) met_hub.insert(i.other(0));
  }
  EXPECT_EQ(met_hub.size(), 6u);  // every sensor checks in eventually
}

TEST(Traces, BodySensorValidatesConfig) {
  util::Rng rng(1);
  traces::BodySensorConfig bad;
  bad.sensors = 1;
  EXPECT_THROW(traces::bodySensorTrace(bad, rng), std::invalid_argument);
  traces::BodySensorConfig bad2;
  bad2.min_period = 30;
  bad2.max_period = 10;
  EXPECT_THROW(traces::bodySensorTrace(bad2, rng), std::invalid_argument);
}

TEST(Traces, VehicularStaysInRangeAndMeetsSink) {
  util::Rng rng(31);
  traces::VehicularConfig config;
  config.width = 4;
  config.height = 4;
  config.cars = 8;
  config.steps = 3000;
  const auto seq = traces::vehicularTrace(config, rng);
  ASSERT_GT(seq.length(), 0u);
  bool sink_contact = false;
  for (Time t = 0; t < seq.length(); ++t) {
    EXPECT_LE(seq.at(t).b(), 8u);
    sink_contact |= seq.at(t).involves(0);
  }
  EXPECT_TRUE(sink_contact);
}

TEST(Traces, VehicularValidatesConfig) {
  util::Rng rng(1);
  traces::VehicularConfig bad;
  bad.cars = 1;
  EXPECT_THROW(traces::vehicularTrace(bad, rng), std::invalid_argument);
}

}  // namespace
}  // namespace doda::dynagraph
