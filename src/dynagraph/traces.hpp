#pragma once

#include <cstddef>
#include <vector>

#include "dynagraph/interaction_sequence.hpp"
#include "graph/static_graph.hpp"
#include "util/rng.hpp"

namespace doda::dynagraph::traces {

/// Version of the committed random-stream format: how many RNG draws one
/// uniform pair consumes and how the draws map to the pair. Changing the
/// mapping changes every sequence committed from a given seed, so the
/// mapping is versioned: goldens, recorded stores, and published numbers
/// name the format they were produced under, and legacy streams stay
/// reproducible forever by pinning v1.
enum class SeedFormat : std::uint8_t {
  /// Two Lemire draws per pair: u = below(n), then v = below(n-1) with a
  /// skip over u. The format of every stream committed before the v2
  /// sampler landed.
  v1 = 1,
  /// One draw per pair: r = below(n(n-1)/2) decoded to the r-th unordered
  /// pair. Halves the serial RNG dependency chain — the generation
  /// bottleneck of measureOfflineOptimal — at identical uniformity.
  v2 = 2,
};

/// Default stream format committed by the uniform samplers.
inline constexpr SeedFormat kSeedFormat = SeedFormat::v2;

/// One interaction drawn uniformly at random among all n(n-1)/2 pairs —
/// the randomized adversary's distribution (paper §4). Requires n >= 2.
Interaction uniformPair(std::size_t n, util::Rng& rng,
                        SeedFormat format = kSeedFormat);

/// The r-th unordered pair of n nodes in lexicographic order ((0,1), (0,2),
/// ..., (0,n-1), (1,2), ...): the map SeedFormat::v2 applies to its one
/// below(n(n-1)/2) draw per pair. Requires n >= 2 and r < n(n-1)/2.
Interaction pairFromIndex(std::uint64_t r, std::size_t n);

/// Appends `count` uniform random interactions to `out` in one tight loop —
/// the batched generation primitive behind the randomized adversary and
/// drawAdversarySequence. Draws from `rng` in exactly the order repeated
/// uniformPair calls would under the same SeedFormat, so batched and
/// per-item generation commit bit-identical sequences from the same seed.
void appendUniform(std::size_t n, std::size_t count, util::Rng& rng,
                   std::vector<Interaction>& out,
                   SeedFormat format = kSeedFormat);

/// A fixed-length sequence of uniform random interactions.
InteractionSequence uniformRandom(std::size_t n, Time length, util::Rng& rng,
                                  SeedFormat format = kSeedFormat);

/// Non-uniform randomized adversary (paper's concluding remark #3):
/// node popularity follows a Zipf law with the given exponent; each
/// interaction picks two distinct nodes by popularity-weighted sampling
/// without replacement. exponent = 0 recovers the uniform adversary.
class ZipfPairDistribution {
 public:
  ZipfPairDistribution(std::size_t n, double exponent);

  Interaction sample(util::Rng& rng) const;

  /// Batched counterpart of sample(): appends `count` interactions drawing
  /// from `rng` in exactly the order repeated sample() calls would.
  void append(std::size_t count, util::Rng& rng,
              std::vector<Interaction>& out) const;

  const std::vector<double>& weights() const noexcept { return weights_; }

 private:
  std::vector<double> weights_;
};

InteractionSequence zipfRandom(std::size_t n, Time length, double exponent,
                               util::Rng& rng);

/// Deterministic cyclic activation of every edge of `g`, `rounds` times.
/// Edges are activated in lexicographic order; with enough rounds this
/// makes every underlying-graph edge appear "infinitely often" in the sense
/// of paper Thm 4.
InteractionSequence roundRobin(const graph::StaticGraph& g,
                               std::size_t rounds);

/// Random permutation of every edge of `g`, repeated `rounds` times with
/// independent permutations (a randomized fair scheduler over a topology).
InteractionSequence shuffledRounds(const graph::StaticGraph& g,
                                   std::size_t rounds, util::Rng& rng);

/// Topology builders used by tests, benches, and examples.
graph::StaticGraph pathGraph(std::size_t n);
graph::StaticGraph ringGraph(std::size_t n);
graph::StaticGraph starGraph(std::size_t n, graph::NodeId center);
graph::StaticGraph completeGraph(std::size_t n);
/// Uniform random labelled tree (random attachment to a random earlier node).
graph::StaticGraph randomTree(std::size_t n, util::Rng& rng);
/// Connected Erdős–Rényi-style graph: random tree plus `extra_edges`
/// additional distinct random edges.
graph::StaticGraph randomConnected(std::size_t n, std::size_t extra_edges,
                                   util::Rng& rng);

/// Body-area sensor network trace (motivating scenario of the paper's
/// introduction: "sensors deployed on a human body").
///
/// Node 0 is the hub (sink). Each of the `sensors` nodes gets a contact
/// period drawn from [min_period, max_period]; it meets the hub at every
/// multiple of its period, with +/- jitter. Between hub contacts, adjacent
/// sensors (body-neighbour pairs) meet with probability `peer_contact_rate`
/// per slot. Simultaneous contacts are serialized in id order, matching the
/// one-interaction-per-time-unit model.
struct BodySensorConfig {
  std::size_t sensors = 8;
  Time slots = 1000;           // wall-clock slots to simulate
  Time min_period = 5;
  Time max_period = 20;
  Time jitter = 2;
  double peer_contact_rate = 0.05;
};

InteractionSequence bodySensorTrace(const BodySensorConfig& config,
                                    util::Rng& rng);

/// Vehicular contact trace (the paper's "cars evolving in a city" scenario).
///
/// `cars` vehicles random-walk on a width x height grid of road cells; a
/// road-side unit (the sink, node 0) sits at the grid centre. Whenever two
/// vehicles share a cell, or a vehicle is at the RSU cell, a contact occurs.
/// Contacts within one movement step are serialized deterministically.
struct VehicularConfig {
  std::size_t width = 8;
  std::size_t height = 8;
  std::size_t cars = 12;
  Time steps = 2000;
};

InteractionSequence vehicularTrace(const VehicularConfig& config,
                                   util::Rng& rng);

}  // namespace doda::dynagraph::traces
