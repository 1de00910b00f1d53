#include "dynagraph/traces.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace doda::dynagraph::traces {

namespace {

/// Triangular number t(t+1)/2 without intermediate overflow.
inline std::uint64_t triangular(std::uint64_t t) noexcept {
  return (t % 2 == 0) ? t / 2 * (t + 1) : (t + 1) / 2 * t;
}

/// Decodes the r-th unordered pair (0-based, lexicographic: (0,1), (0,2),
/// ..., (0,n-1), (1,2), ...) of n nodes. The row is recovered from the
/// *reversed* index s = n(n-1)/2 - 1 - r via the triangular-root formula
/// t = floor((sqrt(8s+1)-1)/2); the double-precision estimate is corrected
/// by an integer fixup so the decode is exact (and deterministic across
/// platforms) for every s < 2^63. Below t = 2^31 (every n up to 2^31) the
/// estimate is within one of the root and t(t+1) cannot overflow, so the
/// fixup is one branch-free step each way: a branch there depends on the
/// random draw, mispredicts, and makes the decode 2–3x slower.
inline Interaction decodePair(std::uint64_t r, std::size_t n,
                              std::uint64_t total) noexcept {
  const std::uint64_t s = total - 1 - r;
  auto t = static_cast<std::uint64_t>(
      (std::sqrt(static_cast<double>(s) * 8.0 + 1.0) - 1.0) * 0.5);
  std::uint64_t row_base = 0;  // t(t+1)/2
  if (t < (std::uint64_t{1} << 31)) {
    t += ((t + 1) * (t + 2) >> 1) <= s;
    t -= (t * (t + 1) >> 1) > s;
    row_base = t * (t + 1) >> 1;
  } else {
    while (triangular(t + 1) <= s) ++t;
    while (triangular(t) > s) --t;
    row_base = triangular(t);
  }
  const std::uint64_t off = s - row_base;  // off <= t, so u < v
  return Interaction::presorted(static_cast<NodeId>(n - 2 - t),
                                static_cast<NodeId>(n - 1 - off));
}

/// Bulk fast path for the v2 sampler: for moderate n the index decode is a
/// single lookup into a per-thread row table of n, reused across calls
/// (experiments hold n fixed across trials). The table stores only the row
/// u of each lexicographic index r; the column follows arithmetically from
/// the row-start closed form rowStart(u) = u*(2n-1-u)/2 as
/// v = r - rowStart(u) + u + 1. Storing u16 rows instead of packed pairs
/// halves the footprint — the n = 1024 table is 1 MiB, L2-resident even
/// while the measure scan competes for cache — and the cap bounds a table
/// at 2 MiB per thread (total <= 2^20 forces n <= 1449, so rows fit u16).
/// The draw stream stays exactly one below(total) per pair, and the decode
/// equals decodePair(r, n, total) by construction, so the output is
/// bit-identical to the sqrt decode — which remains in place for n past
/// the cap, where the branch-free decode costs about 1.5–2x a lookup.
inline constexpr std::uint64_t kPairTableMaxEntries = std::uint64_t{1} << 20;

const std::vector<std::uint16_t>& pairRowTable(std::size_t n) {
  thread_local std::size_t cached_n = 0;
  thread_local std::vector<std::uint16_t> table;
  if (cached_n != n) {
    table.clear();
    table.reserve(triangular(static_cast<std::uint64_t>(n) - 1));
    for (std::uint32_t u = 0; u + 1 < n; ++u)
      for (std::uint32_t v = u + 1; v < n; ++v)
        table.push_back(static_cast<std::uint16_t>(u));
    cached_n = n;
  }
  return table;
}

}  // namespace

Interaction uniformPair(std::size_t n, util::Rng& rng, SeedFormat format) {
  if (n < 2) throw std::invalid_argument("uniformPair: need n >= 2");
  if (format == SeedFormat::v1) {
    const auto u = static_cast<NodeId>(rng.below(n));
    auto v = static_cast<NodeId>(rng.below(n - 1));
    if (v >= u) ++v;  // uniform over the n-1 other nodes
    return Interaction(u, v);
  }
  const std::uint64_t total = triangular(static_cast<std::uint64_t>(n) - 1);
  return decodePair(rng.below(total), n, total);
}

Interaction pairFromIndex(std::uint64_t r, std::size_t n) {
  if (n < 2) throw std::invalid_argument("pairFromIndex: need n >= 2");
  const std::uint64_t total = triangular(static_cast<std::uint64_t>(n) - 1);
  if (r >= total) throw std::out_of_range("pairFromIndex: index out of range");
  return decodePair(r, n, total);
}

void appendUniform(std::size_t n, std::size_t count, util::Rng& rng,
                   std::vector<Interaction>& out, SeedFormat format) {
  if (n < 2) throw std::invalid_argument("appendUniform: need n >= 2");
  // Callers append chunk after chunk to one long committed buffer: leave
  // its growth to push_back, which is geometric, since reserving exactly
  // `count` more would reallocate it for every chunk.
  if (format == SeedFormat::v1) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto u = static_cast<NodeId>(rng.below(n));
      auto v = static_cast<NodeId>(rng.below(n - 1));
      if (v >= u) ++v;
      out.emplace_back(u, v);
    }
    return;
  }
  const std::uint64_t total = triangular(static_cast<std::uint64_t>(n) - 1);
  if (total <= kPairTableMaxEntries) {
    const std::uint16_t* rows = pairRowTable(n).data();
    const std::uint64_t two_n_minus_1 = 2 * static_cast<std::uint64_t>(n) - 1;
    // Two passes per chunk: drawing the chunk's indices first lets every
    // table line be prefetched while later draws are still in flight, so
    // the lookups run at full memory-level parallelism instead of one
    // L2/L3 miss at a time (the n = 1024 table does not fit L1). The
    // high-locality hint pulls lines into L1 — a chunk touches at most
    // 512 lines (32 KiB), under the 48 KiB L1d — which measures ~10%
    // faster than stopping at L2.
    constexpr std::size_t kChunk = 512;
    std::uint32_t idx[kChunk];
    for (std::size_t done = 0; done < count;) {
      const std::size_t m = std::min(count - done, kChunk);
      for (std::size_t k = 0; k < m; ++k) {
        const auto r = static_cast<std::uint32_t>(rng.below(total));
        idx[k] = r;
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(rows + r, 0, 3);
#endif
      }
      for (std::size_t k = 0; k < m; ++k) {
        const std::uint32_t r = idx[k];
        const std::uint64_t a = rows[r];
        const std::uint64_t row_start = a * (two_n_minus_1 - a) / 2;
        out.push_back(Interaction::presorted(
            static_cast<NodeId>(a),
            static_cast<NodeId>(r - row_start + a + 1)));
      }
      done += m;
    }
    return;
  }
  for (std::size_t k = 0; k < count; ++k)
    out.push_back(decodePair(rng.below(total), n, total));
}

InteractionSequence uniformRandom(std::size_t n, Time length, util::Rng& rng,
                                  SeedFormat format) {
  std::vector<Interaction> out;
  out.reserve(static_cast<std::size_t>(length));
  appendUniform(n, static_cast<std::size_t>(length), rng, out, format);
  return InteractionSequence(std::move(out));
}

ZipfPairDistribution::ZipfPairDistribution(std::size_t n, double exponent)
    : weights_(n) {
  if (n < 2) throw std::invalid_argument("ZipfPairDistribution: n >= 2");
  for (std::size_t i = 0; i < n; ++i)
    weights_[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
}

Interaction ZipfPairDistribution::sample(util::Rng& rng) const {
  const auto u = static_cast<NodeId>(rng.weighted(weights_));
  // Sample the second endpoint from the residual distribution (without
  // replacement) by rejection; acceptance probability is >= 1 - w_max.
  for (;;) {
    const auto v = static_cast<NodeId>(rng.weighted(weights_));
    if (v != u) return Interaction(u, v);
  }
}

void ZipfPairDistribution::append(std::size_t count, util::Rng& rng,
                                  std::vector<Interaction>& out) const {
  for (std::size_t k = 0; k < count; ++k) out.push_back(sample(rng));
}

InteractionSequence zipfRandom(std::size_t n, Time length, double exponent,
                               util::Rng& rng) {
  const ZipfPairDistribution dist(n, exponent);
  std::vector<Interaction> out;
  out.reserve(static_cast<std::size_t>(length));
  dist.append(static_cast<std::size_t>(length), rng, out);
  return InteractionSequence(std::move(out));
}

InteractionSequence roundRobin(const graph::StaticGraph& g,
                               std::size_t rounds) {
  const auto edges = g.edges();
  std::vector<Interaction> out;
  out.reserve(edges.size() * rounds);
  for (std::size_t r = 0; r < rounds; ++r)
    for (const auto& [u, v] : edges) out.emplace_back(u, v);
  return InteractionSequence(std::move(out));
}

InteractionSequence shuffledRounds(const graph::StaticGraph& g,
                                   std::size_t rounds, util::Rng& rng) {
  auto edges = g.edges();
  std::vector<Interaction> out;
  out.reserve(edges.size() * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    rng.shuffle(edges);
    for (const auto& [u, v] : edges) out.emplace_back(u, v);
  }
  return InteractionSequence(std::move(out));
}

graph::StaticGraph pathGraph(std::size_t n) {
  graph::StaticGraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  return g;
}

graph::StaticGraph ringGraph(std::size_t n) {
  if (n < 3) throw std::invalid_argument("ringGraph: need n >= 3");
  auto g = pathGraph(n);
  g.addEdge(static_cast<NodeId>(n - 1), 0);
  return g;
}

graph::StaticGraph starGraph(std::size_t n, graph::NodeId center) {
  graph::StaticGraph g(n);
  for (NodeId i = 0; i < n; ++i)
    if (i != center) g.addEdge(center, i);
  return g;
}

graph::StaticGraph completeGraph(std::size_t n) {
  graph::StaticGraph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.addEdge(u, v);
  return g;
}

graph::StaticGraph randomTree(std::size_t n, util::Rng& rng) {
  graph::StaticGraph g(n);
  for (NodeId i = 1; i < n; ++i)
    g.addEdge(i, static_cast<NodeId>(rng.below(i)));
  return g;
}

graph::StaticGraph randomConnected(std::size_t n, std::size_t extra_edges,
                                   util::Rng& rng) {
  auto g = randomTree(n, rng);
  const std::size_t max_extra = n * (n - 1) / 2 - (n - 1);
  extra_edges = std::min(extra_edges, max_extra);
  std::size_t added = 0;
  while (added < extra_edges) {
    const auto i = uniformPair(n, rng);
    if (!g.hasEdge(i.a(), i.b())) {
      g.addEdge(i.a(), i.b());
      ++added;
    }
  }
  return g;
}

InteractionSequence bodySensorTrace(const BodySensorConfig& config,
                                    util::Rng& rng) {
  if (config.sensors < 2)
    throw std::invalid_argument("bodySensorTrace: need >= 2 sensors");
  if (config.min_period == 0 || config.min_period > config.max_period)
    throw std::invalid_argument("bodySensorTrace: bad period range");
  const std::size_t n = config.sensors + 1;  // node 0 is the hub/sink

  std::vector<Time> period(n, 0);
  for (std::size_t i = 1; i < n; ++i)
    period[i] = static_cast<Time>(
        rng.between(static_cast<std::int64_t>(config.min_period),
                    static_cast<std::int64_t>(config.max_period)));

  std::vector<Interaction> out;
  for (Time slot = 1; slot <= config.slots; ++slot) {
    // Hub contacts: sensor i checks in around every period[i] slots.
    for (std::size_t i = 1; i < n; ++i) {
      const Time jitter =
          config.jitter == 0
              ? 0
              : static_cast<Time>(rng.below(2 * config.jitter + 1));
      const Time phase = (slot + jitter) % period[i];
      if (phase == 0) out.emplace_back(0, static_cast<NodeId>(i));
    }
    // Peer contacts between adjacent body positions (i, i+1).
    for (std::size_t i = 1; i + 1 < n; ++i)
      if (rng.chance(config.peer_contact_rate))
        out.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return InteractionSequence(std::move(out));
}

InteractionSequence vehicularTrace(const VehicularConfig& config,
                                   util::Rng& rng) {
  if (config.width == 0 || config.height == 0)
    throw std::invalid_argument("vehicularTrace: empty grid");
  if (config.cars < 2)
    throw std::invalid_argument("vehicularTrace: need >= 2 cars");
  const std::size_t cells = config.width * config.height;
  const std::size_t rsu_cell =
      (config.height / 2) * config.width + config.width / 2;

  // Node 0 is the RSU/sink; cars are nodes 1..cars.
  std::vector<std::size_t> pos(config.cars + 1);
  pos[0] = rsu_cell;
  for (std::size_t c = 1; c <= config.cars; ++c) pos[c] = rng.below(cells);

  auto step = [&](std::size_t cell) {
    const std::size_t x = cell % config.width;
    const std::size_t y = cell / config.width;
    switch (rng.below(5)) {
      case 0:
        return cell;  // wait at intersection
      case 1:
        return y * config.width + (x + 1 < config.width ? x + 1 : x);
      case 2:
        return y * config.width + (x > 0 ? x - 1 : x);
      case 3:
        return (y + 1 < config.height ? y + 1 : y) * config.width + x;
      default:
        return (y > 0 ? y - 1 : y) * config.width + x;
    }
  };

  std::vector<Interaction> out;
  for (Time t = 0; t < config.steps; ++t) {
    for (std::size_t c = 1; c <= config.cars; ++c) pos[c] = step(pos[c]);
    // Serialize this step's co-location contacts in id order.
    for (std::size_t a = 0; a <= config.cars; ++a)
      for (std::size_t b = a + 1; b <= config.cars; ++b)
        if (pos[a] == pos[b])
          out.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
  }
  return InteractionSequence(std::move(out));
}

}  // namespace doda::dynagraph::traces
