// Heap-tracking test for the engine hot path: after a warm-up run over the
// same Scratch, an execution must perform zero steady-state allocations
// (small systems) or at most the constant result-copy allocations (spilled
// source sets). A replaced global operator new/delete counts allocations on
// the test thread while armed; everything forwards to malloc/free, so the
// counter is sanitizer-compatible.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "adversary/randomized_adversary.hpp"
#include "adversary/sequence_adversary.hpp"
#include "algorithms/gathering.hpp"
#include "core/engine.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace doda::core {
namespace {

using dynagraph::InteractionSequence;

/// Runs `body` with allocation counting armed and returns the count.
template <typename F>
std::size_t countAllocations(F&& body) {
  t_allocations = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocations;
}

TEST(EngineAllocation, SteadyStateIsAllocationFreeForInlineSets) {
  // n = 8 keeps every source set in the inline representation, so after
  // one warm-up trial a whole execution — including the result copy —
  // must not touch the heap.
  const std::size_t n = 8;
  util::Rng rng(42);
  const auto seq = dynagraph::traces::uniformRandom(n, 4000, rng);
  algorithms::Gathering algorithm;
  Engine engine({n, 0}, AggregationFunction::count());
  Engine::Scratch scratch;
  RunOptions options;
  options.capture_schedule = false;

  {
    adversary::SequenceViewAdversary warmup{seq};
    const auto r = engine.runInto(scratch, algorithm, warmup, options);
    ASSERT_TRUE(r.terminated);
  }
  for (int trial = 0; trial < 3; ++trial) {
    adversary::SequenceViewAdversary adversary{seq};
    ExecutionResult result;
    const std::size_t allocations = countAllocations([&] {
      result = engine.runInto(scratch, algorithm, adversary, options);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(result.sink_datum.sources.size(), n);
    EXPECT_EQ(allocations, 0u) << "trial " << trial;
  }
}

TEST(EngineAllocation, SteadyStateSpilledSetsAllocateOnlyTheResultCopy) {
  // n = 200 forces sink-side source sets into the spilled (bitset)
  // representation. The per-transfer path must stay allocation-free after
  // warm-up; only copying the spilled sink datum into the result may
  // allocate, and that is a constant independent of n and trial length.
  const std::size_t n = 200;
  util::Rng rng(7);
  InteractionSequence seq;
  while (true) {
    seq = dynagraph::traces::uniformRandom(n, 200 * n, rng);
    algorithms::Gathering probe;
    if (doda::testing::runOn(probe, seq, n, 0).terminated) break;
  }

  algorithms::Gathering algorithm;
  Engine engine({n, 0}, AggregationFunction::count());
  Engine::Scratch scratch;
  RunOptions options;
  options.capture_schedule = false;

  {
    adversary::SequenceViewAdversary warmup{seq};
    const auto r = engine.runInto(scratch, algorithm, warmup, options);
    ASSERT_TRUE(r.terminated);
  }
  for (int trial = 0; trial < 3; ++trial) {
    adversary::SequenceViewAdversary adversary{seq};
    ExecutionResult result;
    const std::size_t allocations = countAllocations([&] {
      result = engine.runInto(scratch, algorithm, adversary, options);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(result.sink_datum.sources.size(), n);
    // n-1 transfers happened; a pre-refactor merged-vector implementation
    // allocated at least once per transfer.
    EXPECT_LE(allocations, 2u) << "trial " << trial;
  }
}

TEST(EngineAllocation, ScratchReuseAcrossDifferentSequences) {
  // Different randomness each trial (the measurement-loop shape): once
  // every datum's spilled buffer has warmed up, later trials stop
  // allocating regardless of which nodes spill.
  const std::size_t n = 64;
  algorithms::Gathering algorithm;
  Engine engine({n, 0}, AggregationFunction::count());
  Engine::Scratch scratch;
  RunOptions options;
  options.capture_schedule = false;
  util::Rng rng(99);

  std::size_t last = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const auto seq = dynagraph::traces::uniformRandom(n, 100 * n, rng);
    adversary::SequenceViewAdversary adversary{seq};
    last = countAllocations(
        [&] { engine.runInto(scratch, algorithm, adversary, options); });
  }
  // After several warm trials the steady state is just the result copy.
  EXPECT_LE(last, 2u);
}

TEST(EngineAllocation, WarmLazyTrialAllocationsDoNotGrowWithItsLength) {
  // The measureRandomized trial shape: a fresh lazy adversary per trial,
  // one Scratch, one thread. Once a trial as long has run on the thread,
  // the committed buffer it parked is reused, so a trial allocates a
  // constant (its LazySequence and the result's spilled sink datum),
  // although n = 512 commits about 60x what n = 64 does.
  std::size_t counts[2] = {0, 0};
  for (const std::size_t n : {64u, 512u}) {
    Engine engine({n, 0}, AggregationFunction::count());
    Engine::Scratch scratch;
    algorithms::Gathering algorithm;
    RunOptions options;
    options.capture_schedule = false;
    Time committed = 0;
    const auto trial = [&] {
      // The same seed every time, so the warm-up is exactly as long.
      adversary::RandomizedAdversary adversary(n, 17);
      const auto r = engine.runInto(scratch, algorithm, adversary, options);
      EXPECT_TRUE(r.terminated);
      committed = adversary.lazySequence().generatedLength();
    };
    trial();
    counts[n == 512] = countAllocations(trial);
    EXPECT_GT(committed, 16 * n) << "n=" << n;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

}  // namespace
}  // namespace doda::core
