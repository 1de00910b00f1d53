#include "sim/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace doda::sim {

std::size_t resolveThreads(std::size_t requested, std::size_t trials) {
  std::size_t threads = requested;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;  // hardware_concurrency may be unknown
  }
  if (trials > 0 && threads > trials) threads = trials;
  return threads > 0 ? threads : 1;
}

void foldOutcome(MeasureResult& out, const TrialOutcome& outcome) {
  if (!outcome.success) {
    ++out.failed_trials;
    return;
  }
  out.interactions.add(outcome.interactions);
  if (outcome.has_cost) out.cost.add(outcome.cost);
}

std::vector<std::uint64_t> drawTrialSeeds(std::uint64_t master_seed,
                                          std::size_t trials) {
  util::Rng master(master_seed);
  std::vector<std::uint64_t> seeds(trials);
  for (auto& seed : seeds) seed = master();
  return seeds;
}

namespace {

/// Runs task(0), ..., task(count - 1): inline in index order when the
/// resolved thread count is 1, otherwise on a pool of workers pulling
/// indices from a shared counter, each with its own Scratch.
void runIndexedTasks(
    std::size_t count, std::size_t threads,
    const std::function<void(std::size_t, core::Engine::Scratch&)>& task) {
  threads = resolveThreads(threads, count);

  if (threads <= 1) {
    // Serial path: same tasks, index order, no thread spawn.
    core::Engine::Scratch scratch;
    for (std::size_t index = 0; index < count; ++index) task(index, scratch);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    core::Engine::Scratch scratch;
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count || stop.load(std::memory_order_relaxed)) return;
      try {
        task(index, scratch);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
  } catch (...) {
    // A worker that cannot start (std::system_error) must not leave the
    // started ones joinable: that would end the process in std::terminate.
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : pool) thread.join();
    throw;
  }
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

void foldInOrder(std::size_t slots, std::size_t tasks, std::size_t threads,
                 const RunControl* control, const SlotTask& task,
                 const SlotFold& fold) {
  const bool observed = control != nullptr && control->progress != nullptr;
  const std::atomic<bool>* cancel =
      control != nullptr ? control->cancel : nullptr;
  const auto poll_cancel = [cancel] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      throw RunCancelled();
  };

  // Incremental-fold state (observed runs only): completion flags plus the
  // index of the first slot not yet folded. The fold still advances
  // strictly in slot order — a worker filling slot 7 before slot 3 only
  // parks it until the prefix catches up.
  std::vector<std::uint8_t> done(observed ? slots : 0, 0);
  std::size_t folded = 0;
  std::mutex fold_mutex;
  const SlotFilled filled = [&](std::size_t slot) {
    if (observed) {
      const std::lock_guard<std::mutex> lock(fold_mutex);
      done[slot] = 1;
      while (folded < slots && done[folded]) {
        const MeasureResult& prefix = fold(folded);
        ++folded;
        control->progress(folded, prefix);
      }
    }
    poll_cancel();
  };

  runIndexedTasks(tasks, threads,
                  [&](std::size_t index, core::Engine::Scratch& scratch) {
                    poll_cancel();
                    task(index, scratch, filled);
                  });
  if (observed) return;

  // Ordered fold: slot 0, 1, 2, ... regardless of which worker filled
  // what, so the floating-point accumulation is identical for every thread
  // count.
  for (std::size_t slot = 0; slot < slots; ++slot) fold(slot);
}

MeasureResult runTrials(std::size_t trials, std::uint64_t master_seed,
                        std::size_t threads, const TrialBody& body,
                        const RunControl* control) {
  const std::vector<std::uint64_t> seeds = drawTrialSeeds(master_seed, trials);
  std::vector<TrialOutcome> outcomes(trials);
  MeasureResult out;
  foldInOrder(
      trials, trials, threads, control,
      [&](std::size_t trial, core::Engine::Scratch& scratch,
          const SlotFilled& filled) {
        outcomes[trial] = body(trial, seeds[trial], scratch);
        filled(trial);
      },
      [&](std::size_t trial) -> const MeasureResult& {
        foldOutcome(out, outcomes[trial]);
        return out;
      });
  return out;
}

}  // namespace doda::sim
