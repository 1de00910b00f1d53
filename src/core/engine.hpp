#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/adversary.hpp"
#include "core/algorithm.hpp"
#include "core/data.hpp"
#include "core/execution_view.hpp"
#include "dynagraph/interaction_sequence.hpp"

namespace doda::core {

/// Thrown when an algorithm (or adversary) violates the model: making the
/// sink transmit, naming a non-endpoint as receiver, or interacting with an
/// out-of-range node. These are programming errors in the algorithm under
/// test, never recoverable conditions.
class ModelViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Per-execution fault-injection hooks (paper concluding remarks / ROADMAP
/// item 4b). Implemented by fault::FaultSession over a pre-drawn
/// fault::FaultPlan; the engine consults the injector on its faulty run
/// loop only — a null RunOptions::faults leaves the fault-free path (and
/// its golden statistics) untouched.
///
/// Determinism contract: after reset(), every answer must be a pure
/// function of its arguments and of the injector's pre-drawn state. The
/// engine calls beginInteraction exactly once per dispatched interaction,
/// in time order, so stateful loss processes (Gilbert–Elliott bursts)
/// advance identically for every thread count.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Called once before the run starts.
  virtual void reset(const SystemInfo& info) = 0;

  /// Time at which node u crash-stops (it neither transmits nor receives
  /// during interactions at or after this time); dynagraph::kNever means
  /// the node never crashes. Must be constant over the run and never name
  /// the sink.
  virtual Time crashTime(NodeId u) const = 0;

  /// Whether node u is Byzantine: it lies to meetTime oracles (see
  /// fault::FaultyMeetTimeOracle), poisons every datum it transmits, and
  /// keeps a ghost copy of transmitted data that it may maliciously replay
  /// (the engine rolls overlapping replays back). Never the sink.
  virtual bool isByzantine(NodeId u) const = 0;

  /// Advances the per-interaction loss process to time t (called for every
  /// dispatched interaction, transfer or not).
  virtual void beginInteraction(Time t) = 0;

  /// Whether the transmission attempted during interaction t is lost. Only
  /// meaningful after beginInteraction(t); must not consume randomness
  /// (the verdict for t is pre-drawn by beginInteraction).
  virtual bool transmissionLost(Time t) = 0;
};

/// Degradation bookkeeping of one faulty execution. "Honest" counts
/// non-Byzantine origins; the sink's own origin is trivially delivered.
struct FaultOutcome {
  /// Transmissions the algorithm ordered (lost + rejected + applied).
  std::uint64_t attempted_transmissions = 0;
  /// Attempts dropped by the loss process (sender keeps its data and may
  /// retry — the relaxed transmit-once rule).
  std::uint64_t lost_transmissions = 0;
  /// Applied transfers whose sender had at least one earlier lost attempt.
  std::uint64_t retransmissions = 0;
  /// Interactions skipped because an endpoint had crash-stopped while both
  /// endpoints still owned data (a transfer might otherwise have happened).
  std::uint64_t crash_blocked_interactions = 0;
  /// Byzantine ghost replays rolled back because the receiver already held
  /// an overlapping source set.
  std::uint64_t rejected_transfers = 0;
  /// Non-Byzantine origins in the system, the sink's included.
  std::size_t honest_total = 0;
  /// Honest origins aggregated at the sink by the end of the run.
  std::size_t delivered_honest = 0;
  /// Honest origins stranded at the end: undelivered and held only by
  /// crash-stopped nodes.
  std::size_t stranded_honest = 0;
  /// Whether a datum that passed through a Byzantine node reached the sink.
  bool sink_poisoned = false;
  /// Every honest origin reached the sink (completion under faults; the
  /// aggregate is still only trustworthy when !sink_poisoned).
  bool completed = false;
  /// The run stopped early because no live non-sink node owned data any
  /// more — every undelivered honest origin is stranded for good.
  bool blocked = false;

  /// Honest origins that never reached the sink.
  std::size_t residual() const noexcept {
    return honest_total - delivered_honest;
  }
};

/// Outcome of one execution.
struct ExecutionResult {
  /// True iff the sink ended as the only data owner.
  bool terminated = false;
  /// Time index of the last transmission; kNever if no transmission.
  Time last_transmission_time = dynagraph::kNever;
  /// "Terminates in X interactions": number of interactions up to and
  /// including the terminating one (only meaningful when terminated).
  Time interactions_to_terminate = dynagraph::kNever;
  /// Interactions dispatched in total (== the above when terminated).
  Time interactions_dispatched = 0;
  /// Every applied transfer, in time order (size == n-1 iff terminated).
  /// Left empty when RunOptions::capture_schedule is false.
  std::vector<TransmissionRecord> schedule;
  /// The sink's datum at the end of the run.
  Datum sink_datum;
  /// Degradation bookkeeping; engaged iff the run used RunOptions::faults.
  /// In a faulty run `terminated` means completion under faults (every
  /// honest origin delivered), not owner_count == 1.
  std::optional<FaultOutcome> fault;
};

/// Options for one execution.
struct RunOptions {
  /// Hard cap on dispatched interactions (guards non-terminating runs).
  Time max_interactions = Time{1} << 32;
  /// Initial per-node values; empty means every node starts at 1.0.
  std::vector<double> initial_values;
  /// Whether to copy the transmission schedule into the result. The
  /// schedule is always recorded during the run (algorithms and adversaries
  /// may consult ExecutionView::schedule()); measurement loops that only
  /// need the scalar outcome skip the copy.
  bool capture_schedule = true;
  /// When non-null, the engine runs its faulty loop: transmissions may be
  /// lost (the sender stays live and may transmit again later — an explicit
  /// relaxation of the transmit-once rule, tracked in FaultOutcome),
  /// crash-stopped nodes strand the data they hold, and Byzantine nodes
  /// poison what they transmit. Null (the default) is the exact paper
  /// model, bit-identical to pre-fault builds. The injector must outlive
  /// the run and is reset by the engine.
  FaultInjector* faults = nullptr;
};

/// Executes a DODA algorithm against an adversary and enforces the model
/// (paper §2): each node transmits at most once, a transfer requires both
/// endpoints to own data, the sink never transmits, transfers take one time
/// unit (one interaction).
class Engine {
 public:
  /// Reusable per-execution storage (node data, ownership flags, schedule).
  /// A Scratch handed to consecutive runInto() calls lets the engine reuse
  /// vector capacity instead of reallocating every trial; each worker
  /// thread of a parallel measurement owns one. A Scratch must not be used
  /// by two runs concurrently.
  class Scratch {
   public:
    struct Impl;  // defined in engine.cpp

    Scratch();
    ~Scratch();
    Scratch(Scratch&&) noexcept;
    Scratch& operator=(Scratch&&) noexcept;

   private:
    friend class Engine;
    std::unique_ptr<Impl> impl_;
  };

  Engine(SystemInfo info, AggregationFunction aggregation);

  const SystemInfo& system() const noexcept { return info_; }

  /// Runs `algorithm` against `adversary` until the sink is the only data
  /// owner, the adversary is exhausted, or `options.max_interactions` is
  /// reached.
  ExecutionResult run(DodaAlgorithm& algorithm, Adversary& adversary,
                      const RunOptions& options = {});

  /// As run(), but reusing `scratch`'s storage for the execution state.
  ExecutionResult runInto(Scratch& scratch, DodaAlgorithm& algorithm,
                          Adversary& adversary,
                          const RunOptions& options = {});

 private:
  SystemInfo info_;
  AggregationFunction aggregation_;
};

/// Reusable storage for validateConvergecastSchedule's transmitted bitmap.
/// Callers validating many schedules (replay loops, fuzzers) hand the same
/// scratch to every call so the success path performs no allocation.
struct ScheduleValidationScratch {
  std::vector<char> transmitted;
};

/// Validates that `schedule` is a correct convergecast for an n-node system
/// over `sequence`: every transfer matches the interaction at its time,
/// times strictly increase, no node transmits twice or after transmitting,
/// the sink never transmits, and all n-1 non-sink nodes transmit.
/// Returns true iff valid; if `error` is non-null, stores the reason.
/// Takes a lightweight view so replayed (streamed / borrowed) trials can be
/// validated without materializing an owned sequence; an
/// InteractionSequence converts implicitly.
bool validateConvergecastSchedule(
    const std::vector<TransmissionRecord>& schedule,
    dynagraph::InteractionSequenceView sequence, const SystemInfo& info,
    ScheduleValidationScratch& scratch, std::string* error = nullptr);

/// Convenience overload allocating a fresh scratch per call.
bool validateConvergecastSchedule(
    const std::vector<TransmissionRecord>& schedule,
    dynagraph::InteractionSequenceView sequence, const SystemInfo& info,
    std::string* error = nullptr);

}  // namespace doda::core
