#include "core/engine.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

namespace doda::core {

struct Engine::Scratch::Impl {
  std::vector<Datum> data;
  std::vector<bool> owns;
  std::vector<TransmissionRecord> schedule;
  // Faulty-run bookkeeping (untouched by the fault-free path; capacity is
  // retained across trials like everything else in the scratch).
  std::vector<char> poisoned;
  std::vector<char> lost_attempt;
  std::vector<std::pair<Time, NodeId>> crash_events;
  std::vector<NodeId> byzantine_ids;
};

Engine::Scratch::Scratch() : impl_(std::make_unique<Impl>()) {}
Engine::Scratch::~Scratch() = default;
Engine::Scratch::Scratch(Scratch&&) noexcept = default;
Engine::Scratch& Engine::Scratch::operator=(Scratch&&) noexcept = default;

namespace {

/// Mutable execution state over a Scratch's storage, exposed read-only
/// through ExecutionView. Resets the storage in place so repeated trials
/// reuse vector capacity (including each Datum's source-set buffer).
class State final : public ExecutionView {
 public:
  State(const SystemInfo& info, const AggregationFunction& aggregation,
        const std::vector<double>& initial_values,
        Engine::Scratch::Impl& scratch)
      : info_(info), aggregation_(aggregation), scratch_(scratch) {
    scratch_.data.resize(info.node_count);
    for (NodeId u = 0; u < info.node_count; ++u) {
      Datum& d = scratch_.data[u];
      d.value = initial_values.empty() ? 1.0 : initial_values.at(u);
      d.sources.reset(u);
    }
    scratch_.owns.assign(info.node_count, true);
    scratch_.schedule.clear();
    owner_count_ = info.node_count;
  }

  const SystemInfo& system() const override { return info_; }

  bool ownsData(NodeId u) const override {
    checkNode(u);
    return scratch_.owns[u];
  }

  const Datum& datumOf(NodeId u) const override {
    checkNode(u);
    return scratch_.data[u];
  }

  std::size_t ownerCount() const override { return owner_count_; }

  const std::vector<TransmissionRecord>& schedule() const override {
    return scratch_.schedule;
  }

  Time now() const override { return now_; }

  void advance() { ++now_; }

  void checkNode(NodeId u) const {
    if (u >= info_.node_count)
      throw ModelViolation("node id out of range");
  }

  /// ownsData for two ids already checked in range.
  bool bothOwn(NodeId a, NodeId b) const {
    return scratch_.owns[a] && scratch_.owns[b];
  }

  bool terminated() const {
    return owner_count_ == 1;  // the sink never transmits, so it is the one
  }

  void transfer(Time t, NodeId sender, NodeId receiver) {
    if (sender == info_.sink)
      throw ModelViolation("the sink must never transmit");
    if (!scratch_.owns[sender] || !scratch_.owns[receiver])
      throw ModelViolation("transfer requires both endpoints to own data");
    aggregation_.aggregateInto(scratch_.data[receiver],
                               scratch_.data[sender]);
    scratch_.owns[sender] = false;
    --owner_count_;
    scratch_.schedule.push_back({t, sender, receiver});
  }

  /// Faulty-mode transfer. The caller has already verified ownership, the
  /// sink rule and source disjointness. A Byzantine `ghost_sender` keeps a
  /// ghost copy of its datum (it lies about having transmitted) and stays
  /// an owner — the relaxation the fault model tracks explicitly.
  void transferFaulty(Time t, NodeId sender, NodeId receiver,
                      bool ghost_sender) {
    aggregation_.aggregateInto(scratch_.data[receiver],
                               scratch_.data[sender]);
    if (!ghost_sender) {
      scratch_.owns[sender] = false;
      --owner_count_;
    }
    scratch_.schedule.push_back({t, sender, receiver});
  }

  Engine::Scratch::Impl& scratch() { return scratch_; }

 private:
  const SystemInfo& info_;
  const AggregationFunction& aggregation_;
  Engine::Scratch::Impl& scratch_;
  std::size_t owner_count_ = 0;
  Time now_ = 0;
};

/// The engine loop under fault injection (RunOptions::faults non-null).
/// Kept fully separate from the fault-free loop so the paper-exact path
/// stays bit-identical to pre-fault builds. Semantics (README "Fault
/// models"): a lost transmission leaves the sender live to retry later; a
/// crash-stopped node neither transmits nor receives and strands the data
/// it holds; a Byzantine sender poisons what it delivers and keeps a ghost
/// copy it may replay (overlapping replays are rolled back before any
/// mutation). Termination means completion under faults: every honest
/// (non-Byzantine) origin aggregated at the sink.
ExecutionResult runFaulty(const SystemInfo& info, State& state,
                          DodaAlgorithm& algorithm, Adversary& adversary,
                          const RunOptions& options, FaultInjector& faults) {
  faults.reset(info);
  if (faults.crashTime(info.sink) != dynagraph::kNever)
    throw ModelViolation("fault plan crashes the sink");
  if (faults.isByzantine(info.sink))
    throw ModelViolation("fault plan makes the sink Byzantine");

  Engine::Scratch::Impl& scratch = state.scratch();
  const std::size_t n = info.node_count;
  scratch.poisoned.assign(n, 0);
  scratch.lost_attempt.assign(n, 0);
  scratch.byzantine_ids.clear();
  scratch.crash_events.clear();
  for (NodeId u = 0; u < n; ++u) {
    if (faults.isByzantine(u)) {
      scratch.byzantine_ids.push_back(u);
      scratch.poisoned[u] = 1;
    }
    const Time c = faults.crashTime(u);
    if (c != dynagraph::kNever) scratch.crash_events.emplace_back(c, u);
  }
  std::sort(scratch.crash_events.begin(), scratch.crash_events.end());

  // Honest origins currently in a source set: everything but the (few)
  // Byzantine ids. Exact on sink merges because those are disjoint.
  const auto honestIn = [&scratch](const SourceSet& sources) {
    std::size_t count = sources.size();
    for (const NodeId b : scratch.byzantine_ids)
      if (sources.contains(b)) --count;
    return count;
  };

  FaultOutcome fo;
  fo.honest_total = n - scratch.byzantine_ids.size();
  fo.delivered_honest = 1;  // the sink's own origin (the sink is honest)

  ExecutionResult result;
  std::size_t crash_cursor = 0;
  std::size_t live_nonsink_owners = n - 1;
  if (fo.delivered_honest == fo.honest_total) {
    // Degenerate plan: every non-sink node is Byzantine, nothing honest to
    // collect.
    fo.completed = true;
    result.interactions_to_terminate = 0;
  }

  while (!fo.completed && state.now() < options.max_interactions) {
    const Time t = state.now();
    const auto interaction = adversary.next(t, state);
    if (!interaction) break;
    state.checkNode(interaction->a());
    state.checkNode(interaction->b());
    state.advance();
    faults.beginInteraction(t);

    // Crash-stop events due at or before t: a node that still owned data
    // strands it (live-owner accounting feeds the blocked early-exit).
    while (crash_cursor < scratch.crash_events.size() &&
           scratch.crash_events[crash_cursor].first <= t) {
      const NodeId u = scratch.crash_events[crash_cursor].second;
      ++crash_cursor;
      if (u != info.sink && state.ownsData(u)) --live_nonsink_owners;
    }

    const NodeId a = interaction->a();
    const NodeId b = interaction->b();
    const bool a_dead = faults.crashTime(a) <= t;
    const bool b_dead = faults.crashTime(b) <= t;
    if (a_dead || b_dead) {
      if (state.ownsData(a) && state.ownsData(b))
        ++fo.crash_blocked_interactions;
      if (live_nonsink_owners == 0) break;
      continue;
    }
    if (!state.ownsData(a) || !state.ownsData(b)) continue;

    const auto receiver = algorithm.decide(*interaction, t, state);
    if (!receiver) continue;
    if (!interaction->involves(*receiver))
      throw ModelViolation("receiver is not an interaction endpoint");
    const NodeId sender = interaction->other(*receiver);
    if (sender == info.sink)
      throw ModelViolation("the sink must never transmit");

    ++fo.attempted_transmissions;
    if (faults.transmissionLost(t)) {
      // The attempt consumed nothing: the sender stays live and may
      // transmit again later (the relaxed transmit-once rule).
      ++fo.lost_transmissions;
      scratch.lost_attempt[sender] = 1;
      continue;
    }
    if (state.datumOf(*receiver).sources.intersects(
            state.datumOf(sender).sources)) {
      // A Byzantine ghost replaying data the receiver (transitively)
      // already aggregated — rolled back before any mutation.
      ++fo.rejected_transfers;
      continue;
    }

    const bool ghost = faults.isByzantine(sender);
    std::size_t incoming_honest = 0;
    if (*receiver == info.sink)
      incoming_honest = honestIn(state.datumOf(sender).sources);
    state.transferFaulty(t, sender, *receiver, ghost);
    if (scratch.poisoned[sender]) scratch.poisoned[*receiver] = 1;
    if (scratch.lost_attempt[sender]) {
      ++fo.retransmissions;
      scratch.lost_attempt[sender] = 0;
    }
    if (!ghost) --live_nonsink_owners;
    if (*receiver == info.sink) {
      fo.delivered_honest += incoming_honest;
      if (fo.delivered_honest == fo.honest_total) {
        fo.completed = true;
        result.last_transmission_time = t;
        result.interactions_to_terminate = t + 1;
      }
    }
    if (!fo.completed && live_nonsink_owners == 0) break;
  }
  if (!fo.completed && live_nonsink_owners == 0) fo.blocked = true;

  // Stranded accounting: honest origins the sink lacks, held by a node
  // that has already crash-stopped. O(residual x crash events).
  const Datum& sink_datum = state.datumOf(info.sink);
  for (NodeId o = 0; o < n; ++o) {
    if (faults.isByzantine(o)) continue;
    if (sink_datum.sources.contains(o)) continue;
    for (const auto& [crash_time, u] : scratch.crash_events) {
      if (crash_time > state.now()) break;  // sorted: rest still live
      if (u == info.sink || !state.ownsData(u)) continue;
      if (state.datumOf(u).sources.contains(o)) {
        ++fo.stranded_honest;
        break;
      }
    }
  }
  fo.sink_poisoned = scratch.poisoned[info.sink] != 0;

  result.terminated = fo.completed;
  result.interactions_dispatched = state.now();
  if (options.capture_schedule) result.schedule = state.schedule();
  result.sink_datum = state.datumOf(info.sink);
  if (!state.schedule().empty() && !result.terminated)
    result.last_transmission_time = state.schedule().back().time;
  result.fault = fo;
  return result;
}

}  // namespace

Engine::Engine(SystemInfo info, AggregationFunction aggregation)
    : info_(info), aggregation_(std::move(aggregation)) {
  if (info_.node_count < 2)
    throw std::invalid_argument("Engine: need at least 2 nodes");
  if (info_.sink >= info_.node_count)
    throw std::invalid_argument("Engine: sink id out of range");
}

ExecutionResult Engine::run(DodaAlgorithm& algorithm, Adversary& adversary,
                            const RunOptions& options) {
  Scratch scratch;
  return runInto(scratch, algorithm, adversary, options);
}

ExecutionResult Engine::runInto(Scratch& scratch, DodaAlgorithm& algorithm,
                                Adversary& adversary,
                                const RunOptions& options) {
  if (!options.initial_values.empty() &&
      options.initial_values.size() != info_.node_count)
    throw std::invalid_argument("Engine::run: initial_values size mismatch");

  State state(info_, aggregation_, options.initial_values, *scratch.impl_);
  algorithm.reset(info_);
  adversary.reset(info_);

  if (options.faults)
    return runFaulty(info_, state, algorithm, adversary, options,
                     *options.faults);

  ExecutionResult result;
  while (!state.terminated() && state.now() < options.max_interactions) {
    // Walk the adversary's committed interactions as one block; an
    // adaptive adversary's next() choice is a block of one.
    std::optional<Interaction> chosen;
    std::span<const Interaction> block = adversary.committedFrom(state.now());
    if (block.empty()) {
      chosen = adversary.next(state.now(), state);
      if (!chosen) break;  // adversary exhausted
      block = {&*chosen, 1};
    }
    block = block.first(static_cast<std::size_t>(std::min<Time>(
        block.size(), options.max_interactions - state.now())));
    for (const Interaction& committed : block) {
      if (committed.b() >= info_.node_count)  // a() < b()
        throw ModelViolation("node id out of range");
      const Time t = state.now();
      state.advance();

      // A transfer is only possible when both endpoints still own data
      // (paper §2: "if both nodes still own data, then one of the nodes
      // has the possibility to transmit").
      if (!state.bothOwn(committed.a(), committed.b())) continue;

      // decide() may extend the committed sequence under the block (a
      // meetTime oracle over it) and relocate it: copy the interaction
      // out, and fetch a fresh block once the algorithm has run.
      const Interaction interaction = committed;
      const auto receiver = algorithm.decide(interaction, t, state);
      if (receiver) {
        if (!interaction.involves(*receiver))
          throw ModelViolation("receiver is not an interaction endpoint");
        state.transfer(t, interaction.other(*receiver), *receiver);
        if (state.terminated()) {
          result.last_transmission_time = t;
          result.interactions_to_terminate = t + 1;
        }
      }
      break;
    }
  }

  result.terminated = state.terminated();
  result.interactions_dispatched = state.now();
  if (options.capture_schedule) result.schedule = state.schedule();
  result.sink_datum = state.datumOf(info_.sink);
  if (!state.schedule().empty() && !result.terminated)
    result.last_transmission_time = state.schedule().back().time;
  return result;
}

bool validateConvergecastSchedule(
    const std::vector<TransmissionRecord>& schedule,
    dynagraph::InteractionSequenceView sequence, const SystemInfo& info,
    ScheduleValidationScratch& scratch, std::string* error) {
  // Error strings are only materialized on the failure path; the success
  // path does no formatting and, with a reused scratch, no allocation.
  auto fail = [&](Time t, const char* why) {
    if (error) *error = "t=" + std::to_string(t) + ": " + why;
    return false;
  };
  std::vector<char>& transmitted = scratch.transmitted;
  transmitted.assign(info.node_count, 0);
  Time prev = 0;
  bool first = true;
  for (const auto& rec : schedule) {
    if (!first && rec.time <= prev)
      return fail(rec.time, "times not strictly increasing");
    first = false;
    prev = rec.time;
    if (rec.time >= sequence.length())
      return fail(rec.time, "time beyond sequence");
    if (rec.sender >= info.node_count || rec.receiver >= info.node_count)
      return fail(rec.time, "node out of range");
    if (rec.sender == info.sink)
      return fail(rec.time, "sink transmitted");
    const Interaction expected(rec.sender, rec.receiver);
    if (sequence.at(rec.time) != expected)
      return fail(rec.time, "transfer does not match interaction");
    if (transmitted[rec.sender])
      return fail(rec.time, "sender transmitted twice");
    if (transmitted[rec.receiver])
      return fail(rec.time, "receiver already transmitted");
    transmitted[rec.sender] = 1;
  }
  const auto count = static_cast<std::size_t>(
      std::count(transmitted.begin(), transmitted.end(), char{1}));
  if (count != info.node_count - 1) {
    if (error) *error = "not all non-sink nodes transmitted";
    return false;
  }
  return true;
}

bool validateConvergecastSchedule(
    const std::vector<TransmissionRecord>& schedule,
    dynagraph::InteractionSequenceView sequence, const SystemInfo& info,
    std::string* error) {
  ScheduleValidationScratch scratch;
  return validateConvergecastSchedule(schedule, sequence, info, scratch,
                                      error);
}

}  // namespace doda::core
