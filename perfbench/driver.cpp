// perfbench_driver — the in-process half of the repository benchmark (see
// README.md in this directory). It links the doda library as the repository
// builds it and drives it through its public entry points.
//
//   perfbench_driver run --workload W --seed S --seconds T --trace 0|1
//                        --workdir DIR
//       Runs workload W (paper_sweep, huge_n_gathering, replay_cost) and
//       prints the result as the last stdout line, one JSON object.
//   perfbench_driver setup --workload W --seed S --rep R --workdir DIR
//       Performs W's set-up once in this fresh process and prints how many
//       seconds it took.
//   perfbench_driver expect
//       Reads dodad job specs from stdin, one per line, and prints the
//       offline reference statistics of each (the served results must be
//       bit-identical to them).
//
// With --trace 0 the timed loop calls the same entry points a user calls
// (measureRandomized, measureOfflineOptimal, replayTrace). With --trace 1
// each trial is instead rebuilt from the library's layers — generation,
// decode, engine dispatch (with the meetTime oracle's lazy scans), cost
// chain, trial fold — with a span around each call, and the result must
// match the library's entry point bit for bit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "doda.hpp"

namespace {

using namespace doda;
using Clock = std::chrono::steady_clock;
using core::Time;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ parameters
// Why each workload has these sizes is recorded in README.md.

constexpr std::size_t kSweepSizes[] = {16, 32, 64, 128, 256};
constexpr std::size_t kSweepTrials = 32;

constexpr std::size_t kHugeN = 4096;

constexpr std::size_t kReplayN = 64;
constexpr std::size_t kReplayTrials = 256;
constexpr Time kReplayLength = Time{1} << 16;
constexpr std::uint32_t kReplayShards = 4;

// ------------------------------------------------------------ algorithms

enum class Algo { kOffline, kWaitingGreedy, kGathering, kWaiting };

constexpr Algo kSweepAlgos[] = {Algo::kOffline, Algo::kWaitingGreedy,
                                Algo::kGathering, Algo::kWaiting};

Algo algoOf(const std::string& name) {
  if (name == "gathering") return Algo::kGathering;
  if (name == "waiting") return Algo::kWaiting;
  if (name == "waiting-greedy") return Algo::kWaitingGreedy;
  throw std::invalid_argument("unknown algorithm " + name);
}

const char* nameOf(Algo algo) {
  switch (algo) {
    case Algo::kOffline: return "offline";
    case Algo::kWaitingGreedy: return "waiting-greedy";
    case Algo::kGathering: return "gathering";
    case Algo::kWaiting: return "waiting";
  }
  return "?";
}

/// The paper's optimal WaitingGreedy horizon, truncated as paper_series
/// and trace_runner set it.
Time paperTau(std::size_t n) {
  return static_cast<Time>(util::closed_form::waitingGreedyTau(n));
}

/// The horizon dodad gives a waiting-greedy job without a tau: rounded up.
Time dodadTau(std::size_t n) {
  return static_cast<Time>(std::ceil(util::closed_form::waitingGreedyTau(n)));
}

/// `tau` is WaitingGreedy's horizon; the other algorithms ignore it.
sim::AlgorithmFactory factoryOf(Algo algo, Time tau) {
  switch (algo) {
    case Algo::kWaitingGreedy:
      return [tau](sim::TrialContext& context)
                 -> std::unique_ptr<core::DodaAlgorithm> {
        return std::make_unique<algorithms::WaitingGreedy>(context.meet_time,
                                                           tau);
      };
    case Algo::kWaiting:
      return [](sim::TrialContext&) -> std::unique_ptr<core::DodaAlgorithm> {
        return std::make_unique<algorithms::Waiting>();
      };
    default:
      return [](sim::TrialContext&) -> std::unique_ptr<core::DodaAlgorithm> {
        return std::make_unique<algorithms::Gathering>();
      };
  }
}

// ------------------------------------------------------------ bookkeeping

/// What a run did and whether its outputs were right.
struct Tally {
  std::size_t attempted = 0;  // trials run
  std::size_t failed = 0;     // trials that hit the interaction cap
  double interactions = 0.0;  // workload interactions (see README.md)
  bool correct = true;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::cerr << "perfbench: check failed: " << what << "\n";
    correct = false;
  }

  void fold(const sim::MeasureResult& result) {
    attempted += result.interactions.count() + result.failed_trials;
    failed += result.failed_trials;
  }
};

enum Layer { kGen, kDecode, kEngine, kCost, kFold, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {"gen", "decode", "engine",
                                                  "cost", "fold"};

/// Spans of the traced (--trace 1) run: self time per layer plus the
/// interaction counts each layer handled. Spans never nest, so a span's
/// duration is its self time.
struct Trace {
  double seconds[kLayerCount] = {};
  double generated = 0.0;
  double decoded = 0.0;
  double indexed = 0.0;  // interactions the meetTime oracle scanned
  double dispatched = 0.0;

  template <class F>
  void span(Layer layer, F&& body) {
    const auto start = Clock::now();
    body();
    seconds[layer] += since(start);
  }

  double total() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void emit(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The end-to-end metrics the driver measures; run.py adds setup_s, which
/// it times over fresh `setup` processes.
std::vector<Metric> endToEndMetrics(double rate) {
  return {{"interactions_per_s", rate, "1/s"}};
}

/// Pins the calling thread to one CPU of the set it may run on, round
/// robin by op index, and restores that set on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t index) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[index % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Repeats `op` until `seconds` have passed and reports the 95th percentile
/// of the per-op rates; `op` returns the workload interactions it handled.
/// On a shared machine, other tenants slow any work that leaves a core's L2
/// cache, per CPU and for tens of seconds at a time, while ALU-bound work
/// keeps its speed. Each op therefore runs on the next CPU in turn, so that
/// every run samples every CPU, and the run reports the rate of its fastest
/// ops: the speed of the program on a quiet CPU, which repeats from run to
/// run where a mean or a median does not (see README.md, "Noise").
template <class Op>
double quietRate(double seconds, Op&& op) {
  std::vector<double> rates;
  CpuRotation rotation;
  const auto start = Clock::now();
  while (since(start) < seconds) {
    rotation.pin(rates.size());
    const auto op_start = Clock::now();
    const double work = op();
    rates.push_back(work / since(op_start));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() * 19 / 20];
}

/// Per-layer metrics of an in-process workload. The dodad layers (queue,
/// exec, wire) do not exist here and read 0; see README.md.
std::vector<Metric> layerMetrics(const Trace& trace, double interactions) {
  std::vector<Metric> metrics;
  const double total = trace.total();
  for (int layer = 0; layer < kLayerCount; ++layer)
    metrics.push_back({std::string(kLayerNames[layer]) + "_pct",
                       100.0 * trace.seconds[layer] / total, "%"});
  for (const char* name : {"queue_pct", "exec_pct", "wire_pct"})
    metrics.push_back({name, 0.0, "%"});
  metrics.push_back(
      {"traced_ns_per_interaction", 1e9 * total / interactions, "ns"});
  metrics.push_back({"generated_per_dispatched",
                     trace.generated / trace.dispatched, "ratio"});
  metrics.push_back({"decoded_per_dispatched",
                     trace.decoded / trace.dispatched, "ratio"});
  metrics.push_back({"indexed_per_dispatched",
                     trace.indexed / trace.dispatched, "ratio"});
  metrics.push_back({"frames_per_job", 0.0, "count"});
  metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  return metrics;
}

// ------------------------------------------------------------ trial layers

core::RunOptions measurementOptions(Time max_interactions) {
  core::RunOptions options;
  options.max_interactions = max_interactions;
  options.capture_schedule = false;
  return options;
}

/// One measureRandomized trial rebuilt from its layers. An untimed
/// reference run of the trial, exactly as measureRandomized executes it,
/// fixes how much randomness the trial commits (the lazy adversary and a
/// lazy meetTime oracle commit ahead of demand) and how far the oracle
/// scans. The layered run then commits that prefix up front through the
/// same lazy generator and dispatches over it. The oracle scans lazily
/// inside the engine's calls, so its time counts as engine time; its work
/// is counted in `Trace::indexed`.
sim::TrialOutcome traceOnlineTrial(const sim::MeasureConfig& config,
                                   const sim::AlgorithmFactory& factory,
                                   std::uint64_t seed,
                                   core::Engine::Scratch& scratch,
                                   Trace& trace, Tally& tally) {
  const core::SystemInfo info{config.node_count, config.sink};
  const core::RunOptions options =
      measurementOptions(config.max_interactions);
  core::Engine engine(info, core::AggregationFunction::count());
  const auto makeAdversary = [&] {
    return std::make_unique<adversary::RandomizedAdversary>(
        config.node_count, seed, Time{1} << 34, config.seed_format);
  };

  core::ExecutionResult reference;
  Time committed = 0;
  {
    const auto adversary = makeAdversary();
    dynagraph::MeetTimeIndex index = adversary->makeMeetTimeIndex(config.sink);
    sim::TrialContext context{info, *adversary, index};
    const auto algorithm = factory(context);
    reference = engine.runInto(scratch, *algorithm, *adversary, options);
    committed = adversary->lazySequence().generatedLength();
    trace.indexed += static_cast<double>(index.indexedLength());
  }

  std::unique_ptr<adversary::RandomizedAdversary> adversary;
  trace.span(kGen, [&] {
    adversary = makeAdversary();
    adversary->lazySequence().ensure(committed - 1);
  });
  core::ExecutionResult result;
  trace.span(kEngine, [&] {
    dynagraph::MeetTimeIndex index = adversary->makeMeetTimeIndex(config.sink);
    sim::TrialContext context{info, *adversary, index};
    const auto algorithm = factory(context);
    result = engine.runInto(scratch, *algorithm, *adversary, options);
  });
  tally.check(adversary->lazySequence().generatedLength() == committed,
              "layered trial committed more randomness than its reference");

  tally.check(result.terminated == reference.terminated &&
                  result.interactions_to_terminate ==
                      reference.interactions_to_terminate,
              "layered trial diverges from its reference run");
  trace.generated += static_cast<double>(committed);
  if (!result.terminated) return sim::TrialOutcome::failure();
  trace.dispatched += static_cast<double>(result.interactions_to_terminate);
  sim::TrialOutcome outcome;
  outcome.success = true;
  outcome.interactions = static_cast<double>(result.interactions_to_terminate);
  return outcome;
}

/// One measureOfflineOptimal trial rebuilt from its layers (generation
/// and the offline-optimum chain; the engine is not involved).
sim::TrialOutcome traceOfflineTrial(const sim::MeasureConfig& config,
                                    std::uint64_t seed, Trace& trace) {
  const Time initial = std::max<Time>(
      16, static_cast<Time>(
              1.25 * util::closed_form::broadcastExpected(config.node_count)));
  util::Rng rng(seed);
  dynagraph::InteractionSequence sequence;
  trace.span(kGen, [&] {
    sequence = sim::drawAdversarySequence(config, initial, rng);
  });
  Time opt = dynagraph::kNever;
  while (true) {
    trace.span(kCost, [&] {
      opt = analysis::optCompletion(sequence, config.node_count, config.sink,
                                    0);
    });
    if (opt != dynagraph::kNever ||
        sequence.length() >= config.max_interactions)
      break;
    trace.span(kGen, [&] {
      sequence.appendAll(
          sim::drawAdversarySequence(config, sequence.length(), rng));
    });
  }
  trace.generated += static_cast<double>(sequence.length());
  if (opt == dynagraph::kNever) return sim::TrialOutcome::failure();
  trace.dispatched += static_cast<double>(opt + 1);
  sim::TrialOutcome outcome;
  outcome.success = true;
  outcome.interactions = static_cast<double>(opt + 1);
  outcome.cost = 1.0;
  outcome.has_cost = true;
  return outcome;
}

/// A measure* call rebuilt trial by trial, one trial at a time, with the
/// executor's seed scheme (trial i draws the i-th value of an Rng seeded
/// with config.seed) and its in-order fold.
sim::MeasureResult tracePoint(const sim::MeasureConfig& config, Algo algo,
                              const sim::AlgorithmFactory& factory,
                              Trace& trace, Tally& tally) {
  util::Rng master(config.seed);
  core::Engine::Scratch scratch;
  sim::MeasureResult result;
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    const std::uint64_t seed = master();
    const sim::TrialOutcome outcome =
        algo == Algo::kOffline
            ? traceOfflineTrial(config, seed, trace)
            : traceOnlineTrial(config, factory, seed, scratch, trace, tally);
    trace.span(kFold, [&] { sim::foldOutcome(result, outcome); });
  }
  return result;
}

bool sameStats(const util::RunningStats& a, const util::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool sameResult(const sim::MeasureResult& a, const sim::MeasureResult& b) {
  return sameStats(a.interactions, b.interactions) &&
         sameStats(a.cost, b.cost) && a.failed_trials == b.failed_trials;
}

double workOf(const sim::MeasureResult& result) {
  return static_cast<double>(result.interactions.count()) *
         result.interactions.mean();
}

// ------------------------------------------------------------ paper_sweep

struct SweepPoint {
  Algo algo;
  std::size_t n;
  std::uint64_t seed;
};

/// paper_series' series 1: every knowledge level at every size, each point
/// on its own seed (drawn here from the run's seed).
std::vector<SweepPoint> drawSweep(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SweepPoint> points;
  for (const std::size_t n : kSweepSizes)
    for (const Algo algo : kSweepAlgos) points.push_back({algo, n, rng()});
  return points;
}

/// As paper_series configures a point (32 trials), except that trials run
/// on one thread where paper_series fans them out over every CPU: on a
/// shared machine the fanned-out sweep's rate follows the load on all CPUs
/// at once (README.md, "Noise").
sim::MeasureConfig sweepConfig(const SweepPoint& point) {
  sim::MeasureConfig config;
  config.node_count = point.n;
  config.trials = kSweepTrials;
  config.seed = point.seed;
  config.threads = 1;
  return config;
}

sim::MeasureResult runSweepPoint(const SweepPoint& point) {
  const sim::MeasureConfig config = sweepConfig(point);
  if (point.algo == Algo::kOffline) return sim::measureOfflineOptimal(config);
  return sim::measureRandomized(config,
                                factoryOf(point.algo, paperTau(point.n)));
}

/// Termination times of Gathering, Waiting and the offline optimum under
/// the uniform adversary are sums of independent geometric stage waits
/// (paper Thm 8 and 9, and the Waiting bound): with k owners left,
/// Gathering waits for one of the k(k-1)/2 owner pairs; Waiting waits for
/// one of k nodes to meet the sink; the offline optimum, a broadcast in
/// reverse time, waits for one of the k(n-k) informed-uninformed pairs.
/// Returns the mean and variance of the sum, or nothing for WaitingGreedy,
/// whose termination time has no closed form.
std::optional<std::pair<double, double>> closedFormMoments(Algo algo,
                                                           std::size_t n) {
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2;
  double mean = 0.0;
  double variance = 0.0;
  const auto stage = [&](double candidate_pairs) {
    const double p = candidate_pairs / pairs;
    mean += 1.0 / p;
    variance += (1.0 - p) / (p * p);
  };
  for (std::size_t k = 1; k < n; ++k) {
    const auto kd = static_cast<double>(k);
    switch (algo) {
      case Algo::kGathering: stage((kd + 1.0) * kd / 2.0); break;
      case Algo::kWaiting: stage(kd); break;
      case Algo::kOffline: stage(kd * (static_cast<double>(n) - kd)); break;
      case Algo::kWaitingGreedy: return std::nullopt;
    }
  }
  return std::make_pair(mean, variance);
}

/// The pooled mean of a run's trials against the closed form, at six
/// standard errors of the exact variance.
void checkClosedForm(Algo algo, std::size_t n, const util::RunningStats& stats,
                     Tally& tally) {
  const auto moments = closedFormMoments(algo, n);
  if (!moments || stats.count() == 0) return;
  const double se =
      std::sqrt(moments->second / static_cast<double>(stats.count()));
  tally.check(std::abs(stats.mean() - moments->first) <= 6.0 * se + 1.0,
              std::string(nameOf(algo)) + " n=" + std::to_string(n) +
                  ": mean " + std::to_string(stats.mean()) +
                  " far from the closed form " +
                  std::to_string(moments->first));
}

/// Set-up: the first pass over the sweep in a fresh process. The sweep
/// reads no input, so this is where the program pays for what it builds
/// on first use (allocator arenas, page faults, lazily built tables).
void setUpPaperSweep(std::uint64_t seed) {
  for (const SweepPoint& point : drawSweep(seed)) runSweepPoint(point);
}

void runPaperSweep(std::uint64_t seed, double seconds, bool traced) {
  Tally tally;
  // Every op repeats the run's one sweep, so the op rates differ only by
  // how busy the machine was.
  const std::vector<SweepPoint> sweep = drawSweep(seed);
  std::vector<sim::MeasureResult> first;
  Trace trace;
  const double rate = quietRate(seconds, [&] {
    double work = 0.0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      const sim::MeasureResult result =
          traced ? tracePoint(sweepConfig(point), point.algo,
                              factoryOf(point.algo, paperTau(point.n)), trace,
                              tally)
                 : runSweepPoint(point);
      tally.fold(result);
      work += workOf(result);
      if (first.size() == i) {
        first.push_back(result);
        if (traced)
          tally.check(sameResult(result, runSweepPoint(point)),
                      std::string("traced ") + nameOf(point.algo) + " n=" +
                          std::to_string(point.n) +
                          " differs from the library's entry point");
      }
      tally.check(sameResult(result, first[i]),
                  "a repeated sweep point differs from its first run");
    }
    tally.interactions += work;
    return work;
  });
  tally.check(tally.failed == 0, "a sweep trial hit the interaction cap");
  for (std::size_t i = 0; i < sweep.size(); ++i)
    checkClosedForm(sweep[i].algo, sweep[i].n, first[i].interactions, tally);
  emit(tally, traced ? layerMetrics(trace, tally.interactions)
                     : endToEndMetrics(rate));
}

// ------------------------------------------------------------ huge_n_gathering

sim::MeasureConfig hugeNConfig(std::uint64_t seed) {
  sim::MeasureConfig config;
  config.node_count = kHugeN;
  config.trials = 1;
  config.seed = seed;
  config.threads = 1;
  return config;
}

/// Set-up: commit one expected-length trial (`(n-1)^2` interactions) of
/// randomness through the trial's own lazy generator, which first-touches
/// a trial-sized buffer.
void setUpHugeN(std::uint64_t seed) {
  const auto length =
      static_cast<Time>(util::closed_form::gatheringExpected(kHugeN));
  adversary::RandomizedAdversary adversary(kHugeN, seed, Time{1} << 34,
                                           hugeNConfig(seed).seed_format);
  adversary.lazySequence().ensure(length - 1);
}

void runHugeNGathering(std::uint64_t seed, double seconds, bool traced) {
  util::Rng rng(seed);
  Tally tally;
  const sim::AlgorithmFactory gathering = factoryOf(Algo::kGathering, 0);
  Trace trace;
  util::RunningStats lengths;
  bool compared = false;
  const double rate = quietRate(seconds, [&] {
    const sim::MeasureConfig config = hugeNConfig(rng());
    const sim::MeasureResult result =
        traced ? tracePoint(config, Algo::kGathering, gathering, trace, tally)
               : sim::measureRandomized(config, gathering);
    if (traced && !compared) {
      compared = true;
      tally.check(sameResult(result, sim::measureRandomized(config, gathering)),
                  "traced huge-n trial differs from measureRandomized");
    }
    tally.fold(result);
    tally.interactions += workOf(result);
    lengths.merge(result.interactions);
    return workOf(result);
  });

  tally.check(tally.failed == 0, "a huge-n trial hit the interaction cap");
  checkClosedForm(Algo::kGathering, kHugeN, lengths, tally);
  emit(tally, traced ? layerMetrics(trace, tally.interactions)
                     : endToEndMetrics(rate));
}

// ------------------------------------------------------------ replay_cost

sim::MeasureConfig replayRecordConfig(std::uint64_t seed) {
  sim::MeasureConfig config;
  config.node_count = kReplayN;
  config.trials = kReplayTrials;
  config.seed = seed;
  config.threads = 1;
  return config;
}

sim::ReplayConfig replayConfig() {
  sim::ReplayConfig config;
  config.threads = 1;
  config.compute_cost = true;
  return config;
}

/// Set-up: record the store and open it.
dynagraph::TraceStore setUpReplay(std::uint64_t seed,
                                  const std::filesystem::path& dir) {
  sim::recordSynthetic(dir.string(), replayRecordConfig(seed), kReplayLength,
                       kReplayShards);
  return dynagraph::TraceStore::open(dir.string());
}

/// replayTrace(compute_cost) rebuilt trial by trial: decode, engine (with
/// the oracle's lazy scans), cost chain, fold — the same per-trial body,
/// shard by shard in global trial order.
sim::MeasureResult traceReplay(const dynagraph::TraceStore& store,
                               const sim::AlgorithmFactory& factory,
                               Trace& trace) {
  const core::SystemInfo info{store.nodeCount(), 0};
  core::Engine engine(info, core::AggregationFunction::count());
  core::Engine::Scratch scratch;
  sim::MeasureResult result;
  for (std::size_t shard = 0; shard < store.shardCount(); ++shard) {
    dynagraph::TraceShardReader reader = store.openShard(shard);
    while (true) {
      bool more = false;
      Time length = 0;
      dynagraph::InteractionSequence sequence;
      trace.span(kDecode, [&] {
        more = reader.beginTrial();
        if (!more) return;
        length = reader.trialLength();
        sequence = reader.readRest();
      });
      if (!more) break;
      trace.decoded += static_cast<double>(length);
      core::ExecutionResult run;
      trace.span(kEngine, [&] {
        dynagraph::MeetTimeIndex index(sequence, info.sink, info.node_count);
        adversary::SequenceViewAdversary adversary{sequence};
        sim::TrialContext context{info, adversary, index};
        const auto algorithm = factory(context);
        run = engine.runInto(scratch, *algorithm, adversary,
                             measurementOptions(length));
        trace.indexed += static_cast<double>(index.indexedLength());
      });
      sim::TrialOutcome outcome;
      if (run.terminated) {
        trace.dispatched += static_cast<double>(run.interactions_to_terminate);
        outcome.success = true;
        outcome.interactions =
            static_cast<double>(run.interactions_to_terminate);
        trace.span(kCost, [&] {
          outcome.cost = static_cast<double>(analysis::costOf(
              sequence, info.node_count, info.sink,
              run.last_transmission_time));
        });
        outcome.has_cost = true;
      }
      trace.span(kFold, [&] { sim::foldOutcome(result, outcome); });
    }
  }
  return result;
}

void runReplayCost(std::uint64_t seed, double seconds, bool traced,
                   const std::filesystem::path& workdir) {
  const sim::AlgorithmFactory factory =
      factoryOf(Algo::kWaitingGreedy, paperTau(kReplayN));
  const sim::ReplayConfig replay = replayConfig();
  Tally tally;

  const dynagraph::TraceStore store = setUpReplay(seed, workdir / "store");
  // The library's replay of the store: the reference every timed pass,
  // traced or not, must reproduce.
  const sim::MeasureResult reference =
      sim::replayTrace(store, replay, factory);
  const double pass_interactions =
      static_cast<double>(store.trialCount()) *
      static_cast<double>(kReplayLength);

  Trace trace;
  const double rate = quietRate(seconds, [&] {
    const sim::MeasureResult result =
        traced ? traceReplay(store, factory, trace)
               : sim::replayTrace(store, replay, factory);
    tally.fold(result);
    tally.interactions += pass_interactions;
    tally.check(sameResult(result, reference),
                "replay pass differs from replayTrace's");
    return pass_interactions;
  });

  // The recorded store replays bit-identically to the in-memory run of the
  // same workload (no trial needs extension at this length).
  tally.check(sameResult(reference,
                         sim::measureWithCost(replayRecordConfig(seed),
                                              kReplayLength, factory, 0)),
              "replayTrace differs from measureWithCost on the same workload");
  tally.check(reference.failed_trials == 0 &&
                  reference.cost.count() == kReplayTrials &&
                  reference.cost.min() >= 1.0,
              "replay trials failed or cost below the optimum");
  emit(tally, traced ? layerMetrics(trace, tally.interactions)
                     : endToEndMetrics(rate));
}

// ------------------------------------------------------------ dodad helpers

void printHexStats(const sim::MeasureResult& result) {
  std::printf("%zu %zu %a %a %a\n", result.interactions.count(),
              result.failed_trials, result.interactions.mean(),
              result.interactions.stddev(), result.cost.mean());
}

/// Job specs, one per line:
///   randomized <algorithm> <n> <trials> <seed>
///   cost <algorithm> <n> <trials> <seed> <length_hint>
///   replay <algorithm> <store> <first> <last>
/// Each prints "count failed mean stddev cost_mean" (hexfloat), the offline
/// result of the same job with one trial-level thread.
int expectJobs() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string kind, algorithm;
    in >> kind >> algorithm;
    if (kind == "randomized" || kind == "cost") {
      sim::MeasureConfig config;
      Time length_hint = 0;
      in >> config.node_count >> config.trials >> config.seed;
      if (kind == "cost") in >> length_hint;
      if (!in) throw std::invalid_argument("bad job spec: " + line);
      config.threads = 1;
      const auto factory =
          factoryOf(algoOf(algorithm), dodadTau(config.node_count));
      printHexStats(kind == "cost"
                        ? sim::measureWithCost(config, length_hint, factory)
                        : sim::measureRandomized(config, factory));
    } else if (kind == "replay") {
      std::string path;
      sim::ReplayConfig config = replayConfig();
      in >> path >> config.trial_range.first >> config.trial_range.last;
      if (!in) throw std::invalid_argument("bad job spec: " + line);
      const auto store = dynagraph::TraceStore::open(path);
      printHexStats(sim::replayTrace(
          store, config,
          factoryOf(algoOf(algorithm), dodadTau(store.nodeCount()))));
    } else {
      throw std::invalid_argument("bad job spec: " + line);
    }
  }
  return 0;
}

// ------------------------------------------------------------ main

std::map<std::string, std::string> parseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value, got " + flag);
    flags[flag.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& required(const std::map<std::string, std::string>& flags,
                            const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

/// Times one set-up of `workload` from this process's first call into the
/// library, and prints the seconds.
int setUp(const std::string& workload, std::uint64_t seed,
          const std::filesystem::path& dir) {
  const auto start = Clock::now();
  if (workload == "paper_sweep") {
    setUpPaperSweep(seed);
  } else if (workload == "huge_n_gathering") {
    setUpHugeN(seed);
  } else if (workload == "replay_cost") {
    setUpReplay(seed, dir);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  std::printf("%.17g\n", since(start));
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: see perfbench/README.md");
  const std::string mode = argv[1];
  if (mode == "expect") return expectJobs();
  const auto flags = parseFlags(argc, argv, 2);
  const std::string workload = required(flags, "workload");
  const std::uint64_t seed = std::stoull(required(flags, "seed"));
  const std::filesystem::path workdir = required(flags, "workdir");
  if (mode == "setup")
    return setUp(workload, seed,
                 workdir / ("setup-store-" + required(flags, "rep")));
  if (mode != "run") throw std::invalid_argument("unknown mode " + mode);
  const double seconds = std::stod(required(flags, "seconds"));
  const bool traced = required(flags, "trace") == "1";
  if (workload == "paper_sweep") {
    runPaperSweep(seed, seconds, traced);
  } else if (workload == "huge_n_gathering") {
    runHugeNGathering(seed, seconds, traced);
  } else if (workload == "replay_cost") {
    runReplayCost(seed, seconds, traced, workdir);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
