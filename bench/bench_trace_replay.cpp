// Trace-replay throughput benchmark for the recorded-workload subsystem.
//
// Records one uniform randomized-adversary workload as a sharded store
// (dynagraph/trace_io) in a scratch directory, plus an imported
// contact-event CSV (dynagraph/trace_import), then measures: pure
// compressed-block decode throughput (decode_v4), replayTrace with the
// meetTime oracle (WaitingGreedy) and without it (Gathering, the
// replay_streaming_* legs) serially and with a worker pool, a ranged
// Gathering replay of the middle half of the trials riding the block
// index, and the durable store's append and compaction paths. A raw-block
// copy of each store (compress = false) is recorded untimed for a live
// raw-vs-rANS size readout, printed and emitted in the JSON. Every leg
// cross-checks the executor's contract:
// thread count, block encoding and replay window never change the
// statistics.
//
// Results go to stdout and a JSON file so the perf trajectory is tracked
// across PRs and gated in CI (scripts/check_bench_regression.py).
//
// Usage: bench_trace_replay [--quick] [--out PATH] [--threads K] [--keep DIR]
//   --quick    smoke mode for CI: smaller workload
//   --out      JSON output path (default BENCH_trace_replay.json)
//   --threads  worker count for the parallel legs (default 0 = all cores)
//   --keep     record into DIR and leave the stores on disk (default: a
//              scratch directory under the system temp dir, removed after)

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "dynagraph/trace_import.hpp"
#include "sim/trace_replay.hpp"
#include "storage/durable_store.hpp"
#include "util/stats.hpp"

namespace {

using doda::dynagraph::TraceStore;
using doda::dynagraph::TraceWriterOptions;
using doda::sim::MeasureResult;
using doda::sim::ReplayConfig;

struct Leg {
  std::string name;
  double seconds = 0.0;
  double trials_per_sec = 0.0;
  double interactions_per_sec = 0.0;
};

double secondsOf(const std::function<void()>& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void expectIdentical(const MeasureResult& a, const MeasureResult& b,
                     const char* what) {
  if (a.interactions.count() != b.interactions.count() ||
      a.interactions.mean() != b.interactions.mean() ||
      a.interactions.variance() != b.interactions.variance() ||
      a.failed_trials != b.failed_trials) {
    std::cerr << "FATAL: " << what << " statistics diverge\n";
    std::exit(2);
  }
}

doda::sim::AlgorithmFactory waitingGreedy(std::size_t n) {
  const auto tau = static_cast<doda::core::Time>(
      doda::util::closed_form::waitingGreedyTau(n));
  return [tau](doda::sim::TrialContext& context) {
    return std::make_unique<doda::algorithms::WaitingGreedy>(
        context.meet_time, tau);
  };
}

std::unique_ptr<doda::core::DodaAlgorithm> gathering(
    doda::sim::TrialContext&) {
  return std::make_unique<doda::algorithms::Gathering>();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_trace_replay.json";
  std::string keep_dir;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--keep" && i + 1 < argc) {
      keep_dir = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      try {
        threads = std::stoul(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "--threads: expected a number, got '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else {
      std::cerr << "usage: bench_trace_replay [--quick] [--out PATH] "
                   "[--threads K] [--keep DIR]\n";
      return 1;
    }
  }

  // Fail on a bad output path before the measurement, not after.
  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }

  const std::size_t n = quick ? 64 : 128;
  const std::size_t trials = quick ? 32 : 128;
  const doda::core::Time length =
      static_cast<doda::core::Time>(8 * n * n);
  const std::uint32_t shards = 8;

  doda::sim::MeasureConfig config;
  config.node_count = n;
  config.trials = trials;
  config.seed = 0x7ace + n;

  // Pid-unique scratch path so concurrent bench runs on one machine never
  // record into (or clean up) each other's live stores.
  const std::string root =
      !keep_dir.empty()
          ? keep_dir
          : (std::filesystem::temp_directory_path() /
             ("doda_bench_trace_store_" + std::to_string(n) + "_" +
              std::to_string(::getpid())))
                .string();
  const std::string dir_v4 = root + "/v4";
  const std::string dir_raw = root + "/raw";
  const std::string dir_import_raw = root + "/import_raw";
  const std::string dir_import = root + "/import";
  const std::string events_csv = root + "/events.csv";

  TraceWriterOptions raw_blocks;
  raw_blocks.compress = false;

  const double total_interactions =
      static_cast<double>(trials) * static_cast<double>(length);
  std::printf("recording n=%zu trials=%zu length=%llu shards=%u ...\n",
              n, trials, static_cast<unsigned long long>(length), shards);

  std::vector<Leg> legs;
  auto runLeg = [&](const std::string& name, double leg_trials,
                    double leg_interactions, const std::function<void()>& run) {
    Leg leg;
    leg.name = name;
    leg.seconds = secondsOf(run);
    leg.trials_per_sec = leg_trials / leg.seconds;
    leg.interactions_per_sec = leg_interactions / leg.seconds;
    std::printf("%-28s %8.1f trials/s  %12.0f interactions/s\n",
                name.c_str(), leg.trials_per_sec, leg.interactions_per_sec);
    legs.push_back(leg);
  };

  const double t = static_cast<double>(trials);

  // -------------------------------------------------------------- record
  runLeg("record", t, total_interactions, [&] {
    doda::sim::recordSynthetic(dir_v4, config, length, shards);
  });
  doda::sim::recordSynthetic(dir_raw, config, length, shards, raw_blocks);

  const auto store_v4 = TraceStore::open(dir_v4);
  const auto store_raw = TraceStore::open(dir_raw);
  const std::uint64_t bytes_raw = store_raw.totalFileBytes();
  const std::uint64_t bytes_v4 = store_v4.totalFileBytes();
  const double ratio =
      static_cast<double>(bytes_raw) / static_cast<double>(bytes_v4);
  std::printf(
      "store: %.0f interactions, raw blocks %llu bytes (%.3f B/i), rANS "
      "blocks %llu bytes (%.3f B/i, %.2fx)\n",
      total_interactions, static_cast<unsigned long long>(bytes_raw),
      bytes_raw / total_interactions,
      static_cast<unsigned long long>(bytes_v4),
      bytes_v4 / total_interactions, ratio);

  // -------------------------------------------------------------- decode
  // Pure compressed-block decode (skip every trial without running the
  // engine): the entropy-coder throughput in isolation. Repetitions keep
  // each leg's wall time well above the gate's noise floor.
  auto decodeStore = [](const TraceStore& store) {
    for (std::size_t s = 0; s < store.shardCount(); ++s) {
      auto reader = store.openShard(s);
      while (reader.beginTrial()) reader.skipRest();
    }
  };
  const int reps_v4 = 16;
  runLeg("decode_v4", t * reps_v4, total_interactions * reps_v4, [&] {
    for (int rep = 0; rep < reps_v4; ++rep) decodeStore(store_v4);
  });

  ReplayConfig serial_cfg;
  serial_cfg.threads = 1;
  ReplayConfig pool_cfg;
  pool_cfg.threads = threads;

  const auto materialized = waitingGreedy(n);

  // -------------------------------------------------------------- replay
  MeasureResult mat_serial, mat_pool, stream_serial, stream_pool;
  runLeg("replay_materialized_serial", t, total_interactions, [&] {
    mat_serial = replayTrace(store_v4, serial_cfg, materialized);
  });
  runLeg("replay_materialized_pool", t, total_interactions, [&] {
    mat_pool = replayTrace(store_v4, pool_cfg, materialized);
  });
  // The replay_streaming_* names stay for the CI baselines; these legs
  // time replayTrace with Gathering, which needs no oracle.
  runLeg("replay_streaming_serial", t, total_interactions, [&] {
    stream_serial = replayTrace(store_v4, serial_cfg, gathering);
  });
  runLeg("replay_streaming_pool", t, total_interactions, [&] {
    stream_pool = replayTrace(store_v4, pool_cfg, gathering);
  });
  // Untimed cross-check: the same trials through raw blocks.
  const MeasureResult stream_raw =
      replayTrace(store_raw, serial_cfg, gathering);

  // Ranged replay: the middle half of the trials, riding the block index.
  doda::sim::ReplayTrialRange window{trials / 4, trials - trials / 4};
  const double window_trials =
      static_cast<double>(window.last - window.first);
  ReplayConfig range_cfg = serial_cfg;
  range_cfg.trial_range = window;
  ReplayConfig range_pool_cfg = pool_cfg;
  range_pool_cfg.trial_range = window;
  MeasureResult range_serial, range_pool;
  // Repetitions keep the (half-size) ranged leg above the gate's noise
  // floor, like the decode legs.
  const int reps_range = 4;
  runLeg("replay_range", window_trials * reps_range,
         window_trials * static_cast<double>(length) * reps_range, [&] {
           for (int rep = 0; rep < reps_range; ++rep)
             range_serial = replayTrace(store_v4, range_cfg, gathering);
         });
  range_pool = replayTrace(store_v4, range_pool_cfg, gathering);

  // Ranged vs full: a deterministic per-trial value folded over the window
  // of a full replay must equal the same body's ranged replay.
  const auto window_body = [](std::size_t global,
                              doda::dynagraph::TraceShardReader& reader,
                              doda::core::Engine::Scratch&) {
    doda::sim::TrialOutcome outcome;
    outcome.success = true;
    outcome.interactions = static_cast<double>(reader.trialLength()) / 3.0 +
                           static_cast<double>(global) * 7.0;
    return outcome;
  };
  std::vector<doda::sim::TrialOutcome> full_outcomes(trials);
  doda::sim::replayShards(
      store_v4, 1,
      [&](std::size_t global, doda::dynagraph::TraceShardReader& reader,
          doda::core::Engine::Scratch& scratch) {
        full_outcomes[global] = window_body(global, reader, scratch);
        return full_outcomes[global];
      });
  MeasureResult window_folded;
  for (std::uint64_t g = window.first; g < window.last; ++g)
    doda::sim::foldOutcome(window_folded, full_outcomes[g]);
  const MeasureResult window_ranged =
      doda::sim::replayShards(store_v4, 1, window_body, window);

  // The executor's contract, enforced on every bench run: thread count,
  // block encoding and replay window never change the statistics.
  expectIdentical(mat_serial, mat_pool, "materialized serial/pool");
  expectIdentical(stream_serial, stream_pool, "streaming serial/pool");
  expectIdentical(stream_serial, stream_raw, "streaming rANS/raw");
  expectIdentical(range_serial, range_pool, "ranged serial/pool");
  expectIdentical(window_folded, window_ranged, "ranged vs folded full");

  if (mat_serial.interactions.count() == 0) {
    std::cerr << "FATAL: every materialized trial failed — lengthen the "
                 "recorded trace\n";
    return 2;
  }

  // -------------------------------------------------------------- import
  // The external-workload path: dump a Zipf-flavored contact log as CSV
  // (time-sorted, so the streaming two-pass ingester applies), then time
  // parse -> renumber -> compressed sharded store, and replay the imported
  // store. The import is also written with raw blocks to report the
  // compression ratio on a structured, real-world-shaped workload (the
  // uniform store above is entropy-floor-limited; see docs/FORMATS.md).
  const std::size_t import_events = quick ? 262144 : 1048576;
  {
    doda::sim::MeasureConfig import_config = config;
    import_config.zipf_exponent = 0.9;
    doda::util::Rng rng(0xc0ffee);
    const auto seq = doda::sim::drawAdversarySequence(
        import_config, static_cast<doda::core::Time>(import_events), rng);
    std::ofstream csv(events_csv, std::ios::trunc);
    csv << "# synthetic zipf contact log (t u v)\n";
    for (doda::core::Time i = 0; i < seq.length(); ++i)
      csv << i / 4 << '\t' << seq.at(i).a() << '\t' << seq.at(i).b()
          << '\n';
  }
  doda::dynagraph::ContactImportOptions import_options;
  import_options.trials = shards;  // one segment per shard
  runLeg("import", static_cast<double>(shards),
         static_cast<double>(import_events), [&] {
           doda::dynagraph::importContactTrace(events_csv, dir_import,
                                               shards, import_options);
         });
  doda::dynagraph::importContactTrace(events_csv, dir_import_raw, shards,
                                      import_options, raw_blocks);
  const auto import_store = TraceStore::open(dir_import);
  const std::uint64_t import_bytes_raw =
      TraceStore::open(dir_import_raw).totalFileBytes();
  const std::uint64_t import_bytes = import_store.totalFileBytes();
  const double import_ratio = static_cast<double>(import_bytes_raw) /
                              static_cast<double>(import_bytes);
  std::printf("import: %zu events, raw blocks %llu bytes (%.3f B/i), rANS "
              "blocks %llu bytes (%.3f B/i), ratio %.2fx\n",
              import_events, static_cast<unsigned long long>(import_bytes_raw),
              import_bytes_raw / static_cast<double>(import_events),
              static_cast<unsigned long long>(import_bytes),
              import_bytes / static_cast<double>(import_events),
              import_ratio);

  MeasureResult import_serial, import_pool;
  runLeg("replay_import_serial", static_cast<double>(shards),
         static_cast<double>(import_events), [&] {
           import_serial = replayTrace(import_store, serial_cfg, gathering);
         });
  import_pool = replayTrace(import_store, pool_cfg, gathering);
  expectIdentical(import_serial, import_pool, "import serial/pool");

  // ------------------------------------------------------- durable store
  // The crash-safe manifest store (storage/durable_store): the same
  // workload recorded as two appended generations with the recordTrials
  // seed scheme, so the composite replays the exact trials of the
  // monolithic store above. Measured: recovery-on-open plus composite
  // Gathering replay (the append-reopen path, fsync-on-commit included in
  // setup, not in the leg), and offline compaction of the two
  // generations into one segment. Both paths cross-check
  // against the monolithic statistics: appending and compacting never
  // change what replays.
  const std::string dir_durable = root + "/durable";
  {
    const auto fillRange = [&](std::size_t first, std::size_t last) {
      return [&, first, last](doda::dynagraph::TraceStoreWriter& writer) {
        doda::sim::appendTrials(
            writer, config.seed, first, last,
            [&](std::size_t /*trial*/, doda::util::Rng& rng) {
              return doda::sim::drawAdversarySequence(config, length, rng);
            });
      };
    };
    auto durable = doda::storage::DurableTraceStore::create(dir_durable);
    durable.commitSegment(n, trials / 2, shards, {}, fillRange(0, trials / 2));
    durable.commitSegment(n, trials - trials / 2, shards, {},
                          fillRange(trials / 2, trials));
  }
  MeasureResult durable_serial;
  const int reps_durable = 4;
  runLeg("replay_durable_append_reopen", t * reps_durable,
         total_interactions * reps_durable, [&] {
           for (int rep = 0; rep < reps_durable; ++rep) {
             const auto durable =
                 doda::storage::DurableTraceStore::open(dir_durable);
             durable_serial =
                 replayTrace(durable.openStore(), serial_cfg, gathering);
           }
         });
  expectIdentical(stream_serial, durable_serial,
                  "durable append-reopen vs monolithic");
  runLeg("compact_durable", t, total_interactions, [&] {
    auto durable = doda::storage::DurableTraceStore::open(dir_durable);
    durable.compact();
  });
  {
    const auto durable = doda::storage::DurableTraceStore::open(dir_durable);
    const MeasureResult compacted =
        replayTrace(durable.openStore(), serial_cfg, gathering);
    expectIdentical(stream_serial, compacted,
                    "durable compacted vs monolithic");
  }

  json << "{\n"
       << "  \"bench\": \"trace_replay\",\n"
       << "  \"workload\": \"recordSynthetic + contact import + "
          "WaitingGreedy(tau*) / Gathering\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"length\": " << length << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"store_bytes_raw\": " << bytes_raw << ",\n"
       << "  \"store_bytes_v4\": " << bytes_v4 << ",\n"
       << "  \"compression_ratio\": " << ratio << ",\n"
       << "  \"import_events\": " << import_events << ",\n"
       << "  \"import_bytes_raw\": " << import_bytes_raw << ",\n"
       << "  \"import_bytes_v4\": " << import_bytes << ",\n"
       << "  \"import_compression_ratio\": " << import_ratio << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    json << "    {\"leg\": \"" << leg.name
         << "\", \"trials_per_sec\": " << leg.trials_per_sec
         << ", \"interactions_per_sec\": " << leg.interactions_per_sec
         << "}" << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (keep_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);  // best-effort scratch cleanup
  }
  return 0;
}
