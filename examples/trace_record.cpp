// trace_record — dump recorded workloads into a sharded binary trace store.
//
// Records `--trials` independent runs of a workload generator — or imports
// an external contact-trace dataset — as a directory of binary shards
// (dynagraph/trace_io; rANS-compressed blocks by default), ready for
// production-scale replay through the shard-parallel executor
// (sim/trace_replay: replayTrace; bench_trace_replay).
//
// Usage:
//   trace_record --out DIR --n N --trials T --length L
//                [--seed S] [--shards K]
//                [--zipf EXPONENT | --edge-markov P_ON P_OFF]
//                [--no-compress] [--block-bytes B]
//                [--durable] [--force] [--verify] [--replay-range A B]
//   trace_record --out DIR --import FILE [--trials T] [--shards K]
//                [--keep-self-loops] [--max-events M]
//                [--no-compress] [--block-bytes B]
//                [--durable] [--force] [--verify] [--replay-range A B]
//   trace_record --out DIR --compact [--shards K]
//                [--no-compress] [--block-bytes B]
//                [--verify] [--replay-range A B]
//
// A non-empty existing --out directory is refused unless --force is given
// or the directory carries a durable-store MANIFEST and --durable asks to
// append to it (storage/durable_store.hpp). --durable writes through the
// crash-safe store: every record/import run commits one immutable segment
// atomically, and a durable --import is *incremental* — re-importing a
// grown contact log appends only the new events, preserving the dense-id
// map. --compact rewrites every committed segment of a durable store into
// one fresh segment (rANS blocks unless --no-compress) and drops the old
// generations.
//
// Workloads:
//   default        uniform randomized adversary (paper §4); per-trial seeds
//                  are pre-drawn exactly like the in-memory executor, so
//                  replaying the store is bit-identical to the equivalent
//                  synthetic run
//   --zipf E       Zipf-popularity randomized adversary (same seed scheme)
//   --edge-markov  edge-Markov dynamic graph; --length is the number of
//                  Markov steps per trial (interaction counts vary)
//   --import FILE  external contact events ("t u v" or "u v" lines, CSV /
//                  TSV / whitespace; SocioPatterns-style lists), densely
//                  renumbered, time-ordered, split into --trials segments;
//                  the ingest streams in two passes, so memory stays flat
//                  no matter how large the event file
//
// --verify reopens the store, streams every shard once, and counts each
// node's contacts in the first recorded trial.
// --replay-range A B replays only global trials [A, B) through Gathering
// with replayTrace (the reader seeks straight to the window via each
// shard's block index) and prints the windowed statistics.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/gathering.hpp"
#include "cli.hpp"
#include "dynagraph/edge_markov.hpp"
#include "dynagraph/trace_import.hpp"
#include "dynagraph/trace_io.hpp"
#include "sim/experiment.hpp"
#include "sim/trace_replay.hpp"
#include "storage/durable_import.hpp"
#include "storage/durable_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace doda;

struct Options {
  std::string out_dir;
  std::string import_path;
  std::size_t n = 0;
  std::size_t trials = 0;
  core::Time length = 0;
  std::uint64_t seed = 0x5eed;
  std::uint32_t shards = 8;
  double zipf = 0.0;
  bool edge_markov = false;
  double p_on = 0.05;
  double p_off = 0.30;
  bool verify = false;
  bool keep_self_loops = false;
  bool durable = false;
  bool force = false;
  bool compact = false;
  bool shards_set = false;
  bool replay_range = false;
  std::uint64_t range_first = 0;
  std::uint64_t range_last = 0;
  std::uint64_t max_events = 0;
  dynagraph::TraceWriterOptions writer;
};

const cli::HelpSpec kHelp{
    "trace_record",
    {"trace_record --out <path> --n <n> --trials <n> --length <n> [flags]",
     "trace_record --out <path> --import <path> [flags]",
     "trace_record --out <path> --compact [flags]"},
    "Records workload trials (uniform, Zipf, or edge-Markov), imports an\n"
    "external contact trace, or compacts a durable store — producing a\n"
    "sharded binary trace store (docs/FORMATS.md) ready for\n"
    "production-scale replay.",
    {
        {"--out", "<path>", "store directory to write (required)"},
        {"--n", "<n>", "node count of the generated workload"},
        {"--trials", "<n>",
         "recorded trials (import: segments to split events into)"},
        {"--length", "<n>",
         "interactions per trial (edge-Markov: steps per trial)"},
        {"--seed", "<n>", "master seed, pre-drawn per trial (default 0x5eed)"},
        {"--shards", "<n>", "shard files to spread trials over (default 8)"},
        {"--zipf", "<float>", "Zipf-popularity adversary with this exponent"},
        {"--edge-markov", "<float> <float>",
         "edge-Markov dynamic graph: p_on p_off"},
        {"--import", "<path>",
         "ingest external contact events instead of generating"},
        {"--keep-self-loops", "", "import: keep self-loop events"},
        {"--max-events", "<n>", "import: cap ingested events"},
        {"--no-compress", "", "store raw blocks (no rANS compression)"},
        {"--block-bytes", "<n>",
         "raw bytes per block, 16 to 1048576 (default 16384)"},
        {"--durable", "",
         "write through the crash-safe manifest store (append semantics)"},
        {"--compact", "",
         "rewrite every committed segment of a durable store into one"},
        {"--force", "", "overwrite a non-empty --out directory"},
        {"--verify", "", "reopen the store and stream-check every shard"},
        {"--replay-range", "<n> <n>",
         "replay only global trials [A, B) and print windowed stats"},
    }};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cli::isHelpFlag(arg)) cli::exitWithHelp(kHelp);
    auto value = [&] { return cli::flagValue(kHelp, argc, argv, i, arg); };
    auto uintValue = [&] { return cli::parseUint(kHelp, arg, value()); };
    auto doubleValue = [&] { return cli::parseDouble(kHelp, arg, value()); };
    if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--import") {
      opt.import_path = value();
    } else if (arg == "--n") {
      opt.n = uintValue();
    } else if (arg == "--trials") {
      opt.trials = uintValue();
    } else if (arg == "--length") {
      opt.length = uintValue();
    } else if (arg == "--seed") {
      opt.seed = uintValue();
    } else if (arg == "--shards") {
      opt.shards = static_cast<std::uint32_t>(uintValue());
      opt.shards_set = true;
    } else if (arg == "--zipf") {
      opt.zipf = doubleValue();
    } else if (arg == "--edge-markov") {
      opt.edge_markov = true;
      opt.p_on = doubleValue();
      opt.p_off = doubleValue();
    } else if (arg == "--no-compress") {
      opt.writer.compress = false;
    } else if (arg == "--block-bytes") {
      opt.writer.block_bytes = uintValue();
    } else if (arg == "--keep-self-loops") {
      opt.keep_self_loops = true;
    } else if (arg == "--max-events") {
      opt.max_events = uintValue();
    } else if (arg == "--durable") {
      opt.durable = true;
    } else if (arg == "--force") {
      opt.force = true;
    } else if (arg == "--compact") {
      opt.compact = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--replay-range") {
      opt.replay_range = true;
      opt.range_first = uintValue();
      opt.range_last = uintValue();
      if (opt.range_first >= opt.range_last)
        cli::usageError(kHelp, "--replay-range: need A < B");
    } else if (!arg.empty() && arg[0] == '-') {
      cli::unknownFlag(kHelp, arg);
    } else {
      cli::usageError(kHelp, "unexpected argument: '" + arg + "'");
    }
  }
  if (opt.out_dir.empty()) cli::usageError(kHelp, "--out is required");
  if (opt.compact) {
    // Compaction only rewrites what the manifest already commits.
    if (!opt.import_path.empty() || opt.n != 0 || opt.trials != 0 ||
        opt.length != 0 || opt.zipf != 0.0 || opt.edge_markov ||
        opt.seed != 0x5eed || opt.durable || opt.force)
      cli::usageError(kHelp,
                      "--compact takes only store-shape flags "
                      "(--shards/--no-compress/--block-bytes)");
  } else if (opt.import_path.empty()) {
    if (opt.n < 2 || opt.trials == 0 || opt.length == 0)
      cli::usageError(kHelp, "need --n >= 2, --trials and --length");
    if (opt.shards == 0) opt.shards = 1;
    // Shards are the replay parallelism unit; clamp to the trial count
    // instead of collapsing to one shard when asked for more than exist.
    if (opt.shards > opt.trials)
      opt.shards = static_cast<std::uint32_t>(opt.trials);
  } else {
    // Generator-only flags must not be silently dropped in import mode.
    if (opt.n != 0 || opt.length != 0 || opt.zipf != 0.0 ||
        opt.edge_markov || opt.seed != 0x5eed)
      cli::usageError(kHelp,
                      "--import is incompatible with the generator flags "
                      "(--n/--length/--zipf/--edge-markov/--seed)");
    if (opt.trials == 0) opt.trials = 1;
  }
  return opt;
}

/// Refuses to write into a non-empty existing directory unless --force is
/// given or the directory is a durable store that --durable will append
/// to. Guards both recorded and imported stores against accidentally
/// shredding a previous run (or a manifest store's segments).
void checkTargetWritable(const Options& opt) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(opt.out_dir) ||
      fs::directory_iterator(opt.out_dir) == fs::directory_iterator())
    return;  // absent or empty: safe to create
  if (opt.durable && storage::DurableTraceStore::isDurableStore(opt.out_dir))
    return;  // appending behind the manifest, not overwriting
  if (opt.force) return;
  throw std::runtime_error(
      opt.out_dir +
      ": refusing to write into a non-empty directory (pass --force to "
      "overwrite, or --durable to append to a manifest store)");
}

void recordEdgeMarkov(const Options& opt) {
  dynagraph::traces::EdgeMarkovConfig config;
  config.nodes = opt.n;
  config.p_on = opt.p_on;
  config.p_off = opt.p_off;
  config.steps = opt.length;

  sim::recordTrials(
      opt.out_dir, opt.n, opt.trials, opt.seed, opt.shards,
      [&](std::size_t /*trial*/, util::Rng& rng) {
        return dynagraph::traces::edgeMarkovTrace(config, rng);
      },
      opt.writer);
}

void importContacts(const Options& opt) {
  dynagraph::ContactImportOptions import;
  import.skip_self_loops = !opt.keep_self_loops;
  import.trials = opt.trials;
  import.max_events = opt.max_events;
  if (opt.durable) {
    const auto result = storage::importContactTraceDurable(
        opt.import_path, opt.out_dir, opt.shards, import, opt.writer);
    if (result.created)
      std::cout << "created durable store, imported " << result.appended_events
                << " events";
    else if (result.appended_events == 0)
      std::cout << "store already holds all " << result.total_events
                << " events, nothing appended";
    else
      std::cout << "appended " << result.appended_events << " new events ("
                << result.total_events << " total) as "
                << result.appended_trials << " trials";
    std::cout << " from " << opt.import_path << "\n";
    return;
  }
  const auto stats = dynagraph::importContactTrace(
      opt.import_path, opt.out_dir, opt.shards, import, opt.writer);
  std::cout << "imported " << stats.events << " events over "
            << stats.node_count << " nodes from " << opt.import_path;
  if (stats.timestamped)
    std::cout << " (t = " << stats.t_min << " .. " << stats.t_max << ")";
  if (stats.self_loops != 0)
    std::cout << ", skipped " << stats.self_loops << " self-loops";
  std::cout << "\n";
}

/// Durable generator recording: one atomic segment per run, appended
/// behind whatever the store already committed. Per-trial seeds follow
/// recordTrials' scheme (sim::appendTrials), so a single-segment durable
/// store replays bit-identically to the plain recorded one.
void recordDurableTrials(const Options& opt,
                         const sim::TrialGenerator& generator) {
  storage::DurableTraceStore store =
      storage::DurableTraceStore::openOrCreate(opt.out_dir);
  store.commitSegment(
      std::max<std::size_t>(opt.n, store.nodeCount()), opt.trials, opt.shards,
      opt.writer, [&](dynagraph::TraceStoreWriter& writer) {
        sim::appendTrials(writer, opt.seed, 0, opt.trials, generator);
      });
}

void compactStore(const Options& opt) {
  storage::DurableTraceStore store =
      storage::DurableTraceStore::open(opt.out_dir);
  const std::uint64_t before_bytes = store.openStore().totalFileBytes();
  const std::size_t before_segments = store.version().segments.size();
  store.compact(opt.writer, opt.shards_set ? opt.shards : 0);
  const std::uint64_t after_bytes = store.openStore().totalFileBytes();
  std::cout << "compacted " << before_segments << " segments ("
            << before_bytes << " bytes) into 1 (" << after_bytes
            << " bytes, " << (opt.writer.compress ? "rANS" : "raw")
            << " blocks)\n";
}

/// The store just written, whatever discipline wrote it: a durable store
/// serves its committed segments as one composite TraceStore.
dynagraph::TraceStore openRecorded(const Options& opt) {
  if (storage::DurableTraceStore::isDurableStore(opt.out_dir))
    return storage::DurableTraceStore::open(opt.out_dir).openStore();
  return dynagraph::TraceStore::open(opt.out_dir);
}

/// Contacts per node over one trial: how many interactions involve each.
std::vector<std::size_t> contactProfile(
    const dynagraph::InteractionSequence& seq, std::size_t n) {
  std::vector<std::size_t> contacts(n, 0);
  for (const dynagraph::Interaction& i : seq.interactions()) {
    ++contacts[i.a()];
    ++contacts[i.b()];
  }
  return contacts;
}

/// Windowed replay demo: replays only trials [A, B) of the store through
/// Gathering with replayTrace and prints the window's statistics. The
/// executor seeks straight to the window via each shard's block index,
/// and each trial is decoded only as far as Gathering runs.
void replayRange(const dynagraph::TraceStore& store, const Options& opt) {
  sim::ReplayConfig replay;
  replay.trial_range = {opt.range_first, opt.range_last};
  const auto result =
      sim::replayTrace(store, replay, [](sim::TrialContext&) {
        return std::make_unique<algorithms::Gathering>();
      });
  std::cout << "replay-range [" << opt.range_first << ", " << opt.range_last
            << "): " << result.interactions.count() << " terminated, "
            << result.failed_trials << " failed";
  if (result.interactions.count() > 0)
    std::cout << ", mean interactions " << result.interactions.mean();
  std::cout << "\n";
}

int verifyStore(const dynagraph::TraceStore& store) {
  std::uint64_t interactions = 0;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    auto reader = store.openShard(s);
    while (reader.beginTrial()) {
      interactions += reader.trialLength();
      reader.skipRest();
    }
  }
  const std::uint64_t bytes = store.totalFileBytes();
  std::cout << "verify: " << store.trialCount() << " trials in "
            << store.shardCount() << " shards (format v"
            << dynagraph::kTraceFormatVersion << "), " << interactions
            << " interactions, " << bytes << " bytes ("
            << (interactions == 0
                    ? 0.0
                    : static_cast<double>(bytes) /
                          static_cast<double>(interactions))
            << " bytes/interaction)\n";

  auto reader = store.openShard(0);
  if (reader.beginTrial()) {
    const auto first = reader.readRest();
    const auto contacts = contactProfile(first, store.nodeCount());
    std::size_t busiest = 0;
    for (std::size_t u = 1; u < contacts.size(); ++u)
      if (contacts[u] > contacts[busiest]) busiest = u;
    std::cout << "verify: trial 0 has " << first.length()
              << " interactions; busiest node " << busiest << " with "
              << contacts[busiest] << " contacts\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (opt.compact) {
      compactStore(opt);
    } else {
      checkTargetWritable(opt);
      if (!opt.import_path.empty()) {
        importContacts(opt);
      } else if (opt.edge_markov) {
        if (opt.durable) {
          dynagraph::traces::EdgeMarkovConfig config;
          config.nodes = opt.n;
          config.p_on = opt.p_on;
          config.p_off = opt.p_off;
          config.steps = opt.length;
          recordDurableTrials(opt, [&](std::size_t /*trial*/, util::Rng& rng) {
            return dynagraph::traces::edgeMarkovTrace(config, rng);
          });
        } else {
          recordEdgeMarkov(opt);
        }
      } else {
        sim::MeasureConfig config;
        config.node_count = opt.n;
        config.trials = opt.trials;
        config.seed = opt.seed;
        config.zipf_exponent = opt.zipf;
        if (opt.durable) {
          recordDurableTrials(opt, [&](std::size_t /*trial*/, util::Rng& rng) {
            return sim::drawAdversarySequence(config, opt.length, rng);
          });
        } else {
          sim::recordSynthetic(opt.out_dir, config, opt.length, opt.shards,
                               opt.writer);
        }
      }
    }
    const auto store = openRecorded(opt);
    std::cout << "recorded " << store.trialCount() << " trials over "
              << store.nodeCount() << " nodes into " << store.shardCount()
              << " shards at " << opt.out_dir << "\n";
    if (opt.replay_range) replayRange(store, opt);
    if (opt.verify) return verifyStore(store);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
