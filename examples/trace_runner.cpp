// trace_runner — the library as a command-line tool.
//
// Runs any of the paper's algorithms over a trace (from a file in the
// doda-trace format, or generated on the fly) and reports termination,
// interactions, the paper's cost, and routing metrics.
//
// Usage:
//   trace_runner --trace FILE [--algorithm NAME] [--sink ID] [--stats]
//   trace_runner --random N LENGTH SEED [--algorithm NAME] [--sink ID]
//   trace_runner --save FILE --random N LENGTH SEED      (generate a trace)
//
// --stats additionally prints the trace's temporal-reachability profile
// (journey coverage, temporal diameter, sink eccentricity).
//
// Algorithms: waiting | gathering | waiting-greedy[:TAU] | tree | full |
//             future | all (default)

#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/reachability.hpp"
#include "analysis/schedule_metrics.hpp"
#include "cli.hpp"
#include "doda.hpp"
#include "dynagraph/trace_io.hpp"

namespace {

using namespace doda;

struct Options {
  std::string trace_path;
  std::string save_path;
  std::string algorithm = "all";
  std::size_t random_n = 0;
  core::Time random_length = 0;
  std::uint64_t random_seed = 1;
  core::NodeId sink = 0;
  bool stats = false;
};

const cli::HelpSpec kHelp{
    "trace_runner",
    {"trace_runner --trace <path> [flags]",
     "trace_runner --random <n> <n> <n> [flags]"},
    "Runs any of the paper's algorithms over one trace (loaded from a\n"
    "doda-trace file or generated on the fly) and reports termination,\n"
    "interactions, the paper's cost, and routing metrics.",
    {
        {"--trace", "<path>", "load the trace from this doda-trace file"},
        {"--random", "<n> <n> <n>",
         "generate a uniform random trace: nodes, length, seed"},
        {"--algorithm", "<str>",
         "waiting | gathering | waiting-greedy[:TAU] | tree | full | "
         "future | all (default all)"},
        {"--sink", "<n>", "sink node id (default 0)"},
        {"--save", "<path>", "also save the trace to this file"},
        {"--stats", "", "print the temporal-reachability profile"},
    }};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cli::isHelpFlag(arg)) cli::exitWithHelp(kHelp);
    if (arg == "--trace") {
      opt.trace_path = cli::flagValue(kHelp, argc, argv, i, arg);
    } else if (arg == "--random") {
      if (i + 3 >= argc) cli::usageError(kHelp, "--random needs N LENGTH SEED");
      opt.random_n = cli::parseUint(kHelp, arg, argv[++i]);
      opt.random_length = cli::parseUint(kHelp, arg, argv[++i]);
      opt.random_seed = cli::parseUint(kHelp, arg, argv[++i]);
    } else if (arg == "--algorithm") {
      opt.algorithm = cli::flagValue(kHelp, argc, argv, i, arg);
    } else if (arg == "--sink") {
      opt.sink = static_cast<core::NodeId>(
          cli::parseUint(kHelp, arg, cli::flagValue(kHelp, argc, argv, i, arg)));
    } else if (arg == "--save") {
      opt.save_path = cli::flagValue(kHelp, argc, argv, i, arg);
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      cli::unknownFlag(kHelp, arg);
    } else {
      cli::usageError(kHelp, "unexpected argument: '" + arg + "'");
    }
  }
  if (opt.trace_path.empty() && opt.random_n == 0)
    cli::usageError(kHelp, "need --trace or --random");
  return opt;
}

void runOne(const std::string& name, core::DodaAlgorithm& algorithm,
            const dynagraph::InteractionSequence& trace, std::size_t n,
            core::NodeId sink, util::Table& table) {
  adversary::SequenceAdversary adversary(trace);
  core::Engine engine({n, sink}, core::AggregationFunction::count());
  const auto r = engine.run(algorithm, adversary);
  if (!r.terminated) {
    table.addRow({name, "no", "-", "-", "-", "-"});
    return;
  }
  const auto cost = analysis::costOf(trace, n, sink,
                                     r.last_transmission_time);
  const auto metrics = analysis::analyzeSchedule(r.schedule, {n, sink});
  table.addRow({name, "yes", std::to_string(r.interactions_to_terminate),
                std::to_string(cost), util::Table::num(metrics.mean_hops, 2),
                std::to_string(metrics.max_hops)});
}

/// Everything after argument parsing; throws on an unreadable or malformed
/// trace and on I/O failure.
int run(const Options& opt) {
  dynagraph::InteractionSequence trace;
  std::size_t n = 0;
  if (!opt.trace_path.empty()) {
    const auto loaded = dynagraph::loadTrace(opt.trace_path);
    trace = loaded.sequence;
    n = loaded.node_count;
    std::cout << "Loaded " << trace.length() << " interactions over " << n
              << " nodes from " << opt.trace_path << "\n";
  } else {
    util::Rng rng(opt.random_seed);
    n = opt.random_n;
    trace = dynagraph::traces::uniformRandom(n, opt.random_length, rng);
    std::cout << "Generated uniform random trace: n=" << n
              << " length=" << trace.length() << " seed=" << opt.random_seed
              << "\n";
  }
  if (n < 2 || opt.sink >= n) {
    std::cerr << "error: need >= 2 nodes and a valid sink id\n";
    return 1;
  }
  if (!opt.save_path.empty()) {
    dynagraph::saveTrace(opt.save_path, trace, n);
    std::cout << "Saved trace to " << opt.save_path << "\n";
    if (opt.algorithm == "all" && opt.trace_path.empty()) return 0;
  }

  if (opt.stats) {
    const auto report = analysis::temporalReachability(trace, n);
    std::cout << "Temporal reachability: "
              << util::Table::num(100.0 * report.reachable_fraction, 1)
              << "% of ordered pairs have a journey; temporal diameter "
              << (report.temporal_diameter == dynagraph::kNever
                      ? std::string("infinite")
                      : std::to_string(report.temporal_diameter))
              << "\n";
    const auto horizon =
        analysis::sinkReachableBy(trace, n, opt.sink);
    std::cout << "All nodes can reach the sink by interaction "
              << (horizon == dynagraph::kNever ? std::string("- (never)")
                                               : std::to_string(horizon))
              << "\n";
  }

  const auto opt_end = analysis::optCompletion(trace, n, opt.sink);
  std::cout << "Offline optimum: "
            << (opt_end == dynagraph::kNever
                    ? std::string("impossible within trace")
                    : std::to_string(opt_end + 1) + " interactions")
            << "\n\n";

  util::Table table({"algorithm", "done", "interactions", "cost",
                     "mean hops", "max hops"});

  auto want = [&](const std::string& name) {
    return opt.algorithm == "all" ||
           opt.algorithm.rfind(name, 0) == 0;  // prefix match for :TAU
  };

  if (want("waiting") && opt.algorithm.rfind("waiting-greedy", 0) != 0) {
    algorithms::Waiting w;
    runOne("waiting", w, trace, n, opt.sink, table);
  }
  if (want("gathering")) {
    algorithms::Gathering ga;
    runOne("gathering", ga, trace, n, opt.sink, table);
  }
  if (want("waiting-greedy") || opt.algorithm == "all") {
    core::Time tau = static_cast<core::Time>(
        util::closed_form::waitingGreedyTau(n));
    const auto colon = opt.algorithm.find(':');
    if (colon != std::string::npos)
      tau = std::strtoull(opt.algorithm.c_str() + colon + 1, nullptr, 10);
    dynagraph::MeetTimeIndex index(trace, opt.sink, n);
    algorithms::WaitingGreedy wg(index, tau);
    runOne("waiting-greedy(tau=" + std::to_string(tau) + ")", wg, trace, n,
           opt.sink, table);
  }
  if (want("tree")) {
    const auto g = trace.underlyingGraph(n);
    if (g.isConnected()) {
      algorithms::SpanningTreeAggregation alg(g);
      runOne("tree", alg, trace, n, opt.sink, table);
    } else {
      table.addRow({"tree", "n/a (G' disconnected)", "-", "-", "-", "-"});
    }
  }
  if (want("full")) {
    algorithms::FullKnowledgeOptimal fk(trace);
    runOne("full", fk, trace, n, opt.sink, table);
  }
  if (want("future")) {
    algorithms::FutureAware fa(trace);
    runOne("future", fa, trace, n, opt.sink, table);
  }

  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "trace_runner: " << e.what() << "\n";
    return 1;
  }
}
