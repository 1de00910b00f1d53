// Trial-throughput benchmark for the parallel experiment subsystem.
//
// Unlike the reproduction benches (which report scientific quantities via
// Google Benchmark), this binary measures engineering throughput: how many
// Monte-Carlo trials per second measureRandomized sustains serially
// (threads = 1) versus with the parallel executor (threads = auto), for
// n in {64, 256, 1024}. Results go to stdout and to a JSON file so the
// perf trajectory is tracked across PRs.
//
// Usage: bench_throughput [--quick] [--out PATH] [--threads K]
//   --quick    smoke mode for CI: fewer sizes and trials
//   --out      JSON output path (default BENCH_throughput.json)
//   --threads  worker count for the parallel leg (default 0 = all cores)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"

namespace {

using doda::sim::MeasureConfig;
using doda::sim::MeasureResult;

struct Row {
  std::string leg;  // non-empty for the non-default workloads
  std::size_t n = 0;
  std::size_t trials = 0;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::size_t parallel_threads = 0;
  double mean_interactions = 0.0;

  double serialRate() const { return trials / serial_seconds; }
  double parallelRate() const { return trials / parallel_seconds; }
  double speedup() const { return serial_seconds / parallel_seconds; }
};

doda::sim::AlgorithmFactory waitingGreedy(std::size_t n) {
  const auto tau = static_cast<doda::core::Time>(
      doda::util::closed_form::waitingGreedyTau(n));
  return [tau](doda::sim::TrialContext& context) {
    return std::make_unique<doda::algorithms::WaitingGreedy>(
        context.meet_time, tau);
  };
}

doda::sim::AlgorithmFactory gathering() {
  return [](doda::sim::TrialContext&) {
    return std::make_unique<doda::algorithms::Gathering>();
  };
}

double secondsOf(const std::function<MeasureResult()>& run,
                 MeasureResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = run();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

Row benchOne(std::size_t n, std::size_t trials, std::size_t threads,
             const doda::sim::AlgorithmFactory& factory,
             std::string leg = {}) {
  MeasureConfig config;
  config.node_count = n;
  config.trials = trials;
  config.seed = 0xbe9c'0000 + n;

  Row row;
  row.leg = std::move(leg);
  row.n = n;
  row.trials = trials;
  row.parallel_threads = doda::sim::resolveThreads(threads, trials);

  MeasureResult serial, parallel;
  {
    MeasureConfig c = config;
    c.threads = 1;
    row.serial_seconds =
        secondsOf([&] { return measureRandomized(c, factory); }, serial);
  }
  {
    MeasureConfig c = config;
    c.threads = threads;
    row.parallel_seconds =
        secondsOf([&] { return measureRandomized(c, factory); }, parallel);
  }
  row.mean_interactions = serial.interactions.mean();

  // The executor's contract: identical statistics for any thread count.
  if (serial.interactions.mean() != parallel.interactions.mean() ||
      serial.interactions.variance() != parallel.interactions.variance() ||
      serial.failed_trials != parallel.failed_trials) {
    std::cerr << "FATAL: serial and parallel statistics diverge at n=" << n
              << "\n";
    std::exit(2);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_throughput.json";
  std::size_t threads = 0;  // 0 = all cores
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      try {
        threads = std::stoul(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "--threads: expected a number, got '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else {
      std::cerr
          << "usage: bench_throughput [--quick] [--out PATH] [--threads K]\n";
      return 1;
    }
  }

  // Open the output before the (potentially minutes-long) measurement so a
  // bad path fails immediately.
  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }

  struct Point {
    std::size_t n;
    std::size_t trials;
  };
  const std::vector<Point> points =
      quick ? std::vector<Point>{{64, 40}, {256, 16}}
            : std::vector<Point>{{64, 1000}, {256, 500}, {1024, 100}};
  // Aggregation-heavy case: Gathering transfers eagerly, so the sink-side
  // source sets grow to n entries and every late merge runs through the
  // spilled (bitset) SourceSet representation — the workload the
  // zero-allocation hot path is built for.
  const std::vector<Point> agg_points =
      quick ? std::vector<Point>{{256, 8}}
            : std::vector<Point>{{1024, 24}, {4096, 6}};

  std::vector<Row> rows;
  auto runPoint = [&](const Point& point,
                      const doda::sim::AlgorithmFactory& factory,
                      std::string leg) {
    std::printf("%-20s n=%-5zu trials=%-5zu ...",
                leg.empty() ? "waiting_greedy" : leg.c_str(), point.n,
                point.trials);
    std::fflush(stdout);
    const Row row =
        benchOne(point.n, point.trials, threads, factory, std::move(leg));
    std::printf(
        " serial %8.1f trials/s | parallel(x%zu) %8.1f trials/s | "
        "speedup %.2fx\n",
        row.serialRate(), row.parallel_threads, row.parallelRate(),
        row.speedup());
    rows.push_back(row);
  };
  for (const auto& point : points)
    runPoint(point, waitingGreedy(point.n), {});
  for (const auto& point : agg_points)
    runPoint(point, gathering(),
             "aggregation_n" + std::to_string(point.n));

  json << "{\n"
       << "  \"bench\": \"throughput\",\n"
       << "  \"workload\": \"measureRandomized + WaitingGreedy(tau*) / "
          "Gathering (aggregation legs)\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {";
    if (!row.leg.empty()) json << "\"leg\": \"" << row.leg << "\", ";
    json << "\"n\": " << row.n << ", \"trials\": " << row.trials
         << ", \"serial_trials_per_sec\": " << row.serialRate()
         << ", \"parallel_trials_per_sec\": " << row.parallelRate()
         << ", \"parallel_threads\": " << row.parallel_threads
         << ", \"speedup\": " << row.speedup()
         << ", \"mean_interactions\": " << row.mean_interactions << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
