// Integration matrix: every algorithm against every trace family, checking
// the cross-cutting guarantees that hold whenever an execution terminates:
// exactly n-1 transfers, a validating convergecast schedule, exact
// aggregation (the sink's source set is all of V), and cost >= 1 with the
// full-knowledge algorithm at exactly cost = 1.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "algorithms/full_knowledge.hpp"
#include "algorithms/future_aware.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/random_policy.hpp"
#include "algorithms/spanning_tree_aggregation.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "analysis/convergecast.hpp"
#include "dynagraph/edge_markov.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/traces.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace doda {
namespace {

namespace traces = dynagraph::traces;
using core::NodeId;
using core::Time;
using dynagraph::InteractionSequence;

struct MatrixCase {
  std::string trace_name;
  std::string algorithm_name;
};

/// Prints a case as "trace/algorithm" in gtest output, and so in the ctest
/// test names. Without it gtest dumps the struct's raw bytes, which start
/// with a heap pointer and change from build to build.
void PrintTo(const MatrixCase& matrix_case, std::ostream* os) {
  *os << matrix_case.trace_name << '/' << matrix_case.algorithm_name;
}

/// Trace families under test, all with node 0 as sink and >= 9 nodes.
InteractionSequence makeTrace(const std::string& name, std::size_t& n,
                              util::Rng& rng) {
  if (name == "uniform") {
    n = 10;
    return traces::uniformRandom(n, 400 * n * n, rng);
  }
  if (name == "zipf") {
    n = 10;
    return traces::zipfRandom(n, 400 * n * n, 0.8, rng);
  }
  if (name == "body") {
    traces::BodySensorConfig config;
    config.sensors = 9;
    config.slots = 4000;
    n = 10;
    return traces::bodySensorTrace(config, rng);
  }
  if (name == "vehicular") {
    traces::VehicularConfig config;
    config.width = 5;
    config.height = 5;
    config.cars = 9;
    config.steps = 30000;
    n = 10;
    return traces::vehicularTrace(config, rng);
  }
  if (name == "edge-markov") {
    traces::EdgeMarkovConfig config;
    config.nodes = 10;
    config.p_on = 0.05;
    config.p_off = 0.4;
    config.steps = 8000;
    n = 10;
    return traces::edgeMarkovTrace(config, rng);
  }
  throw std::logic_error("unknown trace family: " + name);
}

std::unique_ptr<core::DodaAlgorithm> makeAlgorithm(
    const std::string& name, const InteractionSequence& trace, std::size_t n,
    dynagraph::MeetTimeIndex& index) {
  if (name == "waiting") return std::make_unique<algorithms::Waiting>();
  if (name == "gathering") return std::make_unique<algorithms::Gathering>();
  if (name == "waiting-greedy")
    return std::make_unique<algorithms::WaitingGreedy>(
        index,
        static_cast<Time>(util::closed_form::waitingGreedyTau(n)));
  if (name == "tree")
    return std::make_unique<algorithms::SpanningTreeAggregation>(
        trace.underlyingGraph(n));
  if (name == "full")
    return std::make_unique<algorithms::FullKnowledgeOptimal>(trace);
  if (name == "future")
    return std::make_unique<algorithms::FutureAware>(trace);
  if (name == "random")
    return std::make_unique<algorithms::RandomPolicy>(0xABC);
  throw std::logic_error("unknown algorithm: " + name);
}

class Matrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(Matrix, TerminatedRunsSatisfyAllGuarantees) {
  const auto& param = GetParam();
  util::Rng rng(std::hash<std::string>{}(param.trace_name) ^ 0x5eed);
  std::size_t n = 0;
  const auto trace = makeTrace(param.trace_name, n, rng);
  ASSERT_GE(trace.length(), 1u);
  dynagraph::MeetTimeIndex index(trace, 0, n);
  const auto algorithm =
      makeAlgorithm(param.algorithm_name, trace, n, index);

  const auto r = testing::runOn(*algorithm, trace, n, 0);
  // Feasibility differs per trace; only terminated runs are judged, but
  // the dense random families must always terminate.
  if (param.trace_name == "uniform" || param.trace_name == "zipf") {
    ASSERT_TRUE(r.terminated) << param.algorithm_name;
  }
  if (!r.terminated) GTEST_SKIP() << "trace too short for this algorithm";

  EXPECT_EQ(r.schedule.size(), n - 1);
  std::string err;
  EXPECT_TRUE(
      core::validateConvergecastSchedule(r.schedule, trace, {n, 0}, &err))
      << err;
  // Exact aggregation: the sink folded every origin exactly once.
  EXPECT_EQ(r.sink_datum.sources.size(), n);
  EXPECT_DOUBLE_EQ(r.sink_datum.value, static_cast<double>(n));
  // Cost sanity: >= 1 always; the full-knowledge algorithm achieves 1.
  const auto cost =
      analysis::costOf(trace, n, 0, r.last_transmission_time);
  EXPECT_GE(cost, 1u);
  if (param.algorithm_name == "full") {
    EXPECT_EQ(cost, 1u);
  }
}

std::vector<MatrixCase> allCases() {
  std::vector<MatrixCase> cases;
  for (const char* trace :
       {"uniform", "zipf", "body", "vehicular", "edge-markov"})
    for (const char* algorithm : {"waiting", "gathering", "waiting-greedy",
                                  "tree", "full", "future", "random"})
      cases.push_back({trace, algorithm});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Matrix, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      std::string name = param_info.param.trace_name + "_" +
                         param_info.param.algorithm_name;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace doda
