#include "server/service.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_experiment.hpp"
#include "sim/trace_replay.hpp"
#include "util/stats.hpp"

namespace doda::server {

namespace {

[[noreturn]] void badParams(const std::string& message) {
  throw ProtocolError(ErrorCode::kInvalidParams, message);
}

std::uint64_t uintParam(const Json& params, const char* key,
                        std::uint64_t fallback) {
  const Json* value = params.find(key);
  if (value == nullptr) return fallback;
  if (!value->isInt() || value->asInt() < 0)
    badParams(std::string("\"") + key +
              "\" must be a non-negative integer");
  return static_cast<std::uint64_t>(value->asInt());
}

double numParam(const Json& params, const char* key, double fallback) {
  const Json* value = params.find(key);
  if (value == nullptr) return fallback;
  if (!value->isNumber()) badParams(std::string("\"") + key +
                                    "\" must be a number");
  return value->asDouble();
}

bool boolParam(const Json& params, const char* key, bool fallback) {
  const Json* value = params.find(key);
  if (value == nullptr) return fallback;
  if (!value->isBool()) badParams(std::string("\"") + key +
                                  "\" must be a boolean");
  return value->asBool();
}

std::string stringParam(const Json& params, const char* key,
                        const std::string& fallback) {
  const Json* value = params.find(key);
  if (value == nullptr) return fallback;
  if (!value->isString()) badParams(std::string("\"") + key +
                                    "\" must be a string");
  return value->asString();
}

/// A job's "threads" param, clamped to this machine's cores (0 stays "all
/// cores"). The statistics are identical for every thread count, so extra
/// workers would only cost a thread stack each, and one request could
/// otherwise ask for a million of them.
std::size_t threadsParam(const Json& params) {
  const auto cores = static_cast<std::uint64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  return static_cast<std::size_t>(
      std::min(uintParam(params, "threads", 0), cores));
}

/// The MeasureConfig keys shared by every synthetic job kind.
sim::MeasureConfig measureConfigOf(const Json& params) {
  sim::MeasureConfig config;
  config.node_count =
      static_cast<std::size_t>(uintParam(params, "n", config.node_count));
  if (config.node_count < 2) badParams("\"n\" must be at least 2");
  config.sink = static_cast<core::NodeId>(uintParam(params, "sink", 0));
  if (config.sink >= config.node_count) badParams("\"sink\" out of range");
  config.trials =
      static_cast<std::size_t>(uintParam(params, "trials", config.trials));
  if (config.trials == 0) badParams("\"trials\" must be positive");
  config.seed = uintParam(params, "seed", config.seed);
  config.threads = threadsParam(params);
  config.max_interactions = static_cast<core::Time>(uintParam(
      params, "max_interactions",
      static_cast<std::uint64_t>(config.max_interactions)));
  config.zipf_exponent = numParam(params, "zipf", 0.0);
  if (config.zipf_exponent < 0.0) badParams("\"zipf\" must be >= 0");
  const std::string seed_format = stringParam(params, "seed_format", "v2");
  if (seed_format == "v1")
    config.seed_format = dynagraph::traces::SeedFormat::v1;
  else if (seed_format == "v2")
    config.seed_format = dynagraph::traces::SeedFormat::v2;
  else
    badParams("\"seed_format\" must be \"v1\" or \"v2\"");
  return config;
}

/// Builds the per-trial algorithm factory named by "algorithm". The
/// waiting-greedy horizon defaults to the paper's optimal tau (Cor 3).
sim::AlgorithmFactory algorithmFactoryOf(const Json& params,
                                         std::size_t node_count) {
  const std::string name = stringParam(params, "algorithm", "gathering");
  if (name == "gathering")
    return [](sim::TrialContext&) -> std::unique_ptr<core::DodaAlgorithm> {
      return std::make_unique<algorithms::Gathering>();
    };
  if (name == "waiting")
    return [](sim::TrialContext&) -> std::unique_ptr<core::DodaAlgorithm> {
      return std::make_unique<algorithms::Waiting>();
    };
  if (name == "waiting-greedy") {
    const auto default_tau = static_cast<std::uint64_t>(
        std::ceil(util::closed_form::waitingGreedyTau(node_count)));
    const auto tau =
        static_cast<core::Time>(uintParam(params, "tau", default_tau));
    return [tau](sim::TrialContext& context)
               -> std::unique_ptr<core::DodaAlgorithm> {
      // Fault jobs hand the degraded oracle; prefer it when present.
      if (context.oracle != nullptr)
        return std::make_unique<algorithms::WaitingGreedy>(*context.oracle,
                                                           tau);
      return std::make_unique<algorithms::WaitingGreedy>(context.meet_time,
                                                         tau);
    };
  }
  badParams("unknown \"algorithm\" \"" + name +
            "\" (gathering, waiting, waiting-greedy)");
}

/// Sequence length for the fixed-sequence kinds (cost, faults): long
/// enough that the slowest stock algorithm (Waiting) usually terminates
/// without the doubling path. Zero is rejected: it never doubles.
core::Time lengthHintOf(const Json& params, std::size_t node_count) {
  const auto fallback = static_cast<std::uint64_t>(std::max(
      1024.0,
      std::ceil(4.0 * util::closed_form::waitingExpected(node_count))));
  const std::uint64_t hint = uintParam(params, "length_hint", fallback);
  if (hint == 0) badParams("\"length_hint\" must be positive");
  return static_cast<core::Time>(hint);
}

fault::FaultModel faultModelOf(const Json& params) {
  const Json* spec = params.find("faults");
  if (spec == nullptr) badParams("kind \"faults\" needs a \"faults\" object");
  if (!spec->isObject()) badParams("\"faults\" must be an object");
  fault::FaultModel model;
  model.loss_p = numParam(*spec, "loss", 0.0);
  if (const Json* ge = spec->find("gilbert_elliott")) {
    if (!ge->isObject()) badParams("\"gilbert_elliott\" must be an object");
    model.ge_enter_bad = numParam(*ge, "enter_bad", 0.0);
    model.ge_exit_bad = numParam(*ge, "exit_bad", 0.0);
    model.ge_loss_good = numParam(*ge, "loss_good", 0.0);
    model.ge_loss_bad = numParam(*ge, "loss_bad", 1.0);
  }
  if (const Json* crash = spec->find("crash")) {
    if (!crash->isObject()) badParams("\"crash\" must be an object");
    model.crash_fraction = numParam(*crash, "fraction", 0.0);
    model.crash_horizon =
        static_cast<core::Time>(uintParam(*crash, "horizon", 0));
  }
  model.byzantine_fraction = numParam(*spec, "byzantine", 0.0);
  try {
    model.validate();
  } catch (const std::exception& e) {
    badParams(std::string("invalid \"faults\": ") + e.what());
  }
  return model;
}

/// Wires a JobContext into a RunControl for the duration of one job body.
struct ControlBinding {
  explicit ControlBinding(JobContext& context) {
    control.cancel = context.cancel;
    control.progress = [&context](std::size_t folded,
                                  const sim::MeasureResult& snapshot) {
      context.progress(folded, statsJson(snapshot));
    };
  }
  sim::RunControl control;
};

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      stores_(options_.stores),
      jobs_(options_.queue) {}

Handled Service::handle(const std::string& line, const StreamSink& sink) {
  Json id;  // null until the frame parses far enough to know it
  try {
    const Request request = parseRequest(line, options_.max_frame_bytes);
    id = request.id;
    return dispatch(request, sink);
  } catch (const ProtocolError& e) {
    return {makeError(std::move(id), e.code, e.what()), nullptr};
  } catch (const std::exception& e) {
    return {makeError(std::move(id), ErrorCode::kInternalError, e.what()),
            nullptr};
  }
}

void Service::drain() { jobs_.drain(); }

Handled Service::dispatch(const Request& request, const StreamSink& sink) {
  if (request.method == "ping") {
    Json result = Json::object();
    result.set("ok", true);
    return {makeResponse(request.id, std::move(result)), nullptr};
  }

  if (request.method == "server.info") {
    Json methods = Json::array();
    for (const char* name :
         {"ping", "server.info", "job.submit", "job.status", "job.result",
          "job.cancel", "job.subscribe"})
      methods.push(name);
    Json result = Json::object();
    result.set("name", "dodad");
    result.set("protocol", 1);
    result.set("methods", std::move(methods));
    result.set("max_trials_per_job", options_.max_trials_per_job);
    result.set("max_frame_bytes",
               static_cast<std::uint64_t>(options_.max_frame_bytes));
    return {makeResponse(request.id, std::move(result)), nullptr};
  }

  if (request.method == "job.submit") return submit(request);

  if (request.method == "job.status") {
    const std::uint64_t id = uintParam(request.params, "job", 0);
    return {makeResponse(request.id, jobs_.status(id)), nullptr};
  }

  if (request.method == "job.result") {
    const std::uint64_t id = uintParam(request.params, "job", 0);
    return {makeResponse(request.id, jobs_.result(id)), nullptr};
  }

  if (request.method == "job.cancel") {
    const std::uint64_t id = uintParam(request.params, "job", 0);
    const bool cancelled = jobs_.cancel(id);
    Json result = Json::object();
    result.set("job", id);
    result.set("cancelled", cancelled);
    return {makeResponse(request.id, std::move(result)), nullptr};
  }

  if (request.method == "job.subscribe") {
    const std::uint64_t id = uintParam(request.params, "job", 0);
    jobs_.status(id);  // surface kUnknownJob in the response, not the hook
    Json result = Json::object();
    result.set("job", id);
    result.set("subscribed", true);
    // Attach after the reply is on the wire: a finished job's immediate
    // job.complete frame must not overtake the subscribe response.
    auto attach = [this, id, sink] {
      try {
        jobs_.subscribe(id, sink);
      } catch (const ProtocolError&) {
        // Evicted between check and attach: nothing to stream.
      }
    };
    return {makeResponse(request.id, std::move(result)), std::move(attach)};
  }

  throw ProtocolError(ErrorCode::kMethodNotFound,
                      "unknown method \"" + request.method + "\"");
}

Handled Service::submit(const Request& request) {
  const Json& params = request.params;
  const std::string kind = stringParam(params, "kind", "");
  if (kind.empty()) badParams("\"kind\" is required");

  JobWork work;
  std::uint64_t total_trials = 0;

  if (kind == "randomized" || kind == "cost" || kind == "offline-opt" ||
      kind == "faults") {
    sim::MeasureConfig config = measureConfigOf(params);
    total_trials = config.trials;
    const auto max_doublings = static_cast<std::size_t>(
        uintParam(params, "max_doublings", 8));
    if (kind == "offline-opt") {
      work = [config](JobContext& context) -> Json {
        ControlBinding binding(context);
        sim::MeasureConfig bound = config;
        bound.control = &binding.control;
        return statsJson(sim::measureOfflineOptimal(bound));
      };
    } else if (kind == "randomized") {
      sim::AlgorithmFactory factory =
          algorithmFactoryOf(params, config.node_count);
      work = [config, factory](JobContext& context) -> Json {
        ControlBinding binding(context);
        sim::MeasureConfig bound = config;
        bound.control = &binding.control;
        return statsJson(sim::measureRandomized(bound, factory));
      };
    } else if (kind == "cost") {
      sim::AlgorithmFactory factory =
          algorithmFactoryOf(params, config.node_count);
      const core::Time length = lengthHintOf(params, config.node_count);
      work = [config, factory, length,
              max_doublings](JobContext& context) -> Json {
        ControlBinding binding(context);
        sim::MeasureConfig bound = config;
        bound.control = &binding.control;
        return statsJson(
            sim::measureWithCost(bound, length, factory, max_doublings));
      };
    } else {  // faults
      config.faults = faultModelOf(params);
      sim::AlgorithmFactory factory =
          algorithmFactoryOf(params, config.node_count);
      const core::Time length = lengthHintOf(params, config.node_count);
      work = [config, factory, length,
              max_doublings](JobContext& context) -> Json {
        ControlBinding binding(context);
        sim::MeasureConfig bound = config;
        bound.control = &binding.control;
        return faultResultJson(
            sim::measureWithFaults(bound, length, factory, max_doublings));
      };
    }
  } else if (kind == "replay") {
    const std::string path = stringParam(params, "store", "");
    if (path.empty()) badParams("kind \"replay\" needs a \"store\" path");
    // Open at submit time: a bad path fails the submit itself (kStoreError)
    // instead of a queued job. The shared_ptr keeps the handle alive for
    // the job even if the cache evicts it.
    std::shared_ptr<const dynagraph::TraceStore> store = stores_.open(path);

    sim::ReplayConfig replay;
    replay.sink = static_cast<core::NodeId>(uintParam(params, "sink", 0));
    if (replay.sink >= store->nodeCount()) badParams("\"sink\" out of range");
    replay.threads = threadsParam(params);
    replay.max_interactions = static_cast<core::Time>(uintParam(
        params, "max_interactions",
        static_cast<std::uint64_t>(replay.max_interactions)));
    replay.compute_cost = boolParam(params, "compute_cost", false);
    replay.trial_range.first = uintParam(params, "first", 0);
    replay.trial_range.last =
        uintParam(params, "last", ~std::uint64_t{0});

    const std::uint64_t first =
        std::min(replay.trial_range.first, store->trialCount());
    const std::uint64_t last =
        std::min(replay.trial_range.last, store->trialCount());
    total_trials = last > first ? last - first : 0;

    sim::AlgorithmFactory factory =
        algorithmFactoryOf(params, store->nodeCount());
    work = [store, replay, factory](JobContext& context) -> Json {
      ControlBinding binding(context);
      sim::ReplayConfig bound = replay;
      bound.control = &binding.control;
      return statsJson(sim::replayTrace(*store, bound, factory));
    };
  } else {
    badParams("unknown \"kind\" \"" + kind +
              "\" (randomized, cost, offline-opt, faults, replay)");
  }

  if (total_trials > options_.max_trials_per_job)
    throw ProtocolError(
        ErrorCode::kTrialBudget,
        "job asks for " + std::to_string(total_trials) +
            " trials; the per-job budget is " +
            std::to_string(options_.max_trials_per_job));

  const std::uint64_t id =
      jobs_.submit("job.submit:" + kind, total_trials, std::move(work));
  Json result = Json::object();
  result.set("job", id);
  result.set("state", "queued");
  // Activation happens after the response is written so a notification can
  // never precede it on the wire.
  return {makeResponse(request.id, std::move(result)),
          [this, id] { jobs_.activate(id); }};
}

}  // namespace doda::server
