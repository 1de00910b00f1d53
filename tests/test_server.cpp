// dodad server tests: the headline acceptance gate of the aggregation
// server — every served measurement is bit-identical (hexfloat-compared)
// to the offline sim entry points for the same seed, at any thread count
// and any concurrent-client count — plus the job lifecycle (admission
// control, trial budget, cancel, subscribe streaming, drain) and the
// transport's failure modes (malformed frames, oversized frames,
// mid-stream disconnects) over real sockets.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/gathering.hpp"
#include "algorithms/waiting.hpp"
#include "server/job_queue.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_experiment.hpp"
#include "sim/trace_replay.hpp"
#include "util/rng.hpp"

namespace doda::server {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------ in-process harness

/// Drives Service exactly like the transport: handle, "write" the
/// response, then run the after-reply hook (job activation / subscriber
/// attach).
Json rpc(Service& service, const std::string& line,
         const StreamSink& sink = nullptr) {
  Handled handled = service.handle(line, sink);
  if (handled.after_reply) handled.after_reply();
  return std::move(handled.response);
}

int errorCode(const Json& response) {
  const Json* error = response.find("error");
  if (error == nullptr) return 0;
  return static_cast<int>(error->find("code")->asInt());
}

const Json& resultOf(const Json& response) {
  const Json* result = response.find("result");
  EXPECT_NE(result, nullptr) << "error response: " << response.dump();
  static const Json empty;
  return result != nullptr ? *result : empty;
}

/// Polls job.status until the job reaches a terminal state.
std::string awaitTerminal(Service& service, std::uint64_t job,
                          std::chrono::seconds timeout = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    const Json response =
        rpc(service, "{\"id\":0,\"method\":\"job.status\",\"params\":{\"job\":" +
                         std::to_string(job) + "}}");
    const std::string state = resultOf(response).find("state")->asString();
    if (state == "done" || state == "failed" || state == "cancelled")
      return state;
    std::this_thread::sleep_for(2ms);
  }
  return "timeout";
}

/// Submits a job, waits for it, and returns the result payload's stats.
Json runJob(Service& service, const std::string& params) {
  const Json submitted = rpc(
      service, "{\"id\":1,\"method\":\"job.submit\",\"params\":" + params + "}");
  const std::uint64_t job =
      static_cast<std::uint64_t>(resultOf(submitted).find("job")->asInt());
  EXPECT_EQ(awaitTerminal(service, job), "done");
  const Json response =
      rpc(service, "{\"id\":2,\"method\":\"job.result\",\"params\":{\"job\":" +
                       std::to_string(job) + "}}");
  return *resultOf(response).find("stats");
}

std::string hexMean(const Json& stats) {
  return stats.find("interactions")->find("mean_hex")->asString();
}
std::string hexStddev(const Json& stats) {
  return stats.find("interactions")->find("stddev_hex")->asString();
}

sim::AlgorithmFactory gatheringFactory() {
  return [](sim::TrialContext&) -> std::unique_ptr<core::DodaAlgorithm> {
    return std::make_unique<algorithms::Gathering>();
  };
}

// --------------------------------------------------------- served goldens

TEST(ServedGolden, RandomizedMatchesOfflineAtEveryThreadCount) {
  sim::MeasureConfig config;
  config.node_count = 16;
  config.trials = 24;
  config.seed = 20160627;  // ICDCS'16
  config.threads = 1;
  const auto offline = sim::measureRandomized(config, gatheringFactory());
  const Json offline_stats = statsJson(offline);

  Service service;
  for (const int threads : {1, 2, 8}) {
    const Json stats = runJob(
        service,
        "{\"kind\":\"randomized\",\"algorithm\":\"gathering\",\"n\":16,"
        "\"trials\":24,\"seed\":20160627,\"threads\":" +
            std::to_string(threads) + "}");
    EXPECT_EQ(hexMean(stats), hexMean(offline_stats)) << threads << " threads";
    EXPECT_EQ(hexStddev(stats), hexStddev(offline_stats));
  }
}

TEST(ServedGolden, CostMatchesMeasureWithCost) {
  sim::MeasureConfig config;
  config.node_count = 12;
  config.trials = 16;
  config.seed = 99;
  config.threads = 1;
  const auto offline =
      sim::measureWithCost(config, 2048, gatheringFactory(), 8);
  Service service;
  const Json stats = runJob(
      service,
      "{\"kind\":\"cost\",\"algorithm\":\"gathering\",\"n\":12,\"trials\":16,"
      "\"seed\":99,\"threads\":2,\"length_hint\":2048}");
  EXPECT_EQ(hexMean(stats), hexMean(statsJson(offline)));
  ASSERT_NE(stats.find("cost"), nullptr);
  EXPECT_EQ(stats.find("cost")->find("mean_hex")->asString(),
            statsJson(offline).find("cost")->find("mean_hex")->asString());
}

TEST(ServedGolden, OfflineOptMatchesMeasureOfflineOptimal) {
  sim::MeasureConfig config;
  config.node_count = 10;
  config.trials = 16;
  config.seed = 7;
  config.threads = 1;
  const auto offline = sim::measureOfflineOptimal(config);
  Service service;
  const Json stats = runJob(
      service,
      "{\"kind\":\"offline-opt\",\"n\":10,\"trials\":16,\"seed\":7,"
      "\"threads\":4}");
  EXPECT_EQ(hexMean(stats), hexMean(statsJson(offline)));
}

TEST(ServedGolden, FaultsMatchesMeasureWithFaults) {
  sim::MeasureConfig config;
  config.node_count = 10;
  config.trials = 16;
  config.seed = 5;
  config.threads = 1;
  config.faults.loss_p = 0.2;
  config.max_interactions = core::Time{1} << 14;
  const auto offline =
      sim::measureWithFaults(config, 1024, gatheringFactory(), 8);
  Service service;
  const Json stats = runJob(
      service,
      "{\"kind\":\"faults\",\"algorithm\":\"gathering\",\"n\":10,"
      "\"trials\":16,\"seed\":5,\"threads\":2,\"length_hint\":1024,"
      "\"max_interactions\":16384,\"faults\":{\"loss\":0.2}}");
  EXPECT_EQ(hexMean(stats), hexMean(faultResultJson(offline)));
  const Json* degradation = stats.find("degradation");
  ASSERT_NE(degradation, nullptr);
  EXPECT_EQ(degradation->find("trials")->asInt(),
            static_cast<std::int64_t>(offline.degradation.trials()));
  EXPECT_EQ(degradation->find("completed")->asInt(),
            static_cast<std::int64_t>(offline.degradation.completed()));
  // "loss" alone sets a Bernoulli loss process on both sides.
  EXPECT_GT(offline.degradation.lost().mean(), 0.0);
  EXPECT_EQ(degradation->find("lost")->find("mean_hex")->asString(),
            hexDouble(offline.degradation.lost().mean()));
}

TEST(ServedGolden, ReplayMatchesReplayTrace) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "doda_served_replay_store";
  std::filesystem::remove_all(dir);
  sim::MeasureConfig record;
  record.node_count = 12;
  record.trials = 10;
  record.seed = 31;
  sim::recordSynthetic(dir.string(), record, 4096, 2);

  const auto store = dynagraph::TraceStore::open(dir.string());
  sim::ReplayConfig replay;
  replay.threads = 1;
  replay.compute_cost = true;
  const auto offline = sim::replayTrace(store, replay, gatheringFactory());

  Service service;
  const Json stats = runJob(
      service, "{\"kind\":\"replay\",\"store\":\"" + dir.string() +
                   "\",\"algorithm\":\"gathering\",\"threads\":2,"
                   "\"compute_cost\":true}");
  EXPECT_EQ(hexMean(stats), hexMean(statsJson(offline)));
  EXPECT_EQ(stats.find("cost")->find("mean_hex")->asString(),
            statsJson(offline).find("cost")->find("mean_hex")->asString());

  // A ranged replay folds exactly the window's trials.
  sim::ReplayConfig window = replay;
  window.trial_range = {2, 7};
  const auto offline_window =
      sim::replayTrace(store, window, gatheringFactory());
  const Json windowed = runJob(
      service, "{\"kind\":\"replay\",\"store\":\"" + dir.string() +
                   "\",\"algorithm\":\"gathering\",\"compute_cost\":true,"
                   "\"first\":2,\"last\":7}");
  EXPECT_EQ(hexMean(windowed), hexMean(statsJson(offline_window)));
  std::filesystem::remove_all(dir);
}

TEST(ServedGolden, StoreJailRejectsEscapes) {
  ServiceOptions options;
  options.stores.root = std::filesystem::temp_directory_path().string();
  Service service(options);
  for (const std::string path : {"/etc", "../escape", "a/../../b"}) {
    const Json response = rpc(
        service, "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
                 "\"replay\",\"store\":\"" + path + "\"}}");
    EXPECT_EQ(errorCode(response), -32004) << path;
  }
}

// ----------------------------------------------------------- job lifecycle

TEST(JobLifecycle, BusyWhenQueueFull) {
  ServiceOptions options;
  options.queue.max_open = 1;
  Service service(options);
  // The first job holds the single open slot (kept dormant — its
  // after_reply is deferred — so this is race-free); the second submit
  // must be refused with kBusy, not queued or hung.
  Handled first = service.handle(
      "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":8,\"trials\":4}}",
      nullptr);
  EXPECT_EQ(errorCode(first.response), 0);
  const Json second = rpc(
      service, "{\"id\":2,\"method\":\"job.submit\",\"params\":{\"kind\":"
               "\"randomized\",\"n\":8,\"trials\":4}}");
  EXPECT_EQ(errorCode(second), -32000);
  // Releasing the slot restores admission.
  first.after_reply();
  const std::uint64_t job = static_cast<std::uint64_t>(
      resultOf(first.response).find("job")->asInt());
  EXPECT_EQ(awaitTerminal(service, job), "done");
  EXPECT_EQ(errorCode(rpc(service,
                          "{\"id\":3,\"method\":\"job.submit\",\"params\":"
                          "{\"kind\":\"randomized\",\"n\":8,\"trials\":4}}")),
            0);
}

TEST(JobLifecycle, TrialBudgetEnforcedAtSubmit) {
  ServiceOptions options;
  options.max_trials_per_job = 10;
  Service service(options);
  const Json over = rpc(
      service, "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
               "\"randomized\",\"n\":8,\"trials\":11}}");
  EXPECT_EQ(errorCode(over), -32003);
  const Json at = rpc(
      service, "{\"id\":2,\"method\":\"job.submit\",\"params\":{\"kind\":"
               "\"randomized\",\"n\":8,\"trials\":10}}");
  EXPECT_EQ(errorCode(at), 0);
}

TEST(JobLifecycle, UnknownJobAndNotFinished) {
  Service service;
  EXPECT_EQ(errorCode(rpc(service,
                          "{\"id\":1,\"method\":\"job.status\","
                          "\"params\":{\"job\":42}}")),
            -32001);
  EXPECT_EQ(errorCode(rpc(service,
                          "{\"id\":2,\"method\":\"job.subscribe\","
                          "\"params\":{\"job\":42}}")),
            -32001);
  // A queued (never activated) job is open but not finished.
  Handled submit = service.handle(
      "{\"id\":3,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":8,\"trials\":4}}",
      nullptr);
  const std::uint64_t job = static_cast<std::uint64_t>(
      resultOf(submit.response).find("job")->asInt());
  EXPECT_EQ(errorCode(rpc(service,
                          "{\"id\":4,\"method\":\"job.result\","
                          "\"params\":{\"job\":" +
                              std::to_string(job) + "}}")),
            -32002);
  submit.after_reply();  // let the queue finish it before teardown
  awaitTerminal(service, job);
}

TEST(JobLifecycle, CancelRunningJobCooperatively) {
  // A deterministic cancel: the job body blocks on its cancel flag, so the
  // test never races the measurement finishing first.
  JobQueue queue;
  const std::uint64_t id =
      queue.submit("job.submit:test", 1, [](JobContext& context) -> Json {
        while (!context.cancel->load()) std::this_thread::sleep_for(1ms);
        throw sim::RunCancelled();
      });
  queue.activate(id);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (queue.status(id).find("state")->asString() != "running" &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(queue.cancel(id));
  while (queue.status(id).find("state")->asString() == "running" &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(queue.status(id).find("state")->asString(), "cancelled");
  EXPECT_THROW(queue.result(id), ProtocolError);
  EXPECT_FALSE(queue.cancel(id));  // already terminal
}

TEST(JobLifecycle, CancelQueuedJobImmediately) {
  JobQueue queue;
  // Never activated: stays queued until cancelled.
  const std::uint64_t id = queue.submit(
      "job.submit:test", 1, [](JobContext&) -> Json { return Json(); });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.status(id).find("state")->asString(), "cancelled");
  EXPECT_EQ(queue.openJobs(), 0u);
}

TEST(JobLifecycle, SubscribeStreamsEveryTrialThenCompletes) {
  Service service;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Json> frames;
  bool complete = false;
  StreamSink sink = [&](const Json& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(frame);
    if (frame.find("method")->asString() == "job.complete") {
      complete = true;
      cv.notify_all();
    }
    return true;
  };

  // Submit (job stays dormant), subscribe, THEN activate: the subscriber
  // observes the full stream deterministically.
  Handled submit = service.handle(
      "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":8,\"trials\":6,\"seed\":3,\"threads\":1}}",
      nullptr);
  const std::uint64_t job = static_cast<std::uint64_t>(
      resultOf(submit.response).find("job")->asInt());
  rpc(service,
      "{\"id\":2,\"method\":\"job.subscribe\",\"params\":{\"job\":" +
          std::to_string(job) + "}}",
      sink);
  submit.after_reply();

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return complete; }));
  }
  ASSERT_EQ(frames.size(), 7u);  // 6 progress + 1 complete
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(frames[i].find("method")->asString(), "job.progress");
    const Json* params = frames[i].find("params");
    EXPECT_EQ(params->find("folded")->asInt(),
              static_cast<std::int64_t>(i + 1));
    EXPECT_EQ(params->find("stats")->find("interactions")->find("count")
                  ->asInt(),
              static_cast<std::int64_t>(i + 1));
  }
  const Json& last = frames.back();
  EXPECT_EQ(last.find("params")->find("state")->asString(), "done");
  // The final streamed stats equal the fetched result.
  const Json result = rpc(
      service, "{\"id\":3,\"method\":\"job.result\",\"params\":{\"job\":" +
                   std::to_string(job) + "}}");
  EXPECT_TRUE(*last.find("params")->find("stats") ==
              *resultOf(result).find("stats"));
}

TEST(JobLifecycle, SubscribeToFinishedJobGetsImmediateComplete) {
  Service service;
  const Json stats = runJob(
      service, "{\"kind\":\"randomized\",\"n\":8,\"trials\":4,\"seed\":1}");
  std::vector<Json> frames;
  StreamSink sink = [&](const Json& frame) {
    frames.push_back(frame);
    return true;
  };
  rpc(service, "{\"id\":9,\"method\":\"job.subscribe\",\"params\":{\"job\":1}}",
      sink);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].find("method")->asString(), "job.complete");
  EXPECT_TRUE(*frames[0].find("params")->find("stats") == stats);
}

TEST(JobLifecycle, DrainFinishesOpenJobsAndRefusesNew) {
  ServiceOptions options;
  options.queue.workers = 2;
  Service service(options);
  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 3; ++i) {
    const Json response = rpc(
        service, "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
                 "\"randomized\",\"n\":8,\"trials\":8,\"seed\":" +
                     std::to_string(i) + "}}");
    jobs.push_back(
        static_cast<std::uint64_t>(resultOf(response).find("job")->asInt()));
  }
  service.drain();
  for (const std::uint64_t job : jobs)
    EXPECT_EQ(rpc(service, "{\"id\":2,\"method\":\"job.status\",\"params\":"
                           "{\"job\":" +
                               std::to_string(job) + "}}")
                  .find("result")
                  ->find("state")
                  ->asString(),
              "done");
  EXPECT_EQ(errorCode(rpc(service,
                          "{\"id\":3,\"method\":\"job.submit\",\"params\":"
                          "{\"kind\":\"randomized\",\"n\":8,\"trials\":4}}")),
            -32000);
  EXPECT_EQ(errorCode(rpc(service, "{\"id\":4,\"method\":\"ping\"}")), 0);
}

// ------------------------------------------------------------- TCP client

/// A minimal line-delimited JSON-RPC client over a blocking socket, with a
/// receive timeout so a server bug fails the test instead of hanging ctest.
/// A nonzero `receive_buffer` shrinks SO_RCVBUF before connecting.
class Client {
 public:
  explicit Client(std::uint16_t port,
                  std::chrono::seconds receive_timeout = 30s,
                  int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{static_cast<time_t>(receive_timeout.count()), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (receive_buffer > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void sendRaw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void sendLine(const std::string& line) { sendRaw(line + "\n"); }

  /// Next frame, or empty string on timeout / connection close.
  std::string recvLine() {
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  Json call(const std::string& line) {
    sendLine(line);
    const std::string reply = recvLine();
    EXPECT_FALSE(reply.empty()) << "no reply to: " << line;
    return reply.empty() ? Json() : Json::parse(reply);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A Service+Server pair on an ephemeral port.
struct LiveServer {
  explicit LiveServer(ServiceOptions options = {})
      : service(std::move(options)), server(service) {
    server.start();
  }
  ~LiveServer() { server.stop(); }
  Service service;
  Server server;
};

TEST(Transport, PingAndServerInfo) {
  LiveServer live;
  Client client(live.server.port());
  const Json pong = client.call("{\"id\":1,\"method\":\"ping\"}");
  EXPECT_TRUE(resultOf(pong).find("ok")->asBool());
  const Json info = client.call("{\"id\":2,\"method\":\"server.info\"}");
  EXPECT_EQ(resultOf(info).find("name")->asString(), "dodad");
  EXPECT_EQ(resultOf(info).find("protocol")->asInt(), 1);
}

TEST(Transport, ErrorFramesForBadInput) {
  LiveServer live;
  Client client(live.server.port());
  const Json parse_error = client.call("this is not json");
  EXPECT_EQ(errorCode(parse_error), -32700);
  EXPECT_TRUE(parse_error.find("id")->isNull());
  EXPECT_EQ(errorCode(client.call("{\"id\":1,\"method\":\"no.such\"}")),
            -32601);
  EXPECT_EQ(errorCode(client.call("{\"id\":2,\"method\":\"job.submit\","
                                  "\"params\":{\"kind\":\"randomized\","
                                  "\"n\":1}}")),
            -32602);
  // A zero length_hint never doubles, so it is refused at submit.
  EXPECT_EQ(errorCode(client.call("{\"id\":4,\"method\":\"job.submit\","
                                  "\"params\":{\"kind\":\"cost\","
                                  "\"length_hint\":0}}")),
            -32602);
  EXPECT_EQ(errorCode(client.call("{\"method\":\"ping\",\"id\":null}")),
            -32600);
  // The connection survives every one of those.
  EXPECT_EQ(errorCode(client.call("{\"id\":3,\"method\":\"ping\"}")), 0);
}

TEST(Transport, OversizedFrameIsRejectedAndConnectionSurvives) {
  ServiceOptions options;
  options.max_frame_bytes = 1024;
  LiveServer live(options);
  Client client(live.server.port());
  const std::string big =
      "{\"id\":1,\"method\":\"ping\",\"pad\":\"" + std::string(4096, 'x') +
      "\"}";
  const Json rejected = client.call(big);
  EXPECT_EQ(errorCode(rejected), -32005);
  EXPECT_TRUE(rejected.find("id")->isNull());
  EXPECT_EQ(errorCode(client.call("{\"id\":2,\"method\":\"ping\"}")), 0);
}

TEST(Transport, MidStreamDisconnectLeavesServerServing) {
  LiveServer live;
  {
    Client half(live.server.port());
    half.sendRaw("{\"id\":1,\"meth");  // no newline, then vanish
  }
  {
    Client subscriber(live.server.port());
    const Json response = subscriber.call(
        "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
        "\"randomized\",\"n\":12,\"trials\":32,\"seed\":4}}");
    ASSERT_EQ(errorCode(response), 0);
    const std::uint64_t job = static_cast<std::uint64_t>(
        resultOf(response).find("job")->asInt());
    subscriber.sendLine(
        "{\"id\":2,\"method\":\"job.subscribe\",\"params\":{\"job\":" +
        std::to_string(job) + "}}");
    // Vanish mid-stream: the queue must drop the dead sink harmlessly.
  }
  Client client(live.server.port());
  EXPECT_EQ(errorCode(client.call("{\"id\":3,\"method\":\"ping\"}")), 0);
}

TEST(Transport, ServedResultIsBitIdenticalAcrossConcurrentClients) {
  sim::MeasureConfig config;
  config.node_count = 16;
  config.trials = 16;
  config.seed = 1234;
  config.threads = 1;
  const std::string golden =
      hexMean(statsJson(sim::measureRandomized(config, gatheringFactory())));

  ServiceOptions options;
  options.queue.workers = 4;
  LiveServer live(options);
  constexpr int kClients = 6;
  std::vector<std::string> served(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(live.server.port());
      const Json submitted = client.call(
          "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
          "\"randomized\",\"n\":16,\"trials\":16,\"seed\":1234,"
          "\"threads\":" +
          std::to_string(1 + c % 3) + "}}");
      if (errorCode(submitted) != 0) return;
      const std::string job =
          std::to_string(resultOf(submitted).find("job")->asInt());
      for (;;) {
        const Json status = client.call(
            "{\"id\":2,\"method\":\"job.status\",\"params\":{\"job\":" + job +
            "}}");
        const std::string state =
            resultOf(status).find("state")->asString();
        if (state == "done") break;
        if (state == "failed" || state == "cancelled") return;
        std::this_thread::sleep_for(2ms);
      }
      const Json result = client.call(
          "{\"id\":3,\"method\":\"job.result\",\"params\":{\"job\":" + job +
          "}}");
      served[c] = hexMean(*resultOf(result).find("stats"));
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(served[c], golden) << "client " << c;
}

/// The TSan smoke of the CI sanitizer leg: 8 clients hammer one server
/// with a mixed submit / subscribe / status / cancel workload while the
/// queue's runners stream progress frames back concurrently.
TEST(Transport, ConcurrentMixedWorkloadSmoke) {
  ServiceOptions options;
  options.queue.workers = 4;
  options.queue.max_open = 16;
  LiveServer live(options);
  constexpr int kClients = 8;
  std::atomic<int> replies{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(live.server.port());
      util::Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int round = 0; round < 4; ++round) {
        const Json submitted = client.call(
            "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
            "\"randomized\",\"n\":12,\"trials\":8,\"seed\":" +
            std::to_string(rng.below(1000)) + "}}");
        if (submitted.find("id") != nullptr) ++replies;
        if (errorCode(submitted) != 0) continue;  // busy is a valid outcome
        const std::string job =
            std::to_string(resultOf(submitted).find("job")->asInt());
        switch (rng.below(3)) {
          case 0: {  // subscribe and read until job.complete
            client.sendLine(
                "{\"id\":2,\"method\":\"job.subscribe\",\"params\":{"
                "\"job\":" + job + "}}");
            for (;;) {
              const std::string line = client.recvLine();
              if (line.empty()) return;
              const Json frame = Json::parse(line);
              const Json* method = frame.find("method");
              if (method != nullptr &&
                  method->asString() == "job.complete")
                break;
            }
            break;
          }
          case 1:  // fire-and-cancel
            client.call(
                "{\"id\":3,\"method\":\"job.cancel\",\"params\":{\"job\":" +
                job + "}}");
            break;
          default:  // poll to terminal
            for (;;) {
              const Json status = client.call(
                  "{\"id\":4,\"method\":\"job.status\",\"params\":{"
                  "\"job\":" + job + "}}");
              const std::string state =
                  resultOf(status).find("state")->asString();
              if (state != "queued" && state != "running") break;
              std::this_thread::sleep_for(1ms);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(replies.load(), 0);
  live.service.drain();  // every job reaches a terminal state before stop
}

TEST(Transport, SubscribeStreamsOverTheWire) {
  LiveServer live;
  Client client(live.server.port());
  const Json submitted = client.call(
      "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":8,\"trials\":5,\"seed\":6,\"threads\":1}}");
  ASSERT_EQ(errorCode(submitted), 0);
  const std::string job =
      std::to_string(resultOf(submitted).find("job")->asInt());
  const Json subscribed = client.call(
      "{\"id\":2,\"method\":\"job.subscribe\",\"params\":{\"job\":" + job +
      "}}");
  ASSERT_EQ(errorCode(subscribed), 0);
  // The subscribe response precedes every frame (response-before-frames
  // ordering); afterwards frames arrive folded-monotonic and end with
  // job.complete.
  std::int64_t last_folded = 0;
  for (;;) {
    const std::string line = client.recvLine();
    ASSERT_FALSE(line.empty());
    const Json frame = Json::parse(line);
    const std::string method = frame.find("method")->asString();
    if (method == "job.complete") {
      EXPECT_EQ(frame.find("params")->find("state")->asString(), "done");
      break;
    }
    ASSERT_EQ(method, "job.progress");
    const std::int64_t folded =
        frame.find("params")->find("folded")->asInt();
    EXPECT_GT(folded, last_folded);
    last_folded = folded;
  }
}

/// A subscriber that stops reading stalls only its own connection: the
/// job runner blocks writing progress frames into its full socket, but
/// every other client's job.* calls must still answer promptly, and the
/// stalled job must still cancel and the server stop.
TEST(Transport, SlowSubscriberDoesNotStallOtherClients) {
  LiveServer live;  // one job runner
  Client stalled(live.server.port(), 30s, /*receive_buffer=*/1024);
  const Json submitted = stalled.call(
      "{\"id\":1,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":8,\"trials\":1000000,\"seed\":9,"
      "\"threads\":1}}");
  ASSERT_EQ(errorCode(submitted), 0);
  const std::string job =
      std::to_string(resultOf(submitted).find("job")->asInt());
  stalled.sendLine(
      "{\"id\":2,\"method\":\"job.subscribe\",\"params\":{\"job\":" +
      job + "}}");  // ...and never read again

  Client other(live.server.port(), 5s);
  const auto timedCall = [&other](const std::string& line, Json& reply) {
    const auto start = std::chrono::steady_clock::now();
    reply = other.call(line);
    return std::chrono::steady_clock::now() - start;
  };
  const std::string status_line =
      "{\"id\":3,\"method\":\"job.status\",\"params\":{\"job\":" + job +
      "}}";

  // The stalled socket is full once `folded` stops advancing.
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  std::int64_t last_folded = -1;
  for (;;) {
    Json status;
    const auto took = timedCall(status_line, status);
    const Json* result = status.find("result");
    ASSERT_NE(result, nullptr) << "job.status got no reply within 5 s";
    EXPECT_LT(took, 2s);
    const std::string state = result->find("state")->asString();
    // The runner picks the job up asynchronously, so the first polls may
    // still find it queued; once it runs it must keep running.
    if (state == "queued" && last_folded < 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "the job never started";
      std::this_thread::sleep_for(20ms);
      continue;
    }
    ASSERT_EQ(state, "running");
    const std::int64_t folded = result->find("folded")->asInt();
    if (folded == last_folded) break;
    last_folded = folded;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the subscriber's socket never filled";
    std::this_thread::sleep_for(200ms);
  }

  Json reply;
  EXPECT_LT(timedCall(status_line, reply), 2s);
  EXPECT_EQ(errorCode(reply), 0);
  EXPECT_LT(timedCall("{\"id\":4,\"method\":\"job.submit\",\"params\":{"
                      "\"kind\":\"randomized\",\"n\":8,\"trials\":4}}",
                      reply),
            2s);
  EXPECT_EQ(errorCode(reply), 0);  // queued behind the stalled job

  EXPECT_LT(timedCall("{\"id\":5,\"method\":\"job.cancel\",\"params\":{"
                      "\"job\":" + job + "}}",
                      reply),
            2s);
  ASSERT_EQ(errorCode(reply), 0);
  EXPECT_TRUE(resultOf(reply).find("cancelled")->asBool());
  // Closing the stalled peer fails the runner's blocked write; the runner
  // drops the subscriber and the measurement observes the cancel.
  stalled.close();
  EXPECT_EQ(awaitTerminal(live.service, std::stoull(job), 10s), "cancelled");
}

// ----------------------------------------------------------- socket fuzz

std::size_t fuzzIters(std::size_t fallback) {
  const char* env = std::getenv("DODA_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  const unsigned long long parsed = std::strtoull(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Throws deterministic garbage lines at a live server: every line must
/// produce exactly one error/response frame (no hangs, no crashes), and
/// the connection must stay usable.
TEST(Transport, GarbageLinesNeverWedgeTheServer) {
  LiveServer live;
  Client client(live.server.port());
  util::Rng rng(0xBADF00DU);
  const std::size_t iterations = fuzzIters(64);
  for (std::size_t i = 0; i < iterations; ++i) {
    std::string line;
    const std::size_t length = 1 + rng.below(200);
    for (std::size_t b = 0; b < length; ++b) {
      char byte = static_cast<char>(rng.below(256));
      if (byte == '\n' || byte == '\r') byte = ' ';
      line.push_back(byte);
    }
    client.sendLine(line);
    const std::string reply = client.recvLine();
    ASSERT_FALSE(reply.empty()) << "no reply at iteration " << i;
    const Json frame = Json::parse(reply);
    EXPECT_NE(frame.find("error"), nullptr) << reply;
  }
  EXPECT_EQ(errorCode(client.call("{\"id\":1,\"method\":\"ping\"}")), 0);
}

}  // namespace
}  // namespace doda::server
