#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/json.hpp"

namespace doda::server {

/// Delivers one notification frame to a subscriber. Returns false when the
/// subscriber is gone (connection closed) — the queue then drops it.
using StreamSink = std::function<bool(const Json&)>;

/// Handed to a job body while it runs.
struct JobContext {
  /// Cancel flag for the measurement's RunControl; flips on job.cancel.
  const std::atomic<bool>* cancel = nullptr;
  /// The body calls this from the measurement's progress observer:
  /// `folded` trials folded so far, `stats` the protocol stats object of
  /// that folded prefix. The queue fans it out to subscribers.
  std::function<void(std::uint64_t folded, Json stats)> progress;
};

/// The work of one job. Runs on a queue runner thread; returns the result
/// payload. Throwing sim::RunCancelled marks the job cancelled; any other
/// exception marks it failed with the exception text.
using JobWork = std::function<Json(JobContext&)>;

struct JobQueueOptions {
  /// Runner threads executing jobs (each job then fans its trials over the
  /// measurement's own worker pool).
  std::size_t workers = 1;
  /// Cap on open jobs (queued + running). Submits beyond it fail with
  /// kBusy instead of queueing unboundedly — admission control, not
  /// backpressure.
  std::size_t max_open = 8;
  /// Finished jobs retained for job.result; the oldest beyond this are
  /// evicted (subsequent lookups: kUnknownJob).
  std::size_t retain_finished = 64;
};

/// Bounded FIFO job queue over dedicated runner threads.
///
/// Lifecycle: submit() admits a job (kBusy beyond max_open) but keeps it
/// dormant until activate(id) — the server activates after writing the
/// submit response, so a subscriber attached right after never races the
/// first progress frame ahead of its own subscribe response. Runners pick
/// activated jobs FIFO. drain() stops admission and blocks until every
/// open job finished — the SIGTERM path.
///
/// Job ids are sequential from 1 per queue instance, which keeps recorded
/// protocol sessions (docs/PROTOCOL.md) deterministic.
class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admits a job. `method` and `total_trials` are surfaced by job.status.
  /// Throws ProtocolError(kBusy) at capacity or after drain().
  std::uint64_t submit(std::string method, std::uint64_t total_trials,
                       JobWork work);

  /// Makes a submitted job eligible to run. Idempotent.
  void activate(std::uint64_t id);

  /// {"job","state","folded","total"} (+"error" when failed).
  Json status(std::uint64_t id) const;

  /// The stored result payload. Throws kUnknownJob / kNotFinished.
  Json result(std::uint64_t id) const;

  /// Requests cancellation; returns true when the job was still open
  /// (queued jobs are cancelled immediately, running jobs cooperatively).
  bool cancel(std::uint64_t id);

  /// Attaches a subscriber. Open jobs stream job.progress frames per
  /// folded trial, then one job.complete; already-finished jobs get their
  /// job.complete immediately.
  void subscribe(std::uint64_t id, StreamSink sink);

  /// Stops admission and waits for every open job. Safe to call twice.
  void drain();

  std::size_t openJobs() const;

 private:
  enum class Phase { kQueued, kRunning, kDone, kFailed, kCancelled };
  static const char* phaseName(Phase phase);

  /// Shared so a snapshot of the subscriber list taken under mutex_ can be
  /// called after unlocking, and a dead sink dropped by identity.
  using Subscriber = std::shared_ptr<const StreamSink>;

  struct Job {
    std::uint64_t id = 0;
    std::string method;
    std::uint64_t total = 0;
    Phase phase = Phase::kQueued;
    bool activated = false;
    std::atomic<bool> cancel{false};
    JobWork work;
    Json payload;
    std::string error;
    std::uint64_t folded = 0;
    std::vector<Subscriber> subscribers;
  };

  void runnerLoop();
  void runJob(Job& job);
  /// Calls every sink with `frame`; the caller must NOT hold mutex_ (a
  /// sink is a blocking socket write, so a subscriber that stops reading
  /// may stall only the thread writing to it). Returns the sinks that
  /// reported a dead peer.
  static std::vector<const StreamSink*> deliver(
      const std::vector<Subscriber>& subscribers, const Json& frame);
  /// Sends a finished job's job.complete to the subscribers taken from it
  /// (outside mutex_), then retires the delivery drain() waits for.
  void deliverCompletion(const std::vector<Subscriber>& subscribers,
                         const Json& frame);
  Json completionFrame(const Job& job) const;

  JobQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // runners: activated work available
  std::condition_variable drain_cv_;  // drain(): open job count dropped
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> pending_;          // activated, not yet running
  std::deque<std::uint64_t> finished_order_;   // eviction order
  std::uint64_t next_id_ = 1;
  std::size_t open_ = 0;
  std::size_t delivering_ = 0;  // job.complete deliveries in flight
  bool accepting_ = true;
  bool stopping_ = false;
  std::vector<std::thread> runners_;
};

}  // namespace doda::server
