#include "server/job_queue.hpp"

#include <algorithm>

#include "server/protocol.hpp"
#include "sim/parallel.hpp"

namespace doda::server {

JobQueue::JobQueue(JobQueueOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_open == 0) options_.max_open = 1;
  runners_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    runners_.emplace_back([this] { runnerLoop(); });
}

JobQueue::~JobQueue() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& runner : runners_) runner.join();
}

const char* JobQueue::phaseName(Phase phase) {
  switch (phase) {
    case Phase::kQueued:
      return "queued";
    case Phase::kRunning:
      return "running";
    case Phase::kDone:
      return "done";
    case Phase::kFailed:
      return "failed";
    case Phase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::uint64_t JobQueue::submit(std::string method, std::uint64_t total_trials,
                               JobWork work) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!accepting_)
    throw ProtocolError(ErrorCode::kBusy, "server is draining");
  if (open_ >= options_.max_open)
    throw ProtocolError(ErrorCode::kBusy,
                        "job queue at capacity (" +
                            std::to_string(options_.max_open) +
                            " open jobs)");
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->method = std::move(method);
  job->total = total_trials;
  job->work = std::move(work);
  jobs_.emplace(id, std::move(job));
  ++open_;
  return id;
}

void JobQueue::activate(std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job& job = *it->second;
    if (job.activated || job.phase != Phase::kQueued) return;
    job.activated = true;
    pending_.push_back(id);
  }
  work_cv_.notify_one();
}

Json JobQueue::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw ProtocolError(ErrorCode::kUnknownJob,
                        "unknown job " + std::to_string(id));
  const Job& job = *it->second;
  Json out = Json::object();
  out.set("job", id);
  out.set("state", phaseName(job.phase));
  out.set("folded", job.folded);
  out.set("total", job.total);
  if (job.phase == Phase::kFailed) out.set("error", job.error);
  return out;
}

Json JobQueue::result(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw ProtocolError(ErrorCode::kUnknownJob,
                        "unknown job " + std::to_string(id));
  const Job& job = *it->second;
  switch (job.phase) {
    case Phase::kDone: {
      Json out = Json::object();
      out.set("job", id);
      out.set("state", "done");
      out.set("stats", job.payload);
      return out;
    }
    case Phase::kFailed:
      throw ProtocolError(ErrorCode::kInternalError,
                          "job " + std::to_string(id) +
                              " failed: " + job.error);
    case Phase::kCancelled:
      throw ProtocolError(ErrorCode::kNotFinished,
                          "job " + std::to_string(id) + " was cancelled");
    default:
      throw ProtocolError(ErrorCode::kNotFinished,
                          "job " + std::to_string(id) + " is " +
                              phaseName(job.phase));
  }
}

bool JobQueue::cancel(std::uint64_t id) {
  std::vector<Subscriber> subscribers;
  Json frame;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      throw ProtocolError(ErrorCode::kUnknownJob,
                          "unknown job " + std::to_string(id));
    Job& job = *it->second;
    switch (job.phase) {
      case Phase::kQueued: {
        // Not started yet: finish it here and now.
        job.cancel.store(true, std::memory_order_relaxed);
        const auto pos = std::find(pending_.begin(), pending_.end(), id);
        if (pos != pending_.end()) pending_.erase(pos);
        job.phase = Phase::kCancelled;
        finished_order_.push_back(id);
        --open_;
        frame = completionFrame(job);
        subscribers.swap(job.subscribers);
        ++delivering_;
        break;
      }
      case Phase::kRunning:
        // Cooperative: the measurement polls the flag between trials.
        job.cancel.store(true, std::memory_order_relaxed);
        return true;
      default:
        return false;
    }
  }
  deliverCompletion(subscribers, frame);
  return true;
}

void JobQueue::subscribe(std::uint64_t id, StreamSink sink) {
  Json frame;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      throw ProtocolError(ErrorCode::kUnknownJob,
                          "unknown job " + std::to_string(id));
    Job& job = *it->second;
    if (job.phase == Phase::kQueued || job.phase == Phase::kRunning) {
      job.subscribers.push_back(
          std::make_shared<const StreamSink>(std::move(sink)));
      return;
    }
    frame = completionFrame(job);
  }
  sink(frame);  // already finished: terminal frame only
}

void JobQueue::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  drain_cv_.wait(lock, [this] { return open_ == 0 && delivering_ == 0; });
}

std::size_t JobQueue::openJobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

std::vector<const StreamSink*> JobQueue::deliver(
    const std::vector<Subscriber>& subscribers, const Json& frame) {
  std::vector<const StreamSink*> dead;
  for (const Subscriber& subscriber : subscribers)
    if (!(*subscriber)(frame)) dead.push_back(subscriber.get());
  return dead;
}

void JobQueue::deliverCompletion(const std::vector<Subscriber>& subscribers,
                                 const Json& frame) {
  deliver(subscribers, frame);
  const std::lock_guard<std::mutex> lock(mutex_);
  --delivering_;
  drain_cv_.notify_all();
}

Json JobQueue::completionFrame(const Job& job) const {
  Json params = Json::object();
  params.set("job", job.id);
  params.set("state", phaseName(job.phase));
  if (job.phase == Phase::kDone) params.set("stats", job.payload);
  if (job.phase == Phase::kFailed) params.set("error", job.error);
  return makeNotification("job.complete", std::move(params));
}

void JobQueue::runnerLoop() {
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping_ and no work left
      const std::uint64_t id = pending_.front();
      pending_.pop_front();
      job = jobs_.at(id).get();
      job->phase = Phase::kRunning;
    }
    runJob(*job);  // open jobs are never evicted: the pointer stays valid
  }
}

void JobQueue::runJob(Job& job) {
  JobContext context;
  context.cancel = &job.cancel;
  // The measurement calls this serially (under its fold mutex), so one
  // job's frames reach each subscriber in folded order.
  context.progress = [this, &job](std::uint64_t folded, Json stats) {
    std::vector<Subscriber> subscribers;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.folded = folded;
      if (job.subscribers.empty()) return;
      subscribers = job.subscribers;
    }
    Json params = Json::object();
    params.set("job", job.id);
    params.set("folded", folded);
    params.set("total", job.total);
    params.set("stats", std::move(stats));
    const std::vector<const StreamSink*> dead = deliver(
        subscribers, makeNotification("job.progress", std::move(params)));
    if (dead.empty()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(job.subscribers, [&dead](const Subscriber& subscriber) {
      return std::find(dead.begin(), dead.end(), subscriber.get()) !=
             dead.end();
    });
  };

  Json payload;
  Phase outcome = Phase::kDone;
  std::string error;
  try {
    payload = job.work(context);
  } catch (const sim::RunCancelled&) {
    outcome = Phase::kCancelled;
  } catch (const std::exception& e) {
    outcome = Phase::kFailed;
    error = e.what();
  }

  std::vector<Subscriber> subscribers;
  Json frame;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.phase = outcome;
    job.payload = std::move(payload);
    job.error = std::move(error);
    finished_order_.push_back(job.id);
    --open_;
    frame = completionFrame(job);
    subscribers.swap(job.subscribers);
    ++delivering_;
    while (finished_order_.size() > options_.retain_finished) {
      jobs_.erase(finished_order_.front());  // may destroy `job` itself
      finished_order_.pop_front();
    }
  }
  deliverCompletion(subscribers, frame);
}

}  // namespace doda::server
