#include "storage/env.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define DODA_ENV_HAS_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace doda::storage {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void ioFail(const std::string& what, const std::string& path) {
  throw std::runtime_error("storage::Env: " + what + ": " + path);
}

std::string parentOf(const std::string& path) {
  return fs::path(path).parent_path().string();
}

// --------------------------------------------------------------- posix env

/// Buffered stdio writer with fsync-backed sync(); writeAt preserves the
/// append position so the shard writer's header reseal composes with
/// further appends (the manifest never needs it).
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, bool truncate) : path_(std::move(path)) {
    // "ab" would force every write to the end (POSIX append mode), which
    // writeAt must escape — so append mode opens r+ and seeks instead.
    if (truncate) {
      f_ = std::fopen(path_.c_str(), "wb");
    } else if ((f_ = std::fopen(path_.c_str(), "rb+")) != nullptr) {
      if (std::fseek(f_, 0, SEEK_END) != 0) {
        std::fclose(f_);
        f_ = nullptr;
      }
    } else {
      f_ = std::fopen(path_.c_str(), "wb");  // append to a missing file
    }
    if (f_ == nullptr) ioFail("cannot open for writing", path_);
  }

  ~PosixWritableFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  void append(const void* data, std::size_t size) override {
    if (f_ == nullptr) ioFail("write after close", path_);
    if (std::fwrite(data, 1, size, f_) != size) ioFail("write failed", path_);
  }

  void writeAt(std::uint64_t offset, const void* data,
               std::size_t size) override {
    if (f_ == nullptr) ioFail("write after close", path_);
    if (std::fflush(f_) != 0) ioFail("flush failed", path_);
    if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0)
      ioFail("seek failed", path_);
    if (std::fwrite(data, 1, size, f_) != size) ioFail("write failed", path_);
    if (std::fseek(f_, 0, SEEK_END) != 0) ioFail("seek failed", path_);
  }

  void sync() override {
    if (f_ == nullptr) ioFail("sync after close", path_);
    if (std::fflush(f_) != 0) ioFail("flush failed", path_);
#if DODA_ENV_HAS_FSYNC
    if (::fsync(::fileno(f_)) != 0) ioFail("fsync failed", path_);
#endif
  }

  void close() override {
    if (f_ == nullptr) return;
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0) ioFail("close failed", path_);
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

class PosixEnv final : public Env {
 public:
  std::unique_ptr<WritableFile> newWritableFile(const std::string& path,
                                                bool truncate) override {
    return std::make_unique<PosixWritableFile>(path, truncate);
  }

  void mkdirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) ioFail("cannot create directory (" + ec.message() + ")", path);
  }

  void renameFile(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) ioFail("rename to " + to + " failed (" + ec.message() + ")", from);
  }

  void removeFile(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) ioFail("cannot remove", path);
  }

  void removeDirRecursive(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) ioFail("cannot remove directory (" + ec.message() + ")", path);
  }

  void syncDir([[maybe_unused]] const std::string& path) override {
#if DODA_ENV_HAS_FSYNC
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) ioFail("cannot open directory for fsync", path);
    const int rc = ::fsync(fd);
    ::close(fd);
    // Some filesystems refuse directory fsync (EINVAL); that is the
    // platform's durability ceiling, not a store error.
    if (rc != 0 && errno != EINVAL) ioFail("directory fsync failed", path);
#endif
  }

  bool exists(const std::string& path) const override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  bool isDirectory(const std::string& path) const override {
    std::error_code ec;
    return fs::is_directory(path, ec);
  }

  std::uint64_t fileSize(const std::string& path) const override {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec) ioFail("cannot stat", path);
    return size;
  }

  std::vector<std::string> listDir(const std::string& path) const override {
    std::vector<std::string> names;
    std::error_code ec;
    fs::directory_iterator it(path, ec), end;
    if (ec) ioFail("cannot list directory (" + ec.message() + ")", path);
    for (; it != end; it.increment(ec)) {
      if (ec) ioFail("cannot list directory (" + ec.message() + ")", path);
      names.push_back(it->path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string readFile(const std::string& path) const override {
    std::ifstream in(path, std::ios::binary);
    if (!in) ioFail("cannot open for reading", path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    if (in.bad()) ioFail("read failed", path);
    return content;
  }
};

}  // namespace

Env& defaultEnv() {
  static PosixEnv env;
  return env;
}

// --------------------------------------------------------------- fault env

FaultyEnvPlan FaultyEnvPlan::draw(std::uint64_t seed, std::uint64_t max_ops,
                                  double p_fault) {
  FaultyEnvPlan plan;
  plan.seed = seed;
  util::SplitMix64 mix(seed ^ 0xfa017ULL);
  for (std::uint64_t op = 0; op < max_ops; ++op) {
    const double roll = static_cast<double>(mix.next() >> 11) * 0x1p-53;
    const auto kind = static_cast<Fault>(mix.next() % 4);
    if (roll < p_fault) plan.faults.emplace_back(op, kind);
  }
  return plan;
}

/// Fault-wrapping writable file: reports every write/sync to the env for
/// op accounting and fault injection, and keeps the env's durable-content
/// bookkeeping in step with honest syncs. Lives in doda::storage (not the
/// anonymous namespace) so FaultyEnv's friend declaration names it.
class FaultyWritableFile final : public WritableFile {
 public:
  FaultyWritableFile(FaultyEnv& env, std::string path,
                     std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  void append(const void* data, std::size_t size) override {
    bool crash_now = false;
    const auto fault = env_.beginOp(crash_now);
    if (crash_now || fault == FaultyEnvPlan::Fault::kTornWrite ||
        fault == FaultyEnvPlan::Fault::kEnospc) {
      // Torn prefix for the crash and torn-write faults; nothing for
      // ENOSPC (the write never started).
      std::size_t keep = 0;
      if (fault != FaultyEnvPlan::Fault::kEnospc && size > 0)
        keep = static_cast<std::size_t>(
            env_.drawU64(util::fnv1a(path_.data(), path_.size()) + size) %
            (size + 1));
      if (keep > 0) base_->append(data, keep);
      if (crash_now) env_.crash("append to " + path_);
      throw std::runtime_error(
          fault == FaultyEnvPlan::Fault::kEnospc
              ? "FaultyEnv: injected ENOSPC appending to " + path_
              : "FaultyEnv: injected torn write appending to " + path_);
    }
    base_->append(data, size);
  }

  void writeAt(std::uint64_t offset, const void* data,
               std::size_t size) override {
    bool crash_now = false;
    const auto fault = env_.beginOp(crash_now);
    if (crash_now || fault == FaultyEnvPlan::Fault::kTornWrite ||
        fault == FaultyEnvPlan::Fault::kEnospc) {
      std::size_t keep = 0;
      if (fault != FaultyEnvPlan::Fault::kEnospc && size > 0)
        keep = static_cast<std::size_t>(
            env_.drawU64(util::fnv1a(path_.data(), path_.size()) + offset) %
            (size + 1));
      if (keep > 0) base_->writeAt(offset, data, keep);
      if (crash_now) env_.crash("writeAt on " + path_);
      throw std::runtime_error(
          fault == FaultyEnvPlan::Fault::kEnospc
              ? "FaultyEnv: injected ENOSPC writing " + path_
              : "FaultyEnv: injected torn write on " + path_);
    }
    base_->writeAt(offset, data, size);
  }

  void sync() override {
    bool crash_now = false;
    const auto fault = env_.beginOp(crash_now);
    if (crash_now) env_.crash("sync of " + path_);
    if (fault == FaultyEnvPlan::Fault::kDroppedSync) return;  // the lie
    if (fault == FaultyEnvPlan::Fault::kEnospc)
      throw std::runtime_error("FaultyEnv: injected sync failure on " + path_);
    base_->sync();
    env_.markDurable(path_);
  }

  void close() override { base_->close(); }

 private:
  FaultyEnv& env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultyEnv::FaultyEnv(FaultyEnvPlan plan, Env* base)
    : plan_(std::move(plan)), base_(resolveEnv(base)) {
  std::sort(plan_.faults.begin(), plan_.faults.end());
}

FaultyEnv::~FaultyEnv() = default;

std::optional<FaultyEnvPlan::Fault> FaultyEnv::beginOp(bool& crash_now) {
  if (crashed_) throw EnvCrash("FaultyEnv: operation after the crash");
  const std::uint64_t op = op_count_++;
  crash_now = op == plan_.crash_at_op;
  const auto it = std::lower_bound(
      plan_.faults.begin(), plan_.faults.end(), op,
      [](const auto& entry, std::uint64_t value) { return entry.first < value; });
  if (it != plan_.faults.end() && it->first == op) return it->second;
  return std::nullopt;
}

void FaultyEnv::crash(const std::string& what) {
  crashed_ = true;
  throw EnvCrash("FaultyEnv: simulated crash at op " +
                 std::to_string(op_count_ - 1) + " (" + what + ")");
}

std::uint64_t FaultyEnv::drawU64(std::uint64_t salt) const {
  return util::SplitMix64(plan_.seed ^ (salt * 0x9e3779b97f4a7c15ULL)).next();
}

void FaultyEnv::markDurable(const std::string& path) {
  durable_[path] = base_.readFile(path);
}

void FaultyEnv::noteCreated(const std::string& path, PendingEntry::Kind kind) {
  pending_.push_back({kind, path, {}});
}

void FaultyEnv::rekeyTracked(const std::string& from, const std::string& to) {
  // A directory rename moves every tracked path under it.
  const std::string prefix = from + "/";
  std::unordered_map<std::string, std::string> rekeyed;
  for (auto& [path, content] : durable_) {
    std::string key = path;
    if (key == from) {
      key = to;
    } else if (key.compare(0, prefix.size(), prefix) == 0) {
      key = to + "/" + key.substr(prefix.size());
    }
    rekeyed.emplace(std::move(key), std::move(content));
  }
  durable_ = std::move(rekeyed);
  for (PendingEntry& entry : pending_) {
    if (entry.path == from) {
      entry.path = to;
    } else if (entry.path.compare(0, prefix.size(), prefix) == 0) {
      entry.path = to + "/" + entry.path.substr(prefix.size());
    }
  }
}

std::unique_ptr<WritableFile> FaultyEnv::newWritableFile(
    const std::string& path, bool truncate) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) {
    // Coin: a NEW file's dir entry may or may not have appeared. A
    // pre-existing file (append mode, or truncate not yet applied) is
    // left untouched — it must not gain a rollbackable create entry.
    if (!base_.exists(path) &&
        (drawU64(util::fnv1a(path.data(), path.size())) & 1)) {
      base_.newWritableFile(path, truncate)->close();
      noteCreated(path, PendingEntry::Kind::kCreateFile);
    }
    crash("create of " + path);
  }
  if (fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected ENOSPC creating " + path);
  const bool existed = base_.exists(path);
  auto file = base_.newWritableFile(path, truncate);
  if (!existed) {
    noteCreated(path, PendingEntry::Kind::kCreateFile);
  } else if (!truncate && durable_.find(path) == durable_.end()) {
    // Appending to a file that predates this env: its current content is
    // durable (it survived whatever created it).
    markDurable(path);
  }
  if (existed && truncate) durable_.erase(path);
  return std::make_unique<FaultyWritableFile>(*this, path, std::move(file));
}

void FaultyEnv::mkdirs(const std::string& path) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) {
    if (!base_.exists(path) &&
        (drawU64(util::fnv1a(path.data(), path.size())) & 1)) {
      base_.mkdirs(path);
      noteCreated(path, PendingEntry::Kind::kCreateDir);
    }
    crash("mkdirs of " + path);
  }
  if (fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected ENOSPC creating dir " + path);
  const bool existed = base_.exists(path);
  base_.mkdirs(path);
  if (!existed) noteCreated(path, PendingEntry::Kind::kCreateDir);
}

void FaultyEnv::renameFile(const std::string& from, const std::string& to) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) {
    if (drawU64(util::fnv1a(from.data(), from.size()) ^
                util::fnv1a(to.data(), to.size())) &
        1) {
      base_.renameFile(from, to);
      rekeyTracked(from, to);
      pending_.push_back({PendingEntry::Kind::kRename, to, from});
    }
    crash("rename of " + from);
  }
  if (fault == FaultyEnvPlan::Fault::kRenameFail ||
      fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected rename failure: " + from +
                             " -> " + to);
  base_.renameFile(from, to);
  rekeyTracked(from, to);
  pending_.push_back({PendingEntry::Kind::kRename, to, from});
}

void FaultyEnv::removeFile(const std::string& path) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) crash("remove of " + path);
  if (fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected remove failure: " + path);
  base_.removeFile(path);
  durable_.erase(path);
}

void FaultyEnv::removeDirRecursive(const std::string& path) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) crash("remove of " + path);
  if (fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected remove failure: " + path);
  base_.removeDirRecursive(path);
  const std::string prefix = path + "/";
  for (auto it = durable_.begin(); it != durable_.end();) {
    if (it->first == path || it->first.compare(0, prefix.size(), prefix) == 0)
      it = durable_.erase(it);
    else
      ++it;
  }
}

void FaultyEnv::syncDir(const std::string& path) {
  bool crash_now = false;
  const auto fault = beginOp(crash_now);
  if (crash_now) crash("syncDir of " + path);
  if (fault == FaultyEnvPlan::Fault::kDroppedSync) return;  // the lie
  if (fault == FaultyEnvPlan::Fault::kEnospc)
    throw std::runtime_error("FaultyEnv: injected syncDir failure: " + path);
  base_.syncDir(path);
  // Entries directly inside `path` are now durable dir entries.
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const PendingEntry& entry) {
                                  return parentOf(entry.path) == path;
                                }),
                 pending_.end());
}

void FaultyEnv::loseUnsyncedData() {
  if (!crashed_ || lost_) return;
  lost_ = true;
  // Roll back unsynced dir entries first, newest first, each by its own
  // drawn coin (a real crash persists an arbitrary subset of unsynced
  // metadata). A rolled-back rename moves the file's content bookkeeping
  // with it.
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    const std::uint64_t coin =
        drawU64(util::fnv1a(it->path.data(), it->path.size()) ^ 0xd1eULL);
    if ((coin & 1) == 0) continue;  // this entry survived the crash
    if (!base_.exists(it->path)) continue;
    switch (it->kind) {
      case PendingEntry::Kind::kCreateFile:
        base_.removeFile(it->path);
        durable_.erase(it->path);
        break;
      case PendingEntry::Kind::kCreateDir:
        base_.removeDirRecursive(it->path);
        break;
      case PendingEntry::Kind::kRename:
        base_.renameFile(it->path, it->from);
        rekeyTracked(it->path, it->from);
        break;
    }
  }
  pending_.clear();
  // Apply per-file data loss to whatever files survived: durable content,
  // full current content, or durable plus a torn prefix of the unsynced
  // tail.
  for (const auto& [path, durable] : durable_) {
    if (!base_.exists(path)) continue;
    const std::string current = base_.readFile(path);
    if (current.size() <= durable.size()) continue;  // nothing unsynced
    const std::uint64_t pick =
        drawU64(util::fnv1a(path.data(), path.size()) ^ 0x105eULL);
    std::string kept;
    switch (pick % 3) {
      case 0:  // every unsynced byte lost
        kept = durable;
        break;
      case 1:  // every unsynced byte survived
        continue;
      default: {  // torn: durable content plus a prefix of the tail
        const std::uint64_t tail = current.size() - durable.size();
        kept = durable + current.substr(durable.size(),
                                        drawU64(pick) % (tail + 1));
        break;
      }
    }
    auto file = base_.newWritableFile(path, true);
    if (!kept.empty()) file->append(kept.data(), kept.size());
    file->close();
  }
  // Files written but never honestly synced: any prefix of their content
  // may survive (their dir entry fate was decided above).
  // durable_ only tracks synced files, so walk is complete: an unsynced
  // file either had a pending create entry (handled) or predated the env.
}

bool FaultyEnv::exists(const std::string& path) const {
  return base_.exists(path);
}

bool FaultyEnv::isDirectory(const std::string& path) const {
  return base_.isDirectory(path);
}

std::uint64_t FaultyEnv::fileSize(const std::string& path) const {
  return base_.fileSize(path);
}

std::vector<std::string> FaultyEnv::listDir(const std::string& path) const {
  return base_.listDir(path);
}

std::string FaultyEnv::readFile(const std::string& path) const {
  return base_.readFile(path);
}

}  // namespace doda::storage
