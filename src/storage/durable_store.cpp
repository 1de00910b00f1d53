#include "storage/durable_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/bytes.hpp"

namespace doda::storage {

namespace {

constexpr char kIdMapMagic[9] = "DODAIDM1";

using util::appendU64;
using util::fnv1a;
using util::loadU64;

bool startsWith(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

}  // namespace

std::string DurableTraceStore::segmentName(std::uint64_t generation) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string DurableTraceStore::idMapName(std::uint64_t generation) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "idmap-%06llu.map",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string DurableTraceStore::childPath(const std::string& name) const {
  return (std::filesystem::path(dir_) / name).string();
}

bool DurableTraceStore::isDurableStore(const std::string& dir, Env* env) {
  return resolveEnv(env).exists(
      (std::filesystem::path(dir) / kManifestFileName).string());
}

DurableTraceStore DurableTraceStore::create(const std::string& dir, Env* env) {
  DurableTraceStore store(dir, env);
  store.env().mkdirs(dir);
  if (isDurableStore(dir, env))
    throw std::runtime_error("DurableTraceStore::create: " + dir +
                             " already carries a MANIFEST");
  writeManifestSnapshot(store.env(), dir, store.version_);
  return store;
}

DurableTraceStore DurableTraceStore::open(const std::string& dir,
                                          const DurableOpenOptions& options,
                                          Env* env) {
  DurableTraceStore store(dir, env);
  Env& fs = store.env();
  if (!fs.isDirectory(dir))
    throw std::runtime_error("DurableTraceStore::open: " + dir +
                             ": no such store directory");
  const std::string manifest = store.childPath(kManifestFileName);
  if (!fs.exists(manifest))
    throw std::runtime_error("DurableTraceStore::open: " + dir +
                             ": not a durable store (no MANIFEST)");
  const ManifestReadResult read = readManifest(fs, manifest);
  if (!read.version)
    throw std::runtime_error("DurableTraceStore::open: " + manifest +
                             ": no intact manifest snapshot");
  store.version_ = *read.version;
  if (read.tail_torn && options.repair) {
    // Drop the torn trailing record atomically (temp + rename) so future
    // commits append behind a clean tail.
    writeManifestSnapshot(fs, dir, store.version_);
    store.repaired_tail_ = true;
  }
  if (options.repair) {
    // Remove in-flight leftovers of crashed commits: temp files and
    // generations or id maps the adopted version does not reference.
    // Names outside the store's own patterns are left alone.
    for (const std::string& name : fs.listDir(dir)) {
      if (name == kManifestFileName) continue;
      if (name == store.version_.id_map_file) continue;
      const bool referenced_segment =
          std::any_of(store.version_.segments.begin(),
                      store.version_.segments.end(),
                      [&](const ManifestSegment& s) { return s.name == name; });
      if (referenced_segment) continue;
      if (!startsWith(name, "tmp-") && !startsWith(name, "seg-") &&
          !startsWith(name, "idmap-"))
        continue;
      const std::string path = store.childPath(name);
      if (fs.isDirectory(path))
        fs.removeDirRecursive(path);
      else
        fs.removeFile(path);
      store.removed_orphans_.push_back(path);
    }
  }
  return store;
}

DurableTraceStore DurableTraceStore::openOrCreate(
    const std::string& dir, const DurableOpenOptions& options, Env* env) {
  return isDurableStore(dir, env) ? open(dir, options, env) : create(dir, env);
}

std::vector<std::string> DurableTraceStore::segmentDirs() const {
  std::vector<std::string> dirs;
  dirs.reserve(version_.segments.size());
  for (const ManifestSegment& segment : version_.segments)
    dirs.push_back(childPath(segment.name));
  return dirs;
}

dynagraph::TraceStore DurableTraceStore::openStore(
    const dynagraph::TraceStoreOpenOptions& options) const {
  if (version_.segments.empty())
    throw std::runtime_error("DurableTraceStore: " + dir_ +
                             ": store has no committed segments yet");
  return dynagraph::TraceStore::openComposite(segmentDirs(), options);
}

std::vector<std::uint64_t> DurableTraceStore::loadIdMap() const {
  if (version_.id_map_file.empty()) return {};
  const std::string path = childPath(version_.id_map_file);
  const std::string bytes = env().readFile(path);
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error("DurableTraceStore: " + path + ": " + why);
  };
  if (bytes.size() < 24 || std::memcmp(data, kIdMapMagic, 8) != 0)
    fail("not an id-map file (bad magic)");
  const std::uint64_t count = loadU64(data + 8);
  // Bound the count by the bytes present before any arithmetic on it:
  // 24 + count * 8 wraps for count >= 2^61.
  if (count > (bytes.size() - 24) / 8 || bytes.size() != 24 + count * 8)
    fail("id-map size mismatch");
  if (loadU64(data + 16 + count * 8) != fnv1a(data + 8, 8 + count * 8))
    fail("id-map checksum mismatch");
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = loadU64(data + 16 + i * 8);
  return ids;
}

void DurableTraceStore::writeIdMap(
    const std::string& name, const std::vector<std::uint64_t>& ids) const {
  std::vector<unsigned char> bytes;
  bytes.reserve(24 + ids.size() * 8);
  bytes.insert(bytes.end(), kIdMapMagic, kIdMapMagic + 8);
  appendU64(bytes, ids.size());
  for (const std::uint64_t id : ids) appendU64(bytes, id);
  const std::uint64_t checksum = fnv1a(bytes.data() + 8, bytes.size() - 8);
  appendU64(bytes, checksum);
  const std::string tmp = childPath("tmp-" + name);
  {
    auto file = env().newWritableFile(tmp);
    file->append(bytes.data(), bytes.size());
    file->sync();
    file->close();
  }
  env().renameFile(tmp, childPath(name));
  // The rename becomes durable with the directory fsync in commitVersion.
}

void DurableTraceStore::commitVersion(const std::string& tmp_seg,
                                      const std::string& seg_name,
                                      ManifestVersion next) {
  // The shard files were fsynced by the writer, but their *directory
  // entries* live in the segment directory — fsync it too, or a crash
  // after the commit can lose a shard out of a committed generation.
  env().syncDir(tmp_seg);
  env().renameFile(tmp_seg, childPath(seg_name));
  env().syncDir(dir_);
  // The commit point: everything before this is invisible to recovery
  // until this snapshot lands intact.
  appendManifestSnapshot(env(), dir_, next);
  version_ = std::move(next);
}

void DurableTraceStore::commitSegment(
    std::size_t node_count, std::uint64_t trials, std::uint32_t shard_count,
    dynagraph::TraceWriterOptions writer_options, const SegmentFill& fill,
    const ImportDelta* import) {
  if (trials == 0)
    throw std::invalid_argument("DurableTraceStore::commitSegment: no trials");
  if (node_count < version_.node_count)
    throw std::invalid_argument(
        "DurableTraceStore::commitSegment: node universe may only grow (" +
        std::to_string(node_count) + " < " +
        std::to_string(version_.node_count) + ")");
  const std::uint64_t gen = version_.generation + 1;
  const std::string seg_name = segmentName(gen);
  const std::string tmp_seg = childPath("tmp-" + seg_name);
  if (env().exists(tmp_seg)) env().removeDirRecursive(tmp_seg);

  writer_options.env = env_;
  writer_options.sync_on_close = true;
  writer_options.base_trial = version_.total_trials;
  {
    dynagraph::TraceStoreWriter writer(tmp_seg, node_count, trials,
                                       shard_count, writer_options);
    fill(writer);
    writer.finish();
  }

  ManifestVersion next = version_;
  next.generation = gen;
  next.node_count = node_count;
  next.total_trials += trials;
  next.segments.push_back({seg_name, version_.total_trials, trials});
  if (import != nullptr) {
    next.imported_events = import->events;
    next.import_event_hash = import->event_hash;
    next.id_map_file = idMapName(gen);
    writeIdMap(next.id_map_file, import->external_ids);
  }
  commitVersion(tmp_seg, seg_name, std::move(next));
}

void DurableTraceStore::compact(dynagraph::TraceWriterOptions writer_options,
                                std::uint32_t shard_count) {
  if (version_.segments.empty())
    throw std::runtime_error("DurableTraceStore::compact: " + dir_ +
                             ": nothing to compact");
  // Strict open: compacting around a quarantined shard would silently
  // drop its trials from the rewritten generation.
  const dynagraph::TraceStore store = openStore();
  if (shard_count == 0)
    shard_count = store.shardHeaders().front().shard_count;
  shard_count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      shard_count, store.trialCount()));

  const std::uint64_t gen = version_.generation + 1;
  const std::string seg_name = segmentName(gen);
  const std::string tmp_seg = childPath("tmp-" + seg_name);
  if (env().exists(tmp_seg)) env().removeDirRecursive(tmp_seg);

  writer_options.env = env_;
  writer_options.sync_on_close = true;
  writer_options.base_trial = 0;
  {
    dynagraph::TraceStoreWriter writer(tmp_seg, store.nodeCount(),
                                       store.trialCount(), shard_count,
                                       writer_options);
    for (std::size_t i = 0; i < store.shardCount(); ++i) {
      dynagraph::TraceShardReader reader = store.openShard(i);
      while (reader.beginTrial()) {
        writer.beginTrial(reader.trialLength());
        while (const auto interaction = reader.next())
          writer.addInteraction(*interaction);
      }
    }
    writer.finish();
  }

  const std::vector<ManifestSegment> old_segments = version_.segments;
  ManifestVersion next = version_;
  next.generation = gen;
  next.segments = {{seg_name, 0, store.trialCount()}};
  commitVersion(tmp_seg, seg_name, std::move(next));
  // The old generations are garbage now; a crash mid-removal just leaves
  // orphans for the next open() to sweep.
  for (const ManifestSegment& segment : old_segments)
    env().removeDirRecursive(childPath(segment.name));
}

}  // namespace doda::storage
