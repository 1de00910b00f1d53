#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dynagraph/trace_io.hpp"
#include "storage/env.hpp"
#include "storage/manifest.hpp"

namespace doda::storage {

// ---------------------------------------------------------------------------
// DurableTraceStore — an LSM-style crash-safe trace store.
//
// Layout under the store root:
//
//   MANIFEST            append-only commit log (storage/manifest.hpp)
//   seg-NNNNNN/         one immutable shard generation per commit
//     shard-00000.trace …
//   idmap-NNNNNN.map    import dense-id map of generation N (if imported)
//   tmp-*               in-flight commits; orphans after a crash
//
// Commit discipline (commitSegment): write every shard of the new segment
// into tmp-seg-NNNNNN with fsync-on-close, write + fsync the new id-map
// file (imports), atomically rename the segment into place, fsync the
// root directory, then append + fsync one manifest snapshot. The manifest
// append is the commit point: a crash anywhere earlier leaves only
// unreferenced temp/orphan files and the previous version; a crash after
// leaves the new version. Nothing in between is ever observable.
//
// open() recovers: it replays the MANIFEST (adopting the last intact
// snapshot, repairing a torn tail), removes orphan temp files and
// unreferenced generations, and serves the committed segments as one
// logical TraceStore (TraceStore::openComposite), composing with the
// existing quarantine path (allow_partial) for media corruption inside a
// committed shard.
// ---------------------------------------------------------------------------

/// Options of DurableTraceStore::open. (Shard-level options — partial
/// opens, payload verification — are TraceStoreOpenOptions, passed to
/// openStore().)
struct DurableOpenOptions {
  /// Repair on open: rewrite a torn manifest tail and delete orphan
  /// temp files / unreferenced generations. With repair off the store
  /// still opens read-only-safely (orphans are ignored, not removed).
  bool repair = true;
};

class DurableTraceStore {
 public:
  /// Import bookkeeping carried by a commit: the grown event totals and
  /// the full updated dense-id map to persist.
  struct ImportDelta {
    std::uint64_t events = 0;
    std::uint64_t event_hash = 0;
    std::vector<std::uint64_t> external_ids;
  };

  /// Appends the new segment's trials through the writer it is given.
  using SegmentFill = std::function<void(dynagraph::TraceStoreWriter&)>;

  /// Whether `dir` carries a durable-store manifest.
  static bool isDurableStore(const std::string& dir, Env* env = nullptr);

  /// Opens and recovers the store at `dir` (see class comment). Throws
  /// std::runtime_error when the directory or its MANIFEST is missing or
  /// when no intact manifest snapshot exists.
  static DurableTraceStore open(const std::string& dir,
                                const DurableOpenOptions& options = {},
                                Env* env = nullptr);

  /// Creates an empty durable store at `dir` (generation 0, no
  /// segments). Throws when `dir` already carries a manifest.
  static DurableTraceStore create(const std::string& dir, Env* env = nullptr);

  /// open() when a manifest exists, create() otherwise.
  static DurableTraceStore openOrCreate(const std::string& dir,
                                        const DurableOpenOptions& options = {},
                                        Env* env = nullptr);

  const std::string& directory() const noexcept { return dir_; }
  const ManifestVersion& version() const noexcept { return version_; }
  std::uint64_t trialCount() const noexcept { return version_.total_trials; }
  std::uint64_t nodeCount() const noexcept { return version_.node_count; }

  /// Committed segment directories, oldest first (absolute paths).
  std::vector<std::string> segmentDirs() const;

  /// Opens the committed segments as one logical TraceStore. Throws when
  /// the store has no segments yet.
  dynagraph::TraceStore openStore(
      const dynagraph::TraceStoreOpenOptions& options = {}) const;

  /// The persisted import dense-id map (dense id -> external id); empty
  /// when nothing was imported. Validated against its checksum.
  std::vector<std::uint64_t> loadIdMap() const;

  /// Recovery report: orphan paths open() removed, and whether it
  /// rewrote a torn manifest tail.
  const std::vector<std::string>& removedOrphans() const noexcept {
    return removed_orphans_;
  }
  bool repairedManifestTail() const noexcept { return repaired_tail_; }

  /// Commits one new immutable segment of `trials` trials (see class
  /// comment for the discipline). `node_count` must be >= the store's
  /// current node count (the universe may only grow). `import` carries
  /// the updated import bookkeeping when the segment ingests contact
  /// events. The writer handed to `fill` already has the right global
  /// base trial, env, and fsync-on-close; `fill` must append exactly
  /// `trials` trials.
  void commitSegment(std::size_t node_count, std::uint64_t trials,
                     std::uint32_t shard_count,
                     dynagraph::TraceWriterOptions writer_options,
                     const SegmentFill& fill,
                     const ImportDelta* import = nullptr);

  /// Offline compaction: rewrites the whole store — every committed
  /// segment, whatever its block encoding and shard count — into one new
  /// segment written with `writer_options` (default: rANS blocks), then
  /// commits it as a replacement generation and deletes the old segments.
  /// The source must open strictly (a store with quarantined shards cannot
  /// be compacted without deciding about the gap). shard_count 0 keeps the
  /// first segment's recorded shard count.
  void compact(dynagraph::TraceWriterOptions writer_options = {},
               std::uint32_t shard_count = 0);

 private:
  DurableTraceStore(std::string dir, Env* env) : dir_(std::move(dir)), env_(env) {}

  Env& env() const { return resolveEnv(env_); }
  std::string segmentName(std::uint64_t generation) const;
  std::string idMapName(std::uint64_t generation) const;
  std::string childPath(const std::string& name) const;
  void writeIdMap(const std::string& name,
                  const std::vector<std::uint64_t>& ids) const;
  /// Shared tail of commitSegment/compact: stage a segment + optional id
  /// map, rename into place, commit `next` to the manifest.
  void commitVersion(const std::string& tmp_seg, const std::string& seg_name,
                     ManifestVersion next);

  std::string dir_;
  Env* env_ = nullptr;  // null = the real filesystem
  ManifestVersion version_;
  std::vector<std::string> removed_orphans_;
  bool repaired_tail_ = false;
};

}  // namespace doda::storage
