#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/trace_io.hpp"
#include "util/bytes.hpp"

namespace doda::dynagraph {

// ---------------------------------------------------------------------------
// External contact-trace ingestion: converts real-world contact event lists
// (the common interchange shape of SocioPatterns / CRAWDAD-style datasets)
// into sharded binary trace stores so recorded replay gains real workloads
// next to the synthetic generators.
//
// Accepted input, one event per line:
//
//   <t> <u> <v> [extra columns ignored]     timestamped contact
//   <u> <v>                                 untimed contact (file order)
//
// Fields are separated by any run of spaces, tabs, commas or semicolons.
// Lines starting with '#' or '%' are comments; a leading non-numeric
// header line is skipped. All rows of a file must agree on whether they
// carry a timestamp. Node ids are arbitrary unsigned integers and are
// densely renumbered (sorted external id -> dense id); timestamped events
// are stably sorted by time, so simultaneous contacts keep file order.
// ---------------------------------------------------------------------------

/// Options of the external contact-trace importer.
struct ContactImportOptions {
  /// Skip events whose endpoints coincide (real datasets contain them);
  /// when false such an event is a hard error.
  bool skip_self_loops = true;
  /// Split the time-ordered event list into this many near-equal
  /// consecutive trials (replay's unit of measurement). Clamped to the
  /// event count.
  std::size_t trials = 1;
  /// Stop after this many imported events (0 = no cap) — lets a smoke job
  /// ingest the head of a huge dataset.
  std::uint64_t max_events = 0;
};

struct ContactImportStats {
  std::uint64_t lines = 0;       ///< input lines consumed
  std::uint64_t events = 0;      ///< imported interactions
  std::uint64_t self_loops = 0;  ///< skipped self-loop events
  std::uint64_t skipped = 0;     ///< comment / blank / header lines
  std::size_t node_count = 0;    ///< dense ids assigned
  bool timestamped = false;      ///< rows carried a time column
  double t_min = 0.0;            ///< earliest timestamp (when timestamped)
  double t_max = 0.0;            ///< latest timestamp (when timestamped)
};

/// A parsed external contact trace: densely renumbered events in time
/// order plus the mapping back to the original ids.
struct ContactTrace {
  std::vector<Interaction> events;
  /// dense id -> external id (sorted ascending).
  std::vector<std::uint64_t> external_ids;
  ContactImportStats stats;
};

/// Parses an event list. Throws std::runtime_error with a line number on
/// malformed input (non-numeric field, inconsistent column count, fewer
/// than two distinct nodes, no events).
ContactTrace readContactEvents(std::istream& is,
                               const ContactImportOptions& options = {});

/// Reads from a file. Throws std::runtime_error on open failure or
/// malformed content.
ContactTrace loadContactEvents(const std::string& path,
                               const ContactImportOptions& options = {});

/// Converts the event list at `input_path` into a sharded binary store
/// under `directory` (options.trials consecutive segments, shard_count
/// clamped to the trial count), written with `writer_options`. Returns
/// the import statistics.
///
/// The ingest is a streaming two-pass: pass 1 scans the file once to size
/// the store (event count, dense id universe, time order), pass 2 streams
/// events straight into the shard writer — memory stays O(distinct nodes)
/// no matter how large the dataset, and max_events stops both passes
/// without materializing anything. Only a timestamped file whose rows are
/// *out of time order* falls back to the materialized stable-sort path
/// (the sort needs the whole list); time-sorted files — the common
/// interchange shape — always stream.
ContactImportStats importContactTrace(
    const std::string& input_path, const std::string& directory,
    std::uint32_t shard_count, const ContactImportOptions& options = {},
    const TraceWriterOptions& writer_options = {});

// ---------------------------------------------------------------------------
// Incremental append: re-importing a *grown* event log (the previously
// imported events plus new ones at the tail) ingests only the tail. The
// store side persists the dense-id map and a running event-stream hash
// (the durable store's manifest carries both); the import side verifies
// the grown log still begins with the imported prefix and plans the dense
// ids of the new events. Requires a time-ordered log — an out-of-order
// file would be re-sorted across the already-committed boundary.
// ---------------------------------------------------------------------------

/// Seed of the running import event hash (FNV-1a offset basis). A store
/// with no imported events carries this value.
inline constexpr std::uint64_t kContactEventHashSeed = util::kFnv1aBasis;

/// What a previous import committed: the dense-id map (dense id ->
/// external id, in assignment order) and the imported event stream's
/// length and running hash.
struct ContactAppendBase {
  std::vector<std::uint64_t> external_ids;
  std::uint64_t events = 0;
  std::uint64_t event_hash = kContactEventHashSeed;
};

/// A planned incremental append. With an empty base this is a plan for a
/// full from-scratch import (external_ids then sorted ascending, exactly
/// like importContactTrace).
struct ContactAppendPlan {
  std::uint64_t base_events = 0;  ///< events already in the store
  std::uint64_t new_events = 0;   ///< events to append
  /// Running hash over the whole (grown) event stream.
  std::uint64_t event_hash = kContactEventHashSeed;
  /// Updated dense-id map: the base map unchanged, new external ids
  /// appended in sorted order — committed dense ids never move.
  std::vector<std::uint64_t> external_ids;
  ContactImportStats stats;

  /// Trial count the append will write under `options` (options.trials
  /// clamped to the new-event count) — the shape streamContactAppend's
  /// writer must be constructed with.
  std::uint64_t appendTrials(const ContactImportOptions& options) const {
    const std::uint64_t trials = options.trials == 0 ? 1 : options.trials;
    return new_events == 0 ? 0 : trials < new_events ? trials : new_events;
  }
};

/// Scans the log at `path` once and plans the append on top of `base`.
/// Throws std::runtime_error when the log shrank below base.events, when
/// its first base.events events no longer hash to base.event_hash (the
/// log is not an extension of what was imported), or when a timestamped
/// log is out of time order. `options` must match the original import's
/// (self-loop filtering changes which events the hash covers).
ContactAppendPlan planContactAppend(const std::string& path,
                                    const ContactAppendBase& base,
                                    const ContactImportOptions& options = {});

/// Re-scans `path`, skips the first plan.base_events events, and streams
/// the plan.new_events new ones into `writer` as plan.appendTrials(options)
/// near-equal consecutive trials — the writer must have been constructed
/// with exactly that trial count and plan.external_ids.size() nodes.
/// Returns the scan statistics (whole file).
ContactImportStats streamContactAppend(TraceStoreWriter& writer,
                                       const std::string& path,
                                       const ContactAppendPlan& plan,
                                       const ContactImportOptions& options = {});

}  // namespace doda::dynagraph
