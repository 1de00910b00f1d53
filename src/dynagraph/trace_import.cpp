#include "dynagraph/trace_import.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/bytes.hpp"

namespace doda::dynagraph {

namespace {

bool isSeparator(char c) {
  return c == ' ' || c == '\t' || c == ',' || c == ';';
}

/// Splits `line` into fields at runs of separators.
void splitFields(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && isSeparator(line[pos])) ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && !isSeparator(line[pos])) ++pos;
    if (pos > start) out.push_back(line.substr(start, pos - start));
  }
}

bool parseU64(std::string_view field, std::uint64_t& value) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  return ec == std::errc() && ptr == end;
}

bool parseDouble(std::string_view field, double& value) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  // Non-finite timestamps ("nan"/"inf" parse successfully) would break
  // the sort's strict weak ordering — reject them as malformed.
  return ec == std::errc() && ptr == end && std::isfinite(value);
}

/// One accepted event, in file order.
struct ScannedEvent {
  double time = 0.0;
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

/// Incremental contact-event scanner — the single parsing engine behind
/// both the materialized reader and the streaming two-pass importer. Each
/// next() yields one accepted event (self-loops skipped or rejected per
/// the options, max_events honored) without retaining anything beyond the
/// current line, so a scan is O(1) memory in the event count.
class ContactEventScanner {
 public:
  ContactEventScanner(std::istream& is, const ContactImportOptions& options)
      : is_(is), options_(options) {}

  /// Advances to the next accepted event. Returns false at EOF or once
  /// max_events have been yielded. Throws std::runtime_error with a line
  /// number on malformed input.
  bool next(ScannedEvent& event) {
    if (options_.max_events != 0 && stats_.events >= options_.max_events)
      return false;
    while (std::getline(is_, line_)) {
      ++line_no_;
      ++stats_.lines;
      if (!line_.empty() && line_.back() == '\r') line_.pop_back();
      splitFields(line_, fields_);
      if (fields_.empty() || fields_[0].front() == '#' ||
          fields_[0].front() == '%') {
        ++stats_.skipped;
        continue;
      }
      const int shape =
          fields_.size() >= 3 ? 3 : static_cast<int>(fields_.size());
      event = ScannedEvent{};
      bool numeric;
      if (shape >= 3) {
        numeric = parseDouble(fields_[0], event.time) &&
                  parseU64(fields_[1], event.u) &&
                  parseU64(fields_[2], event.v);
      } else {
        numeric = fields_.size() == 2 && parseU64(fields_[0], event.u) &&
                  parseU64(fields_[1], event.v);
      }
      if (!numeric) {
        // A single leading non-numeric row is a column header; anything
        // after the first event row is malformed data.
        if (!saw_event_row_) {
          ++stats_.skipped;
          continue;
        }
        fail("expected numeric fields ('t u v' or 'u v'): '" + line_ + "'");
      }
      if (column_shape_ == 0) {
        column_shape_ = shape;
      } else if (column_shape_ != shape) {
        fail(
            "inconsistent column count (file mixes 't u v' and 'u v' rows)");
      }
      saw_event_row_ = true;
      if (event.u == event.v) {
        if (!options_.skip_self_loops) fail("self-loop event");
        ++stats_.self_loops;
        continue;
      }
      ++stats_.events;
      if (timestamped()) {
        if (stats_.events == 1) {
          stats_.t_min = stats_.t_max = event.time;
        } else {
          stats_.t_min = std::min(stats_.t_min, event.time);
          stats_.t_max = std::max(stats_.t_max, event.time);
        }
        time_ordered_ = time_ordered_ && event.time >= prev_time_;
        prev_time_ = event.time;
      }
      return true;
    }
    return false;
  }

  bool timestamped() const noexcept { return column_shape_ == 3; }
  /// Whether every timestamp seen so far was non-decreasing (vacuously
  /// true for untimed files).
  bool timeOrdered() const noexcept { return time_ordered_; }
  /// Scan-side statistics (node_count is filled by the caller, which owns
  /// the id universe).
  const ContactImportStats& stats() const noexcept { return stats_; }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("readContactEvents: line " +
                             std::to_string(line_no_) + ": " + why);
  }

  std::istream& is_;
  const ContactImportOptions& options_;
  ContactImportStats stats_;
  std::string line_;
  std::vector<std::string_view> fields_;
  std::size_t line_no_ = 0;
  int column_shape_ = 0;  // 0 = undecided, 2 = "u v", 3 = "t u v"
  bool saw_event_row_ = false;
  bool time_ordered_ = true;
  double prev_time_ = -std::numeric_limits<double>::infinity();
};

struct RawEvent {
  double time;
  std::uint64_t u;
  std::uint64_t v;
  std::uint64_t order;  // file order, the stable-sort tiebreak
};

}  // namespace

ContactTrace readContactEvents(std::istream& is,
                               const ContactImportOptions& options) {
  ContactTrace trace;
  ContactEventScanner scanner(is, options);
  std::vector<RawEvent> raw;
  ScannedEvent event;
  while (scanner.next(event))
    raw.push_back({event.time, event.u, event.v,
                   static_cast<std::uint64_t>(raw.size())});
  trace.stats = scanner.stats();

  if (raw.empty())
    throw std::runtime_error("readContactEvents: no events in input");
  trace.stats.timestamped = scanner.timestamped();
  if (trace.stats.timestamped) {
    // Stability via the explicit file-order tiebreak (equal timestamps
    // keep file order) — plain sort, no temporary buffer.
    std::sort(raw.begin(), raw.end(),
              [](const RawEvent& a, const RawEvent& b) {
                return a.time < b.time ||
                       (a.time == b.time && a.order < b.order);
              });
  }

  // Dense renumbering: sorted external ids -> [0, n).
  trace.external_ids.reserve(raw.size() * 2);
  for (const RawEvent& e : raw) {
    trace.external_ids.push_back(e.u);
    trace.external_ids.push_back(e.v);
  }
  std::sort(trace.external_ids.begin(), trace.external_ids.end());
  trace.external_ids.erase(
      std::unique(trace.external_ids.begin(), trace.external_ids.end()),
      trace.external_ids.end());
  trace.external_ids.shrink_to_fit();
  std::unordered_map<std::uint64_t, NodeId> dense;
  dense.reserve(trace.external_ids.size());
  for (std::size_t i = 0; i < trace.external_ids.size(); ++i)
    dense.emplace(trace.external_ids[i], static_cast<NodeId>(i));

  trace.events.reserve(raw.size());
  for (const RawEvent& e : raw)
    trace.events.emplace_back(dense.at(e.u), dense.at(e.v));
  trace.stats.events = trace.events.size();
  trace.stats.node_count = trace.external_ids.size();
  return trace;
}

ContactTrace loadContactEvents(const std::string& path,
                               const ContactImportOptions& options) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("loadContactEvents: cannot open " + path);
  return readContactEvents(in, options);
}

ContactImportStats importContactTrace(const std::string& input_path,
                                      const std::string& directory,
                                      std::uint32_t shard_count,
                                      const ContactImportOptions& options,
                                      const TraceWriterOptions& writer_options) {
  // Pass 1: one streaming scan to size the store — event count, dense id
  // universe, time order. Memory is O(distinct nodes), never O(events),
  // and max_events stops the scan without materializing anything.
  std::uint64_t events = 0;
  bool timestamped = false;
  bool time_ordered = true;
  ContactImportStats stats;
  std::unordered_set<std::uint64_t> id_set;
  {
    std::ifstream in(input_path);
    if (!in)
      throw std::runtime_error("importContactTrace: cannot open " +
                               input_path);
    ContactEventScanner scanner(in, options);
    ScannedEvent event;
    while (scanner.next(event)) {
      id_set.insert(event.u);
      id_set.insert(event.v);
      ++events;
    }
    stats = scanner.stats();
    timestamped = scanner.timestamped();
    time_ordered = scanner.timeOrdered();
  }
  if (events == 0)
    throw std::runtime_error("readContactEvents: no events in input");
  stats.timestamped = timestamped;
  stats.node_count = id_set.size();

  // The import is an append onto an empty store: dense ids are the sorted
  // external ids, and the events split into near-equal contiguous trials
  // (the first `events % trials` take one extra event), mirroring the
  // writer's shard split.
  ContactAppendPlan plan;
  plan.new_events = events;
  plan.external_ids.assign(id_set.begin(), id_set.end());
  std::sort(plan.external_ids.begin(), plan.external_ids.end());
  plan.stats = stats;
  const std::uint64_t trials = plan.appendTrials(options);
  if (shard_count == 0) shard_count = 1;
  shard_count =
      std::min<std::uint32_t>(shard_count, static_cast<std::uint32_t>(trials));

  TraceStoreWriter writer(directory, stats.node_count, trials, shard_count,
                          writer_options);
  if (!timestamped || time_ordered) {
    // Pass 2 streams the events straight into the writer: bounded memory
    // for arbitrarily large datasets. (A non-decreasing file is already in
    // its stable-sorted order, so streaming preserves the materialized
    // path's output.)
    streamContactAppend(writer, input_path, plan, options);
  } else {
    // Out-of-order timestamps need the stable sort, which needs the whole
    // event list — fall back to the materialized path for such files.
    const ContactTrace trace = loadContactEvents(input_path, options);
    // Same shrink guard as the streaming branch: the trial lengths below
    // were sized from the pass-1 count, so a file that changed underneath
    // us must not walk past the re-read event list.
    if (trace.events.size() != events)
      throw std::runtime_error(
          "importContactTrace: input changed between passes: " + input_path);
    std::uint64_t offset = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      const std::uint64_t length =
          events / trials + (trial < events % trials ? 1 : 0);
      writer.appendTrial(InteractionSequenceView(
          trace.events.data() + offset, static_cast<std::size_t>(length)));
      offset += length;
    }
  }
  writer.finish();
  return stats;
}

ContactAppendPlan planContactAppend(const std::string& path,
                                    const ContactAppendBase& base,
                                    const ContactImportOptions& options) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("planContactAppend: cannot open " + path);
  ContactEventScanner scanner(in, options);
  std::unordered_set<std::uint64_t> known(base.external_ids.begin(),
                                          base.external_ids.end());
  std::unordered_set<std::uint64_t> fresh;
  ContactAppendPlan plan;
  plan.base_events = base.events;
  std::uint64_t count = 0;
  std::uint64_t hash = kContactEventHashSeed;
  std::uint64_t hash_at_base = base.events == 0 ? hash : 0;
  ScannedEvent event;
  while (scanner.next(event)) {
    // The running hash covers each event's (time bits, u, v) as
    // little-endian u64s. Untimed events hash time 0.0, so the hash is
    // well-defined for both column shapes.
    unsigned char record[24];
    util::storeU64(record, std::bit_cast<std::uint64_t>(event.time));
    util::storeU64(record + 8, event.u);
    util::storeU64(record + 16, event.v);
    hash = util::fnv1a(record, sizeof(record), hash);
    ++count;
    if (count == base.events) {
      hash_at_base = hash;
    } else if (count > base.events) {
      if (known.find(event.u) == known.end()) fresh.insert(event.u);
      if (known.find(event.v) == known.end()) fresh.insert(event.v);
    }
  }
  if (count < base.events)
    throw std::runtime_error("planContactAppend: " + path + ": log shrank (" +
                             std::to_string(count) + " events, store has " +
                             std::to_string(base.events) + ")");
  if (base.events > 0 && hash_at_base != base.event_hash)
    throw std::runtime_error(
        "planContactAppend: " + path +
        ": log is not an extension of the imported prefix (first " +
        std::to_string(base.events) + " events changed)");
  if (scanner.timestamped() && !scanner.timeOrdered())
    throw std::runtime_error(
        "planContactAppend: " + path +
        ": incremental append requires a time-ordered log (out-of-order "
        "events would re-sort across the committed boundary)");
  plan.new_events = count - base.events;
  plan.event_hash = hash;
  plan.external_ids = base.external_ids;
  std::vector<std::uint64_t> added(fresh.begin(), fresh.end());
  std::sort(added.begin(), added.end());
  plan.external_ids.insert(plan.external_ids.end(), added.begin(),
                           added.end());
  plan.stats = scanner.stats();
  plan.stats.timestamped = scanner.timestamped();
  plan.stats.node_count = plan.external_ids.size();
  return plan;
}

ContactImportStats streamContactAppend(TraceStoreWriter& writer,
                                       const std::string& path,
                                       const ContactAppendPlan& plan,
                                       const ContactImportOptions& options) {
  if (plan.new_events == 0)
    throw std::invalid_argument("streamContactAppend: nothing to append");
  std::unordered_map<std::uint64_t, NodeId> dense;
  dense.reserve(plan.external_ids.size());
  for (std::size_t i = 0; i < plan.external_ids.size(); ++i)
    dense.emplace(plan.external_ids[i], static_cast<NodeId>(i));

  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("streamContactAppend: cannot reopen " + path);
  ContactEventScanner scanner(in, options);
  ScannedEvent event;
  const auto shrank = [&]() -> std::runtime_error {
    return std::runtime_error(
        "streamContactAppend: input shrank between passes: " + path);
  };
  for (std::uint64_t k = 0; k < plan.base_events; ++k)
    if (!scanner.next(event)) throw shrank();

  const std::uint64_t trials = plan.appendTrials(options);
  const std::uint64_t base = plan.new_events / trials;
  const std::uint64_t extra = plan.new_events % trials;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t length = base + (trial < extra ? 1 : 0);
    writer.beginTrial(length);
    for (std::uint64_t k = 0; k < length; ++k) {
      if (!scanner.next(event)) throw shrank();
      writer.addInteraction(Interaction(dense.at(event.u), dense.at(event.v)));
    }
  }
  ContactImportStats stats = scanner.stats();
  stats.timestamped = scanner.timestamped();
  stats.node_count = plan.external_ids.size();
  return stats;
}

}  // namespace doda::dynagraph
