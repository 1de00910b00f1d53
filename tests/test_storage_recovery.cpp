// Tests of the crash-safe durable trace store (storage/): FaultyEnv
// semantics (op counting, injected faults, crash data-loss outcomes),
// manifest round-trips and torn-tail fallback, durable commit / recovery /
// compaction, incremental contact-log append (only new events ingested,
// bit-identical to a from-scratch import), allow_partial x manifest
// recovery compositions, and the kill-point sweep: every scenario is
// crashed at every op of its write schedule and the recovered store must
// be the previous or the new durable generation — never anything in
// between. The fuzz leg (StorageRecoveryFuzz, DODA_FUZZ_ITERS-scalable)
// additionally mixes drawn transient faults and dropped fsyncs into the
// schedule; under dropped fsyncs a detected (thrown) corruption is also an
// acceptable outcome, silent wrong data never is.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/gathering.hpp"
#include "dynagraph/trace_import.hpp"
#include "dynagraph/trace_io.hpp"
#include "dynagraph/traces.hpp"
#include "sim/trace_replay.hpp"
#include "storage/durable_import.hpp"
#include "storage/durable_store.hpp"
#include "storage/env.hpp"
#include "storage/manifest.hpp"
#include "trace_test_helpers.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace doda {
namespace {

using dynagraph::ContactImportOptions;
using dynagraph::InteractionSequence;
using dynagraph::TraceStore;
using dynagraph::TraceStoreOpenOptions;
using dynagraph::TraceStoreWriter;
using dynagraph::TraceWriterOptions;
using sim::MeasureResult;
using storage::DurableTraceStore;
using storage::Env;
using storage::EnvCrash;
using storage::FaultyEnv;
using storage::FaultyEnvPlan;
using namespace trace_test;

void copyTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  if (!from.empty() && std::filesystem::exists(from))
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

MeasureResult replayStats(const TraceStore& store) {
  const sim::AlgorithmFactory factory = [](sim::TrialContext&) {
    return std::make_unique<algorithms::Gathering>();
  };
  sim::ReplayConfig serial;
  serial.threads = 1;
  return sim::replayTrace(store, serial, factory);
}

/// Flips one byte of a file in place.
void flipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " @" << offset;
  byte = static_cast<char>(byte ^ 0xff);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string manifestPathOf(const std::string& dir) {
  return (std::filesystem::path(dir) / storage::kManifestFileName).string();
}

// ----------------------------------------------------- synthetic contact log

struct LogEvent {
  std::uint64_t t, u, v;
};

/// 100 timestamped contact events: the first 60 use only the ids
/// {3,8,15,21,34,55}; the tail introduces 100..102, all above the old ids,
/// so the incrementally grown dense-id map (old map + sorted new ids)
/// equals the from-scratch sorted map and the two ingests agree event for
/// event.
std::vector<LogEvent> grownLog() {
  const std::uint64_t pool[6] = {3, 8, 15, 21, 34, 55};
  std::vector<LogEvent> events;
  events.reserve(100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::uint64_t u, v;
    if (i < 60) {
      u = pool[i % 6];
      v = pool[(i + 2) % 6];
    } else {
      u = 100 + (i % 3);
      v = pool[i % 6];
    }
    events.push_back({i, u, v});
  }
  return events;
}

void writeLogPrefix(const std::string& path,
                    const std::vector<LogEvent>& events, std::size_t count) {
  std::ofstream out(path);
  out << "# synthetic contact log\n";
  for (std::size_t i = 0; i < count && i < events.size(); ++i)
    out << events[i].t << " " << events[i].u << " " << events[i].v << "\n";
}

// --------------------------------------------------------------- fixtures

/// A durable store with one recorded segment of 3 trials.
std::string makeRecordedStore(const std::string& tag) {
  const std::string dir = scratchDir(tag);
  DurableTraceStore store = DurableTraceStore::create(dir);
  const auto trials = sampleTrials(12, 3, 30, 77);
  store.commitSegment(12, 3, 1, {}, [&](TraceStoreWriter& writer) {
    for (const auto& trial : trials) writer.appendTrial(trial);
  });
  return dir;
}

/// Appends a second recorded segment of 2 trials through `env`.
void appendSecondSegment(const std::string& dir, Env* env) {
  DurableTraceStore store = DurableTraceStore::open(dir, {}, env);
  const auto trials = sampleTrials(12, 2, 30, 78);
  store.commitSegment(12, 2, 1, {}, [&](TraceStoreWriter& writer) {
    for (const auto& trial : trials) writer.appendTrial(trial);
  });
}

// ----------------------------------------------------------- FaultyEnv unit

TEST(StorageEnv, PosixRoundTripAndListing) {
  const std::string dir = scratchDir("posix");
  Env& env = storage::defaultEnv();
  env.mkdirs(dir);
  const std::string a = dir + "/a.bin";
  {
    auto file = env.newWritableFile(a);
    file->append("hello ", 6);
    file->append("world", 5);
    file->writeAt(0, "HELLO", 5);
    file->sync();
    file->close();
  }
  EXPECT_EQ(env.readFile(a), "HELLO world");
  EXPECT_EQ(env.fileSize(a), 11u);
  env.renameFile(a, dir + "/b.bin");
  EXPECT_FALSE(env.exists(a));
  EXPECT_EQ(env.listDir(dir), std::vector<std::string>{"b.bin"});
  env.syncDir(dir);
  env.removeFile(dir + "/b.bin");
  EXPECT_TRUE(env.listDir(dir).empty());
}

TEST(StorageEnv, CrashAtOpCountsMutationsAndPoisonsTheEnv) {
  const std::string dir = scratchDir("crash");
  FaultyEnvPlan plan;
  plan.crash_at_op = 3;
  FaultyEnv env(plan);
  env.mkdirs(dir);                                   // op 0
  auto file = env.newWritableFile(dir + "/f.bin");   // op 1
  file->append("aaaa", 4);                           // op 2
  EXPECT_THROW(file->append("bbbb", 4), EnvCrash);   // op 3 -> crash
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(env.opCount(), 4u);
  EXPECT_THROW(env.mkdirs(dir + "/sub"), EnvCrash);  // poisoned
  // Reads still work post-crash (recovery inspects the disk).
  EXPECT_TRUE(env.exists(dir));
}

TEST(StorageEnv, TornWriteFaultKeepsAtMostAPrefix) {
  const std::string dir = scratchDir("torn");
  FaultyEnvPlan plan;
  plan.faults = {{2, FaultyEnvPlan::Fault::kTornWrite}};
  FaultyEnv env(plan);
  env.mkdirs(dir);
  auto file = env.newWritableFile(dir + "/f.bin");
  const std::string payload(100, 'x');
  EXPECT_THROW(file->append(payload.data(), payload.size()),
               std::runtime_error);
  EXPECT_FALSE(env.crashed());  // transient fault, not a crash
  EXPECT_LE(env.fileSize(dir + "/f.bin"), payload.size());
}

TEST(StorageEnv, EnospcFaultWritesNothing) {
  const std::string dir = scratchDir("enospc");
  FaultyEnvPlan plan;
  plan.faults = {{3, FaultyEnvPlan::Fault::kEnospc}};
  FaultyEnv env(plan);
  env.mkdirs(dir);
  auto file = env.newWritableFile(dir + "/f.bin");
  file->append("aaaa", 4);
  EXPECT_THROW(file->append("bbbb", 4), std::runtime_error);
  file->close();
  EXPECT_EQ(env.readFile(dir + "/f.bin"), "aaaa");
}

TEST(StorageEnv, CrashLosesOnlyUnsyncedBytes) {
  const std::string dir = scratchDir("lose");
  // The scratch dir predates the env, so it is durable and the crash
  // outcomes below concern only the file written through the env.
  storage::defaultEnv().mkdirs(dir);
  FaultyEnvPlan plan;
  plan.crash_at_op = 5;
  FaultyEnv env(plan);
  env.mkdirs(dir);                                  // op 0 (already durable)
  const std::string path = dir + "/f.bin";
  auto file = env.newWritableFile(path);            // op 1
  file->append("AAAA", 4);                          // op 2
  file->sync();                                     // op 3: durable
  env.syncDir(dir);                                 // op 4: entry durable
  EXPECT_THROW(file->append("BBBBBBBB", 8), EnvCrash);  // op 5
  file->close();
  env.loseUnsyncedData();
  const std::string content = storage::defaultEnv().readFile(path);
  ASSERT_GE(content.size(), 4u);
  EXPECT_EQ(content.substr(0, 4), "AAAA");
  EXPECT_LE(content.size(), 12u);
}

TEST(StorageEnv, CrashedRenameLandsOnExactlyOneSide) {
  const std::string dir = scratchDir("rename");
  storage::defaultEnv().mkdirs(dir);  // durable before the env exists
  FaultyEnvPlan plan;
  plan.crash_at_op = 6;
  FaultyEnv env(plan);
  env.mkdirs(dir);                                    // op 0 (already durable)
  {
    auto file = env.newWritableFile(dir + "/a.bin");  // op 1
    file->append("data", 4);                          // op 2
    file->sync();                                     // op 3
    file->close();
  }
  env.syncDir(dir);  // op 4: a.bin's dir entry is durable before the rename
  env.renameFile(dir + "/a.bin", dir + "/b.bin");     // op 5 (unsynced)
  EXPECT_THROW(env.mkdirs(dir + "/sub"), EnvCrash);   // op 6
  env.loseUnsyncedData();
  Env& real = storage::defaultEnv();
  EXPECT_NE(real.exists(dir + "/a.bin"), real.exists(dir + "/b.bin"));
  const std::string survivor =
      real.exists(dir + "/a.bin") ? dir + "/a.bin" : dir + "/b.bin";
  EXPECT_EQ(real.readFile(survivor), "data");
}

TEST(StorageEnv, PlanDrawIsDeterministic) {
  const FaultyEnvPlan a = FaultyEnvPlan::draw(42, 200, 0.3);
  const FaultyEnvPlan b = FaultyEnvPlan::draw(42, 200, 0.3);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  EXPECT_FALSE(a.faults.empty());
  for (std::size_t i = 0; i < a.faults.size(); ++i)
    EXPECT_EQ(a.faults[i], b.faults[i]);
  const FaultyEnvPlan c = FaultyEnvPlan::draw(43, 200, 0.3);
  EXPECT_NE(a.faults, c.faults);
}

TEST(StorageEnv, PlanDrawIsPinned) {
  // A crash-test schedule is named by its seed: the same seed must draw
  // the same faults on every build, so a failing schedule stays
  // reproducible from its seed alone.
  const FaultyEnvPlan plan = FaultyEnvPlan::draw(2016, 64, 0.125);
  std::vector<std::pair<std::uint64_t, int>> faults;
  for (const auto& [op, kind] : plan.faults)
    faults.emplace_back(op, static_cast<int>(kind));
  const std::vector<std::pair<std::uint64_t, int>> expected = {
      {4, 2}, {21, 1}, {46, 0}, {48, 2}, {52, 1}, {63, 1}};
  EXPECT_EQ(faults, expected);
}

// ------------------------------------------------------------- manifest

TEST(StorageManifest, SnapshotRoundTripLastRecordWins) {
  const std::string dir = scratchDir("mft");
  Env& env = storage::defaultEnv();
  env.mkdirs(dir);
  storage::ManifestVersion v1;
  v1.generation = 1;
  v1.node_count = 9;
  v1.total_trials = 3;
  v1.imported_events = 60;
  v1.import_event_hash = 0x1234abcdULL;
  v1.id_map_file = "idmap-000001.map";
  v1.segments = {{"seg-000001", 0, 3}};
  storage::writeManifestSnapshot(env, dir, v1);

  storage::ManifestVersion v2 = v1;
  v2.generation = 2;
  v2.total_trials = 5;
  v2.segments.push_back({"seg-000002", 3, 2});
  storage::appendManifestSnapshot(env, dir, v2);

  const auto read = storage::readManifest(env, manifestPathOf(dir));
  ASSERT_TRUE(read.version.has_value());
  EXPECT_FALSE(read.tail_torn);
  EXPECT_EQ(read.valid_bytes, read.file_bytes);
  EXPECT_EQ(read.version->generation, 2u);
  EXPECT_EQ(read.version->node_count, 9u);
  EXPECT_EQ(read.version->total_trials, 5u);
  EXPECT_EQ(read.version->imported_events, 60u);
  EXPECT_EQ(read.version->import_event_hash, 0x1234abcdULL);
  EXPECT_EQ(read.version->id_map_file, "idmap-000001.map");
  ASSERT_EQ(read.version->segments.size(), 2u);
  EXPECT_EQ(read.version->segments[1].name, "seg-000002");
  EXPECT_EQ(read.version->segments[1].base_trial, 3u);
  EXPECT_EQ(read.version->segments[1].trials, 2u);
}

TEST(StorageManifest, TornTailFallsBackToLastIntactSnapshot) {
  const std::string dir = scratchDir("mft_torn");
  Env& env = storage::defaultEnv();
  env.mkdirs(dir);
  storage::ManifestVersion v1;
  v1.generation = 1;
  v1.segments = {{"seg-000001", 0, 3}};
  storage::writeManifestSnapshot(env, dir, v1);
  const std::string intact = readWholeFile(manifestPathOf(dir));
  storage::ManifestVersion v2 = v1;
  v2.generation = 2;
  storage::appendManifestSnapshot(env, dir, v2);
  const std::string grown = readWholeFile(manifestPathOf(dir));
  // Tear the second record: keep the first snapshot plus half the append.
  const std::size_t cut = intact.size() + (grown.size() - intact.size()) / 2;
  writeWholeFile(manifestPathOf(dir), grown.substr(0, cut));

  const auto read = storage::readManifest(env, manifestPathOf(dir));
  ASSERT_TRUE(read.version.has_value());
  EXPECT_TRUE(read.tail_torn);
  EXPECT_EQ(read.valid_bytes, intact.size());
  EXPECT_LT(read.valid_bytes, read.file_bytes);
  EXPECT_EQ(read.version->generation, 1u);

  // A checksum-valid snapshot record whose segment count (0xFFFFFFFF) its
  // payload cannot hold also ends the valid prefix: five u64 fields, an
  // empty id-map name (u16 length 0), the count, and nothing after it.
  std::string payload(5 * 8 + 2, '\0');
  payload.append(4, '\xff');
  std::uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a, as written
  for (const char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 0x100000001b3ULL;
  }
  std::string header;  // u32 length | u32 type | u64 checksum
  const auto putLe = [&header](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i)
      header.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  };
  putLe(payload.size(), 4);
  putLe(storage::kManifestRecordSnapshot, 4);
  putLe(checksum, 8);
  writeWholeFile(manifestPathOf(dir), intact + header + payload);

  const auto bad_count = storage::readManifest(env, manifestPathOf(dir));
  ASSERT_TRUE(bad_count.version.has_value());
  EXPECT_TRUE(bad_count.tail_torn);
  EXPECT_EQ(bad_count.valid_bytes, intact.size());
  EXPECT_EQ(bad_count.version->generation, 1u);
}

TEST(StorageManifest, SnapshotRecordBytesArePinned) {
  // The MANIFEST is read back by every later build: one snapshot record
  // of a fixed version must keep its exact bytes (magic, record header,
  // payload), pinned here by size and FNV-1a.
  const std::string dir = scratchDir("mft_golden");
  Env& env = storage::defaultEnv();
  env.mkdirs(dir);
  storage::ManifestVersion version;
  version.generation = 3;
  version.node_count = 24;
  version.total_trials = 6;
  version.imported_events = 100;
  version.import_event_hash = 0x0123456789abcdefULL;
  version.id_map_file = "idmap-000003.map";
  version.segments = {{"seg-000002", 0, 4}, {"seg-000003", 4, 2}};
  storage::writeManifestSnapshot(env, dir, version);
  const std::string bytes = readWholeFile(manifestPathOf(dir));
  EXPECT_EQ(bytes.size(), 142u);
  EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), 0xbdafbe8adb5aa711ULL);
}

TEST(StorageManifest, BadMagicThrows) {
  const std::string dir = scratchDir("mft_magic");
  storage::defaultEnv().mkdirs(dir);
  writeWholeFile(manifestPathOf(dir), "NOTAMANIFEST");
  EXPECT_THROW(
      storage::readManifest(storage::defaultEnv(), manifestPathOf(dir)),
      std::runtime_error);
}

// --------------------------------------------------------- durable store

TEST(DurableStore, RecordCommitRoundTrip) {
  const std::string dir = scratchDir("rt");
  DurableTraceStore store = DurableTraceStore::create(dir);
  const auto trials = sampleTrials(12, 3, 30, 77);
  store.commitSegment(12, 3, 1, {}, [&](TraceStoreWriter& writer) {
    for (const auto& trial : trials) writer.appendTrial(trial);
  });
  EXPECT_EQ(store.version().generation, 1u);
  EXPECT_EQ(store.trialCount(), 3u);
  EXPECT_EQ(store.nodeCount(), 12u);

  DurableTraceStore reopened = DurableTraceStore::open(dir);
  EXPECT_EQ(reopened.version().generation, 1u);
  EXPECT_TRUE(reopened.removedOrphans().empty());
  EXPECT_FALSE(reopened.repairedManifestTail());
  expectTrialsEqual(decodeStore(reopened.openStore()), trials);
}

TEST(DurableStore, IdMapFileBytesArePinned) {
  // An imported store's id map is read back by every later build: the
  // file a commit writes for a fixed map must keep its exact bytes,
  // pinned here by size and FNV-1a.
  const std::string dir = scratchDir("idmap_golden");
  DurableTraceStore store = DurableTraceStore::create(dir);
  DurableTraceStore::ImportDelta import;
  import.events = 30;
  import.event_hash = 0xfedcba9876543210ULL;
  import.external_ids = {3, 8, 15, 21, 34, 55, 100, 101, 102,
                         std::uint64_t{1} << 40};
  const auto trials = sampleTrials(12, 1, 30, 77);
  store.commitSegment(
      12, 1, 1, {},
      [&](TraceStoreWriter& writer) { writer.appendTrial(trials[0]); },
      &import);
  const std::string bytes =
      readWholeFile(dir + "/" + store.version().id_map_file);
  EXPECT_EQ(bytes.size(), 104u);
  EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), 0x65f39b06e4656465ULL);
  EXPECT_EQ(store.loadIdMap(), import.external_ids);
}

TEST(DurableStore, AppendedSegmentsReplayLikeOneStore) {
  const std::string dir = makeRecordedStore("app");
  appendSecondSegment(dir, nullptr);

  DurableTraceStore store = DurableTraceStore::open(dir);
  EXPECT_EQ(store.version().generation, 2u);
  EXPECT_EQ(store.trialCount(), 5u);
  ASSERT_EQ(store.version().segments.size(), 2u);
  EXPECT_EQ(store.version().segments[1].base_trial, 3u);

  auto all = sampleTrials(12, 3, 30, 77);
  for (auto& trial : sampleTrials(12, 2, 30, 78)) all.push_back(trial);
  const std::string flat = scratchDir("app_flat");
  {
    TraceStoreWriter writer(flat, 12, all.size(), 1, {});
    for (const auto& trial : all) writer.appendTrial(trial);
    writer.finish();
  }
  const TraceStore composite = store.openStore();
  expectTrialsEqual(decodeStore(composite), all);
  expectIdentical(replayStats(composite), replayStats(TraceStore::open(flat)));
}

TEST(DurableStore, CompactMergesLegacySegmentsIntoIndexedV4) {
  // Two raw-block segments of different shapes (tiny blocks over two
  // shards, default blocks in one) compact into one rANS-block segment.
  const std::string dir = scratchDir("cmp");
  DurableTraceStore store = DurableTraceStore::create(dir);
  const auto first = sampleTrials(12, 3, 30, 91);
  const auto second = sampleTrials(12, 2, 30, 92);
  TraceWriterOptions tiny_raw;
  tiny_raw.compress = false;
  tiny_raw.block_bytes = 16;
  store.commitSegment(12, 3, 2, tiny_raw, [&](TraceStoreWriter& writer) {
    for (const auto& trial : first) writer.appendTrial(trial);
  });
  TraceWriterOptions raw;
  raw.compress = false;
  store.commitSegment(12, 2, 1, raw, [&](TraceStoreWriter& writer) {
    for (const auto& trial : second) writer.appendTrial(trial);
  });
  auto all = first;
  for (const auto& trial : second) all.push_back(trial);
  const MeasureResult before = replayStats(store.openStore());

  store.compact();  // default writer options: rANS blocks

  EXPECT_EQ(store.version().generation, 3u);
  ASSERT_EQ(store.version().segments.size(), 1u);
  EXPECT_EQ(store.trialCount(), 5u);
  const TraceStore compacted = store.openStore();
  for (const auto& header : compacted.shardHeaders())
    EXPECT_EQ(header.codec, dynagraph::kTraceCodecRansV4);
  expectTrialsEqual(decodeStore(compacted), all);
  expectIdentical(replayStats(compacted), before);

  // The old generations are gone from disk and a reopen sees no orphans.
  DurableTraceStore reopened = DurableTraceStore::open(dir);
  EXPECT_TRUE(reopened.removedOrphans().empty());
  ASSERT_EQ(reopened.version().segments.size(), 1u);
  expectTrialsEqual(decodeStore(reopened.openStore()), all);
}

TEST(DurableStore, OpenSweepsOrphansButKeepsForeignFiles) {
  const std::string dir = makeRecordedStore("sweep");
  Env& env = storage::defaultEnv();
  env.mkdirs(dir + "/tmp-seg-000099");
  writeWholeFile(dir + "/tmp-seg-000099/shard-00000.trace", "partial");
  env.mkdirs(dir + "/seg-000042");
  writeWholeFile(dir + "/idmap-000033.map", "stale");
  writeWholeFile(dir + "/notes.txt", "keep me");

  DurableTraceStore store = DurableTraceStore::open(dir);
  EXPECT_EQ(store.removedOrphans().size(), 3u);
  EXPECT_FALSE(env.exists(dir + "/tmp-seg-000099"));
  EXPECT_FALSE(env.exists(dir + "/seg-000042"));
  EXPECT_FALSE(env.exists(dir + "/idmap-000033.map"));
  EXPECT_EQ(env.readFile(dir + "/notes.txt"), "keep me");
  expectTrialsEqual(decodeStore(store.openStore()), sampleTrials(12, 3, 30, 77));
}

TEST(DurableStore, UncommittedGenerationIsInvisibleAfterTornManifestTail) {
  const std::string dir = makeRecordedStore("uncommitted");
  const std::string before = readWholeFile(manifestPathOf(dir));
  appendSecondSegment(dir, nullptr);
  const std::string after = readWholeFile(manifestPathOf(dir));
  ASSERT_GT(after.size(), before.size());
  // Simulate a crash that tore the second commit's manifest record: the
  // second segment is fully on disk but its commit never landed intact.
  writeWholeFile(manifestPathOf(dir), after.substr(0, before.size() + 12));

  DurableTraceStore store = DurableTraceStore::open(dir);
  EXPECT_TRUE(store.repairedManifestTail());
  EXPECT_EQ(store.version().generation, 1u);
  EXPECT_EQ(store.trialCount(), 3u);
  // The uncommitted generation was swept as an orphan...
  const auto& orphans = store.removedOrphans();
  EXPECT_TRUE(std::any_of(orphans.begin(), orphans.end(),
                          [](const std::string& path) {
                            return path.find("seg-000002") != std::string::npos;
                          }));
  expectTrialsEqual(decodeStore(store.openStore()), sampleTrials(12, 3, 30, 77));
  // ...and the repaired tail accepts new commits.
  appendSecondSegment(dir, nullptr);
  EXPECT_EQ(DurableTraceStore::open(dir).trialCount(), 5u);
}

TEST(DurableStore, OpenAndCreateValidateTheDirectory) {
  const std::string dir = scratchDir("validate");
  EXPECT_THROW(DurableTraceStore::open(dir), std::runtime_error);
  storage::defaultEnv().mkdirs(dir);
  EXPECT_THROW(DurableTraceStore::open(dir), std::runtime_error);  // no MANIFEST
  EXPECT_FALSE(DurableTraceStore::isDurableStore(dir));
  DurableTraceStore::create(dir);
  EXPECT_TRUE(DurableTraceStore::isDurableStore(dir));
  EXPECT_THROW(DurableTraceStore::create(dir), std::runtime_error);
  EXPECT_THROW(DurableTraceStore::open(dir).openStore(), std::runtime_error);
}

// ------------------------------------- allow_partial x manifest recovery

TEST(DurableStoreRecovery, CorruptCommittedShardQuarantinesWithByteOffset) {
  const std::string dir = makeRecordedStore("corrupt");
  appendSecondSegment(dir, nullptr);
  DurableTraceStore store = DurableTraceStore::open(dir);
  // Flip a payload byte of the second segment's shard, past the 80-byte
  // v4 header and the first 17-byte block frame.
  const std::string shard = dir + "/seg-000002/shard-00000.trace";
  flipByte(shard, 120);

  // Header validation alone cannot see it; the payload walk can.
  EXPECT_NO_THROW(store.openStore());
  TraceStoreOpenOptions verify;
  verify.verify_payloads = true;
  try {
    store.openStore(verify);
    FAIL() << "verify_payloads missed the corruption";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at byte"), std::string::npos) << what;
    EXPECT_NE(what.find("block"), std::string::npos) << what;
  }

  // A partial verified open quarantines the shard — with the offset and
  // block context in the reason — and serves the intact prefix.
  TraceStoreOpenOptions partial = verify;
  partial.allow_partial = true;
  const TraceStore opened = store.openStore(partial);
  ASSERT_EQ(opened.quarantined().size(), 1u);
  EXPECT_NE(opened.quarantined()[0].path.find("seg-000002"),
            std::string::npos);
  EXPECT_NE(opened.quarantined()[0].reason.find("at byte"),
            std::string::npos);
  EXPECT_NE(opened.quarantined()[0].reason.find("block"), std::string::npos);
  EXPECT_EQ(opened.trialCount(), 3u);
  expectTrialsEqual(decodeStore(opened), sampleTrials(12, 3, 30, 77));
}

TEST(DurableStoreRecovery, QuarantinedShardZeroProbesForward) {
  const std::string dir = scratchDir("probe");
  DurableTraceStore store = DurableTraceStore::create(dir);
  const auto trials = sampleTrials(12, 8, 30, 93);
  store.commitSegment(12, 8, 4, {}, [&](TraceStoreWriter& writer) {
    for (const auto& trial : trials) writer.appendTrial(trial);
  });
  // Corrupt shard 0's header so even its shard count is unreadable.
  flipByte(dir + "/seg-000001/shard-00000.trace", 30);

  EXPECT_THROW(store.openStore(), std::runtime_error);
  TraceStoreOpenOptions partial;
  partial.allow_partial = true;
  const TraceStore opened = store.openStore(partial);
  ASSERT_EQ(opened.quarantined().size(), 1u);
  EXPECT_NE(opened.quarantined()[0].path.find("shard-00000"),
            std::string::npos);
  EXPECT_EQ(opened.shardHeaders().size(), 3u);
  EXPECT_EQ(opened.trialCount(), 8u);  // global ids keep the gap
  // The usable shards serve exactly trials 2..7 under their recorded ids.
  EXPECT_EQ(opened.shardHeaders().front().base_trial, 2u);
  expectTrialsEqual(
      decodeStore(opened),
      std::vector<InteractionSequence>(trials.begin() + 2, trials.end()));
}

TEST(DurableStoreRecovery, OrphanTempSegmentNeverShadowsTheCommit) {
  const std::string dir = makeRecordedStore("orphan_tmp");
  // A crashed in-flight commit: a complete-looking tmp segment on disk.
  std::filesystem::copy(dir + "/seg-000001", dir + "/tmp-seg-000002",
                        std::filesystem::copy_options::recursive);
  DurableTraceStore store = DurableTraceStore::open(dir);
  ASSERT_EQ(store.removedOrphans().size(), 1u);
  EXPECT_NE(store.removedOrphans()[0].find("tmp-seg-000002"),
            std::string::npos);
  EXPECT_EQ(store.trialCount(), 3u);
  expectTrialsEqual(decodeStore(store.openStore()), sampleTrials(12, 3, 30, 77));
}

// ------------------------------------------------------ incremental import

TEST(DurableImport, FreshImportMatchesPlainImporter) {
  const auto events = grownLog();
  const std::string log = scratchDir("imp_log") + ".txt";
  writeLogPrefix(log, events, 100);
  ContactImportOptions options;
  options.trials = 5;

  const std::string plain = scratchDir("imp_plain");
  dynagraph::importContactTrace(log, plain, 1, options);

  const std::string durable = scratchDir("imp_durable");
  const auto result =
      storage::importContactTraceDurable(log, durable, 1, options);
  EXPECT_TRUE(result.created);
  EXPECT_EQ(result.appended_events, 100u);
  EXPECT_EQ(result.appended_trials, 5u);
  EXPECT_EQ(result.total_events, 100u);

  DurableTraceStore store = DurableTraceStore::open(durable);
  EXPECT_EQ(store.version().imported_events, 100u);
  EXPECT_EQ(store.nodeCount(), 9u);
  EXPECT_EQ(store.loadIdMap(),
            (std::vector<std::uint64_t>{3, 8, 15, 21, 34, 55, 100, 101, 102}));
  expectTrialsEqual(decodeStore(store.openStore()),
                    decodeStore(TraceStore::open(plain)));
}

TEST(DurableImport, GrownLogAppendsOnlyNewEvents) {
  const auto events = grownLog();
  const std::string log60 = scratchDir("grow_log60") + ".txt";
  const std::string log100 = scratchDir("grow_log100") + ".txt";
  writeLogPrefix(log60, events, 60);
  writeLogPrefix(log100, events, 100);
  const std::string dir = scratchDir("grow_store");

  ContactImportOptions base_options;
  base_options.trials = 3;  // 60 events -> 3 trials of 20
  const auto base =
      storage::importContactTraceDurable(log60, dir, 1, base_options);
  EXPECT_TRUE(base.created);
  EXPECT_EQ(base.appended_events, 60u);

  ContactImportOptions grow_options;
  grow_options.trials = 2;  // 40 new events -> 2 trials of 20
  const auto grown =
      storage::importContactTraceDurable(log100, dir, 1, grow_options);
  EXPECT_FALSE(grown.created);
  EXPECT_EQ(grown.appended_events, 40u);
  EXPECT_EQ(grown.appended_trials, 2u);
  EXPECT_EQ(grown.total_events, 100u);

  DurableTraceStore store = DurableTraceStore::open(dir);
  EXPECT_EQ(store.version().segments.size(), 2u);
  EXPECT_EQ(store.trialCount(), 5u);
  EXPECT_EQ(store.nodeCount(), 9u);

  // The acceptance bar: the grown store is bit-identical (decoded trials
  // and replayed stats) to importing the full log from scratch.
  ContactImportOptions full_options;
  full_options.trials = 5;  // the same 20-event trial boundaries
  const std::string scratch = scratchDir("grow_scratch");
  storage::importContactTraceDurable(log100, scratch, 1, full_options);
  DurableTraceStore reference = DurableTraceStore::open(scratch);
  expectTrialsEqual(decodeStore(store.openStore()),
                    decodeStore(reference.openStore()));
  expectIdentical(replayStats(store.openStore()),
                  replayStats(reference.openStore()));
  EXPECT_EQ(store.loadIdMap(), reference.loadIdMap());

  // Re-importing the already-ingested log is a no-op.
  const auto noop =
      storage::importContactTraceDurable(log100, dir, 1, grow_options);
  EXPECT_EQ(noop.appended_events, 0u);
  EXPECT_EQ(DurableTraceStore::open(dir).version().generation,
            store.version().generation);
}

TEST(DurableImport, EventHashIsPinned) {
  // A grown log is accepted only if its prefix hashes to the value the
  // store committed, so the running event hash must not change between
  // builds: a fixed 100-event log must hash to this value.
  const auto events = grownLog();
  const std::string log = scratchDir("hash_log") + ".txt";
  writeLogPrefix(log, events, 100);
  ContactImportOptions options;
  options.trials = 5;
  const std::string dir = scratchDir("hash_store");
  storage::importContactTraceDurable(log, dir, 1, options);
  EXPECT_EQ(DurableTraceStore::open(dir).version().import_event_hash,
            0xa4d5fe7228318ec2ULL);
}

TEST(DurableImport, IdMapCountThatWrapsTheSizeCheckIsRejected) {
  // count = 2^61 + 1 wraps 24 + count * 8 to 32 bytes, this file's size,
  // and the FNV-1a below matches what the wrapped arithmetic checks. The
  // count must be bounded by the bytes present before any arithmetic, so
  // the load fails cleanly instead of sizing a vector from the count.
  const auto events = grownLog();
  const std::string log = scratchDir("idmap_log") + ".txt";
  writeLogPrefix(log, events, 60);
  ContactImportOptions options;
  options.trials = 3;
  const std::string dir = scratchDir("idmap_wrap");
  storage::importContactTraceDurable(log, dir, 1, options);
  DurableTraceStore store = DurableTraceStore::open(dir);
  ASSERT_FALSE(store.version().id_map_file.empty());

  std::string bytes = "DODAIDM1";
  const std::uint64_t count = (std::uint64_t{1} << 61) + 1;
  for (int i = 0; i < 8; ++i) bytes += static_cast<char>(count >> (8 * i));
  bytes += std::string(8, '\0');  // one id
  const std::uint64_t checksum = util::fnv1a(bytes.data() + 8, 16);
  for (int i = 0; i < 8; ++i) bytes += static_cast<char>(checksum >> (8 * i));
  ASSERT_EQ(bytes.size(), 32u);
  writeWholeFile(dir + "/" + store.version().id_map_file, bytes);

  try {
    store.loadIdMap();
    ADD_FAILURE() << "a wrapping id-map count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("id-map size mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurableImport, RewrittenPrefixOrShrunkLogIsRejected) {
  auto events = grownLog();
  const std::string log60 = scratchDir("rej_log60") + ".txt";
  writeLogPrefix(log60, events, 60);
  const std::string dir = scratchDir("rej_store");
  ContactImportOptions options;
  options.trials = 3;
  storage::importContactTraceDurable(log60, dir, 1, options);

  // A log whose imported prefix changed is not an extension.
  events[10].u = 21;
  events[10].v = 55;
  const std::string edited = scratchDir("rej_edited") + ".txt";
  writeLogPrefix(edited, events, 100);
  try {
    storage::importContactTraceDurable(edited, dir, 1, options);
    FAIL() << "rewritten prefix accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an extension"),
              std::string::npos)
        << e.what();
  }

  // A log that shrank below the imported prefix is rejected too.
  const std::string shrunk = scratchDir("rej_shrunk") + ".txt";
  writeLogPrefix(shrunk, grownLog(), 40);
  EXPECT_THROW(storage::importContactTraceDurable(shrunk, dir, 1, options),
               std::runtime_error);
}

// -------------------------------------------------------- kill-point sweep

/// The observable state of a store directory after recovery: whether a
/// strict durable open succeeds and, when it does, the committed
/// generation, every decoded trial, and the persisted id map.
struct StoreContent {
  bool open_failed = false;
  std::uint64_t generation = 0;
  std::vector<InteractionSequence> trials;
  std::vector<std::uint64_t> id_map;
};

StoreContent contentOf(const std::string& dir) {
  StoreContent content;
  try {
    DurableTraceStore store = DurableTraceStore::open(dir);
    content.generation = store.version().generation;
    content.id_map = store.loadIdMap();
    if (store.trialCount() > 0) content.trials = decodeStore(store.openStore());
  } catch (const std::exception&) {
    content.open_failed = true;
  }
  return content;
}

bool sameContent(const StoreContent& a, const StoreContent& b) {
  if (a.open_failed || b.open_failed) return a.open_failed == b.open_failed;
  if (a.generation != b.generation || a.id_map != b.id_map) return false;
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    if (a.trials[i].length() != b.trials[i].length()) return false;
    for (core::Time t = 0; t < a.trials[i].length(); ++t)
      if (a.trials[i].at(t) != b.trials[i].at(t)) return false;
  }
  return true;
}

using Scenario = std::function<void(const std::string& dir, Env* env)>;

/// Crashes `scenario` at every op of its write schedule, recovers, and
/// asserts the store is one of the durable states the scenario's commit
/// chain can produce (`acceptable` = the intermediate committed states; the
/// pre state and the fault-free post state are always acceptable). Returns
/// the schedule length.
std::uint64_t killPointSweep(const std::string& tag,
                             const std::string& initial,
                             const Scenario& scenario,
                             std::vector<StoreContent> acceptable = {}) {
  const std::string base = scratchDir("kp_" + tag + "_base");
  copyTree(initial, base);
  acceptable.push_back(contentOf(base));  // the previous generation
  std::uint64_t ops = 0;
  {
    FaultyEnv env{FaultyEnvPlan{}};  // fault-free: sizes the schedule
    scenario(base, &env);
    ops = env.opCount();
  }
  acceptable.push_back(contentOf(base));  // the new generation
  EXPECT_GT(ops, 0u) << tag;

  for (std::uint64_t k = 0; k < ops; ++k) {
    const std::string work = scratchDir("kp_" + tag + "_k");
    copyTree(initial, work);
    FaultyEnvPlan plan;
    plan.crash_at_op = k;
    plan.seed = 0x5eedULL * (k + 1);
    FaultyEnv env(plan);
    bool crashed = false;
    try {
      scenario(work, &env);
    } catch (const EnvCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << tag << ": failpoint " << k << " never fired";
    env.loseUnsyncedData();
    const StoreContent state = contentOf(work);
    EXPECT_TRUE(std::any_of(
        acceptable.begin(), acceptable.end(),
        [&](const StoreContent& ok) { return sameContent(state, ok); }))
        << tag << ": failpoint " << k
        << ": recovered store is neither the previous nor the new durable "
           "generation (open_failed="
        << state.open_failed << ", generation=" << state.generation
        << ", trials=" << state.trials.size() << ")";
    std::filesystem::remove_all(work);
  }
  std::filesystem::remove_all(base);
  return ops;
}

TEST(StorageKillPoint, RecordCommitSweep) {
  const std::string initial = makeRecordedStore("kp_rec_init");
  const std::uint64_t ops = killPointSweep(
      "record", initial,
      [](const std::string& dir, Env* env) { appendSecondSegment(dir, env); });
  EXPECT_GT(ops, 5u);
}

TEST(StorageKillPoint, ImportCreateSweep) {
  const auto events = grownLog();
  const std::string log = scratchDir("kp_impc_log") + ".txt";
  writeLogPrefix(log, events, 60);
  ContactImportOptions options;
  options.trials = 3;
  // A from-scratch import commits twice (the empty store, then the
  // segment), so the empty generation-0 store is an acceptable
  // intermediate durable state.
  const std::string empty_dir = scratchDir("kp_impc_empty");
  DurableTraceStore::create(empty_dir);
  killPointSweep(
      "import_create", "",
      [&](const std::string& dir, Env* env) {
        storage::importContactTraceDurable(log, dir, 1, options, {}, env);
      },
      {contentOf(empty_dir)});
}

TEST(StorageKillPoint, ImportAppendSweep) {
  const auto events = grownLog();
  const std::string log60 = scratchDir("kp_impa_log60") + ".txt";
  const std::string log100 = scratchDir("kp_impa_log100") + ".txt";
  writeLogPrefix(log60, events, 60);
  writeLogPrefix(log100, events, 100);
  const std::string initial = scratchDir("kp_impa_init");
  ContactImportOptions base_options;
  base_options.trials = 3;
  storage::importContactTraceDurable(log60, initial, 1, base_options);
  ContactImportOptions grow_options;
  grow_options.trials = 2;
  killPointSweep("import_append", initial,
                 [&](const std::string& dir, Env* env) {
                   storage::importContactTraceDurable(log100, dir, 1,
                                                      grow_options, {}, env);
                 });
}

TEST(StorageKillPoint, CompactionSweep) {
  const std::string initial = makeRecordedStore("kp_cmp_init");
  appendSecondSegment(initial, nullptr);
  killPointSweep("compact", initial, [](const std::string& dir, Env* env) {
    DurableTraceStore store = DurableTraceStore::open(dir, {}, env);
    store.compact();
  });
}

// --------------------------------------------------------- recovery fuzz

// Randomized recovery torture: drawn transient faults (torn writes,
// ENOSPC, failed renames, dropped fsyncs) plus a random crash point. A
// dropped fsync can defeat the commit discipline by design, so the
// recovered store must be the previous generation, the new generation, or
// a *detected* corruption (open/openStore throws) — silent wrong data
// fails the test.
TEST(StorageRecoveryFuzz, DrawnFaultSchedulesNeverYieldATornStore) {
  int iters = 30;
  if (const char* env_iters = std::getenv("DODA_FUZZ_ITERS"))
    iters = std::max(1, std::atoi(env_iters));

  const std::string initial = makeRecordedStore("fuzz_init");
  const StoreContent before = contentOf(initial);
  const std::string after_dir = scratchDir("fuzz_after");
  copyTree(initial, after_dir);
  appendSecondSegment(after_dir, nullptr);
  const StoreContent after = contentOf(after_dir);

  util::Rng rng(20260809);
  for (int iter = 0; iter < iters; ++iter) {
    const std::string work = scratchDir("fuzz_work");
    copyTree(initial, work);
    FaultyEnvPlan plan = FaultyEnvPlan::draw(rng(), 64, 0.15);
    if (rng() & 1) plan.crash_at_op = rng() % 40;
    FaultyEnv env(plan);
    bool crashed = false;
    try {
      appendSecondSegment(work, &env);
    } catch (const EnvCrash&) {
      crashed = true;
    } catch (const std::runtime_error&) {
      // A transient injected fault surfaced to the caller: the commit
      // failed cleanly, no crash.
    }
    if (crashed) env.loseUnsyncedData();
    try {
      DurableTraceStore store = DurableTraceStore::open(work);
      StoreContent state;
      state.generation = store.version().generation;
      state.id_map = store.loadIdMap();
      if (store.trialCount() > 0)
        state.trials = decodeStore(store.openStore());
      EXPECT_TRUE(sameContent(state, before) || sameContent(state, after))
          << "iter " << iter << " (seed schedule " << plan.seed
          << "): recovered store is a third state (generation="
          << state.generation << ", trials=" << state.trials.size() << ")";
    } catch (const std::exception&) {
      // Detected corruption — acceptable under dropped fsyncs.
    }
    std::filesystem::remove_all(work);
  }
}

}  // namespace
}  // namespace doda
