#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "dynagraph/interaction_sequence.hpp"
#include "dynagraph/trace_rans.hpp"

namespace doda::storage {
class Env;
class WritableFile;
}  // namespace doda::storage

namespace doda::dynagraph {

// ---------------------------------------------------------------------------
// Plain-text trace format (single sequence, for interchange and the CLI
// runner):
//
// ```
// # doda-trace v1
// # nodes <n>          (optional hint; inferred from content otherwise)
// <u> <v>              one interaction per line, time = line order
// ...
// ```
//
// Lines starting with '#' are comments; blank lines are skipped. Node ids
// are decimal and below 2^32 - 1 (the declared count is at most 2^32 - 1),
// and a line's pair must be distinct.
// ---------------------------------------------------------------------------

/// Writes `sequence` to `os` in the format above.
void writeTrace(std::ostream& os, const InteractionSequence& sequence,
                std::size_t node_count = 0);

/// Writes to a file. Throws std::runtime_error if the file cannot be
/// opened.
void saveTrace(const std::string& path, const InteractionSequence& sequence,
               std::size_t node_count = 0);

/// Result of parsing a trace.
struct LoadedTrace {
  InteractionSequence sequence;
  /// Declared node count if a "# nodes" header was present, otherwise the
  /// minimal count covering every id in the file.
  std::size_t node_count = 0;
};

/// Parses a trace from `is`. Throws std::runtime_error with a line number
/// on malformed input.
LoadedTrace readTrace(std::istream& is);

/// Reads from a file. Throws std::runtime_error on open failure or
/// malformed content.
LoadedTrace loadTrace(const std::string& path);

// ---------------------------------------------------------------------------
// Binary sharded trace store (many trials, production-scale replay).
//
// A *store* is a directory of shard files, each holding a contiguous block
// of recorded trials (one trial = one interaction sequence). Shards are the
// parallelism unit of replay: the executor in sim/trace_replay hands one
// shard to one task and streams its trials without ever materializing the
// shard.
//
// Shard layout (all integers little-endian; docs/FORMATS.md has the same
// spec with its rationale):
//
//   offset size
//   0      8    magic "DODATRC1"
//   8      2    u16 format version (5; readers reject every other value)
//   10     2    u16 header size (80)
//   12     4    u32 shard index
//   16     4    u32 shard count of the store
//   20     4    u32 codec (0 = raw blocks, 3 = rANS blocks allowed)
//   24     8    u64 node count
//   32     8    u64 trial count in this shard
//   40     8    u64 base trial (global index of this shard's first trial)
//   48     8    u64 payload bytes following the header (block frames
//               included, footer excluded)
//   56     8    u64 raw payload bytes (length of the decoded record stream)
//   64     4    u32 block capacity (max raw bytes per block, 16 to
//               kTraceMaxBlockBytes = 1 MiB)
//   68     4    u32 footer size (bytes of the block index after the payload)
//   72     8    u64 checksum of header bytes [0, 72)
//
// Every checksum of a shard (header, block frames, footer) is
// util::wordChecksum (src/util/bytes.hpp): four multiply-xor lanes over
// 8-byte little-endian words, the tail of fewer than 32 bytes through
// FNV-1a.
//
// The payload is a run of independently checksummed *blocks* framing the
// record stream:
//
//   u32  raw size      decoded bytes of this block
//   u32  stored size   bytes stored on disk (== raw size when codec 0,
//                      < raw size when codec 3)
//   u8   codec         0 = raw copy of the record stream, 3 = rANS
//                      (trace_rans.hpp RansV4Block{Encoder,Decoder})
//   u64  checksum of the stored bytes
//   ...  stored bytes
//
// A writer that finds a block incompressible stores it raw (codec 0), so a
// compressed store never expands beyond framing overhead. A reader reads
// a block's frame and stored bytes in one read sized from the block's
// validated index entry, rejects a frame whose sizes differ from that
// entry before it sizes any buffer from them, and verifies the block
// checksum before decoding, making payload corruption detectable even
// when the damaged bytes would happen to decode in range.
//
// The *record stream* is a run of byte-aligned units whose control byte
// names every field width up front, so a whole unit decodes branch-free
// (one unaligned little-endian 64-bit load + mask per field, on every
// host):
//
//   trial-length unit:
//     u8   control      bits 0..1 = size code c (data bytes = 1 << c, i.e.
//                       1, 2, 4 or 8); bits 2..7 must be zero
//     .    1 << c bytes little-endian trial length L
//
//   group unit (two consecutive interactions of one trial; the last unit
//   of an odd-length trial carries one):
//     u8   control      four 2-bit fields, each (byte length - 1) of the
//                       corresponding value:
//                         bits 0..1  zigzag(a0 - prev_a)
//                         bits 2..3  b0 - a0 - 1
//                         bits 4..5  zigzag(a1 - a0)
//                         bits 6..7  b1 - a1 - 1
//                       a one-interaction group uses the low nibble only;
//                       the high nibble must be zero
//     .    the named value bytes, little-endian, in field order
//
// {a, b} is the normalized pair (a < b); prev_a is the previous
// interaction's a, reset to 0 at each trial start (within a group the
// second delta anchors on a0). A writer requires node_count <= 2^31 so
// every field fits 4 bytes and the largest unit is 1 + 4*4 = 17 bytes
// (kTraceMaxRecordUnitBytes).
//
// The writer builds each unit whole and never splits one across blocks,
// so every block boundary is describable by the record cursor — which is
// exactly what the footer stores. A reader rejects a unit that runs past
// its block's end as corrupt:
//
//   offset size
//   0      4    u32 block count K (>= 1)
//   4      56*K per block, in payload order:
//               u64 file offset of the block frame
//               u32 raw size          (== the frame's raw size)
//               u32 stored size       (== the frame's stored size)
//               u64 raw start         (record-stream bytes before the block)
//               u64 trials begun      (trials whose record started before
//                                      the block's first byte, shard-local)
//               u64 trial length      (of the trial open at the boundary)
//               u64 decoded           (its interactions already consumed)
//               u64 prev_a            (the record-layer delta anchor)
//   ...    8    u64 checksum of every preceding footer byte
//
// The index is validated at open (offsets must chain exactly through the
// payload, raw starts must sum to the header's raw payload size, trial
// cursors must be monotone) so a footer that disagrees with its payload is
// rejected before any seek, and every block decodes independently given
// its index entry. A block's frame must equal its entry: the reader
// compares the two sizes when it reads the block, so every buffer is sized
// from the validated index, never from an unchecked frame.
//
// A codec-3 block codes EVERY record byte as one symbol of its single
// table, which the writer histograms from the block it seals: phase 1
// reconstructs the whole block in one bulk 8-way rANS run (no per-symbol
// context steering, no record parsing), and phase 2 parses units from the
// contiguous buffer, where ALL structural validation lives (control-byte
// invariants, units crossing the block end, and the delta/gap range
// checks). Phase 2 reads a raw block's stored bytes the same way: both
// windows keep 8 bytes of slack past the block, so the last field of a
// unit that ends at the block's end is still one 8-byte load.
// ---------------------------------------------------------------------------

inline constexpr std::uint16_t kTraceFormatVersion = 5;
inline constexpr std::uint16_t kTraceHeaderSize = 80;
/// Default block capacity. A trial is entered by decoding the block its
/// record starts in, so a small block makes entering a trial cheap; below
/// 16 KiB a replay pass got no faster while the store kept growing
/// (docs/FORMATS.md has the measurements).
inline constexpr std::size_t kTraceBlockBytes = std::size_t{1} << 14;
/// Accepted block capacities (writer option and header field). The cap
/// bounds every block buffer and the decode scratch whatever a header
/// claims.
inline constexpr std::size_t kTraceMinBlockBytes = 16;
inline constexpr std::size_t kTraceMaxBlockBytes = std::size_t{1} << 20;
inline constexpr std::size_t kTraceBlockFrameBytes = 17;
/// Footer sizes: fixed trailer fields and one index entry.
inline constexpr std::size_t kTraceIndexEntryBytes = 56;
inline constexpr std::size_t kTraceIndexFixedBytes = 12;  // count + checksum
/// Upper bound of one unsplittable record unit (a two-interaction group
/// with 4-byte fields); a block may exceed the configured block size by at
/// most this much minus one when a single unit is larger than the whole
/// block.
inline constexpr std::size_t kTraceMaxRecordUnitBytes = 17;

/// Block codec ids (header and block frames).
inline constexpr std::uint32_t kTraceCodecRaw = 0;
inline constexpr std::uint32_t kTraceCodecRansV4 = 3;

/// One block-index entry: where the block lives in the file and the
/// record-layer cursor at its first byte (enough to resume decoding there).
struct TraceBlockIndexEntry {
  std::uint64_t offset = 0;      ///< file offset of the block frame
  std::uint32_t raw_size = 0;    ///< decoded bytes of the block
  std::uint32_t stored_size = 0; ///< bytes stored on disk
  std::uint64_t raw_start = 0;   ///< record-stream bytes before the block
  std::uint64_t trials_begun = 0;  ///< shard-local trials begun before it
  std::uint64_t trial_length = 0;  ///< length of the trial open at the cut
  std::uint64_t decoded = 0;       ///< its interactions already consumed
  std::uint64_t prev_a = 0;        ///< record-layer delta anchor
};

/// Decoded, validated shard header.
struct TraceShardHeader {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  /// kTraceCodecRaw or kTraceCodecRansV4.
  std::uint32_t codec = 0;
  /// Max raw bytes per block.
  std::uint32_t block_bytes = 0;
  /// On-disk bytes of the block-index footer after the payload.
  std::uint32_t footer_bytes = 0;
  std::uint64_t node_count = 0;
  std::uint64_t trial_count = 0;
  std::uint64_t base_trial = 0;
  /// On-disk payload bytes following the header (footer excluded).
  std::uint64_t payload_bytes = 0;
  /// Decoded record-stream bytes.
  std::uint64_t raw_payload_bytes = 0;

  /// Total shard file size implied by this header.
  std::uint64_t fileBytes() const noexcept {
    return kTraceHeaderSize + payload_bytes + footer_bytes;
  }
};

/// Canonical shard file name within a store directory ("shard-00007.trace").
std::string traceShardFileName(std::uint32_t shard_index);

/// Writer-side format knobs. Defaults produce a compressed store.
struct TraceWriterOptions {
  /// Entropy-code blocks (incompressible blocks fall back to raw storage
  /// automatically). false writes raw, checksummed blocks.
  bool compress = true;
  /// Raw bytes per block, in [kTraceMinBlockBytes, kTraceMaxBlockBytes].
  /// Smaller blocks make entering a trial cheaper (a reader decodes the
  /// whole block a trial starts in), localize corruption and reset the
  /// tables more often; larger blocks compress slightly better and keep
  /// the index smaller.
  std::size_t block_bytes = kTraceBlockBytes;
  /// Global trial id of this writer's first trial. Shard headers carry
  /// base_trial plus the shard's local offset, so a segment written behind
  /// an existing store keeps globally consistent trial ids (seekToTrial
  /// and replayShards address trials by global id).
  std::uint64_t base_trial = 0;
  /// Filesystem the writer writes through (storage::Env). Null means the
  /// real filesystem; tests thread a storage::FaultyEnv here.
  storage::Env* env = nullptr;
  /// fsync each shard before closing it — the durable store's commit
  /// discipline. Off by default: a plain recorded store keeps the
  /// historical cost profile, and its durability is the caller's problem.
  bool sync_on_close = false;
};

/// Writes a sharded binary trace store. Trials are appended in global
/// order; the writer splits them into `shard_count` contiguous blocks of
/// near-equal size (earlier shards get the remainder). finish() (or
/// destruction) seals the last shard; appendTrial after finish() throws.
class TraceStoreWriter {
 public:
  /// Creates `directory` (and parents) and opens the first shard. Throws
  /// std::invalid_argument on a degenerate shape (zero trials, zero shards,
  /// more shards than trials, node_count < 2, bad options) and
  /// std::runtime_error on I/O failure.
  TraceStoreWriter(std::string directory, std::size_t node_count,
                   std::uint64_t total_trials, std::uint32_t shard_count,
                   TraceWriterOptions options = {});
  ~TraceStoreWriter();

  TraceStoreWriter(const TraceStoreWriter&) = delete;
  TraceStoreWriter& operator=(const TraceStoreWriter&) = delete;

  const std::string& directory() const noexcept { return directory_; }
  const TraceWriterOptions& options() const noexcept { return options_; }

  /// Appends the next trial. Every interaction endpoint must be
  /// < node_count (validated before any byte is emitted, so a rejected
  /// trial leaves the shard decodable). Throws std::logic_error when more
  /// than `total_trials` trials are appended.
  void appendTrial(InteractionSequenceView trial);

  /// Streaming alternative to appendTrial for trials too large to
  /// materialize: declare the length, then feed exactly `length`
  /// interactions. Unlike appendTrial, endpoints are validated as they
  /// arrive — a throw from addInteraction leaves the trial incomplete and
  /// finish() will reject the store.
  void beginTrial(std::uint64_t length);
  void addInteraction(Interaction interaction);

  /// Seals the current shard and validates that exactly `total_trials`
  /// trials were appended (std::logic_error otherwise). Idempotent.
  void finish();

 private:
  void openShard(std::uint32_t index);
  void closeShard();
  /// Appends one whole record unit to the block, first flushing the block
  /// when the unit would overflow it and opening a block index entry when
  /// the unit starts a block.
  void putUnit(const unsigned char* unit, std::size_t size);
  /// Emits one group unit (the second interaction may be absent for the
  /// final unit of an odd-length trial) and advances the record cursor.
  void emitGroup(Interaction first, const Interaction* second);
  void flushBlock();  // seal and emit the current block
  void writeFooter();  // block index + checksum after the payload
  std::uint64_t trialsInShard(std::uint32_t index) const;

  std::string directory_;
  std::size_t node_count_;
  std::uint64_t total_trials_;
  std::uint32_t shard_count_;
  TraceWriterOptions options_;
  std::unique_ptr<storage::WritableFile> out_;
  std::vector<std::uint8_t> raw_block_;  // raw record bytes of the block
  std::vector<std::uint8_t> encoded_;    // entropy-coder output
  std::unique_ptr<codec::RansV4BlockEncoder> rans_;  // compress only
  std::vector<TraceBlockIndexEntry> index_;          // footer entries
  std::uint32_t current_shard_ = 0;
  std::uint64_t trials_appended_ = 0;
  std::uint64_t trials_in_current_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t raw_payload_bytes_ = 0;
  // Record cursor mirrored into index entries (shard-local).
  std::uint64_t cur_trials_begun_ = 0;
  std::uint64_t cur_trial_length_ = 0;
  std::uint64_t cur_decoded_ = 0;
  std::uint64_t cur_prev_a_ = 0;
  std::uint64_t pending_interactions_ = 0;  // of the open streamed trial
  // First interaction of a not-yet-emitted group unit.
  Interaction held_{0, 1};
  bool have_held_ = false;
  bool trial_open_ = false;
  bool finished_ = false;
};

/// Streams one shard file: validates the header on open (magic, version,
/// checksum, and that the file size matches the declared payload — a short
/// file fails fast as "truncated") and the block index, then decodes
/// trials sequentially. Blocks are read one at a time with buffered file
/// reads and verified against their checksums before decoding; the whole
/// shard is never resident. A shard that shrinks under a live reader
/// (rewritten in place) fails the next read cleanly as "truncated shard
/// (unexpected EOF)".
class TraceShardReader {
 public:
  /// Opens and validates `path`. Throws std::runtime_error on a missing
  /// file, corrupt header or index, or truncated payload.
  explicit TraceShardReader(std::string path);

  const TraceShardHeader& header() const noexcept { return header_; }
  const std::string& path() const noexcept { return path_; }

  /// The validated block index (at least one entry).
  const std::vector<TraceBlockIndexEntry>& blockIndex() const noexcept {
    return index_;
  }

  /// Repositions the decode cursor at the first byte of block `k`,
  /// restoring the record cursor from the index. Throws std::out_of_range
  /// past the last block.
  void seekToBlock(std::size_t k);

  /// Positions the reader so the next beginTrial() begins the trial with
  /// the given *global* index. Returns false when the trial is not in this
  /// shard. O(log blocks + one partial block decode).
  bool seekToTrial(std::uint64_t global_trial);

  /// Positions at the next trial, skipping any undecoded remainder of the
  /// current one. When the next trial's record starts in a later block
  /// than the one being decoded, the reader jumps there through the block
  /// index (as seekToTrial does) and parses only that block's share of
  /// the remainder: the blocks in between are never loaded, so their
  /// checksums are not verified either (TraceStoreOpenOptions::
  /// verify_payloads still walks every block). The remainder of the
  /// shard's last trial is always parsed in full. Returns false when every
  /// trial of the shard has been consumed. The global index of the trial
  /// just begun is header().base_trial + trialsBegun() - 1.
  bool beginTrial();

  /// Trials begun so far (== local index of the current trial + 1).
  std::uint64_t trialsBegun() const noexcept { return trials_begun_; }

  /// Interaction count of the current trial.
  std::uint64_t trialLength() const noexcept { return trial_length_; }

  /// Decodes the next interaction of the current trial; std::nullopt at
  /// trial end. Throws std::runtime_error on a truncated or corrupt
  /// payload (out-of-range endpoint, malformed control byte, block
  /// checksum mismatch, unexpected EOF).
  std::optional<Interaction> next();

  /// Decodes the next `count` interactions of the current trial and
  /// appends them to `out`. Throws std::out_of_range when fewer than
  /// `count` remain in the trial, and like next() on a truncated or corrupt
  /// payload.
  void read(std::uint64_t count, std::vector<Interaction>& out);

  /// Materializes the undecoded remainder of the current trial.
  InteractionSequence readRest();

  /// Decodes and discards the remainder of the current trial.
  void skipRest();

  /// Walks every block frame of the payload and verifies its geometry and
  /// checksum without decoding. Throws like next() does, with the byte offset
  /// and block index of the first corruption. Consumes the payload
  /// cursor — use on a throwaway reader (TraceStoreOpenOptions::
  /// verify_payloads does) and open a fresh one to decode.
  void verifyPayloadChecksums();

 private:
  /// Throws std::runtime_error naming the shard path; once the header is
  /// validated, appends the payload cursor's byte offset and the ordinal
  /// of the block being read, so a quarantine reason pinpoints the first
  /// corruption.
  [[noreturn]] void fail(const std::string& why) const;
  void parseHeader();
  void parseFooter();
  std::size_t maxBlockRawBytes() const noexcept;
  /// The block holding the start of shard-local trial `local`'s record.
  std::size_t trialStartBlock(std::uint64_t local) const;
  void readPayloadBytes(unsigned char* dst, std::size_t count);
  /// One block frame and its checksum-verified stored bytes (valid until
  /// the next payload read).
  struct Block {
    const unsigned char* stored = nullptr;
    std::uint32_t raw_size = 0;
    std::uint32_t stored_size = 0;
    std::uint8_t codec = 0;
  };
  /// Reads the next block's frame and stored bytes in one read sized from
  /// its validated index entry, and checks the frame against the entry and
  /// the stored bytes against the checksum.
  Block readBlock();
  void loadNextBlock();
  /// rANS-decodes a whole coded block payload into scratch_ in one bulk
  /// 8-way run, so the block is then served as a plain byte window. A
  /// function of its own so the compiler inlines the codec's bulk loop
  /// here; called from loadNextBlock directly, it stays out of line and
  /// compiles differently.
  void decodeBlock(const unsigned char* stored, std::size_t stored_size,
                   std::size_t raw_size);
  std::uint64_t rawLeft() const noexcept;
  /// Serves the next `count` (at most the rest) interactions of the
  /// current trial into `dst`, or range-checks and drops them when `dst`
  /// is null: the pending second interaction of a split pair first, then
  /// whole group units parsed from the window, loading blocks as the
  /// window runs out. A pair unit split by `count` leaves its second
  /// interaction pending.
  void decode(Interaction* dst, std::uint64_t count);

  std::string path_;
  std::ifstream in_;
  std::vector<unsigned char> block_buf_;  // frame + stored bytes of a block
  TraceShardHeader header_;
  std::vector<TraceBlockIndexEntry> index_;  // validated at open
  std::uint64_t payload_left_ = 0;  // payload bytes not yet read from the file
  // Decoded-byte window of the current block: block_buf_ for a raw block,
  // or scratch_ for an rANS block. Both buffers keep 8 readable bytes past
  // the block so every field is one 8-byte load.
  const unsigned char* sym_buf_ = nullptr;
  std::size_t sym_pos_ = 0;
  std::size_t sym_limit_ = 0;
  std::uint64_t raw_left_base_ = 0;  // rawLeft() when the window began
  std::unique_ptr<codec::RansV4BlockDecoder> rans_;  // lazy, rANS blocks
  std::vector<unsigned char> scratch_;  // rANS block, reconstructed
  std::uint64_t trials_begun_ = 0;
  std::uint64_t trial_length_ = 0;
  std::uint64_t decoded_ = 0;
  NodeId prev_a_ = 0;
  NodeId pend_a_ = 0;  // second interaction of a parsed group
  NodeId pend_b_ = 1;
  bool pending_ = false;
  // Diagnostics context for fail(): valid once construction completed.
  bool have_offset_ctx_ = false;
  std::uint64_t blocks_loaded_ = 0;
};

/// Options for TraceStore::open. The default is strict: any missing,
/// corrupt, truncated, or mutually inconsistent shard fails the whole
/// open (with the offending shard's path in the error). With
/// `allow_partial` such shards are quarantined instead — recorded with
/// their path and the rejection reason — and the store exposes only the
/// readable, mutually consistent shards.
struct TraceStoreOpenOptions {
  bool allow_partial = false;
  /// Additionally walk every shard's payload at open and verify each
  /// block's frame geometry and checksum (TraceShardReader::
  /// verifyPayloadChecksums). Catches mid-payload corruption that header
  /// validation alone cannot see, at the cost of reading every byte once.
  bool verify_payloads = false;
};

/// A validated handle on a sharded store directory: opens every shard
/// header once, checks cross-shard consistency (same node count and shard
/// count, shard indices and base trials contiguous), and hands
/// out per-shard readers. Copyable; holds no file descriptors.
class TraceStore {
 public:
  /// A shard excluded from a partial open: where it lives and why it was
  /// rejected.
  struct QuarantinedShard {
    std::string path;
    std::string reason;
  };

  /// Opens the store at `directory`. Throws std::runtime_error when shards
  /// are missing, corrupt, or mutually inconsistent.
  static TraceStore open(const std::string& directory);

  /// Opens the store at `directory` under `options`. With
  /// `options.allow_partial`, unreadable or inconsistent shards are
  /// quarantined (see quarantined()) rather than failing the open; if
  /// shard 0 itself is quarantined, the scan probes forward over the
  /// shard files present until a readable header names the shard count.
  /// Trial ids keep their global (recorded) numbering, so a quarantined
  /// shard leaves a gap: trialCount() is the id one past the last usable
  /// trial, and replaying the store folds trials inside the gap as failed.
  /// Still throws when no shard at all is usable.
  static TraceStore open(const std::string& directory,
                         const TraceStoreOpenOptions& options);

  /// Opens an ordered sequence of segment directories as one logical
  /// store (the durable store's manifest replay): each directory holds a
  /// complete shard run (shard-00000.trace …) whose headers carry global
  /// base trials, and the runs must be contiguous in global trial ids
  /// across segments (quarantine gaps permitting, as in open). Node count
  /// may grow from one segment to the next (an appended import can add
  /// nodes; nodeCount() reports the maximum) but never shrink; shard
  /// count is per-segment.
  static TraceStore openComposite(const std::vector<std::string>& part_dirs,
                                  const TraceStoreOpenOptions& options = {});

  const std::string& directory() const noexcept { return directory_; }
  std::size_t nodeCount() const noexcept { return node_count_; }
  std::uint64_t trialCount() const noexcept { return trial_count_; }
  std::size_t shardCount() const noexcept { return shards_.size(); }
  const std::vector<TraceShardHeader>& shardHeaders() const noexcept {
    return shards_;
  }
  /// Shards rejected by a partial open; empty for strict opens and for
  /// fully healthy stores.
  const std::vector<QuarantinedShard>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Total bytes of every shard file (headers + payloads).
  std::uint64_t totalFileBytes() const noexcept;

  /// File path of the `shard_index`-th *usable* shard (an index into
  /// shardHeaders(), like openShard's).
  std::string shardPath(std::size_t shard_index) const;
  /// Opens the `shard_index`-th *usable* shard (an index into
  /// shardHeaders(); identical to the on-disk shard index unless a
  /// partial open quarantined shards or the store is composite).
  TraceShardReader openShard(std::size_t shard_index) const;

 private:
  TraceStore() = default;

  std::string directory_;
  std::vector<TraceShardHeader> shards_;
  std::vector<std::string> shard_paths_;  // parallel to shards_
  std::vector<QuarantinedShard> quarantined_;
  std::uint64_t trial_count_ = 0;
  std::size_t node_count_ = 0;
};

}  // namespace doda::dynagraph
