#include "dynagraph/trace_io.hpp"

#include "storage/env.hpp"
#include "util/bytes.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace doda::dynagraph {

void writeTrace(std::ostream& os, const InteractionSequence& sequence,
                std::size_t node_count) {
  os << "# doda-trace v1\n";
  if (node_count == 0) node_count = sequence.minNodeCount();
  os << "# nodes " << node_count << "\n";
  for (Time t = 0; t < sequence.length(); ++t) {
    const auto& i = sequence.at(t);
    os << i.a() << ' ' << i.b() << '\n';
  }
}

void saveTrace(const std::string& path, const InteractionSequence& sequence,
               std::size_t node_count) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("saveTrace: cannot open " + path);
  writeTrace(out, sequence, node_count);
}

LoadedTrace readTrace(std::istream& is) {
  // Ids stay below NodeId's maximum, so every id and the count covering
  // them fit NodeId without wrapping.
  constexpr long long kMaxNodes = std::numeric_limits<NodeId>::max();
  LoadedTrace result;
  std::size_t declared_nodes = 0;
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& why) {
    throw std::runtime_error("readTrace: line " + std::to_string(line_no) +
                             ": " + why);
  };
  while (std::getline(is, line)) {
    ++line_no;
    // Trim trailing CR for Windows-authored files.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string keyword;
      if (header >> keyword && keyword == "nodes") {
        long long count = 0;
        if (!(header >> count) || count < 0)
          fail("malformed '# nodes' header");
        if (count > kMaxNodes)
          fail("'# nodes' count exceeds the supported id range");
        declared_nodes = static_cast<std::size_t>(count);
      }
      continue;
    }
    std::istringstream cells(line);
    long long u = -1, v = -1;
    if (!(cells >> u >> v)) fail("expected two node ids");
    std::string extra;
    if (cells >> extra) fail("trailing content: '" + extra + "'");
    if (u < 0 || v < 0) fail("negative node id");
    if (u >= kMaxNodes || v >= kMaxNodes)
      fail("node id exceeds the supported id range");
    if (u == v) fail("self-interaction");
    result.sequence.append(Interaction(static_cast<NodeId>(u),
                                       static_cast<NodeId>(v)));
  }
  const std::size_t min_nodes = result.sequence.minNodeCount();
  if (declared_nodes != 0 && declared_nodes < min_nodes)
    throw std::runtime_error(
        "readTrace: '# nodes' header smaller than ids used");
  result.node_count = declared_nodes != 0 ? declared_nodes : min_nodes;
  return result;
}

LoadedTrace loadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("loadTrace: cannot open " + path);
  return readTrace(in);
}

// ------------------------------------------------------------ binary store

namespace {

constexpr char kTraceMagic[8] = {'D', 'O', 'D', 'A', 'T', 'R', 'C', '1'};

using util::loadU16;
using util::loadU32;
using util::loadU64;
using util::storeU16;
using util::storeU32;
using util::storeU64;
using util::wordChecksum;

/// Serializes a header (the returned vector is the exact on-disk size).
std::vector<unsigned char> encodeHeader(const TraceShardHeader& header) {
  std::vector<unsigned char> bytes(kTraceHeaderSize, 0);
  for (int i = 0; i < 8; ++i)
    bytes[static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(kTraceMagic[i]);
  storeU16(&bytes[8], kTraceFormatVersion);
  storeU16(&bytes[10], kTraceHeaderSize);
  storeU32(&bytes[12], header.shard_index);
  storeU32(&bytes[16], header.shard_count);
  storeU32(&bytes[20], header.codec);
  storeU64(&bytes[24], header.node_count);
  storeU64(&bytes[32], header.trial_count);
  storeU64(&bytes[40], header.base_trial);
  storeU64(&bytes[48], header.payload_bytes);
  storeU64(&bytes[56], header.raw_payload_bytes);
  storeU32(&bytes[64], header.block_bytes);
  storeU32(&bytes[68], header.footer_bytes);
  storeU64(&bytes[72], wordChecksum(bytes.data(), 72));
  return bytes;
}

std::uint64_t zigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t zigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// Little-endian byte length of a group field (the writer guarantees
/// values < 2^32 via the node-count bound).
std::size_t fieldLen(std::uint64_t value) {
  return value < (1u << 8) ? 1 : value < (1u << 16) ? 2
         : value < (std::uint64_t{1} << 24) ? 3 : 4;
}

/// Readable bytes past the end of a decoded block window. Every record
/// field is read with one 8-byte load, and a unit is parsed only once it
/// is known to end inside the window, so no load ends more than 7 bytes
/// past the window.
constexpr std::size_t kWindowSlack = 8;

/// The `len` (1 to 8) low bytes of the little-endian word at `p`: one
/// record field.
std::uint64_t loadField(const unsigned char* p, std::size_t len) {
  return loadU64(p) & (~std::uint64_t{0} >> (64 - 8 * len));
}

/// Size code of a trial-length unit (data bytes = 1 << code).
unsigned lengthCode(std::uint64_t length) {
  return length < (std::uint64_t{1} << 8)    ? 0u
         : length < (std::uint64_t{1} << 16) ? 1u
         : length < (std::uint64_t{1} << 32) ? 2u
                                             : 3u;
}

}  // namespace

std::string traceShardFileName(std::uint32_t shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%05u.trace", shard_index);
  return name;
}

// ---------------------------------------------------------------- writer

TraceStoreWriter::TraceStoreWriter(std::string directory,
                                   std::size_t node_count,
                                   std::uint64_t total_trials,
                                   std::uint32_t shard_count,
                                   TraceWriterOptions options)
    : directory_(std::move(directory)),
      node_count_(node_count),
      total_trials_(total_trials),
      shard_count_(shard_count),
      options_(options) {
  if (node_count_ < 2)
    throw std::invalid_argument("TraceStoreWriter: need at least 2 nodes");
  if (total_trials_ == 0)
    throw std::invalid_argument("TraceStoreWriter: zero trials");
  if (shard_count_ == 0 || shard_count_ > total_trials_)
    throw std::invalid_argument(
        "TraceStoreWriter: shard count must be in [1, total_trials]");
  if (node_count_ > (std::uint64_t{1} << 31))
    throw std::invalid_argument(
        "TraceStoreWriter: node_count must be <= 2^31 (group fields are at "
        "most 4 bytes)");
  if (options_.block_bytes < kTraceMinBlockBytes ||
      options_.block_bytes > kTraceMaxBlockBytes)
    throw std::invalid_argument("TraceStoreWriter: block size out of range");
  if (options_.compress) rans_ = std::make_unique<codec::RansV4BlockEncoder>();
  storage::resolveEnv(options_.env).mkdirs(directory_);
  raw_block_.reserve(options_.block_bytes);
  openShard(0);
}

TraceStoreWriter::~TraceStoreWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an incomplete store is detectable by
    // TraceStore::open (trial-count / size mismatch).
  }
}

std::uint64_t TraceStoreWriter::trialsInShard(std::uint32_t index) const {
  // Contiguous near-equal split; the first (total % shards) shards take one
  // extra trial.
  const std::uint64_t base = total_trials_ / shard_count_;
  return base + (index < total_trials_ % shard_count_ ? 1 : 0);
}

void TraceStoreWriter::openShard(std::uint32_t index) {
  const auto path =
      (std::filesystem::path(directory_) / traceShardFileName(index))
          .string();
  out_ = storage::resolveEnv(options_.env).newWritableFile(path);
  current_shard_ = index;
  trials_in_current_ = 0;
  payload_bytes_ = 0;
  raw_payload_bytes_ = 0;
  raw_block_.clear();
  index_.clear();
  cur_trials_begun_ = 0;
  cur_trial_length_ = 0;
  cur_decoded_ = 0;
  cur_prev_a_ = 0;
  have_held_ = false;
  // Placeholder header; sealed with the real payload size in closeShard().
  TraceShardHeader header;
  header.shard_index = index;
  header.shard_count = shard_count_;
  header.node_count = node_count_;
  header.trial_count = trialsInShard(index);
  header.base_trial = options_.base_trial + trials_appended_;
  const auto bytes = encodeHeader(header);
  out_->append(bytes.data(), bytes.size());
}

void TraceStoreWriter::closeShard() {
  flushBlock();
  writeFooter();
  TraceShardHeader header;
  header.shard_index = current_shard_;
  header.shard_count = shard_count_;
  header.codec = options_.compress ? kTraceCodecRansV4 : kTraceCodecRaw;
  header.block_bytes = static_cast<std::uint32_t>(options_.block_bytes);
  header.footer_bytes = static_cast<std::uint32_t>(
      kTraceIndexFixedBytes + index_.size() * kTraceIndexEntryBytes);
  header.node_count = node_count_;
  header.trial_count = trials_in_current_;
  header.base_trial = options_.base_trial + trials_appended_ - trials_in_current_;
  header.payload_bytes = payload_bytes_;
  header.raw_payload_bytes = raw_payload_bytes_;
  const auto bytes = encodeHeader(header);
  out_->writeAt(0, bytes.data(), bytes.size());
  if (options_.sync_on_close) out_->sync();
  out_->close();
  out_.reset();
}

void TraceStoreWriter::putUnit(const unsigned char* unit, std::size_t size) {
  // Units never split across blocks: one that would overflow the block
  // starts the next, so every block begins at a record-unit boundary,
  // where the record cursor fully describes the position.
  if (!raw_block_.empty() && raw_block_.size() + size > options_.block_bytes)
    flushBlock();
  if (raw_block_.empty()) {
    TraceBlockIndexEntry entry;
    entry.offset = kTraceHeaderSize + payload_bytes_;
    entry.raw_start = raw_payload_bytes_;
    entry.trials_begun = cur_trials_begun_;
    entry.trial_length = cur_trial_length_;
    entry.decoded = cur_decoded_;
    entry.prev_a = cur_prev_a_;
    index_.push_back(entry);
  }
  raw_block_.insert(raw_block_.end(), unit, unit + size);
}

void TraceStoreWriter::emitGroup(Interaction first, const Interaction* second) {
  // Each field is stored as a whole little-endian word at its offset; the
  // next field overwrites the bytes past its length, and the 8 spare bytes
  // take the last word's tail.
  unsigned char unit[kTraceMaxRecordUnitBytes + 8];
  std::size_t size = 1;
  unsigned ctrl = 0;
  auto putField = [&](std::uint64_t value, unsigned field) {
    const std::size_t len = fieldLen(value);
    storeU64(unit + size, value);
    size += len;
    ctrl |= static_cast<unsigned>(len - 1) << (2 * field);
  };
  putField(zigzagEncode(static_cast<std::int64_t>(first.a()) -
                        static_cast<std::int64_t>(cur_prev_a_)),
           0);
  putField(first.b() - first.a() - 1, 1);
  if (second != nullptr) {
    putField(zigzagEncode(static_cast<std::int64_t>(second->a()) -
                          static_cast<std::int64_t>(first.a())),
             2);
    putField(second->b() - second->a() - 1, 3);
  }
  unit[0] = static_cast<unsigned char>(ctrl);
  putUnit(unit, size);
  cur_prev_a_ = second != nullptr ? second->a() : first.a();
  cur_decoded_ += second != nullptr ? 2 : 1;
}

void TraceStoreWriter::flushBlock() {
  if (raw_block_.empty()) return;
  const std::uint8_t* stored = raw_block_.data();
  std::size_t stored_size = raw_block_.size();
  std::uint8_t block_codec = static_cast<std::uint8_t>(kTraceCodecRaw);
  if (rans_) {
    rans_->seal(raw_block_.data(), raw_block_.size(), encoded_);
    // Raw fallback: an incompressible block is stored verbatim, so a
    // compressed store never expands beyond the per-block framing.
    if (encoded_.size() < raw_block_.size()) {
      stored = encoded_.data();
      stored_size = encoded_.size();
      block_codec = static_cast<std::uint8_t>(kTraceCodecRansV4);
    }
  }
  unsigned char frame[kTraceBlockFrameBytes];
  storeU32(frame, static_cast<std::uint32_t>(raw_block_.size()));
  storeU32(frame + 4, static_cast<std::uint32_t>(stored_size));
  frame[8] = block_codec;
  storeU64(frame + 9, wordChecksum(stored, stored_size));
  out_->append(frame, sizeof(frame));
  out_->append(stored, stored_size);
  index_.back().raw_size = static_cast<std::uint32_t>(raw_block_.size());
  index_.back().stored_size = static_cast<std::uint32_t>(stored_size);
  payload_bytes_ += kTraceBlockFrameBytes + stored_size;
  raw_payload_bytes_ += raw_block_.size();
  raw_block_.clear();
}

void TraceStoreWriter::writeFooter() {
  std::vector<unsigned char> footer(kTraceIndexFixedBytes +
                                    index_.size() * kTraceIndexEntryBytes);
  storeU32(footer.data(), static_cast<std::uint32_t>(index_.size()));
  std::size_t at = 4;
  for (const TraceBlockIndexEntry& entry : index_) {
    storeU64(&footer[at], entry.offset);
    storeU32(&footer[at + 8], entry.raw_size);
    storeU32(&footer[at + 12], entry.stored_size);
    storeU64(&footer[at + 16], entry.raw_start);
    storeU64(&footer[at + 24], entry.trials_begun);
    storeU64(&footer[at + 32], entry.trial_length);
    storeU64(&footer[at + 40], entry.decoded);
    storeU64(&footer[at + 48], entry.prev_a);
    at += kTraceIndexEntryBytes;
  }
  storeU64(&footer[at], wordChecksum(footer.data(), at));
  out_->append(footer.data(), footer.size());
}

void TraceStoreWriter::beginTrial(std::uint64_t length) {
  if (finished_)
    throw std::logic_error("TraceStoreWriter: beginTrial after finish");
  if (trial_open_)
    throw std::logic_error(
        "TraceStoreWriter: beginTrial with a trial still open");
  if (trials_appended_ == total_trials_)
    throw std::logic_error("TraceStoreWriter: more trials than declared");
  if (trials_in_current_ == trialsInShard(current_shard_)) {
    closeShard();
    openShard(current_shard_ + 1);
  }
  const unsigned code = lengthCode(length);
  unsigned char unit[1 + 8];
  unit[0] = static_cast<unsigned char>(code);
  storeU64(unit + 1, length);
  putUnit(unit, 1 + (std::size_t{1} << code));
  ++cur_trials_begun_;
  cur_trial_length_ = length;
  cur_decoded_ = 0;
  cur_prev_a_ = 0;
  pending_interactions_ = length;
  trial_open_ = true;
  if (length == 0) {
    trial_open_ = false;
    ++trials_appended_;
    ++trials_in_current_;
  }
}

void TraceStoreWriter::addInteraction(Interaction interaction) {
  if (!trial_open_)
    throw std::logic_error(
        "TraceStoreWriter: addInteraction without an open trial");
  if (interaction.b() >= node_count_)
    throw std::invalid_argument(
        "TraceStoreWriter: interaction endpoint >= node_count");
  // Interactions pair up into group units; the writer holds at most one
  // interaction back, flushed as a single-interaction group when the trial
  // ends on an odd count.
  --pending_interactions_;
  if (!have_held_ && pending_interactions_ > 0) {
    held_ = interaction;
    have_held_ = true;
    return;
  }
  if (have_held_) {
    emitGroup(held_, &interaction);
    have_held_ = false;
  } else {
    emitGroup(interaction, nullptr);
  }
  if (pending_interactions_ == 0) {
    trial_open_ = false;
    ++trials_appended_;
    ++trials_in_current_;
  }
}

void TraceStoreWriter::appendTrial(InteractionSequenceView trial) {
  // Validate before emitting a single byte: a rejected trial must not
  // leave a partial record in the payload (the caller may catch and
  // continue, and the shard must stay decodable).
  for (const Interaction& i : trial)
    if (i.b() >= node_count_)
      throw std::invalid_argument(
          "TraceStoreWriter: interaction endpoint >= node_count");
  beginTrial(trial.length());
  for (const Interaction& i : trial) addInteraction(i);
}

void TraceStoreWriter::finish() {
  if (finished_) return;
  if (trials_appended_ != total_trials_)
    throw std::logic_error("TraceStoreWriter: appended " +
                           std::to_string(trials_appended_) + " of " +
                           std::to_string(total_trials_) +
                           " declared trials");
  closeShard();
  finished_ = true;
}

// ---------------------------------------------------------------- reader

TraceShardReader::TraceShardReader(std::string path) : path_(std::move(path)) {
  // Stat first so a missing or zero-length file fails before any read, and
  // so the size check below needs no seek to the end.
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path_, ec);
  if (ec) {
    if (!std::filesystem::exists(path_)) fail("cannot open");
    fail("cannot stat: " + ec.message());
  }
  if (file_size < kTraceHeaderSize) fail("truncated header");
  in_.open(path_, std::ios::binary);
  if (!in_) fail("cannot open");

  parseHeader();

  const std::uint64_t expected = header_.fileBytes();
  if (file_size < expected)
    fail("truncated shard (payload shorter than header declares)");
  if (file_size > expected) fail("trailing bytes after declared payload");

  // The payload cursor never runs into the footer.
  payload_left_ = header_.payload_bytes;
  raw_left_base_ = header_.raw_payload_bytes;
  parseFooter();
  have_offset_ctx_ = true;
}

void TraceShardReader::fail(const std::string& why) const {
  std::string where;
  if (have_offset_ctx_) {
    // The payload cursor sits just past the bytes consumed so far, which
    // is where the first corruption was detected.
    where = " (at byte " +
            std::to_string(kTraceHeaderSize + header_.payload_bytes -
                           payload_left_);
    if (blocks_loaded_ > 0)
      where += ", block " + std::to_string(blocks_loaded_ - 1);
    where += ")";
  }
  throw std::runtime_error("TraceShardReader: " + path_ + ": " + why + where);
}

void TraceShardReader::parseHeader() {
  std::array<unsigned char, kTraceHeaderSize> bytes{};
  in_.read(reinterpret_cast<char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (in_.gcount() != static_cast<std::streamsize>(bytes.size()))
    fail("truncated header");
  for (int i = 0; i < 8; ++i)
    if (bytes[static_cast<std::size_t>(i)] !=
        static_cast<unsigned char>(kTraceMagic[i]))
      fail("bad magic (not a doda binary trace shard)");
  const std::uint16_t version = loadU16(&bytes[8]);
  if (version != kTraceFormatVersion)
    fail("unsupported format version " + std::to_string(version));
  if (loadU16(&bytes[10]) != kTraceHeaderSize) fail("unexpected header size");
  if (loadU64(&bytes[72]) != wordChecksum(bytes.data(), 72))
    fail("header checksum mismatch (corrupt header)");

  header_.shard_index = loadU32(&bytes[12]);
  header_.shard_count = loadU32(&bytes[16]);
  header_.codec = loadU32(&bytes[20]);
  header_.node_count = loadU64(&bytes[24]);
  header_.trial_count = loadU64(&bytes[32]);
  header_.base_trial = loadU64(&bytes[40]);
  header_.payload_bytes = loadU64(&bytes[48]);
  header_.raw_payload_bytes = loadU64(&bytes[56]);
  header_.block_bytes = loadU32(&bytes[64]);
  header_.footer_bytes = loadU32(&bytes[68]);
  if (header_.codec != kTraceCodecRaw && header_.codec != kTraceCodecRansV4)
    fail("unsupported payload codec " + std::to_string(header_.codec));
  if (header_.footer_bytes < kTraceIndexFixedBytes + kTraceIndexEntryBytes ||
      (header_.footer_bytes - kTraceIndexFixedBytes) %
              kTraceIndexEntryBytes !=
          0)
    fail("footer size malformed (corrupt block index)");
  if (header_.block_bytes < kTraceMinBlockBytes ||
      header_.block_bytes > kTraceMaxBlockBytes)
    fail("header block size out of range");
  if (header_.raw_payload_bytes > 0 && header_.payload_bytes == 0)
    fail("header payload sizes inconsistent");
  if (header_.node_count < 2) fail("header declares fewer than 2 nodes");
  if (header_.node_count > std::numeric_limits<NodeId>::max())
    fail("header node count exceeds the supported id range");
  if (header_.node_count > (std::uint64_t{1} << 31))
    fail("header node count exceeds the record-layout bound");
  if (header_.shard_count == 0 || header_.shard_index >= header_.shard_count)
    fail("header shard index/count inconsistent");
}

void TraceShardReader::parseFooter() {
  const std::size_t footer_size = header_.footer_bytes;
  const std::uint64_t footer_at = kTraceHeaderSize + header_.payload_bytes;
  std::vector<unsigned char> buf(footer_size);
  in_.seekg(static_cast<std::streamoff>(footer_at));
  in_.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(footer_size));
  if (in_.gcount() != static_cast<std::streamsize>(footer_size))
    fail("truncated block index (corrupt block index)");
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(kTraceHeaderSize));
  if (!in_) fail("cannot reposition after the block index");
  const unsigned char* footer = buf.data();

  if (loadU64(footer + footer_size - 8) !=
      wordChecksum(footer, footer_size - 8))
    fail("block index checksum mismatch (corrupt block index)");
  const std::uint32_t count = loadU32(footer);
  if (count == 0 ||
      footer_size !=
          kTraceIndexFixedBytes + std::size_t{count} * kTraceIndexEntryBytes)
    fail("block index count disagrees with footer size (corrupt block index)");

  // The index must describe the payload *exactly*: offsets chain through
  // every frame, raw starts accumulate to the header's raw size, and the
  // record cursors are monotone. Anything else means index and payload
  // disagree — reject before any seek trusts it.
  index_.clear();
  index_.reserve(count);
  std::uint64_t expect_offset = kTraceHeaderSize;
  std::uint64_t expect_raw = 0;
  std::uint64_t prev_trials = 0;
  std::size_t at = 4;
  for (std::uint32_t k = 0; k < count; ++k, at += kTraceIndexEntryBytes) {
    TraceBlockIndexEntry entry;
    entry.offset = loadU64(footer + at);
    entry.raw_size = loadU32(footer + at + 8);
    entry.stored_size = loadU32(footer + at + 12);
    entry.raw_start = loadU64(footer + at + 16);
    entry.trials_begun = loadU64(footer + at + 24);
    entry.trial_length = loadU64(footer + at + 32);
    entry.decoded = loadU64(footer + at + 40);
    entry.prev_a = loadU64(footer + at + 48);
    if (entry.offset != expect_offset || entry.raw_start != expect_raw)
      fail("block index disagrees with payload layout (corrupt block index)");
    if (entry.raw_size == 0 || entry.raw_size > maxBlockRawBytes() ||
        entry.stored_size > entry.raw_size)
      fail("block index sizes out of range (corrupt block index)");
    if (entry.trials_begun < prev_trials ||
        entry.trials_begun > header_.trial_count ||
        entry.decoded > entry.trial_length ||
        entry.prev_a >= header_.node_count)
      fail("block index cursor out of range (corrupt block index)");
    // Entry 0 starts the payload, where the record cursor is the origin —
    // seekToTrial relies on it (entry 0 is <= every local trial id).
    if (k == 0 && (entry.trials_begun != 0 || entry.trial_length != 0 ||
                   entry.decoded != 0 || entry.prev_a != 0))
      fail("block index cursor out of range (corrupt block index)");
    expect_offset += kTraceBlockFrameBytes + entry.stored_size;
    expect_raw += entry.raw_size;
    prev_trials = entry.trials_begun;
    index_.push_back(entry);
  }
  if (expect_offset != footer_at || expect_raw != header_.raw_payload_bytes)
    fail("block index does not cover the payload (corrupt block index)");
}

std::size_t TraceShardReader::maxBlockRawBytes() const noexcept {
  // Blocks align to record units, so a block may exceed the configured
  // size when one unit alone is larger than the whole block.
  return std::max<std::size_t>(header_.block_bytes, kTraceMaxRecordUnitBytes);
}

void TraceShardReader::seekToBlock(std::size_t k) {
  if (k >= index_.size())
    throw std::out_of_range("TraceShardReader::seekToBlock: block " +
                            std::to_string(k) + " of " +
                            std::to_string(index_.size()));
  const TraceBlockIndexEntry& entry = index_[k];
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(entry.offset));
  if (!in_) fail("seek failed");
  payload_left_ = header_.payload_bytes - (entry.offset - kTraceHeaderSize);
  sym_buf_ = nullptr;
  sym_pos_ = 0;
  sym_limit_ = 0;
  pending_ = false;
  raw_left_base_ = header_.raw_payload_bytes - entry.raw_start;
  trials_begun_ = entry.trials_begun;
  trial_length_ = entry.trial_length;
  decoded_ = entry.decoded;
  prev_a_ = static_cast<NodeId>(entry.prev_a);
  blocks_loaded_ = k;  // the next loadNextBlock reads block k
}

std::size_t TraceShardReader::trialStartBlock(std::uint64_t local) const {
  // Last block whose cursor is at or before the trial's record start
  // (entries are monotone in trials_begun; entry 0 is always <= local).
  const auto it = std::upper_bound(
      index_.begin(), index_.end(), local,
      [](std::uint64_t value, const TraceBlockIndexEntry& entry) {
        return value < entry.trials_begun;
      });
  return static_cast<std::size_t>(it - index_.begin()) - 1;
}

bool TraceShardReader::seekToTrial(std::uint64_t global_trial) {
  if (global_trial < header_.base_trial ||
      global_trial >= header_.base_trial + header_.trial_count)
    return false;
  const std::uint64_t local = global_trial - header_.base_trial;
  seekToBlock(trialStartBlock(local));
  // Decode forward across at most the partial trial in front of the
  // target.
  while (trials_begun_ < local)
    if (!beginTrial()) return false;
  return true;
}

void TraceShardReader::readPayloadBytes(unsigned char* dst,
                                        std::size_t count) {
  if (payload_left_ < count) fail("truncated shard (unexpected EOF)");
  in_.read(reinterpret_cast<char*>(dst),
           static_cast<std::streamsize>(count));
  if (in_.gcount() != static_cast<std::streamsize>(count))
    fail("truncated shard (unexpected EOF)");
  payload_left_ -= count;
}

TraceShardReader::Block TraceShardReader::readBlock() {
  // The payload cursor is always at a block frame: the open, seekToBlock
  // and every earlier readBlock leave it there, and blocks_loaded_ names
  // that block. Its index entry, validated at open against the header's
  // block cap and the file's size, sizes the one read of frame and stored
  // bytes.
  if (blocks_loaded_ >= index_.size())
    fail("truncated shard (payload exhausted)");
  const TraceBlockIndexEntry& entry = index_[blocks_loaded_++];
  const std::size_t size = kTraceBlockFrameBytes + entry.stored_size;
  if (block_buf_.size() < size + kWindowSlack)
    block_buf_.resize(size + kWindowSlack);
  readPayloadBytes(block_buf_.data(), size);
  const unsigned char* frame = block_buf_.data();
  Block block;
  block.raw_size = loadU32(frame);
  block.stored_size = loadU32(frame + 4);
  block.codec = frame[8];
  if (block.raw_size != entry.raw_size ||
      block.stored_size != entry.stored_size)
    fail("block frame disagrees with its index entry (corrupt block)");
  if (block.codec == kTraceCodecRaw) {
    if (block.stored_size != block.raw_size)
      fail("raw block sizes disagree (corrupt block)");
  } else if (block.codec == kTraceCodecRansV4) {
    if (header_.codec != block.codec)
      fail("block codec disagrees with the shard codec (corrupt block)");
    if (block.stored_size >= block.raw_size)
      fail("compressed block larger than raw (corrupt block)");
  } else {
    fail("unknown block codec (corrupt block)");
  }
  block.stored = frame + kTraceBlockFrameBytes;
  if (wordChecksum(block.stored, block.stored_size) != loadU64(frame + 9))
    fail("block checksum mismatch (corrupt block)");
  return block;
}

void TraceShardReader::loadNextBlock() {
  raw_left_base_ = rawLeft();
  sym_buf_ = nullptr;
  sym_pos_ = 0;
  sym_limit_ = 0;
  const Block block = readBlock();
  if (block.codec == kTraceCodecRaw) {
    sym_buf_ = block.stored;
  } else {
    // Phase 1 of decode: reconstruct the whole block's raw bytes in one
    // bulk 8-way rANS run, then serve them as a plain byte window, which
    // the unit parser (phase 2) reads like a raw block's.
    decodeBlock(block.stored, block.stored_size, block.raw_size);
    sym_buf_ = scratch_.data();
  }
  sym_limit_ = block.raw_size;
}

void TraceShardReader::decodeBlock(const unsigned char* stored,
                                   std::size_t stored_size,
                                   std::size_t raw_size) {
  // All structural validation (control-byte invariants, units crossing
  // the block end) happens in phase 2, which parses the scratch bytes.
  scratch_.resize(raw_size + kWindowSlack);
  if (!rans_) rans_ = std::make_unique<codec::RansV4BlockDecoder>();
  if (!rans_->decode(stored, stored_size, scratch_.data(), raw_size))
    fail("malformed rANS block payload (corrupt block)");
}

void TraceShardReader::verifyPayloadChecksums() {
  // The validated index covers the payload exactly, and every frame must
  // equal its entry, so the blocks' raw sizes sum to the header's.
  while (payload_left_ > 0) readBlock();
}

std::uint64_t TraceShardReader::rawLeft() const noexcept {
  // Record-stream bytes not yet served: the remainder when the current
  // block's window was installed, minus what the window has served since.
  return raw_left_base_ - sym_pos_;
}

bool TraceShardReader::beginTrial() {
  if (decoded_ < trial_length_) {
    // The current trial was not read to its end. When the next trial's
    // record starts in a later block than the current window, jump to
    // that block through the index: the blocks in between are never
    // loaded, and only the jumped-to block's share of this trial is
    // parsed. The shard's last trial is parsed to its end instead, so the
    // trailing-bytes check below still covers the whole record stream.
    if (trials_begun_ < header_.trial_count) {
      const std::size_t k = trialStartBlock(trials_begun_);
      if (k >= blocks_loaded_) {
        const TraceBlockIndexEntry& entry = index_[k];
        if (entry.trials_begun != trials_begun_ ||
            entry.trial_length != trial_length_ || entry.decoded < decoded_)
          fail("block index disagrees with the record stream (corrupt "
               "block index)");
        seekToBlock(k);
      }
    }
    skipRest();
  }
  if (trials_begun_ == header_.trial_count) {
    // The record stream is accounted exactly: a well-formed shard has no
    // undecoded remainder once every trial is consumed.
    if (rawLeft() != 0 || payload_left_ != 0)
      fail("trailing bytes after the last trial (corrupt shard)");
    return false;
  }
  if (sym_pos_ == sym_limit_) loadNextBlock();
  const unsigned char* unit = sym_buf_ + sym_pos_;
  if ((unit[0] & ~0x03u) != 0)
    fail("length control byte malformed (corrupt payload)");
  const std::size_t bytes = std::size_t{1} << unit[0];
  if (bytes >= sym_limit_ - sym_pos_)
    fail("record unit crosses the block end (corrupt payload)");
  trial_length_ = loadField(unit + 1, bytes);
  sym_pos_ += 1 + bytes;
  // Every interaction occupies at least two record-stream bytes (a group
  // unit carries at most two interactions in at least five bytes), so a
  // declared length beyond half the remaining stream is corrupt — reject
  // it here rather than letting read() size a huge vector.
  if (trial_length_ > rawLeft() / 2)
    fail("trial length exceeds remaining payload (corrupt payload)");
  decoded_ = 0;
  prev_a_ = 0;
  pending_ = false;
  ++trials_begun_;
  return true;
}

void TraceShardReader::decode(Interaction* dst, std::uint64_t count) {
  const auto n = static_cast<std::int64_t>(header_.node_count);
  const std::uint64_t un = header_.node_count;
  // Parses the group unit at `p`, `room` bytes before the window's end,
  // whose first delta anchors on `prev`: its first interaction goes to
  // out[0] and, for a pair, its second to out[1]. Returns the unit's size
  // and the last decoded a. The control byte names every field width, so
  // the size is checked against the window before any field is loaded.
  // Range checks guard every decoded quantity before it is used in
  // arithmetic (no signed overflow, no unsigned wrap): raw blocks carry
  // only a checksum, so the parser defends in depth.
  const auto parse = [this, n, un](const unsigned char* p, std::size_t room,
                                   std::int64_t prev, bool pair,
                                   Interaction* out) {
    const unsigned ctrl = p[0];
    const std::size_t l0 = 1 + (ctrl & 3);
    const std::size_t g0 = 1 + ((ctrl >> 2) & 3);
    const std::size_t l1 = 1 + ((ctrl >> 4) & 3);
    const std::size_t g1 = 1 + (ctrl >> 6);
    std::size_t size = 1 + l0 + g0;
    if (pair)
      size += l1 + g1;
    else if ((ctrl & 0xf0u) != 0)
      fail("group control byte malformed (corrupt payload)");
    if (size > room)
      fail("record unit crosses the block end (corrupt payload)");
    const std::int64_t d0 = zigzagDecode(loadField(p + 1, l0));
    if (d0 < -prev || d0 >= n - prev)
      fail("decoded endpoint out of range (corrupt payload)");
    const std::int64_t a0 = prev + d0;
    const std::uint64_t gap0 = loadField(p + 1 + l0, g0);
    if (gap0 >= un - static_cast<std::uint64_t>(a0) - 1)
      fail("decoded endpoint out of range (corrupt payload)");
    out[0] = Interaction::presorted(
        static_cast<NodeId>(a0),
        static_cast<NodeId>(static_cast<std::uint64_t>(a0) + 1 + gap0));
    if (!pair) return std::pair{size, a0};
    const std::int64_t d1 = zigzagDecode(loadField(p + 1 + l0 + g0, l1));
    if (d1 < -a0 || d1 >= n - a0)
      fail("decoded endpoint out of range (corrupt payload)");
    const std::int64_t a1 = a0 + d1;
    const std::uint64_t gap1 = loadField(p + 1 + l0 + g0 + l1, g1);
    if (gap1 >= un - static_cast<std::uint64_t>(a1) - 1)
      fail("decoded endpoint out of range (corrupt payload)");
    out[1] = Interaction::presorted(
        static_cast<NodeId>(a1),
        static_cast<NodeId>(static_cast<std::uint64_t>(a1) + 1 + gap1));
    return std::pair{size, a1};
  };

  std::uint64_t k = 0;
  if (pending_ && count > 0) {
    pending_ = false;
    if (dst != nullptr) dst[0] = Interaction::presorted(pend_a_, pend_b_);
    k = 1;
  }
  std::int64_t prev = prev_a_;
  Interaction parsed[2] = {Interaction(0, 1), Interaction(0, 1)};
  while (k < count) {
    if (sym_pos_ == sym_limit_) loadNextBlock();
    const unsigned char* const buf = sym_buf_;
    const std::size_t limit = sym_limit_;
    std::size_t pos = sym_pos_;
    while (count - k >= 2 && pos < limit) {
      const auto [size, last_a] = parse(buf + pos, limit - pos, prev, true,
                                        dst != nullptr ? dst + k : parsed);
      pos += size;
      prev = last_a;
      k += 2;
    }
    if (count - k == 1 && pos < limit) {
      // One interaction left to serve: the trial's odd last one, or the
      // first of a pair whose second stays pending.
      const bool pair = trial_length_ - decoded_ - k >= 2;
      const auto [size, last_a] =
          parse(buf + pos, limit - pos, prev, pair, parsed);
      pos += size;
      prev = last_a;
      if (dst != nullptr) dst[k] = parsed[0];
      k = count;
      if (pair) {
        pending_ = true;
        pend_a_ = parsed[1].a();
        pend_b_ = parsed[1].b();
      }
    }
    sym_pos_ = pos;
  }
  prev_a_ = static_cast<NodeId>(prev);
  decoded_ += count;
}

std::optional<Interaction> TraceShardReader::next() {
  if (decoded_ == trial_length_) return std::nullopt;
  Interaction interaction(0, 1);
  decode(&interaction, 1);
  return interaction;
}

void TraceShardReader::read(std::uint64_t count,
                            std::vector<Interaction>& out) {
  if (count > trial_length_ - decoded_)
    throw std::out_of_range("TraceShardReader::read: " +
                            std::to_string(count) + " interactions asked, " +
                            std::to_string(trial_length_ - decoded_) +
                            " left in the trial");
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(count), Interaction(0, 1));
  decode(out.data() + base, count);
}

InteractionSequence TraceShardReader::readRest() {
  std::vector<Interaction> interactions;
  read(trial_length_ - decoded_, interactions);
  return InteractionSequence(std::move(interactions));
}

void TraceShardReader::skipRest() { decode(nullptr, trial_length_ - decoded_); }

// ----------------------------------------------------------------- store

std::string TraceStore::shardPath(std::size_t shard_index) const {
  if (shard_index >= shard_paths_.size())
    throw std::out_of_range("TraceStore::shardPath: shard index " +
                            std::to_string(shard_index) + " of " +
                            std::to_string(shard_paths_.size()));
  return shard_paths_[shard_index];
}

TraceShardReader TraceStore::openShard(std::size_t shard_index) const {
  // shard_paths_ records where each usable shard actually lives: after a
  // partial open the k-th usable shard need not be the k-th file on disk,
  // and in a composite store it need not even be in directory_.
  return TraceShardReader(shardPath(shard_index));
}

std::uint64_t TraceStore::totalFileBytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& header : shards_) total += header.fileBytes();
  return total;
}

TraceStore TraceStore::open(const std::string& directory) {
  return open(directory, TraceStoreOpenOptions{});
}

TraceStore TraceStore::open(const std::string& directory,
                            const TraceStoreOpenOptions& options) {
  return openComposite({directory}, options);
}

TraceStore TraceStore::openComposite(const std::vector<std::string>& part_dirs,
                                     const TraceStoreOpenOptions& options) {
  if (part_dirs.empty())
    throw std::invalid_argument("TraceStore::openComposite: no directories");
  TraceStore store;
  store.directory_ = part_dirs.front();
  // Within each part directory, shard 0 names that part's shard count;
  // every shard is opened once to validate its header and the cross-shard
  // invariants (verify_payloads walks the payload too).
  //
  // Strict mode throws at the first bad shard (the reader and the checks
  // below both name the shard's path). Partial mode quarantines the shard
  // and keeps scanning; until a readable header has named a part's shard
  // count, the scan probes forward over the files actually present.
  //
  // Global invariants span parts: one node count, and base trials
  // contiguous from 0 across the concatenated parts. Shard count is
  // per-part.
  std::optional<TraceShardHeader> first;  // first usable header overall
  std::uint64_t next_base = 0;  // contiguity cursor over usable shards
  bool gap = false;             // a shard has been quarantined
  for (const std::string& dir : part_dirs) {
    std::optional<TraceShardHeader> reference;  // first usable in this part
    std::uint32_t shard_count = 0;              // valid once `reference`
    const auto pathOf = [&dir](std::uint32_t k) {
      return (std::filesystem::path(dir) / traceShardFileName(k)).string();
    };
    for (std::uint32_t k = 0;
         reference ? k < shard_count
                   : (k == 0 || std::filesystem::exists(pathOf(k)));
         ++k) {
      TraceShardHeader header;
      try {
        TraceShardReader probe(pathOf(k));
        header = probe.header();
        if (options.verify_payloads) probe.verifyPayloadChecksums();
      } catch (const std::runtime_error& e) {
        if (!options.allow_partial) throw;
        store.quarantined_.push_back({pathOf(k), e.what()});
        gap = true;
        continue;
      }
      std::string why;
      if (header.shard_index != k) {
        why = "shard index does not match file name";
      } else if (reference && header.shard_count != shard_count) {
        why = "shard count disagrees with shard " +
              std::to_string(reference->shard_index);
      } else if (reference && header.node_count != reference->node_count) {
        why = "node count disagrees with shard " +
              std::to_string(reference->shard_index);
      } else if (first && header.node_count <
                              static_cast<std::uint64_t>(store.node_count_)) {
        // Across segments the node universe may only grow (an appended
        // import can add nodes); a shrink means mismatched segments.
        why = "node count shrank relative to an earlier segment";
      } else if (header.base_trial != next_base &&
                 !(gap && header.base_trial > next_base)) {
        // After a quarantined shard the base can only be checked for
        // monotonicity: the gap's trial count is unknown.
        why = gap ? "base trial overlaps preceding shards"
                  : "base trial not contiguous with preceding shards";
      }
      if (!why.empty()) {
        if (!options.allow_partial)
          throw std::runtime_error("TraceStore: " + pathOf(k) + ": " + why);
        store.quarantined_.push_back({pathOf(k), why});
        gap = true;
        continue;
      }
      store.shards_.push_back(header);
      store.shard_paths_.push_back(pathOf(k));
      if (!reference) {
        reference = header;
        shard_count = header.shard_count;
      }
      if (!first) first = header;
      store.node_count_ =
          std::max(store.node_count_, static_cast<std::size_t>(header.node_count));
      next_base = header.base_trial + header.trial_count;
    }
  }
  // Trial ids keep their recorded (global) numbering so per-shard windows
  // stay valid across a gap; the count is one past the last usable trial.
  store.trial_count_ = next_base;
  if (store.shards_.empty() && !store.quarantined_.empty())
    throw std::runtime_error(
        "TraceStore: " + store.directory_ + ": no usable shards (" +
        std::to_string(store.quarantined_.size()) + " quarantined; first: " +
        store.quarantined_.front().path + ": " +
        store.quarantined_.front().reason + ")");
  if (store.trial_count_ == 0)
    throw std::runtime_error("TraceStore: " + store.directory_ +
                             ": empty store");
  return store;
}

}  // namespace doda::dynagraph
