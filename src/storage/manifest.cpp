#include "storage/manifest.hpp"

#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "util/bytes.hpp"

namespace doda::storage {

namespace {

using util::appendU16;
using util::appendU32;
using util::appendU64;
using util::fnv1a;
using util::loadU16;
using util::loadU32;
using util::loadU64;

void appendString(std::vector<unsigned char>& out, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("manifest: name too long: " + s);
  appendU16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<unsigned char> encodeSnapshot(const ManifestVersion& version) {
  std::vector<unsigned char> payload;
  appendU64(payload, version.generation);
  appendU64(payload, version.node_count);
  appendU64(payload, version.total_trials);
  appendU64(payload, version.imported_events);
  appendU64(payload, version.import_event_hash);
  appendString(payload, version.id_map_file);
  appendU32(payload, static_cast<std::uint32_t>(version.segments.size()));
  for (const ManifestSegment& segment : version.segments) {
    appendString(payload, segment.name);
    appendU64(payload, segment.base_trial);
    appendU64(payload, segment.trials);
  }
  return payload;
}

/// Decodes a snapshot payload; false on any structural overrun (a record
/// whose checksum verified but whose payload is malformed counts as
/// corruption and ends the valid prefix).
bool decodeSnapshot(const unsigned char* p, std::size_t size,
                    ManifestVersion& version) {
  std::size_t at = 0;
  const auto need = [&](std::size_t n) { return size - at >= n; };
  const auto takeString = [&](std::string& out) {
    if (!need(2)) return false;
    const std::uint16_t len = loadU16(p + at);
    at += 2;
    if (!need(len)) return false;
    out.assign(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return true;
  };
  if (!need(5 * 8)) return false;
  version.generation = loadU64(p + at);
  version.node_count = loadU64(p + at + 8);
  version.total_trials = loadU64(p + at + 16);
  version.imported_events = loadU64(p + at + 24);
  version.import_event_hash = loadU64(p + at + 32);
  at += 5 * 8;
  if (!takeString(version.id_map_file)) return false;
  if (!need(4)) return false;
  const std::uint32_t count = loadU32(p + at);
  at += 4;
  // A segment takes at least 18 bytes (u16 name length + two u64s):
  // reject a count the payload cannot hold before reserving for it.
  if (count > (size - at) / 18) return false;
  version.segments.clear();
  version.segments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestSegment segment;
    if (!takeString(segment.name)) return false;
    if (!need(16)) return false;
    segment.base_trial = loadU64(p + at);
    segment.trials = loadU64(p + at + 8);
    at += 16;
    version.segments.push_back(std::move(segment));
  }
  return at == size;
}

std::vector<unsigned char> encodeRecord(const ManifestVersion& version) {
  const std::vector<unsigned char> payload = encodeSnapshot(version);
  std::vector<unsigned char> record;
  record.reserve(16 + payload.size());
  appendU32(record, static_cast<std::uint32_t>(payload.size()));
  appendU32(record, kManifestRecordSnapshot);
  appendU64(record, fnv1a(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

std::string manifestPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kManifestFileName).string();
}

}  // namespace

ManifestReadResult readManifest(Env& env, const std::string& path) {
  const std::string bytes = env.readFile(path);
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < 8 || std::memcmp(data, kManifestMagic, 8) != 0)
    throw std::runtime_error("readManifest: " + path +
                             ": not a doda manifest (bad magic)");
  ManifestReadResult result;
  result.file_bytes = bytes.size();
  std::size_t at = 8;
  result.valid_bytes = at;
  while (bytes.size() - at >= 16) {
    const std::uint32_t len = loadU32(data + at);
    const std::uint32_t type = loadU32(data + at + 4);
    const std::uint64_t checksum = loadU64(data + at + 8);
    if (bytes.size() - at - 16 < len) break;  // torn payload
    const unsigned char* payload = data + at + 16;
    if (fnv1a(payload, len) != checksum) break;  // torn or corrupt record
    if (type == kManifestRecordSnapshot) {
      ManifestVersion version;
      if (!decodeSnapshot(payload, len, version)) break;
      result.version = std::move(version);
    }
    // Unknown record types are checksum-verified and skipped, so a newer
    // writer can add record kinds without breaking this reader.
    at += 16 + len;
    result.valid_bytes = at;
  }
  result.tail_torn = result.valid_bytes < result.file_bytes;
  return result;
}

void writeManifestSnapshot(Env& env, const std::string& dir,
                           const ManifestVersion& version) {
  const std::string tmp =
      (std::filesystem::path(dir) / "tmp-MANIFEST").string();
  const std::vector<unsigned char> record = encodeRecord(version);
  {
    auto file = env.newWritableFile(tmp);
    file->append(kManifestMagic, 8);
    file->append(record.data(), record.size());
    file->sync();
    file->close();
  }
  env.renameFile(tmp, manifestPath(dir));
  env.syncDir(dir);
}

void appendManifestSnapshot(Env& env, const std::string& dir,
                            const ManifestVersion& version) {
  const std::vector<unsigned char> record = encodeRecord(version);
  auto file = env.newWritableFile(manifestPath(dir), /*truncate=*/false);
  file->append(record.data(), record.size());
  file->sync();
  file->close();
}

}  // namespace doda::storage
