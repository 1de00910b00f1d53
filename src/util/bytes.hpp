#pragma once

// The byte convention of every on-disk format (docs/FORMATS.md): integers
// are stored little-endian whatever the host order. Trace shard headers,
// footers, block frames and record units, the durable store's MANIFEST
// and id map, and the contact-import event hash read and write their
// fixed-width fields and checksums through these. Two checksums exist:
// wordChecksum, word-parallel, seals every trace shard checksum (header,
// block frames, footer), because a replay checksums every block it loads;
// 64-bit FNV-1a seals the MANIFEST, the id map and the import event hash.
// The host byte order is decided here and nowhere else: loadLe is one
// unaligned load on a little-endian host (the trace reader parses every
// record field through it) and a byte loop elsewhere.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace doda::util {

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a of `size` bytes at `data`, continuing from `hash`: pass
/// a previous result to hash a stream piece by piece. Defined here, not in
/// a source file, because the trace reader checksums every block it loads.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = kFnv1aBasis) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace detail {

template <typename T>
void storeLe(unsigned char* out, T value) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out[i] = static_cast<unsigned char>(value >> (8 * i));
}

template <typename T>
T loadLe(const unsigned char* in) noexcept {
  T value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, in, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      value = static_cast<T>(value | static_cast<T>(in[i]) << (8 * i));
  }
  return value;
}

template <typename T>
void appendLe(std::vector<unsigned char>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
}

}  // namespace detail

/// Writes `value` little-endian at `out`.
inline void storeU16(unsigned char* out, std::uint16_t value) noexcept {
  detail::storeLe(out, value);
}
inline void storeU32(unsigned char* out, std::uint32_t value) noexcept {
  detail::storeLe(out, value);
}
inline void storeU64(unsigned char* out, std::uint64_t value) noexcept {
  detail::storeLe(out, value);
}

/// Reads a little-endian value at `in`.
inline std::uint16_t loadU16(const unsigned char* in) noexcept {
  return detail::loadLe<std::uint16_t>(in);
}
inline std::uint32_t loadU32(const unsigned char* in) noexcept {
  return detail::loadLe<std::uint32_t>(in);
}
inline std::uint64_t loadU64(const unsigned char* in) noexcept {
  return detail::loadLe<std::uint64_t>(in);
}

/// Appends `value` little-endian to `out`.
inline void appendU16(std::vector<unsigned char>& out, std::uint16_t value) {
  detail::appendLe(out, value);
}
inline void appendU32(std::vector<unsigned char>& out, std::uint32_t value) {
  detail::appendLe(out, value);
}
inline void appendU64(std::vector<unsigned char>& out, std::uint64_t value) {
  detail::appendLe(out, value);
}

/// 64-bit word-parallel checksum of `size` bytes at `data` (the trace
/// shard checksum; docs/FORMATS.md defines it byte for byte). Every whole
/// 32-byte chunk feeds its four little-endian 8-byte words to four
/// independent lanes, word i of a chunk to lane i, each step
/// `h = (h ^ w) * kMul; h ^= h >> 32`. The fewer than 32 bytes left over
/// go through FNV-1a, and the lanes (in order) and then the byte count are
/// folded into that hash with the same step. Each step is a bijection of
/// the lane given the word, and of the word given the lane, so a change
/// confined to one 8-byte word of the chunks, or to one byte of the tail,
/// always changes the result: every single-bit flip is detected. The four
/// lanes carry no dependency on one another, so the chunk loop runs at
/// several bytes per cycle where FNV-1a takes a multiply per byte.
inline std::uint64_t wordChecksum(const void* data, std::size_t size) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;  // odd
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  };
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t lane0 = 0x243f6a8885a308d3ULL;
  std::uint64_t lane1 = 0x13198a2e03707344ULL;
  std::uint64_t lane2 = 0xa4093822299f31d0ULL;
  std::uint64_t lane3 = 0x082efa98ec4e6c89ULL;
  const std::size_t chunked = size & ~std::size_t{31};
  for (std::size_t at = 0; at < chunked; at += 32) {
    lane0 = step(lane0, loadU64(bytes + at));
    lane1 = step(lane1, loadU64(bytes + at + 8));
    lane2 = step(lane2, loadU64(bytes + at + 16));
    lane3 = step(lane3, loadU64(bytes + at + 24));
  }
  std::uint64_t hash = fnv1a(bytes + chunked, size - chunked);
  hash = step(hash, lane0);
  hash = step(hash, lane1);
  hash = step(hash, lane2);
  hash = step(hash, lane3);
  return step(hash, static_cast<std::uint64_t>(size));
}

}  // namespace doda::util
