#pragma once

// The byte convention of every on-disk format (docs/FORMATS.md): integers
// are stored little-endian whatever the host order, and checksums are
// 64-bit FNV-1a. Trace shard headers, footers, block frames and record
// units, the durable store's MANIFEST and id map, and the contact-import
// event hash read and write their fixed-width fields and checksums
// through these. The host byte order is decided here and nowhere else:
// loadLe is one unaligned load on a little-endian host (the trace reader
// parses every record field through it) and a byte loop elsewhere.

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

}  // namespace doda::util
