#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace doda::dynagraph::codec {

// ---------------------------------------------------------------------------
// Entropy codec of the trace block payload (block codec id 3; see
// trace_io.hpp for the container format): a static per-block frequency
// table over every record byte driving an 8-way interleaved rANS.
//
// Table serialization (before the rANS payload): varint present-symbol
// count, then per present symbol in ascending order a varint symbol delta
// (the first symbol verbatim, then gap-1 to the previous) and varint
// freq-1. Frequencies sum to exactly kRansTotal.
// ---------------------------------------------------------------------------

inline constexpr unsigned kRansScaleBits = 12;
inline constexpr std::uint32_t kRansTotal = 1u << kRansScaleBits;
inline constexpr std::size_t kRansV4Interleave = 8;

namespace rans_detail {

inline void putVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Reads a varint from [pos, size); returns false on overrun or a varint
/// longer than 64 bits.
inline bool takeVarint(const std::uint8_t* data, std::size_t size,
                       std::size_t& pos, std::uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= size) return false;
    const std::uint8_t byte = data[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

/// Deterministic normalization of one 256-symbol count table to a
/// kRansTotal sum: floor-scale with every present symbol kept >= 1, then
/// hand the rounding residue to the most frequent symbol (lowest index on
/// ties). Returns false when the table is empty (freq/cum zeroed).
inline bool normalizeTable(const std::uint32_t* counts, std::uint32_t* freq,
                           std::uint32_t* cum) noexcept {
  std::uint64_t total = 0;
  std::uint32_t used = 0;
  for (std::size_t s = 0; s < 256; ++s) {
    total += counts[s];
    used += counts[s] != 0;
  }
  if (used == 0) {
    for (std::size_t s = 0; s < 256; ++s) freq[s] = cum[s] = 0;
    return false;
  }
  std::uint32_t assigned = 0;
  std::size_t top = 0;
  for (std::size_t s = 0; s < 256; ++s) {
    if (counts[s] == 0) {
      freq[s] = 0;
      continue;
    }
    freq[s] = 1 + static_cast<std::uint32_t>(
                      static_cast<std::uint64_t>(counts[s]) *
                      (kRansTotal - used) / total);
    assigned += freq[s];
    if (counts[s] > counts[top]) top = s;
  }
  freq[top] += kRansTotal - assigned;
  std::uint32_t running = 0;
  for (std::size_t s = 0; s < 256; ++s) {
    cum[s] = running;
    running += freq[s];
  }
  return true;
}

/// Serializes one normalized table: varint present-symbol count (0 =
/// unused), then per present symbol in ascending order a varint symbol
/// delta (first verbatim, then gap-1) and varint freq-1.
inline void serializeTable(std::vector<std::uint8_t>& out,
                           const std::uint32_t* freq) {
  std::uint32_t present = 0;
  for (std::size_t s = 0; s < 256; ++s) present += freq[s] != 0;
  putVarint(out, present);
  std::uint32_t prev = 0;
  bool first = true;
  for (std::size_t s = 0; s < 256; ++s) {
    if (freq[s] == 0) continue;
    putVarint(out, first ? s : s - prev - 1);
    putVarint(out, freq[s] - 1);
    prev = static_cast<std::uint32_t>(s);
    first = false;
  }
}

}  // namespace rans_detail

// ---------------------------------------------------------------------------
// Block codec 3: 8-way interleaved rANS over one table.
//
// Payload layout: one serialized frequency table (rans_detail format),
// then kRansV4Interleave u32-LE initial states, then the renorm stream of
// little-endian 16-bit words. Symbol i of the block decodes from state
// i & 7; the encoder runs backward so the decoder streams forward. Every
// record byte of the block — control and value alike — is one symbol of
// the single table. One table is a deliberate ratio-for-speed trade: the
// decoder reconstructs a whole block in a single bulk run with no
// per-symbol context selection or record parsing, and the 8-way
// interleave keeps eight dependency chains in flight, so the loop is
// bounded by execution throughput rather than the latency of one serial
// load-multiply-refill chain.
//
// Renormalization moves 16 bits at a time against a 2^16 lower bound: a
// decode step leaves the state >= 2^4, so exactly zero or one refill
// restores the invariant — one flag, one selectable word, no loop.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kRansV4LowBound = 1u << 16;

/// Encodes one block: seal() histograms the block's bytes into its table
/// and emits the table + payload. Reusable across blocks.
class RansV4BlockEncoder {
 public:
  void seal(const std::uint8_t* bytes, std::size_t size,
            std::vector<std::uint8_t>& out) {
    out.clear();
    std::array<std::uint32_t, 256> counts{};
    for (std::size_t i = 0; i < size; ++i) ++counts[bytes[i]];
    rans_detail::normalizeTable(counts.data(), freq_.data(), cum_.data());
    rans_detail::serializeTable(out, freq_.data());
    rev_.clear();
    std::uint32_t states[kRansV4Interleave];
    for (auto& x : states) x = kRansV4LowBound;
    for (std::size_t i = size; i-- > 0;) {
      const std::uint8_t sym = bytes[i];
      const std::uint32_t f = freq_[sym];
      std::uint32_t& x = states[i & (kRansV4Interleave - 1)];
      // u64: f = kRansTotal (a one-symbol table) makes this 2^32.
      const std::uint64_t x_max =
          (std::uint64_t{kRansV4LowBound >> kRansScaleBits} << 16) * f;
      while (x >= x_max) {
        // High byte first: the final whole-stream reversal then leaves
        // each refill word low-byte-first (little-endian) for the decoder.
        rev_.push_back(static_cast<std::uint8_t>(x >> 8));
        rev_.push_back(static_cast<std::uint8_t>(x));
        x >>= 16;
      }
      x = ((x / f) << kRansScaleBits) + (x % f) + cum_[sym];
    }
    for (const std::uint32_t x : states)
      for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    out.insert(out.end(), rev_.rbegin(), rev_.rend());
  }

 private:
  std::array<std::uint32_t, 256> freq_{};
  std::array<std::uint32_t, 256> cum_{};
  std::vector<std::uint8_t> rev_;
};

/// Decodes one block payload into `dst` (exactly `count` bytes, the
/// frame's raw size). Returns false on malformed tables, a payload
/// overrun, or final states that do not return to the encoder's seed —
/// all the block-corrupt conditions the caller surfaces as one error.
///
/// The hot loop is deliberately branch-free per symbol: a fused slot
/// table packs (freq-1, slot - cum, symbol) into one u32 so each step is
/// a single dependent load, and renormalization selects its (zero or one)
/// 16-bit refill word with mask arithmetic instead of a data-dependent
/// branch. The unguarded reads stay within the payload because the fast
/// path requires 2 * kRansV4Interleave spare bytes; a guarded tail loop
/// finishes the block.
class RansV4BlockDecoder {
 public:
  RansV4BlockDecoder() : fused_(kRansTotal, 0) {}

  bool decode(const std::uint8_t* data, std::size_t size, std::uint8_t* dst,
              std::size_t count) {
    std::size_t pos = 0;
    if (!parseFusedTable(data, size, pos)) return false;
    if (size - pos < 4 * kRansV4Interleave) return false;
    std::uint32_t x[kRansV4Interleave];
    for (auto& state : x) {
      state = 0;
      for (int i = 0; i < 4; ++i)
        state |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    }
    const std::uint32_t* const fused = fused_.data();
    const std::uint8_t* src = data + pos;
    const std::uint8_t* const end = data + size;
    std::size_t i = 0;
    auto step = [&](std::uint32_t& state, std::uint8_t& out) {
      const std::uint32_t e = fused[state & (kRansTotal - 1)];
      out = static_cast<std::uint8_t>(e);
      std::uint32_t s = ((e >> 20) + 1) * (state >> kRansScaleBits) +
                        ((e >> 8) & (kRansTotal - 1));
      // Branchless renorm, exactly zero or one 16-bit refill. Mask
      // arithmetic rather than a ternary (compilers turn those back into
      // mispredicting branches), and the refill flag derives from the
      // stepped state alone — the word load stays OUT of the serial
      // stream-pointer dependency chain.
      const std::uint32_t need = s < kRansV4LowBound;
      const std::uint32_t m = 0u - need;
      const std::uint32_t w =
          (s << 16) | src[0] |
          (static_cast<std::uint32_t>(src[1]) << 8);
      s = (w & m) | (s & ~m);
      src += 2 * need;
      state = s;
    };
    for (; i + kRansV4Interleave <= count &&
           end - src >= 2 * std::ptrdiff_t{kRansV4Interleave};
         i += kRansV4Interleave) {
      step(x[0], dst[i]);
      step(x[1], dst[i + 1]);
      step(x[2], dst[i + 2]);
      step(x[3], dst[i + 3]);
      step(x[4], dst[i + 4]);
      step(x[5], dst[i + 5]);
      step(x[6], dst[i + 6]);
      step(x[7], dst[i + 7]);
    }
    for (; i < count; ++i) {
      std::uint32_t& state = x[i & (kRansV4Interleave - 1)];
      const std::uint32_t e = fused[state & (kRansTotal - 1)];
      dst[i] = static_cast<std::uint8_t>(e);
      state = ((e >> 20) + 1) * (state >> kRansScaleBits) +
              ((e >> 8) & (kRansTotal - 1));
      if (state < kRansV4LowBound) {
        if (end - src < 2) return false;
        state = (state << 16) | src[0] |
                (static_cast<std::uint32_t>(src[1]) << 8);
        src += 2;
      }
    }
    for (const std::uint32_t state : x)
      if (state != kRansV4LowBound) return false;
    return true;
  }

 private:
  /// Parses the single serialized table straight into the fused slot
  /// entries: fused[slot] = (freq-1) << 20 | (slot - cum) << 8 | symbol.
  bool parseFusedTable(const std::uint8_t* data, std::size_t size,
                       std::size_t& pos) {
    std::uint64_t present = 0;
    if (!rans_detail::takeVarint(data, size, pos, present)) return false;
    if (present == 0 || present > 256) return false;
    std::uint64_t symbol = 0;
    std::uint32_t running = 0;
    for (std::uint64_t i = 0; i < present; ++i) {
      std::uint64_t delta = 0, f_minus_1 = 0;
      if (!rans_detail::takeVarint(data, size, pos, delta)) return false;
      if (!rans_detail::takeVarint(data, size, pos, f_minus_1)) return false;
      symbol = i == 0 ? delta : symbol + 1 + delta;
      const std::uint64_t f = f_minus_1 + 1;
      if (symbol > 255 || f > kRansTotal - running) return false;
      const std::uint32_t base =
          (static_cast<std::uint32_t>(f_minus_1) << 20) |
          static_cast<std::uint32_t>(symbol);
      for (std::uint32_t s = 0; s < f; ++s)
        fused_[running + s] = base | (s << 8);
      running += static_cast<std::uint32_t>(f);
    }
    return running == kRansTotal;
  }

  std::vector<std::uint32_t> fused_;  // kRansTotal fused slot entries
};

}  // namespace doda::dynagraph::codec
