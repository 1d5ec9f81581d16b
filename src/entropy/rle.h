// (run, level) coding of quantized DCT coefficients.
//
// The video VLC stage (Fig. 1 "VARIABLE LENGTH ENCODE") first converts a
// zig-zag-scanned 8x8 block into (zero-run, nonzero-level) pairs plus an
// end-of-block marker, then entropy-codes the pair alphabet with the
// canonical Huffman coder. This is the classic MPEG-style structure.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>

namespace mmsoc::entropy {

/// One (run, level) event; run = number of zeros preceding `level`.
struct RunLevel {
  std::uint8_t run = 0;    // 0..63
  std::int16_t level = 0;  // nonzero except for the EOB marker
  [[nodiscard]] bool is_eob() const noexcept { return level == 0; }
  bool operator==(const RunLevel&) const = default;
};

/// Scan a row-major 8x8 quantized block in zig-zag order into (run, level)
/// pairs terminated by an EOB marker, written to `events`; returns the
/// number of events. The DC coefficient (scan position 0) is NOT included
/// — video codecs code DC differentially elsewhere — so a block yields at
/// most 63 pairs plus the EOB, which is why 64 slots always suffice.
[[nodiscard]] std::size_t run_length_encode(
    std::span<const std::int16_t, 64> block, std::span<RunLevel, 64> events);

/// Inverse of run_length_encode: reconstruct AC coefficients into `block`
/// (DC position left untouched). Returns false if the events overflow the
/// block.
bool run_length_decode(std::span<const RunLevel> events,
                       std::span<std::int16_t, 64> block);

/// Map a (run, level) event to a compact symbol for Huffman coding:
/// events with |level| <= 16 and run <= 31 map to one symbol (the sign is
/// carried as a separate raw bit by the caller); larger values use an
/// escape symbol followed by explicit run/level fields. Symbol space:
///   0        : EOB
///   1..512   : 1 + run*16 + (|level|-1)
///   993      : escape
inline constexpr int kRunLevelSymbols = 994;
inline constexpr int kEobSymbol = 0;
inline constexpr int kEscapeSymbol = 993;

[[nodiscard]] int run_level_to_symbol(const RunLevel& rl) noexcept;

/// For non-escape symbols, reconstruct the event (sign carried separately
/// as one bit by the caller). Returns {run, |level|}.
[[nodiscard]] RunLevel symbol_to_run_level(int symbol) noexcept;

}  // namespace mmsoc::entropy
