#include "video/vlc.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "entropy/rle.h"

namespace mmsoc::video {

const entropy::HuffmanCode& default_vlc_table() {
  // Parametric model of quantized-DCT statistics: P(run) and P(|level|)
  // both roughly geometric; EOB is the most common symbol. The exact
  // shape matters little — canonical Huffman adapts the lengths — but the
  // ranking must be realistic so short codes land on common events.
  static const entropy::HuffmanCode table = [] {
    std::vector<std::uint64_t> freqs(entropy::kRunLevelSymbols, 0);
    constexpr double kRunDecay = 0.62;
    constexpr double kLevelDecay = 0.45;
    constexpr double kScale = 1e7;
    freqs[entropy::kEobSymbol] = static_cast<std::uint64_t>(kScale * 1.2);
    for (int run = 0; run <= 31; ++run) {
      for (int mag = 1; mag <= 16; ++mag) {
        const double p = std::pow(kRunDecay, run) * std::pow(kLevelDecay, mag - 1);
        const auto f = static_cast<std::uint64_t>(kScale * p);
        freqs[1 + run * 16 + (mag - 1)] = f > 0 ? f : 1;
      }
    }
    freqs[entropy::kEscapeSymbol] = static_cast<std::uint64_t>(kScale * 1e-4);
    auto built = entropy::HuffmanCode::from_frequencies(freqs, 16);
    // The model above is static and always valid; a failure here is a
    // programming error, so fall back to a degenerate 1-symbol table to
    // keep the function noexcept-ish in release builds.
    return built.is_ok() ? std::move(built).value() : entropy::HuffmanCode{};
  }();
  return table;
}

BlockCodeStats encode_block(std::span<const std::int16_t, 64> levels,
                            bool code_dc, std::int16_t& dc_pred,
                            common::BitWriter& out) {
  BlockCodeStats stats;
  const auto& table = default_vlc_table();
  const std::size_t start_bits = out.bit_count();

  if (code_dc) {
    out.put_se(levels[0] - dc_pred);
    dc_pred = levels[0];
  } else {
    out.put_se(levels[0]);
  }
  ++stats.symbols;

  std::array<entropy::RunLevel, 64> events;
  const std::size_t count = entropy::run_length_encode(levels, events);
  for (const auto& e : std::span(events).first(count)) {
    const int symbol = entropy::run_level_to_symbol(e);
    table.encode(static_cast<std::size_t>(symbol), out);
    ++stats.symbols;
    if (symbol == entropy::kEscapeSymbol) {
      out.put_bits(e.run, 6);
      out.put_se(e.level);
    } else if (symbol != entropy::kEobSymbol) {
      out.put_bit(e.level < 0 ? 1 : 0);
    }
  }
  stats.bits = static_cast<std::uint32_t>(out.bit_count() - start_bits);
  return stats;
}

bool decode_block(common::BitReader& in, bool code_dc, std::int16_t& dc_pred,
                  std::span<std::int16_t, 64> levels) {
  const auto& table = default_vlc_table();
  for (auto& v : levels) v = 0;

  const std::int32_t dc_diff = in.get_se();
  if (!in.ok()) return false;
  if (code_dc) {
    const std::int32_t dc = dc_pred + dc_diff;
    if (dc < -32768 || dc > 32767) return false;
    levels[0] = static_cast<std::int16_t>(dc);
    dc_pred = levels[0];
  } else {
    if (dc_diff < -32768 || dc_diff > 32767) return false;
    levels[0] = static_cast<std::int16_t>(dc_diff);
  }

  // At most 63 AC events and the EOB: one slot per guarded symbol.
  std::array<entropy::RunLevel, 64> events;
  for (std::size_t n = 0; n < events.size(); ++n) {
    const int symbol = table.decode(in);
    if (symbol < 0) return false;
    if (symbol == entropy::kEobSymbol) {
      events[n] = entropy::RunLevel{0, 0};
      return entropy::run_length_decode(std::span(events).first(n + 1),
                                        levels);
    }
    if (symbol == entropy::kEscapeSymbol) {
      const auto run = static_cast<std::uint8_t>(in.get_bits(6));
      const std::int32_t level = in.get_se();
      if (!in.ok() || level == 0 || level < -32768 || level > 32767)
        return false;
      events[n] = entropy::RunLevel{run, static_cast<std::int16_t>(level)};
    } else {
      auto rl = entropy::symbol_to_run_level(symbol);
      if (in.get_bit()) rl.level = static_cast<std::int16_t>(-rl.level);
      if (!in.ok()) return false;
      events[n] = rl;
    }
  }
  return false;  // more than 63 AC events: corrupt
}

}  // namespace mmsoc::video
