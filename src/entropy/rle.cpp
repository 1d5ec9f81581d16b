#include "entropy/rle.h"

#include <cstdlib>

#include "entropy/zigzag.h"

namespace mmsoc::entropy {

std::size_t run_length_encode(std::span<const std::int16_t, 64> block,
                              std::span<RunLevel, 64> events) {
  std::size_t n = 0;
  std::uint8_t run = 0;
  for (int scan = 1; scan < 64; ++scan) {  // skip DC at scan 0
    const std::int16_t v = block[kZigZag8x8[scan]];
    if (v == 0) {
      ++run;
    } else {
      events[n++] = RunLevel{run, v};
      run = 0;
    }
  }
  events[n++] = RunLevel{0, 0};  // EOB
  return n;
}

bool run_length_decode(std::span<const RunLevel> events,
                       std::span<std::int16_t, 64> block) {
  for (int scan = 1; scan < 64; ++scan) block[kZigZag8x8[scan]] = 0;
  int scan = 1;
  for (const auto& e : events) {
    if (e.is_eob()) return true;
    scan += e.run;
    if (scan >= 64) return false;
    block[kZigZag8x8[scan]] = e.level;
    ++scan;
  }
  return false;  // missing EOB
}

int run_level_to_symbol(const RunLevel& rl) noexcept {
  if (rl.is_eob()) return kEobSymbol;
  const int mag = std::abs(rl.level);
  if (rl.run <= 31 && mag <= 16) {
    // 1 + run * 16 + (mag - 1) in [1, 992]
    return 1 + rl.run * 16 + (mag - 1);
  }
  return kEscapeSymbol;
}

RunLevel symbol_to_run_level(int symbol) noexcept {
  if (symbol <= 0 || symbol >= kEscapeSymbol) return RunLevel{0, 0};
  const int v = symbol - 1;
  RunLevel rl;
  rl.run = static_cast<std::uint8_t>(v / 16);
  rl.level = static_cast<std::int16_t>((v % 16) + 1);
  return rl;
}

}  // namespace mmsoc::entropy
