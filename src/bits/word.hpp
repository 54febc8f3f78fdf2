// Word-level primitives shared by every engine.
//
// The GPU path (paper Section V) operates on 32-bit words ("each element is
// (by default) 4 bytes"); the CPU path of Alachiotis et al. [11] operates on
// 64-bit words. BitMatrix stores bits contiguously so both views are valid;
// this header pins down the bit-order convention and the popcount helper.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace snp::bits {

/// 32-bit word used by the simulated GPU kernels.
using Word32 = std::uint32_t;
/// 64-bit word used by the CPU micro-kernels.
using Word64 = std::uint64_t;

inline constexpr std::size_t kBitsPerWord32 = 32;
inline constexpr std::size_t kBitsPerWord64 = 64;

// Bit i of a row lives in 64-bit word (i / 64) at bit position (i % 64),
// i.e. little-endian bit numbering within little-endian words. On a
// little-endian host the same storage reinterpreted as uint32_t places bit i
// in 32-bit word (i / 32) at position (i % 32), so the two views agree.
static_assert(std::endian::native == std::endian::little,
              "BitMatrix word views assume a little-endian host");

[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

[[nodiscard]] constexpr std::size_t round_up(std::size_t a, std::size_t b) {
  return ceil_div(a, b) * b;
}

[[nodiscard]] constexpr int popcount(Word64 w) { return std::popcount(w); }

/// Mask keeping the low `n` bits of a 64-bit word (n in [0, 64]).
[[nodiscard]] constexpr Word64 low_mask64(std::size_t n) {
  return n >= kBitsPerWord64 ? ~Word64{0} : ((Word64{1} << n) - 1);
}

/// Mask keeping the low `n` bits of a 32-bit word (n in [0, 32]).
[[nodiscard]] constexpr Word32 low_mask32(std::size_t n) {
  return n >= kBitsPerWord32 ? ~Word32{0}
                             : static_cast<Word32>((Word32{1} << n) - 1);
}

}  // namespace snp::bits
