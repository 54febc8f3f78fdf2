// The comparison operations of Eqs. 1-3 and a naive word-at-a-time reference
// engine. The reference is deliberately unblocked and obvious; every
// optimized engine (CPU BLIS-like, simulated GPU kernel) is tested against
// it.
#pragma once

#include <cstdint>
#include <string_view>

#include "bits/bitmatrix.hpp"

namespace snp::bits {

/// The element-wise operation inside the popcount inner product.
enum class Comparison : std::uint8_t {
  kAnd,     ///< LD / pre-negated mixture analysis: popc(a & b)      (Eq. 1)
  kXor,     ///< FastID identity search:            popc(a ^ b)      (Eq. 2)
  kAndNot,  ///< FastID mixture analysis (fused):   popc(a & ~b)     (Eq. 3)
};

[[nodiscard]] constexpr std::string_view to_string(Comparison op) {
  switch (op) {
    case Comparison::kAnd:
      return "AND";
    case Comparison::kXor:
      return "XOR";
    case Comparison::kAndNot:
      return "AND-NOT";
  }
  return "?";
}

[[nodiscard]] constexpr Word64 apply(Comparison op, Word64 a, Word64 b) {
  switch (op) {
    case Comparison::kAnd:
      return a & b;
    case Comparison::kXor:
      return a ^ b;
    case Comparison::kAndNot:
      return a & ~b;
  }
  return 0;
}

/// Number of logic-pipe operations (AND/XOR/NOT/ADD) the GPU kernel issues
/// per word, excluding the popcount itself. AND/XOR: op + accumulate = 2;
/// fused AND-NOT on hardware without a fused unit: op + negate + accumulate
/// = 3. This ratio drives the Vega-vs-NVIDIA asymmetry of Fig. 9.
[[nodiscard]] constexpr int logic_ops_per_word(Comparison op,
                                               bool fused_andnot) {
  if (op == Comparison::kAndNot && !fused_andnot) {
    return 3;
  }
  return 2;
}

/// Naive reference: gamma[i,j] = sum_k popc(op(A[i,k], B[j,k])).
/// Both inputs are row-major over the shared K (bit) dimension; B holds one
/// row per *output column* so no transpose is ever materialized.
/// Requires A.bit_cols() == B.bit_cols().
[[nodiscard]] CountMatrix compare_reference(const BitMatrix& a,
                                            const BitMatrix& b, Comparison op);

/// Bit-at-a-time oracle (slowest, most obviously correct; used only in
/// tests to validate compare_reference itself).
[[nodiscard]] CountMatrix compare_bitwise_oracle(const BitMatrix& a,
                                                 const BitMatrix& b,
                                                 Comparison op);

}  // namespace snp::bits
