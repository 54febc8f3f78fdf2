// snp::svc::PackedRow — the result cache's frame-of-reference gamma row.
//
// A gamma row holds one count per database profile. On FastID data at
// 1,024 SNPs the counts run past 255 (about 210 to 360 mismatches), yet
// within 256 profiles they span fewer than 100 values. So the row is cut
// into blocks of kBlock counts, and each block keeps its minimum and
// every count's offset from it, at the narrowest of 1, 2 or 4 bytes that
// holds the block's max - min. Byte widths keep a decode a plain widening
// add, and a true match (gamma near 0) widens only its own block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snp::svc {

class PackedRow {
 public:
  /// Counts per block; the last block holds the remainder.
  static constexpr std::size_t kBlock = 256;

  PackedRow() = default;
  /// Encodes `row`.
  explicit PackedRow(std::span<const std::uint32_t> row);

  /// Replaces the contents of `out` with the row, bit-identical to the
  /// encoded one.
  void decode(std::vector<std::uint32_t>& out) const;

  /// Counts in the row.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Bytes the row holds: its offsets, plus 5 B per block for the block's
  /// 4-B minimum and 1-B offset width.
  [[nodiscard]] std::size_t size_bytes() const;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint32_t> base_;  ///< each block's minimum
  std::vector<std::uint8_t> width_;  ///< each block's offset width, bytes
  // Each block's offsets, in block order, in the array of its width;
  // typed arrays keep every offset aligned.
  std::vector<std::uint8_t> off8_;
  std::vector<std::uint16_t> off16_;
  std::vector<std::uint32_t> off32_;
};

}  // namespace snp::svc
