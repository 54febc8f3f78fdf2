// BitMatrix: the packed, padded SNP bit matrix of the paper's Fig. 2.
//
// Rows are logical bit vectors (one SNP locus, one profile, ...); columns are
// bit positions (one sample, one SNP site, ...). Rows are padded with zero
// bits up to the row stride so that word-granular kernels never read garbage
// and padding contributes nothing to popcounts. All three comparison
// operations (AND, XOR, AND-NOT) preserve "zero padding in both inputs ->
// zero contribution", which tests assert.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "bits/word.hpp"

namespace snp::bits {

/// std::allocator whose value-less construct default-initializes, so a
/// vector sized with it leaves its elements unset instead of zeroing them:
/// for outputs that a writer overwrites entirely. Construction from a
/// value is unchanged.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class BitMatrix {
 public:
  BitMatrix() = default;

  /// Creates a rows x bit_cols matrix of zero bits. The row stride is the
  /// smallest multiple of `stride_words64` 64-bit words that covers
  /// `bit_cols` (default: 1 word, i.e. padding only to the next 64 bits).
  BitMatrix(std::size_t rows, std::size_t bit_cols,
            std::size_t stride_words64 = 1);

  /// The same shape and stride, with every word left unset, for a writer
  /// that stores all of them, padding included (io::load_bitmatrix reads
  /// its payload into one): its memory is written once, not zeroed first.
  [[nodiscard]] static BitMatrix for_overwrite(std::size_t rows,
                                               std::size_t bit_cols,
                                               std::size_t stride_words64 = 1);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t bit_cols() const { return bit_cols_; }
  [[nodiscard]] std::size_t words64_per_row() const { return stride64_; }
  [[nodiscard]] std::size_t words32_per_row() const { return stride64_ * 2; }
  [[nodiscard]] std::size_t size_bytes() const {
    return rows_ * stride64_ * sizeof(Word64);
  }
  [[nodiscard]] bool empty() const { return rows_ == 0 || bit_cols_ == 0; }

  void set(std::size_t row, std::size_t bit, bool value);
  [[nodiscard]] bool get(std::size_t row, std::size_t bit) const;

  /// Number of set bits in a row (padding is always zero, so this is the
  /// popcount over the full stride too).
  [[nodiscard]] std::size_t row_popcount(std::size_t row) const;

  [[nodiscard]] std::span<const Word64> row64(std::size_t row) const {
    return {data_.data() + row * stride64_, stride64_};
  }
  [[nodiscard]] std::span<Word64> row64(std::size_t row) {
    return {data_.data() + row * stride64_, stride64_};
  }
  [[nodiscard]] std::span<const Word32> row32(std::size_t row) const {
    return {reinterpret_cast<const Word32*>(data_.data() + row * stride64_),
            stride64_ * 2};
  }

  [[nodiscard]] std::span<const Word64> raw64() const {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<Word64> raw64() {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<const Word32> raw32() const {
    return {reinterpret_cast<const Word32*>(data_.data()), data_.size() * 2};
  }

  /// Returns a copy whose row stride is padded to `stride_words64` 64-bit
  /// words (used to pad the K dimension to a kernel's k_c tile).
  [[nodiscard]] BitMatrix with_stride(std::size_t stride_words64) const;

  /// Returns the bitwise complement restricted to the logical bit columns
  /// (padding stays zero). Used to pre-negate a mixture database (Eq. 3's
  /// r & ~m rewritten as an AND against a stored ~m).
  [[nodiscard]] BitMatrix negated() const;

  /// Returns the submatrix of rows [row_begin, row_end).
  [[nodiscard]] BitMatrix row_slice(std::size_t row_begin,
                                    std::size_t row_end) const;

  [[nodiscard]] bool operator==(const BitMatrix& other) const;

  /// Verifies the zero-padding invariant (all bits at column >= bit_cols are
  /// zero) on rows [row_begin, row_end), every row by default. Cheap enough
  /// to call from tests and debug assertions.
  [[nodiscard]] bool padding_is_zero(std::size_t row_begin = 0,
                                     std::size_t row_end = SIZE_MAX) const;

 private:
  std::size_t rows_ = 0;
  std::size_t bit_cols_ = 0;
  std::size_t stride64_ = 0;  // 64-bit words per row
  std::vector<Word64, DefaultInitAllocator<Word64>> data_;
};

/// Rows [row0, row0 + rows) of a BitMatrix, by reference: lets a kernel
/// read a block of an operand in place instead of copying it out with
/// row_slice.
struct RowWindow {
  const BitMatrix* matrix = nullptr;
  std::size_t row0 = 0;
  std::size_t rows = 0;
};

/// Dense count matrix produced by SNP comparisons: gamma[i,j] as in Eqs. 1-3.
class CountMatrix {
 public:
  CountMatrix() = default;
  /// A rows x cols matrix of zero counts.
  CountMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  /// A rows x cols matrix whose counts are left unset, for a writer that
  /// stores every entry: its memory is written once, not zeroed first.
  [[nodiscard]] static CountMatrix for_overwrite(std::size_t rows,
                                                 std::size_t cols) {
    CountMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::uint32_t at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const std::uint32_t> raw() const {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<std::uint32_t> raw() {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::size_t size_bytes() const {
    return data_.size() * sizeof(std::uint32_t);
  }
  [[nodiscard]] bool operator==(const CountMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

  /// Copies `block` in row by row with its first count at (row0, col0):
  /// how a chunk's or a shard's part joins the full gamma matrix.
  void put_block(const CountMatrix& block, std::size_t row0,
                 std::size_t col0) {
    for (std::size_t i = 0; i < block.rows_; ++i) {
      std::copy_n(block.data_.data() + i * block.cols_, block.cols_,
                  data_.data() + (row0 + i) * cols_ + col0);
    }
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>> data_;
};

}  // namespace snp::bits
