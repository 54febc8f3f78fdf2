#include "bits/bitmatrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace snp::bits {

BitMatrix::BitMatrix(std::size_t rows, std::size_t bit_cols,
                     std::size_t stride_words64)
    : BitMatrix(for_overwrite(rows, bit_cols, stride_words64)) {
  std::fill(data_.begin(), data_.end(), Word64{0});
}

BitMatrix BitMatrix::for_overwrite(std::size_t rows, std::size_t bit_cols,
                                   std::size_t stride_words64) {
  if (stride_words64 == 0) {
    throw std::invalid_argument("BitMatrix: stride_words64 must be positive");
  }
  BitMatrix m;
  m.rows_ = rows;
  m.bit_cols_ = bit_cols;
  const std::size_t min_words = ceil_div(bit_cols, kBitsPerWord64);
  m.stride64_ = std::max<std::size_t>(round_up(min_words, stride_words64),
                                      stride_words64);
  m.data_.resize(rows * m.stride64_);
  return m;
}

void BitMatrix::set(std::size_t row, std::size_t bit, bool value) {
  if (row >= rows_ || bit >= bit_cols_) {
    throw std::out_of_range("BitMatrix::set: index out of range");
  }
  Word64& w = data_[row * stride64_ + bit / kBitsPerWord64];
  const Word64 mask = Word64{1} << (bit % kBitsPerWord64);
  if (value) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

bool BitMatrix::get(std::size_t row, std::size_t bit) const {
  if (row >= rows_ || bit >= bit_cols_) {
    throw std::out_of_range("BitMatrix::get: index out of range");
  }
  const Word64 w = data_[row * stride64_ + bit / kBitsPerWord64];
  return ((w >> (bit % kBitsPerWord64)) & 1u) != 0;
}

std::size_t BitMatrix::row_popcount(std::size_t row) const {
  std::size_t count = 0;
  for (const Word64 w : row64(row)) {
    count += static_cast<std::size_t>(popcount(w));
  }
  return count;
}

BitMatrix BitMatrix::with_stride(std::size_t stride_words64) const {
  BitMatrix out(rows_, bit_cols_, stride_words64);
  const std::size_t copy_words = std::min(stride64_, out.stride64_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * stride64_, copy_words,
                out.data_.data() + r * out.stride64_);
  }
  return out;
}

BitMatrix BitMatrix::negated() const {
  BitMatrix out(rows_, bit_cols_, stride64_);
  const std::size_t full_words = bit_cols_ / kBitsPerWord64;
  const std::size_t tail_bits = bit_cols_ % kBitsPerWord64;
  for (std::size_t r = 0; r < rows_; ++r) {
    auto src = row64(r);
    auto dst = out.row64(r);
    for (std::size_t w = 0; w < full_words; ++w) {
      dst[w] = ~src[w];
    }
    if (tail_bits != 0) {
      dst[full_words] = ~src[full_words] & low_mask64(tail_bits);
    }
  }
  return out;
}

BitMatrix BitMatrix::row_slice(std::size_t row_begin,
                               std::size_t row_end) const {
  if (row_begin > row_end || row_end > rows_) {
    throw std::out_of_range("BitMatrix::row_slice: invalid range");
  }
  BitMatrix out(row_end - row_begin, bit_cols_, stride64_);
  std::copy_n(data_.data() + row_begin * stride64_,
              (row_end - row_begin) * stride64_, out.data_.data());
  return out;
}

bool BitMatrix::operator==(const BitMatrix& other) const {
  if (rows_ != other.rows_ || bit_cols_ != other.bit_cols_) {
    return false;
  }
  // Strides may differ; compare logical words only.
  const std::size_t words = ceil_div(bit_cols_, kBitsPerWord64);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto a = row64(r);
    auto b = other.row64(r);
    if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(words),
                    b.begin())) {
      return false;
    }
  }
  return true;
}

bool BitMatrix::padding_is_zero(std::size_t row_begin,
                                std::size_t row_end) const {
  const std::size_t full_words = bit_cols_ / kBitsPerWord64;
  const std::size_t tail_bits = bit_cols_ % kBitsPerWord64;
  for (std::size_t r = row_begin; r < std::min(row_end, rows_); ++r) {
    auto row = row64(r);
    if (tail_bits != 0 && (row[full_words] & ~low_mask64(tail_bits)) != 0) {
      return false;
    }
    for (std::size_t w = full_words + (tail_bits != 0 ? 1 : 0); w < stride64_;
         ++w) {
      if (row[w] != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace snp::bits
