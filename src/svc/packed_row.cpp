#include "svc/packed_row.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace snp::svc {
namespace {

/// Bytes per offset for a block whose counts span `spread`.
[[nodiscard]] std::uint8_t width_for(std::uint32_t spread) {
  if (spread <= std::numeric_limits<std::uint8_t>::max()) return 1;
  if (spread <= std::numeric_limits<std::uint16_t>::max()) return 2;
  return 4;
}

/// Calls f(b, n) for every block b of a row of `size` counts, n being the
/// block's length. Full blocks pass kBlock as a constant, so their loops
/// compile without a remainder.
template <typename F>
void for_each_block(std::size_t size, F&& f) {
  const std::size_t full = size / PackedRow::kBlock;
  for (std::size_t b = 0; b < full; ++b) f(b, PackedRow::kBlock);
  if (size % PackedRow::kBlock != 0) f(full, size % PackedRow::kBlock);
}

template <typename T>
void narrow(const std::uint32_t* counts, std::size_t n, std::uint32_t base,
            T* out) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = static_cast<T>(counts[j] - base);
  }
}

/// Appends `n` offsets plus `base` to `out`. Growing `out` a block at a
/// time zero-fills each block just before it is written; a widening
/// insert that skips the fill measured faster on a reused buffer but
/// slower for hits served into fresh rows (EXPERIMENTS.md).
template <typename T>
void widen(const T* offsets, std::size_t n, std::uint32_t base,
           std::vector<std::uint32_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::uint32_t* dst = out.data() + at;
  for (std::size_t j = 0; j < n; ++j) dst[j] = base + offsets[j];
}

}  // namespace

PackedRow::PackedRow(std::span<const std::uint32_t> row)
    : size_(row.size()),
      base_((row.size() + kBlock - 1) / kBlock),
      width_(base_.size()) {
  // The first pass finds each block's minimum and width, so that the
  // offset arrays are allocated at their exact sizes before the second
  // pass fills them. `held` and `at` count offsets by width (index 1, 2
  // or 4).
  std::array<std::size_t, 5> held{};
  for_each_block(size_, [&](std::size_t b, std::size_t n) {
    std::uint32_t lo = row[b * kBlock];
    std::uint32_t hi = lo;
    for (const std::uint32_t v : row.subspan(b * kBlock, n)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    base_[b] = lo;
    width_[b] = width_for(hi - lo);
    held[width_[b]] += n;
  });
  off8_.resize(held[1]);
  off16_.resize(held[2]);
  off32_.resize(held[4]);
  std::array<std::size_t, 5> at{};
  for_each_block(size_, [&](std::size_t b, std::size_t n) {
    const std::uint32_t* counts = row.data() + b * kBlock;
    const std::uint8_t w = width_[b];
    if (w == 1) {
      narrow(counts, n, base_[b], off8_.data() + at[w]);
    } else if (w == 2) {
      narrow(counts, n, base_[b], off16_.data() + at[w]);
    } else {
      narrow(counts, n, base_[b], off32_.data() + at[w]);
    }
    at[w] += n;
  });
}

void PackedRow::decode(std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(size_);
  const std::uint8_t* o8 = off8_.data();
  const std::uint16_t* o16 = off16_.data();
  const std::uint32_t* o32 = off32_.data();
  for_each_block(size_, [&](std::size_t b, std::size_t n) {
    if (width_[b] == 1) {
      widen(o8, n, base_[b], out);
      o8 += n;
    } else if (width_[b] == 2) {
      widen(o16, n, base_[b], out);
      o16 += n;
    } else {
      widen(o32, n, base_[b], out);
      o32 += n;
    }
  });
}

std::size_t PackedRow::size_bytes() const {
  return off8_.size() * sizeof(std::uint8_t) +
         off16_.size() * sizeof(std::uint16_t) +
         off32_.size() * sizeof(std::uint32_t) +
         base_.size() * (sizeof(std::uint32_t) + sizeof(std::uint8_t));
}

}  // namespace snp::svc
