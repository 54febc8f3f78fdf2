#include "io/formats.hpp"

#include "io/checked_load.hpp"

#include "obs/obs.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace snp::io {

namespace {

constexpr std::array<char, 4> kBitMagic = {'S', 'B', 'M', '1'};
constexpr std::array<char, 4> kCountMagic = {'S', 'C', 'M', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) {
    throw std::runtime_error("snp::io: truncated stream");
  }
  return v;
}

void expect_magic(std::istream& is, const std::array<char, 4>& magic,
                  const char* what) {
  std::array<char, 4> got{};
  is.read(got.data(), got.size());
  if (!is || got != magic) {
    throw std::runtime_error(std::string("snp::io: bad magic for ") + what);
  }
}

}  // namespace

std::uint64_t checked_payload_bytes(std::istream& is,
                                    std::uint64_t expected) {
  // Guard against corrupted headers demanding absurd allocations (a fuzz
  // finding): when the stream is seekable, the payload must match the
  // remaining bytes exactly; otherwise fall back to a hard sanity cap.
  const auto here = is.tellg();
  if (here != std::streampos(-1)) {
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(here);
    if (end != std::streampos(-1)) {
      const auto remaining =
          static_cast<std::uint64_t>(end - here);
      if (remaining != expected) {
        throw std::runtime_error(
            "snp::io: header promises " + std::to_string(expected) +
            " payload bytes but the stream holds " +
            std::to_string(remaining));
      }
      return expected;
    }
  }
  constexpr std::uint64_t kSanityCap = 8ull << 30;  // 8 GiB
  if (expected > kSanityCap) {
    throw std::runtime_error(
        "snp::io: implausible header (payload over 8 GiB on an "
        "unseekable stream)");
  }
  return expected;
}

namespace {

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("snp::io: cannot open for writing: " +
                             path.string());
  }
  return os;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("snp::io: cannot open for reading: " +
                             path.string());
  }
  return is;
}

}  // namespace

void save_bitmatrix(const bits::BitMatrix& m, std::ostream& os) {
  SNP_OBS_SPAN("io.save_bitmatrix");
  SNP_OBS_COUNT("io.save.bytes", m.raw64().size_bytes());
  os.write(kBitMagic.data(), kBitMagic.size());
  write_u64(os, m.rows());
  write_u64(os, m.bit_cols());
  write_u64(os, m.words64_per_row());
  const auto raw = m.raw64();
  os.write(reinterpret_cast<const char*>(raw.data()),
           static_cast<std::streamsize>(raw.size_bytes()));
  if (!os) {
    throw std::runtime_error("snp::io: write failed (bit matrix)");
  }
}

namespace {

/// rows * cols * elem_bytes, the payload a header declares, or `corrupt`
/// thrown when the product does not fit in 64 bits: each dimension may be
/// up to 2^40, and a wrapped size would pass checked_payload_bytes.
std::uint64_t payload_bytes(std::uint64_t rows, std::uint64_t cols,
                            std::uint64_t elem_bytes, const char* corrupt) {
  if (cols != 0 &&
      rows > std::numeric_limits<std::uint64_t>::max() / cols / elem_bytes) {
    throw std::runtime_error(corrupt);
  }
  return rows * cols * elem_bytes;
}

bits::BitMatrix load_bitmatrix_impl(std::istream& is) {
  SNP_OBS_SPAN("io.load_bitmatrix");
  expect_magic(is, kBitMagic, "bit matrix");
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t bit_cols = read_u64(is);
  const std::uint64_t stride = read_u64(is);
  constexpr std::uint64_t kDimCap = 1ull << 40;
  constexpr const char* kCorrupt = "snp::io: corrupt bit-matrix header";
  if (stride == 0 || rows > kDimCap || stride > kDimCap ||
      bit_cols > kDimCap ||
      stride < bits::ceil_div(bit_cols, bits::kBitsPerWord64)) {
    throw std::runtime_error(kCorrupt);
  }
  (void)checked_payload_bytes(
      is, payload_bytes(rows, stride, sizeof(bits::Word64), kCorrupt));
  // The payload, padding words included, is read straight into the
  // matrix, whose stride is the header's, so its memory is written once.
  auto m = bits::BitMatrix::for_overwrite(rows, bit_cols, stride);
  const auto raw = m.raw64();
  is.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size_bytes()));
  if (!is) {
    throw std::runtime_error("snp::io: truncated bit matrix");
  }
  SNP_OBS_COUNT("io.load.bytes", raw.size_bytes());
  if (!m.padding_is_zero()) {
    // Set bits in the word-padding region cannot come from the writer —
    // this is bit-flip corruption made detectable by construction.
    throw std::runtime_error(
        "snp::io: bit matrix violates the zero-padding invariant");
  }
  return m;
}

}  // namespace

rt::Status try_load_bitmatrix(std::istream& is, bits::BitMatrix& out) {
  return checked_load(is, [&] { out = load_bitmatrix_impl(is); });
}

bits::BitMatrix load_bitmatrix(std::istream& is) {
  bits::BitMatrix m;
  if (rt::Status st = try_load_bitmatrix(is, m); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return m;
}

void save_countmatrix(const bits::CountMatrix& m, std::ostream& os) {
  SNP_OBS_SPAN("io.save_countmatrix");
  SNP_OBS_COUNT("io.save.bytes", m.raw().size_bytes());
  os.write(kCountMagic.data(), kCountMagic.size());
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  const auto raw = m.raw();
  os.write(reinterpret_cast<const char*>(raw.data()),
           static_cast<std::streamsize>(raw.size_bytes()));
  if (!os) {
    throw std::runtime_error("snp::io: write failed (count matrix)");
  }
}

namespace {

bits::CountMatrix load_countmatrix_impl(std::istream& is) {
  SNP_OBS_SPAN("io.load_countmatrix");
  expect_magic(is, kCountMagic, "count matrix");
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  constexpr std::uint64_t kDimCap = 1ull << 40;
  constexpr const char* kCorrupt = "snp::io: corrupt count-matrix header";
  if (rows > kDimCap || cols > kDimCap) {
    throw std::runtime_error(kCorrupt);
  }
  (void)checked_payload_bytes(
      is, payload_bytes(rows, cols, sizeof(std::uint32_t), kCorrupt));
  auto m = bits::CountMatrix::for_overwrite(rows, cols);
  const auto raw = m.raw();
  is.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size_bytes()));
  if (!is) {
    throw std::runtime_error("snp::io: truncated count matrix");
  }
  SNP_OBS_COUNT("io.load.bytes", raw.size_bytes());
  return m;
}

}  // namespace

rt::Status try_load_countmatrix(std::istream& is, bits::CountMatrix& out) {
  return checked_load(is, [&] { out = load_countmatrix_impl(is); });
}

bits::CountMatrix load_countmatrix(std::istream& is) {
  bits::CountMatrix m;
  if (rt::Status st = try_load_countmatrix(is, m); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return m;
}

void save_genotypes_tsv(const bits::GenotypeMatrix& g, std::ostream& os) {
  os << "#loci\t" << g.loci() << "\tsamples\t" << g.samples() << '\n';
  for (std::size_t locus = 0; locus < g.loci(); ++locus) {
    for (std::size_t s = 0; s < g.samples(); ++s) {
      os << static_cast<int>(g.at(locus, s))
         << (s + 1 == g.samples() ? '\n' : '\t');
    }
  }
  if (!os) {
    throw std::runtime_error("snp::io: write failed (genotype tsv)");
  }
}

namespace {

bits::GenotypeMatrix load_genotypes_tsv_impl(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    throw std::runtime_error("snp::io: missing genotype tsv header");
  }
  std::istringstream hs(header);
  std::string tag1, tag2;
  std::size_t loci = 0, samples = 0;
  hs >> tag1 >> loci >> tag2 >> samples;
  if (tag1 != "#loci" || tag2 != "samples") {
    throw std::runtime_error("snp::io: bad genotype tsv header");
  }
  bits::GenotypeMatrix g(loci, samples);
  for (std::size_t locus = 0; locus < loci; ++locus) {
    for (std::size_t s = 0; s < samples; ++s) {
      int v = -1;
      if (!(is >> v) || v < 0 || v > 2) {
        throw std::runtime_error("snp::io: bad genotype value");
      }
      g.at(locus, s) = static_cast<std::uint8_t>(v);
    }
  }
  return g;
}

}  // namespace

rt::Status try_load_genotypes_tsv(std::istream& is,
                                  bits::GenotypeMatrix& out) {
  return checked_load(is, [&] { out = load_genotypes_tsv_impl(is); });
}

bits::GenotypeMatrix load_genotypes_tsv(std::istream& is) {
  bits::GenotypeMatrix g;
  if (rt::Status st = try_load_genotypes_tsv(is, g); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return g;
}

void save_bitmatrix(const bits::BitMatrix& m,
                    const std::filesystem::path& path) {
  auto os = open_out(path);
  save_bitmatrix(m, os);
}

bits::BitMatrix load_bitmatrix(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_bitmatrix(is);
}

void save_countmatrix(const bits::CountMatrix& m,
                      const std::filesystem::path& path) {
  auto os = open_out(path);
  save_countmatrix(m, os);
}

bits::CountMatrix load_countmatrix(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_countmatrix(is);
}

void save_genotypes_tsv(const bits::GenotypeMatrix& g,
                        const std::filesystem::path& path) {
  auto os = open_out(path);
  save_genotypes_tsv(g, os);
}

bits::GenotypeMatrix load_genotypes_tsv(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_genotypes_tsv(is);
}

}  // namespace snp::io
