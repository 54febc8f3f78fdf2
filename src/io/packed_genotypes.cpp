#include "io/packed_genotypes.hpp"

#include "io/checked_load.hpp"
#include "io/formats.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace snp::io {

namespace {

constexpr std::array<char, 4> kMagic = {'S', 'G', 'P', '1'};

std::uint8_t dosage_to_code(std::uint8_t dosage) {
  switch (dosage) {
    case 0:
      return PackedGenotypes::kHomMajor;
    case 1:
      return PackedGenotypes::kHet;
    case 2:
      return PackedGenotypes::kHomMinor;
    default:
      throw std::invalid_argument("PackedGenotypes: dosage out of range");
  }
}

std::uint8_t code_to_dosage(std::uint8_t code) {
  switch (code) {
    case PackedGenotypes::kHomMajor:
    case PackedGenotypes::kMissing:
      return 0;
    case PackedGenotypes::kHet:
      return 1;
    case PackedGenotypes::kHomMinor:
      return 2;
    default:
      return 0;
  }
}

}  // namespace

PackedGenotypes::PackedGenotypes(std::size_t loci, std::size_t samples)
    : loci_(loci),
      samples_(samples),
      bytes_per_locus_((samples + 3) / 4),
      data_(loci * bytes_per_locus_, 0) {}

std::uint8_t PackedGenotypes::code(std::size_t locus,
                                   std::size_t sample) const {
  if (locus >= loci_ || sample >= samples_) {
    throw std::out_of_range("PackedGenotypes::code: index out of range");
  }
  const std::uint8_t byte =
      data_[locus * bytes_per_locus_ + sample / 4];
  return static_cast<std::uint8_t>((byte >> (2 * (sample % 4))) & 0b11);
}

void PackedGenotypes::set_code(std::size_t locus, std::size_t sample,
                               std::uint8_t c) {
  if (locus >= loci_ || sample >= samples_) {
    throw std::out_of_range(
        "PackedGenotypes::set_code: index out of range");
  }
  if (c > 0b11) {
    throw std::invalid_argument("PackedGenotypes::set_code: bad code");
  }
  std::uint8_t& byte = data_[locus * bytes_per_locus_ + sample / 4];
  const int shift = 2 * static_cast<int>(sample % 4);
  byte = static_cast<std::uint8_t>(
      (byte & ~(0b11 << shift)) | (c << shift));
}

std::uint8_t PackedGenotypes::dosage(std::size_t locus,
                                     std::size_t sample) const {
  return code_to_dosage(code(locus, sample));
}

bool PackedGenotypes::is_missing(std::size_t locus,
                                 std::size_t sample) const {
  return code(locus, sample) == kMissing;
}

PackedGenotypes PackedGenotypes::pack(const bits::GenotypeMatrix& g) {
  return pack(g, {});
}

PackedGenotypes PackedGenotypes::pack(const bits::GenotypeMatrix& g,
                                      const std::vector<bool>& missing) {
  if (!missing.empty() && missing.size() != g.loci() * g.samples()) {
    throw std::invalid_argument(
        "PackedGenotypes::pack: missing mask must be loci * samples");
  }
  PackedGenotypes p(g.loci(), g.samples());
  for (std::size_t l = 0; l < g.loci(); ++l) {
    for (std::size_t s = 0; s < g.samples(); ++s) {
      const bool miss =
          !missing.empty() && missing[l * g.samples() + s];
      p.set_code(l, s, miss ? kMissing : dosage_to_code(g.at(l, s)));
    }
  }
  return p;
}

bits::GenotypeMatrix PackedGenotypes::unpack(
    std::vector<std::size_t>* missing_per_locus) const {
  bits::GenotypeMatrix g(loci_, samples_);
  if (missing_per_locus != nullptr) {
    missing_per_locus->assign(loci_, 0);
  }
  for (std::size_t l = 0; l < loci_; ++l) {
    for (std::size_t s = 0; s < samples_; ++s) {
      const std::uint8_t c = code(l, s);
      g.at(l, s) = code_to_dosage(c);
      if (c == kMissing && missing_per_locus != nullptr) {
        ++(*missing_per_locus)[l];
      }
    }
  }
  return g;
}

void save_packed_genotypes(const PackedGenotypes& p, std::ostream& os) {
  os.write(kMagic.data(), kMagic.size());
  const std::uint64_t loci = p.loci();
  const std::uint64_t samples = p.samples();
  os.write(reinterpret_cast<const char*>(&loci), sizeof(loci));
  os.write(reinterpret_cast<const char*>(&samples), sizeof(samples));
  // Stream through the accessor so on-disk bytes are canonical (padding
  // two-bit fields always zero) regardless of in-memory history.
  for (std::size_t l = 0; l < p.loci(); ++l) {
    for (std::size_t s = 0; s < p.samples(); s += 4) {
      std::uint8_t byte = 0;
      for (std::size_t k = 0; k < 4 && s + k < p.samples(); ++k) {
        byte = static_cast<std::uint8_t>(
            byte | (p.code(l, s + k) << (2 * k)));
      }
      os.put(static_cast<char>(byte));
    }
  }
  if (!os) {
    throw std::runtime_error("packed genotypes: write failed");
  }
}

namespace {

PackedGenotypes load_packed_genotypes_impl(std::istream& is) {
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kMagic) {
    throw std::runtime_error("packed genotypes: bad magic");
  }
  std::uint64_t loci = 0, samples = 0;
  is.read(reinterpret_cast<char*>(&loci), sizeof(loci));
  is.read(reinterpret_cast<char*>(&samples), sizeof(samples));
  if (!is) {
    throw std::runtime_error("packed genotypes: truncated header");
  }
  constexpr std::uint64_t kDimCap = 1ull << 40;
  if (loci > kDimCap || samples > kDimCap) {
    throw std::runtime_error("packed genotypes: implausible header");
  }
  (void)checked_payload_bytes(is, loci * ((samples + 3) / 4));
  PackedGenotypes p(loci, samples);
  const std::size_t bytes_per_locus = (samples + 3) / 4;
  std::vector<char> row(bytes_per_locus);
  for (std::uint64_t l = 0; l < loci; ++l) {
    is.read(row.data(), static_cast<std::streamsize>(row.size()));
    if (!is) {
      throw std::runtime_error("packed genotypes: truncated data");
    }
    for (std::uint64_t s = 0; s < samples; ++s) {
      const auto byte = static_cast<std::uint8_t>(row[s / 4]);
      p.set_code(l, s,
                 static_cast<std::uint8_t>((byte >> (2 * (s % 4))) &
                                           0b11));
    }
  }
  return p;
}

}  // namespace

rt::Status try_load_packed_genotypes(std::istream& is,
                                     PackedGenotypes& out) {
  return checked_load(is, [&] { out = load_packed_genotypes_impl(is); });
}

PackedGenotypes load_packed_genotypes(std::istream& is) {
  PackedGenotypes p;
  if (rt::Status st = try_load_packed_genotypes(is, p); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return p;
}

void save_packed_genotypes(const PackedGenotypes& p,
                           const std::filesystem::path& path) {
  write_file(path, [&](std::ostream& os) { save_packed_genotypes(p, os); });
}

PackedGenotypes load_packed_genotypes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("packed genotypes: cannot open " +
                             path.string());
  }
  return load_packed_genotypes(is);
}

}  // namespace snp::io
