#include "io/plink_lite.hpp"

#include "io/checked_load.hpp"
#include "io/formats.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace snp::io {

namespace {

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("plink-lite: cannot open for reading: " +
                             path.string());
  }
  return is;
}

}  // namespace

void save_plink_lite(const PlinkLiteDataset& ds, std::ostream& os) {
  if (!ds.consistent()) {
    throw std::invalid_argument(
        "plink-lite: metadata does not match the genotype matrix");
  }
  os << "#plink-lite v1\n#samples";
  for (const auto& s : ds.samples) {
    os << '\t' << s;
  }
  os << '\n';
  for (std::size_t l = 0; l < ds.loci.size(); ++l) {
    const LocusInfo& info = ds.loci[l];
    os << info.chrom << '\t' << info.id << '\t' << info.pos << '\t'
       << info.ref << '\t' << info.alt;
    for (std::size_t s = 0; s < ds.samples.size(); ++s) {
      os << '\t' << static_cast<int>(ds.genotypes.at(l, s));
    }
    os << '\n';
  }
  if (!os) {
    throw std::runtime_error("plink-lite: write failed");
  }
}

namespace {

PlinkLiteDataset load_plink_lite_impl(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "#plink-lite v1") {
    throw std::runtime_error("plink-lite: missing or bad version header");
  }
  if (!std::getline(is, line) || line.rfind("#samples", 0) != 0) {
    throw std::runtime_error("plink-lite: missing #samples header");
  }
  PlinkLiteDataset ds;
  {
    std::istringstream hs(line);
    std::string tok;
    hs >> tok;  // "#samples"
    while (hs >> tok) {
      ds.samples.push_back(tok);
    }
  }
  if (ds.samples.empty()) {
    throw std::runtime_error("plink-lite: no samples declared");
  }

  std::vector<std::vector<std::uint8_t>> rows;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    LocusInfo info;
    if (!(ls >> info.chrom >> info.id >> info.pos >> info.ref >>
          info.alt)) {
      throw std::runtime_error("plink-lite: malformed locus line: " + line);
    }
    std::vector<std::uint8_t> dosages;
    dosages.reserve(ds.samples.size());
    std::size_t locus_missing = 0;
    std::string g;
    while (ls >> g) {
      if (g == ".") {
        ++ds.missing_calls;
        ++locus_missing;
        dosages.push_back(0);
      } else if (g == "0" || g == "1" || g == "2") {
        dosages.push_back(static_cast<std::uint8_t>(g[0] - '0'));
      } else {
        throw std::runtime_error("plink-lite: bad dosage '" + g + "'");
      }
    }
    if (dosages.size() != ds.samples.size()) {
      throw std::runtime_error(
          "plink-lite: locus " + info.id + " has " +
          std::to_string(dosages.size()) + " calls for " +
          std::to_string(ds.samples.size()) + " samples");
    }
    ds.loci.push_back(std::move(info));
    ds.missing_per_locus.push_back(locus_missing);
    rows.push_back(std::move(dosages));
  }

  ds.genotypes = bits::GenotypeMatrix(rows.size(), ds.samples.size());
  for (std::size_t l = 0; l < rows.size(); ++l) {
    for (std::size_t s = 0; s < ds.samples.size(); ++s) {
      ds.genotypes.at(l, s) = rows[l][s];
    }
  }
  return ds;
}

}  // namespace

PlinkLiteDataset with_synthetic_metadata(bits::GenotypeMatrix genotypes,
                                         const std::string& chrom,
                                         std::uint64_t start_pos,
                                         std::uint64_t spacing) {
  PlinkLiteDataset ds;
  ds.loci.reserve(genotypes.loci());
  for (std::size_t l = 0; l < genotypes.loci(); ++l) {
    LocusInfo info;
    info.chrom = chrom;
    info.id = "rs" + std::to_string(100000 + l);
    info.pos = start_pos + l * spacing;
    info.ref = 'A';
    info.alt = 'G';
    ds.loci.push_back(std::move(info));
  }
  ds.samples.reserve(genotypes.samples());
  for (std::size_t s = 0; s < genotypes.samples(); ++s) {
    ds.samples.push_back("sample" + std::to_string(s));
  }
  ds.genotypes = std::move(genotypes);
  return ds;
}

void save_plink_lite(const PlinkLiteDataset& ds,
                     const std::filesystem::path& path) {
  write_file(path, [&](std::ostream& os) { save_plink_lite(ds, os); });
}

rt::Status try_load_plink_lite(std::istream& is, PlinkLiteDataset& out) {
  return checked_load(is, [&] { out = load_plink_lite_impl(is); });
}

PlinkLiteDataset load_plink_lite(std::istream& is) {
  PlinkLiteDataset ds;
  if (rt::Status st = try_load_plink_lite(is, ds); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return ds;
}

PlinkLiteDataset load_plink_lite(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_plink_lite(is);
}

}  // namespace snp::io
