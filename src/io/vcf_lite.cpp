#include "io/vcf_lite.hpp"

#include "io/checked_load.hpp"
#include "io/formats.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace snp::io {

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, '\t')) {
    out.push_back(field);
  }
  return out;
}

/// Decodes a diploid GT call ("0/1", "1|0", "./."). Returns dosage and
/// whether the call was missing.
std::uint8_t decode_gt(const std::string& gt, bool& missing) {
  missing = false;
  if (gt.size() < 3 || (gt[1] != '/' && gt[1] != '|')) {
    throw std::runtime_error("vcf-lite: malformed GT call '" + gt + "'");
  }
  const char a = gt[0];
  const char b = gt[2];
  if (a == '.' || b == '.') {
    missing = true;
    return 0;
  }
  if ((a != '0' && a != '1') || (b != '0' && b != '1')) {
    throw std::runtime_error(
        "vcf-lite: only biallelic GT calls supported, got '" + gt + "'");
  }
  return static_cast<std::uint8_t>((a - '0') + (b - '0'));
}

const char* gt_string(std::uint8_t dosage) {
  switch (dosage) {
    case 0:
      return "0/0";
    case 1:
      return "0/1";
    case 2:
      return "1/1";
    default:
      throw std::invalid_argument("vcf-lite: dosage out of range");
  }
}

}  // namespace

void save_vcf_lite(const PlinkLiteDataset& ds, std::ostream& os) {
  if (!ds.consistent()) {
    throw std::invalid_argument(
        "vcf-lite: metadata does not match the genotype matrix");
  }
  os << "##fileformat=VCFv4.2\n"
     << "##source=snpcmp\n"
     << "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT";
  for (const auto& s : ds.samples) {
    os << '\t' << s;
  }
  os << '\n';
  for (std::size_t l = 0; l < ds.loci.size(); ++l) {
    const LocusInfo& info = ds.loci[l];
    os << info.chrom << '\t' << info.pos << '\t' << info.id << '\t'
       << info.ref << '\t' << info.alt << "\t.\tPASS\t.\tGT";
    for (std::size_t s = 0; s < ds.samples.size(); ++s) {
      os << '\t' << gt_string(ds.genotypes.at(l, s));
    }
    os << '\n';
  }
  if (!os) {
    throw std::runtime_error("vcf-lite: write failed");
  }
}

namespace {

PlinkLiteDataset load_vcf_lite_impl(std::istream& is) {
  PlinkLiteDataset ds;
  std::string line;
  bool header_seen = false;
  std::vector<std::vector<std::uint8_t>> rows;

  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.rfind("##", 0) == 0) {
      continue;  // meta line
    }
    if (line.rfind("#CHROM", 0) == 0) {
      const auto fields = split_tabs(line);
      if (fields.size() < 10 || fields[8] != "FORMAT") {
        throw std::runtime_error(
            "vcf-lite: header must carry FORMAT and at least one sample");
      }
      ds.samples.assign(fields.begin() + 9, fields.end());
      header_seen = true;
      continue;
    }
    if (!header_seen) {
      throw std::runtime_error("vcf-lite: record before #CHROM header");
    }
    const auto fields = split_tabs(line);
    if (fields.size() != 9 + ds.samples.size()) {
      throw std::runtime_error("vcf-lite: wrong column count in record");
    }
    LocusInfo info;
    info.chrom = fields[0];
    info.pos = std::stoull(fields[1]);
    info.id = fields[2];
    if (fields[3].size() != 1 || fields[4].size() != 1) {
      throw std::runtime_error(
          "vcf-lite: only single-nucleotide biallelic records supported");
    }
    info.ref = fields[3][0];
    info.alt = fields[4][0];
    if (fields[8] != "GT" && fields[8].rfind("GT:", 0) != 0) {
      throw std::runtime_error("vcf-lite: FORMAT must begin with GT");
    }
    std::vector<std::uint8_t> dosages(ds.samples.size());
    std::size_t locus_missing = 0;
    for (std::size_t s = 0; s < ds.samples.size(); ++s) {
      const std::string& cell = fields[9 + s];
      const std::string gt = cell.substr(0, cell.find(':'));
      bool missing = false;
      dosages[s] = decode_gt(gt, missing);
      locus_missing += missing ? 1u : 0u;
    }
    ds.missing_calls += locus_missing;
    ds.loci.push_back(std::move(info));
    ds.missing_per_locus.push_back(locus_missing);
    rows.push_back(std::move(dosages));
  }
  if (!header_seen) {
    throw std::runtime_error("vcf-lite: missing #CHROM header");
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

void save_vcf_lite(const PlinkLiteDataset& ds,
                   const std::filesystem::path& path) {
  write_file(path, [&](std::ostream& os) { save_vcf_lite(ds, os); });
}

rt::Status try_load_vcf_lite(std::istream& is, PlinkLiteDataset& out) {
  return checked_load(is, [&] { out = load_vcf_lite_impl(is); });
}

PlinkLiteDataset load_vcf_lite(std::istream& is) {
  PlinkLiteDataset ds;
  if (rt::Status st = try_load_vcf_lite(is, ds); !st.ok()) {
    throw rt::Error(std::move(st));
  }
  return ds;
}

PlinkLiteDataset load_vcf_lite(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("vcf-lite: cannot open for reading: " +
                             path.string());
  }
  return load_vcf_lite(is);
}

}  // namespace snp::io
