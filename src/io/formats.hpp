// On-disk formats.
//
// - SBM1: binary packed bit matrix (the framework's native database format,
//   analogous to PLINK's .bed but word-padded for direct kernel consumption)
// - SCM1: binary count matrix (comparison results)
// - genotype TSV: human-readable loci x samples dosage table for examples
//   and interchange with scripting pipelines.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>

#include "bits/bitmatrix.hpp"
#include "bits/genotype.hpp"
#include "rt/status.hpp"

namespace snp::io {

/// Opens `path` for writing, hands the stream to `write`, then closes it
/// and throws std::runtime_error unless every byte reached the file: a
/// full disk often shows only when the last buffer is flushed. Every
/// path-taking saver and every file the CLI writes goes through here.
void write_file(const std::filesystem::path& path,
                const std::function<void(std::ostream&)>& write);

/// Validates that a binary header's promised payload size matches the
/// bytes actually present (seekable streams) or a hard sanity cap
/// (unseekable) before any allocation happens. Returns `expected`.
/// Shared by every binary loader; throws std::runtime_error on mismatch.
std::uint64_t checked_payload_bytes(std::istream& is,
                                    std::uint64_t expected);

void save_bitmatrix(const bits::BitMatrix& m, std::ostream& os);
void save_bitmatrix(const bits::BitMatrix& m,
                    const std::filesystem::path& path);
[[nodiscard]] bits::BitMatrix load_bitmatrix(std::istream& is);
[[nodiscard]] bits::BitMatrix load_bitmatrix(
    const std::filesystem::path& path);
/// Status-returning variant: on failure returns kIoCorrupt with the byte
/// offset at which parsing stopped and leaves `out` untouched or
/// partially filled (do not use it). Never throws on corrupt input.
[[nodiscard]] rt::Status try_load_bitmatrix(std::istream& is,
                                            bits::BitMatrix& out);

void save_countmatrix(const bits::CountMatrix& m, std::ostream& os);
void save_countmatrix(const bits::CountMatrix& m,
                      const std::filesystem::path& path);
[[nodiscard]] bits::CountMatrix load_countmatrix(std::istream& is);
[[nodiscard]] bits::CountMatrix load_countmatrix(
    const std::filesystem::path& path);
[[nodiscard]] rt::Status try_load_countmatrix(std::istream& is,
                                              bits::CountMatrix& out);

void save_genotypes_tsv(const bits::GenotypeMatrix& g, std::ostream& os);
void save_genotypes_tsv(const bits::GenotypeMatrix& g,
                        const std::filesystem::path& path);
[[nodiscard]] bits::GenotypeMatrix load_genotypes_tsv(std::istream& is);
[[nodiscard]] bits::GenotypeMatrix load_genotypes_tsv(
    const std::filesystem::path& path);
[[nodiscard]] rt::Status try_load_genotypes_tsv(std::istream& is,
                                                bits::GenotypeMatrix& out);

}  // namespace snp::io
