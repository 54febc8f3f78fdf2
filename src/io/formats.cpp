#include "io/formats.hpp"

#include "io/checked_load.hpp"

#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace snp::io {

namespace {

constexpr std::array<char, 4> kBitMagic = {'S', 'B', 'M', '1'};
constexpr std::array<char, 4> kCountMagic = {'S', 'C', 'M', '1'};

/// Throws the kIoCorrupt status of a failure found at byte `at`.
[[noreturn]] void corrupt(std::string what, std::uint64_t at) {
  throw rt::Error(rt::ErrorCode::kIoCorrupt, std::move(what), at);
}

/// Throws unless the `remaining` bytes after a header are the `expected`
/// payload it promises.
void expect_payload(std::uint64_t expected, std::uint64_t remaining) {
  if (remaining != expected) {
    throw std::runtime_error("snp::io: header promises " +
                             std::to_string(expected) +
                             " payload bytes but the stream holds " +
                             std::to_string(remaining));
  }
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// The `N` u64 fields after `magic` in `head`, the first bytes of an input
/// that starts at byte `base`; `head` is shorter than the header only
/// where the input ends. A failure's offset is where a stream reading the
/// header field by field stops: past the magic, or at the input's end.
template <std::size_t N>
std::array<std::uint64_t, N> parse_header(std::span<const char> head,
                                          const std::array<char, 4>& magic,
                                          const char* what,
                                          std::uint64_t base) {
  if (head.size() < magic.size() ||
      !std::equal(magic.begin(), magic.end(), head.begin())) {
    corrupt(std::string("snp::io: bad magic for ") + what,
            base + std::min(head.size(), magic.size()));
  }
  std::array<std::uint64_t, N> fields{};
  if (head.size() < magic.size() + sizeof(fields)) {
    corrupt("snp::io: truncated stream", base + head.size());
  }
  std::memcpy(fields.data(), head.data() + magic.size(), sizeof(fields));
  return fields;
}

/// parse_header over the next bytes of `is`.
template <std::size_t N>
std::array<std::uint64_t, N> read_header(std::istream& is,
                                         const std::array<char, 4>& magic,
                                         const char* what) {
  const auto start = is.tellg();
  std::array<char, 4 + N * sizeof(std::uint64_t)> head{};
  is.read(head.data(), head.size());
  return parse_header<N>(
      {head.data(), static_cast<std::size_t>(is.gcount())}, magic, what,
      start == std::streampos(-1) ? 0 : static_cast<std::uint64_t>(start));
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
      expect_payload(expected, static_cast<std::uint64_t>(end - here));
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

void write_file(const std::filesystem::path& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("snp::io: cannot open for writing: " +
                             path.string());
  }
  write(os);
  os.close();
  if (!os) {
    throw std::runtime_error("snp::io: write failed: " + path.string());
  }
}

namespace {

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

/// rows * cols * elem_bytes, the payload a header declares, or nullopt
/// when the product does not fit in 64 bits: each dimension may be up to
/// 2^40, and a wrapped size would pass the payload-size check.
std::optional<std::uint64_t> payload_bytes(std::uint64_t rows,
                                           std::uint64_t cols,
                                           std::uint64_t elem_bytes) {
  if (cols != 0 &&
      rows > std::numeric_limits<std::uint64_t>::max() / cols / elem_bytes) {
    return std::nullopt;
  }
  return rows * cols * elem_bytes;
}

/// Magic, rows, bit columns and stride.
constexpr std::size_t kBitHeaderBytes = 4 + 3 * sizeof(std::uint64_t);

/// A .sbm header that passed every check.
struct BitHeader {
  std::uint64_t rows = 0;
  std::uint64_t bit_cols = 0;
  std::uint64_t stride = 0;   ///< 64-bit words per row, padding included
  std::uint64_t payload = 0;  ///< rows * stride * 8 bytes
};

/// Checks a .sbm header's rows, bit columns and stride.
BitHeader bit_header(const std::array<std::uint64_t, 3>& fields) {
  const auto [rows, bit_cols, stride] = fields;
  constexpr std::uint64_t kDimCap = 1ull << 40;
  const auto payload = payload_bytes(rows, stride, sizeof(bits::Word64));
  if (stride == 0 || rows > kDimCap || stride > kDimCap ||
      bit_cols > kDimCap ||
      stride < bits::ceil_div(bit_cols, bits::kBitsPerWord64) || !payload) {
    throw std::runtime_error("snp::io: corrupt bit-matrix header");
  }
  return {rows, bit_cols, stride, *payload};
}

constexpr const char* kBitTruncated = "snp::io: truncated bit matrix";

/// Rejects set bits in the padding of rows [row0, row1). The writer never
/// sets them, so they are bit-flip corruption made detectable by
/// construction.
void check_padding(const bits::BitMatrix& m, std::size_t row0,
                   std::size_t row1) {
  if (!m.padding_is_zero(row0, row1)) {
    throw std::runtime_error(
        "snp::io: bit matrix violates the zero-padding invariant");
  }
}

bits::BitMatrix load_bitmatrix_impl(std::istream& is) {
  SNP_OBS_SPAN("io.load_bitmatrix");
  const BitHeader h = bit_header(read_header<3>(is, kBitMagic, "bit matrix"));
  (void)checked_payload_bytes(is, h.payload);
  // The payload, padding words included, is read straight into the
  // matrix, whose stride is the header's, so its memory is written once.
  auto m = bits::BitMatrix::for_overwrite(h.rows, h.bit_cols, h.stride);
  const auto raw = m.raw64();
  is.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size_bytes()));
  if (!is) {
    throw std::runtime_error(kBitTruncated);
  }
  SNP_OBS_COUNT("io.load.bytes", raw.size_bytes());
  check_padding(m, 0, m.rows());
  return m;
}

/// An open file descriptor, closed when it goes out of scope.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Reads up to `len` bytes at byte `at` of `fd` into `dst`, retrying
/// short reads; returns fewer only where the file ends.
std::size_t pread_full(int fd, char* dst, std::size_t len, std::uint64_t at) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n =
        ::pread(fd, dst + got, len - got, static_cast<off_t>(at + got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      corrupt("snp::io: read failed: " +
                  std::error_code(errno, std::generic_category()).message(),
              at + got);
    }
  }
  return got;
}

/// A .sbm file of `size` bytes open as `fd`: the stream route's header and
/// size checks, then the payload in row-aligned slices on host_pool(),
/// each read by offset and checked for its own rows' padding. A slice is
/// at least about 256 KiB and there are at most as many as the pool has
/// participants, so a payload under 512 KiB is one read on the calling
/// thread. `at` follows where a stream would stand, for a failure that
/// does not carry its own offset.
bits::BitMatrix load_bitmatrix_fd(int fd, std::uint64_t size,
                                  std::uint64_t& at) {
  SNP_OBS_SPAN("io.load_bitmatrix");
  std::array<char, kBitHeaderBytes> head{};
  const auto fields = parse_header<3>(
      {head.data(), pread_full(fd, head.data(), head.size(), 0)}, kBitMagic,
      "bit matrix", 0);
  at = kBitHeaderBytes;
  const BitHeader h = bit_header(fields);
  expect_payload(h.payload, size - kBitHeaderBytes);
  auto m = bits::BitMatrix::for_overwrite(h.rows, h.bit_cols, h.stride);
  // A stream meets dirty padding once it has read the whole file.
  at = size;
  constexpr std::uint64_t kMinSliceBytes = 256ull << 10;
  exec::ThreadPool& pool = exec::host_pool();
  const std::size_t slices = std::clamp<std::uint64_t>(
      h.payload / kMinSliceBytes, 1, pool.thread_count() + 1);
  const std::size_t slice_rows =
      std::max<std::size_t>(bits::ceil_div(h.rows, slices), 1);
  const std::uint64_t row_bytes = h.stride * sizeof(bits::Word64);
  pool.parallel_for(
      bits::ceil_div(h.rows, slice_rows), [&](std::size_t, std::size_t s) {
        const std::size_t row0 = s * slice_rows;
        const std::size_t row1 = std::min<std::size_t>(row0 + slice_rows,
                                                       h.rows);
        const std::uint64_t first = kBitHeaderBytes + row0 * row_bytes;
        const std::size_t len = (row1 - row0) * row_bytes;
        const std::size_t got = pread_full(
            fd, reinterpret_cast<char*>(m.row64(row0).data()), len, first);
        if (got < len) {
          corrupt(kBitTruncated, first + got);
        }
        check_padding(m, row0, row1);
      });
  SNP_OBS_COUNT("io.load.bytes", h.payload);
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
  const auto [rows, cols] = read_header<2>(is, kCountMagic, "count matrix");
  constexpr std::uint64_t kDimCap = 1ull << 40;
  constexpr const char* kCorrupt = "snp::io: corrupt count-matrix header";
  if (rows > kDimCap || cols > kDimCap) {
    throw std::runtime_error(kCorrupt);
  }
  const auto payload = payload_bytes(rows, cols, sizeof(std::uint32_t));
  if (!payload) {
    throw std::runtime_error(kCorrupt);
  }
  (void)checked_payload_bytes(is, *payload);
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
  write_file(path, [&](std::ostream& os) { save_bitmatrix(m, os); });
}

bits::BitMatrix load_bitmatrix(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    // A pipe or a device cannot be read by offset: read it as a stream.
    auto is = open_in(path);
    return load_bitmatrix(is);
  }
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (file.get() < 0 || ::fstat(file.get(), &st) != 0) {
    throw std::runtime_error("snp::io: cannot open for reading: " +
                             path.string());
  }
  bits::BitMatrix m;
  std::uint64_t at = 0;
  rt::Status status = checked_load_at([&] { return at; }, [&] {
    m = load_bitmatrix_fd(file.get(), static_cast<std::uint64_t>(st.st_size),
                          at);
  });
  if (!status.ok()) {
    throw rt::Error(std::move(status));
  }
  return m;
}

void save_countmatrix(const bits::CountMatrix& m,
                      const std::filesystem::path& path) {
  write_file(path, [&](std::ostream& os) { save_countmatrix(m, os); });
}

bits::CountMatrix load_countmatrix(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_countmatrix(is);
}

void save_genotypes_tsv(const bits::GenotypeMatrix& g,
                        const std::filesystem::path& path) {
  write_file(path, [&](std::ostream& os) { save_genotypes_tsv(g, os); });
}

bits::GenotypeMatrix load_genotypes_tsv(const std::filesystem::path& path) {
  auto is = open_in(path);
  return load_genotypes_tsv(is);
}

}  // namespace snp::io
