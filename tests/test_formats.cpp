// On-disk formats: round trips, corruption rejection, invariants.
#include "io/formats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "io/datagen.hpp"

namespace snp::io {
namespace {

TEST(Formats, BitMatrixRoundTrip) {
  const auto m = random_bitmatrix(17, 333, 0.4, 61, 4);
  std::stringstream ss;
  save_bitmatrix(m, ss);
  const auto back = load_bitmatrix(ss);
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.words64_per_row(), m.words64_per_row());
}

TEST(Formats, BitMatrixBadMagicRejected) {
  std::stringstream ss;
  ss << "NOPE garbage";
  EXPECT_THROW((void)load_bitmatrix(ss), std::runtime_error);
}

TEST(Formats, BitMatrixTruncatedRejected) {
  const auto m = random_bitmatrix(8, 100, 0.5, 62);
  std::stringstream ss;
  save_bitmatrix(m, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_bitmatrix(cut), std::runtime_error);
}

TEST(Formats, BitMatrixDirtyPaddingRejected) {
  bits::BitMatrix m(1, 10, 1);  // 54 padding bits in the single word
  std::stringstream ss;
  save_bitmatrix(m, ss);
  std::string blob = ss.str();
  blob[blob.size() - 1] = '\x80';  // set a padding bit
  std::stringstream dirty(blob);
  EXPECT_THROW((void)load_bitmatrix(dirty), std::runtime_error);
}

TEST(Formats, BitMatrixDirtyPaddingWordOfLastRowRejected) {
  // 5 rows of 70 bits at a 4-word stride: each row's last two words are
  // whole padding words. Clean, the file round-trips with its stride; with
  // one bit set in the last row's last word, it is rejected.
  const auto m = random_bitmatrix(5, 70, 0.5, 64, 4);
  ASSERT_EQ(m.words64_per_row(), 4u);
  std::stringstream ss;
  save_bitmatrix(m, ss);
  const std::string clean = ss.str();
  std::stringstream clean_in(clean);
  const auto back = load_bitmatrix(clean_in);
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.words64_per_row(), 4u);
  EXPECT_TRUE(back.padding_is_zero());
  std::string dirty = clean;
  dirty[dirty.size() - 5] = '\x10';  // bit 28 of the last word
  std::stringstream dirty_in(dirty);
  EXPECT_THROW((void)load_bitmatrix(dirty_in), std::runtime_error);
}

TEST(Formats, CountMatrixRoundTrip) {
  bits::CountMatrix c(3, 7);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      c.at(i, j) = static_cast<std::uint32_t>(i * 100 + j);
    }
  }
  std::stringstream ss;
  save_countmatrix(c, ss);
  EXPECT_TRUE(load_countmatrix(ss) == c);
}

TEST(Formats, GenotypeTsvRoundTrip) {
  bits::GenotypeMatrix g(4, 6);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t s = 0; s < 6; ++s) {
      g.at(l, s) = static_cast<std::uint8_t>((l + s) % 3);
    }
  }
  std::stringstream ss;
  save_genotypes_tsv(g, ss);
  const auto back = load_genotypes_tsv(ss);
  ASSERT_EQ(back.loci(), 4u);
  ASSERT_EQ(back.samples(), 6u);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t s = 0; s < 6; ++s) {
      EXPECT_EQ(back.at(l, s), g.at(l, s));
    }
  }
}

TEST(Formats, GenotypeTsvRejectsBadValues) {
  std::stringstream ss;
  ss << "#loci\t1\tsamples\t2\n0\t3\n";
  EXPECT_THROW((void)load_genotypes_tsv(ss), std::runtime_error);
  std::stringstream bad_header;
  bad_header << "wrong\t1\theader\t2\n";
  EXPECT_THROW((void)load_genotypes_tsv(bad_header), std::runtime_error);
}

TEST(Formats, FileRoundTrip) {
  // Unique subdirectory: TempDir() is shared with every concurrently
  // running test process, so generic names like "m.sbm" can collide.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "snpcmp_formats_FileRoundTrip";
  std::filesystem::create_directories(dir);
  const auto path = dir / "m.sbm";
  const auto m = random_bitmatrix(5, 80, 0.5, 63);
  save_bitmatrix(m, path);
  EXPECT_EQ(load_bitmatrix(path), m);
  EXPECT_THROW((void)load_bitmatrix(std::filesystem::path(dir) / "nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace snp::io
