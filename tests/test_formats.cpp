// On-disk formats: round trips, corruption rejection, invariants.
#include "io/formats.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/stat.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "io/datagen.hpp"
#include "rt/status.hpp"

namespace snp::io {
namespace {

/// A fresh directory of this test's own: TempDir() is shared with every
/// concurrently running test process, so generic names can collide.
std::filesystem::path test_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("snpcmp_formats_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The Status a throwing load of `load` reports (success if none).
template <typename Load>
rt::Status status_of(const Load& load) {
  try {
    (void)load();
  } catch (const rt::Error& e) {
    return e.status();
  }
  return rt::Status::success();
}

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
  const auto dir = test_dir("FileRoundTrip");
  const auto path = dir / "m.sbm";
  const auto m = random_bitmatrix(5, 80, 0.5, 63);
  save_bitmatrix(m, path);
  EXPECT_EQ(load_bitmatrix(path), m);
  EXPECT_THROW((void)load_bitmatrix(std::filesystem::path(dir) / "nope"),
               std::runtime_error);
}

TEST(Formats, PathLoadsMatchTheStreamOnBothSidesOfTheSliceThreshold) {
  // A path's payload is read in row-aligned slices of at least about
  // 256 KiB, one per pool participant: the small shapes are one inline
  // read, the large ones several slices (on a host with more than one
  // CPU) that the rows do not divide evenly.
  const auto dir = test_dir("SliceThreshold");
  const struct {
    const char* name;
    bits::BitMatrix m;
  } shapes[] = {
      {"one small row", random_bitmatrix(1, 333, 0.4, 71)},
      {"one 1-MiB row", random_bitmatrix(1, 8u << 20, 0.5, 72)},
      {"small", random_bitmatrix(17, 333, 0.4, 73, 4)},
      {"just under 512 KiB", random_bitmatrix(4095, 1024, 0.5, 74)},
      {"just over 512 KiB", random_bitmatrix(4099, 1024, 0.5, 75)},
      {"ragged slices", random_bitmatrix(10007, 1000, 0.5, 76)},
      {"padded stride", random_bitmatrix(40009, 70, 0.5, 77, 4)},
  };
  for (const auto& shape : shapes) {
    const auto path = dir / "m.sbm";
    save_bitmatrix(shape.m, path);
    const auto back = load_bitmatrix(path);
    EXPECT_EQ(back, shape.m) << shape.name;
    EXPECT_EQ(back.words64_per_row(), shape.m.words64_per_row())
        << shape.name;
    std::ifstream is(path, std::ios::binary);
    const auto streamed = load_bitmatrix(is);
    // Padding words included: the two routes give the same memory.
    EXPECT_TRUE(std::equal(back.raw64().begin(), back.raw64().end(),
                           streamed.raw64().begin(), streamed.raw64().end()))
        << shape.name;
  }
}

TEST(Formats, PathLoadRejectsDirtyPaddingInTheLastRowOfTheLastSlice) {
  // 40,009 rows of 70 bits at a 4-word stride: 1.28 MB, sliced. A bit set
  // in the file's last word, a padding word of the last row, is found by
  // the last slice, and reported as the stream reports it.
  const auto dir = test_dir("DirtyLastSlice");
  const auto path = dir / "m.sbm";
  const auto m = random_bitmatrix(40009, 70, 0.5, 78, 4);
  std::stringstream ss;
  save_bitmatrix(m, ss);
  std::string blob = ss.str();
  blob[blob.size() - 5] = '\x10';
  {
    std::ofstream os(path, std::ios::binary);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  const rt::Status by_path = status_of([&] { return load_bitmatrix(path); });
  std::stringstream dirty(blob);
  const rt::Status by_stream =
      status_of([&] { return load_bitmatrix(dirty); });
  EXPECT_EQ(by_path.code, rt::ErrorCode::kIoCorrupt) << by_path.to_string();
  EXPECT_NE(by_path.message.find("zero-padding"), std::string::npos)
      << by_path.message;
  EXPECT_EQ(by_path.offset, blob.size());
  EXPECT_EQ(by_path.code, by_stream.code);
  EXPECT_EQ(by_path.message, by_stream.message);
  EXPECT_EQ(by_path.offset, by_stream.offset);
}

TEST(Formats, PathLoadReadsAFifoAsAStream) {
  // A pipe cannot be read by offset: the path loader reads it as a
  // stream. 600 KB is past the slice threshold and the pipe's buffer.
  const auto dir = test_dir("Fifo");
  const auto fifo = dir / "m.sbm";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const auto m = random_bitmatrix(4800, 1000, 0.5, 79);
  std::thread writer([&] {
    // A loader that gives up early closes its end: the write then fails
    // with EPIPE rather than raising SIGPIPE, which would kill the test.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    // Opening blocks until the loader opens the other end.
    std::ofstream os(fifo, std::ios::binary);
    try {
      save_bitmatrix(m, os);
    } catch (const std::runtime_error&) {
      // Only after a failed load, which the test reports.
    }
  });
  bits::BitMatrix back;
  EXPECT_NO_THROW(back = load_bitmatrix(fifo));
  writer.join();
  EXPECT_EQ(back, m);
}

}  // namespace
}  // namespace snp::io
