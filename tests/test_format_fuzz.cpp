// Format robustness: every binary loader must reject (throw, never crash
// or hang) arbitrary truncations and byte corruptions of valid files, and
// text loaders must survive line-level mangling. Parameterized sweeps
// stand in for a fuzzer in this offline environment.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/packed_genotypes.hpp"
#include "io/plink_lite.hpp"
#include "io/rng.hpp"
#include "io/vcf_lite.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "rt/fault.hpp"
#include "rt/status.hpp"

namespace snp::io {
namespace {

std::string valid_sbm() {
  std::stringstream ss;
  save_bitmatrix(random_bitmatrix(6, 100, 0.5, 1), ss);
  return ss.str();
}

std::string valid_sgp() {
  std::stringstream ss;
  save_packed_genotypes(
      PackedGenotypes::pack(generate_genotypes(5, 9, {})), ss);
  return ss.str();
}

std::string valid_scm() {
  bits::CountMatrix c(3, 4);
  c.at(1, 2) = 7;
  std::stringstream ss;
  save_countmatrix(c, ss);
  return ss.str();
}

class TruncationSweep : public ::testing::TestWithParam<double> {};

TEST_P(TruncationSweep, BinaryLoadersRejectTruncation) {
  const double frac = GetParam();
  for (const auto& blob : {valid_sbm(), valid_sgp(), valid_scm()}) {
    const auto cut_len = static_cast<std::size_t>(
        frac * static_cast<double>(blob.size()));
    if (cut_len >= blob.size()) {
      continue;
    }
    const std::string cut = blob.substr(0, cut_len);
    bool threw_sbm = false, threw_sgp = false, threw_scm = false;
    try {
      std::stringstream ss(cut);
      (void)load_bitmatrix(ss);
    } catch (const std::exception&) {
      threw_sbm = true;
    }
    try {
      std::stringstream ss(cut);
      (void)load_packed_genotypes(ss);
    } catch (const std::exception&) {
      threw_sgp = true;
    }
    try {
      std::stringstream ss(cut);
      (void)load_countmatrix(ss);
    } catch (const std::exception&) {
      threw_scm = true;
    }
    // A truncated blob can only load under the *matching* loader when the
    // cut happens to land beyond that format's payload — impossible here
    // because cut_len < blob.size(); so at least the matching loader must
    // throw, and the mismatched ones always do (magic check).
    EXPECT_TRUE(threw_sbm || threw_sgp || threw_scm);
    EXPECT_GE(static_cast<int>(threw_sbm) + threw_sgp + threw_scm, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(CutPoints, TruncationSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.45, 0.7,
                                           0.95, 0.999));

class CorruptionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionSweep, HeaderCorruptionNeverCrashes) {
  // Flip random bytes in the header region; the loader must either throw
  // or produce a structurally sane object (never crash / overflow).
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::string blob = valid_sbm();
    const std::size_t header = 4 + 3 * 8;
    const auto at = static_cast<std::size_t>(rng.next_below(header));
    blob[at] = static_cast<char>(rng.next_u64() & 0xff);
    try {
      std::stringstream ss(blob);
      const auto m = load_bitmatrix(ss);
      // If it loaded, dimensions must be internally consistent.
      EXPECT_GE(m.words64_per_row() * 64, m.bit_cols());
      EXPECT_TRUE(m.padding_is_zero());
    } catch (const std::exception&) {
      // rejected: fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(TextFuzz, PlinkLiteLineMangling) {
  PopulationParams p;
  p.seed = 700;
  const auto ds =
      with_synthetic_metadata(generate_genotypes(4, 6, p));
  std::stringstream good;
  save_plink_lite(ds, good);
  const std::string text = good.str();
  // Drop a field from a random data line; the loader must throw.
  const auto first_nl = text.find('\n', text.find('\n') + 1);
  std::string mangled = text;
  const auto tab = mangled.rfind('\t');
  mangled.erase(tab, 2);  // removes the final separator + one digit
  std::stringstream bad(mangled);
  EXPECT_THROW((void)load_plink_lite(bad), std::runtime_error);
  (void)first_nl;
}

TEST(TextFuzz, VcfLiteGarbageLines) {
  const char* cases[] = {
      "garbage\n",
      "##meta only, no header\n",
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts\n"
      "1\tnot_a_number\trs\tA\tG\t.\t.\t.\tGT\t0/0\n",
  };
  for (const char* c : cases) {
    std::stringstream ss(c);
    EXPECT_THROW((void)load_vcf_lite(ss), std::exception) << c;
  }
}

// --- The parsers of untrusted text outside io: SNPCMP_FAULTS
// (rt::FaultPlan::parse), SNPCMP_FLIGHT_RING (obs::parse_flight_ring) and
// obs::jsonlite::parse, which reads serve scripts and `snpcmp report`
// input. Each runs over a seeded corpus of valid inputs and mutants of
// it, and every input must parse or fail the documented way.

/// `count` seeded mutants of `corpus`: byte flips, truncations, and
/// splices of one input's head onto another's tail.
std::vector<std::string> mutants(const std::vector<std::string>& corpus,
                                 std::uint64_t seed, int count) {
  Rng rng(seed);
  const auto pick = [&] { return corpus[rng.next_below(corpus.size())]; };
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string s = pick();
    switch (rng.next_below(3)) {
      case 0:
        for (auto flips = 1 + rng.next_below(3); flips > 0 && !s.empty();
             --flips) {
          s[rng.next_below(s.size())] = static_cast<char>(rng.next_u64());
        }
        break;
      case 1:
        s.resize(rng.next_below(s.size() + 1));
        break;
      default: {
        const std::string tail = pick();
        s = s.substr(0, rng.next_below(s.size() + 1)) +
            tail.substr(rng.next_below(tail.size() + 1));
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ParserFuzz, FaultPlanParsesOrThrowsRtError) {
  const std::vector<std::string> corpus = {
      "",
      "launch:p=0.01:seed=7",
      "h2d:after=3",
      "shard:at=1:after=1",
      "pool:p=0.5:count=2,readback:after=1",
      "alloc:p=1,io:after=2:count=1,timeout:p=0.1:seed=9:at=0",
      "launch:p=nan:after=1",
      "launch:p=1e-3:seed=18446744073709551615",
  };
  int parsed = 0;
  for (const std::string& spec : mutants(corpus, 9101, 3000)) {
    try {
      const rt::FaultPlan plan = rt::FaultPlan::parse(spec);
      for (const rt::FaultClause& c : plan.clauses) {
        EXPECT_TRUE(c.p >= 0.0 && c.p <= 1.0) << "'" << spec << "'";
        EXPECT_TRUE(c.p > 0.0 || c.after > 0) << "'" << spec << "'";
        EXPECT_GE(c.at, -1) << "'" << spec << "'";
      }
      ++parsed;
    } catch (const rt::Error&) {
      // rejected, the documented way
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzz, FlightRingParsesToAPowerOfTwoInRangeOrNullopt) {
  const std::vector<std::string> corpus = {
      "16",  "4096", " 2048 ", "100", "16777216", "\t64\n",
      "1e4", "-5",   "",       "99999999999999999999999",
  };
  int parsed = 0;
  for (const std::string& text : mutants(corpus, 9102, 3000)) {
    if (const auto cap = obs::parse_flight_ring(text)) {
      EXPECT_GE(*cap, 16u) << "'" << text << "'";
      EXPECT_LE(*cap, obs::FlightRecorder::kMaxCapacity) << "'" << text << "'";
      EXPECT_EQ(*cap & (*cap - 1), 0u) << "'" << text << "'";
      ++parsed;
    }
  }
  EXPECT_GT(parsed, 0);
}

/// A seeded valid JSON document of at most `depth` nested levels.
std::string random_json(Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 7 : 5)) {
    case 0:
      return "null";
    case 1:
      return rng.next_below(2) != 0 ? "true" : "false";
    case 2:
      return std::to_string(rng.next_u64() >> rng.next_below(64));
    case 3:
      return "-" + std::to_string(rng.next_below(1000)) + ".25e-3";
    case 4:
      return R"("a\"b\\c\n\u00e9 \ud83d\ude00")";
    case 5: {
      std::string s = "[";
      for (auto n = rng.next_below(4); n > 0; --n) {
        s += random_json(rng, depth - 1) + (n > 1 ? ", " : "");
      }
      return s + "]";
    }
    default: {
      std::string s = "{";
      for (auto n = rng.next_below(4); n > 0; --n) {
        s += "\"k" + std::to_string(n) + "\": " + random_json(rng, depth - 1) +
             (n > 1 ? "," : "");
      }
      return s + "}";
    }
  }
}

TEST(ParserFuzz, JsonliteParsesOrThrowsRuntimeError) {
  std::vector<std::string> corpus = {
      R"({"submit": {"query": 3, "deadline_ms": 50}})",
      R"({"barrier": true})",
      R"({"epoch": {"db": "next.sbm"}})",
      R"([{"name": "svc.batch", "ph": "X", "ts": 1.5, "dur": 2, "pid": 1}])",
      R"({"counters": {"svc.batches": 12}, "gauges": {"svc.cache.bytes": 474}})",
  };
  Rng rng(9103);
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(random_json(rng, 5));
  }
  for (const std::string& doc : corpus) {
    EXPECT_NO_THROW((void)obs::jsonlite::parse(doc)) << doc;
  }
  // At the nesting cap and past it, alone and mutated.
  for (const std::size_t depth : {64u, 65u, 200u}) {
    const std::string open(depth, '[');
    const std::string close(depth, ']');
    corpus.push_back(open + close);
    if (depth > 64) {
      EXPECT_THROW((void)obs::jsonlite::parse(open + close),
                   std::runtime_error);
    } else {
      EXPECT_NO_THROW((void)obs::jsonlite::parse(open + close));
    }
  }
  int parsed = 0;
  for (const std::string& doc : mutants(corpus, 9104, 3000)) {
    try {
      (void)obs::jsonlite::parse(doc);
      ++parsed;
    } catch (const std::runtime_error&) {
      // rejected, the documented way
    }
  }
  EXPECT_GT(parsed, 0);
}

// --- rt::Status loader API (docs/robustness.md): truncation at *every*
// byte boundary must come back as a structured kIoCorrupt with the byte
// offset where parsing stopped — never a crash, hang, or silent success.

TEST(StatusApi, BinaryLoadersFlagEveryTruncationBoundaryWithOffset) {
  const struct {
    const char* name;
    std::string blob;
    std::function<rt::Status(std::istream&)> try_load;
  } cases[] = {
      {"sbm", valid_sbm(),
       [](std::istream& is) {
         bits::BitMatrix out;
         return try_load_bitmatrix(is, out);
       }},
      {"sgp", valid_sgp(),
       [](std::istream& is) {
         PackedGenotypes out;
         return try_load_packed_genotypes(is, out);
       }},
      {"scm", valid_scm(),
       [](std::istream& is) {
         bits::CountMatrix out;
         return try_load_countmatrix(is, out);
       }},
  };
  for (const auto& c : cases) {
    for (std::size_t cut = 0; cut < c.blob.size(); ++cut) {
      std::stringstream ss(c.blob.substr(0, cut));
      const rt::Status st = c.try_load(ss);
      ASSERT_FALSE(st.ok()) << c.name << " truncated at byte " << cut;
      EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt)
          << c.name << " @" << cut << ": " << st.to_string();
      EXPECT_LE(st.offset, cut) << c.name << " @" << cut;
    }
    // The untruncated blob still loads clean through the same API.
    std::stringstream ss(c.blob);
    EXPECT_TRUE(c.try_load(ss).ok()) << c.name;
  }
}

/// A header of `magic` and the given u64 fields, with no payload.
std::string header_only(const char* magic,
                        std::initializer_list<std::uint64_t> fields) {
  std::string blob(magic, 4);
  for (const std::uint64_t v : fields) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return blob;
}

/// `blob` written to a file in a directory of the running test's own:
/// TempDir() is shared with every concurrently running test process.
std::filesystem::path write_blob(const std::string& name,
                                 const std::string& blob) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("snpcmp_format_fuzz_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return path;
}

/// The Status of loading `blob` through a file by path, which reads by
/// offset, after checking that loading it as a stream agrees on the code,
/// the message and the offset.
rt::Status expect_routes_agree(const std::string& blob,
                               const std::string& what) {
  const auto path = write_blob("routes.sbm", blob);
  rt::Status by_path;
  try {
    (void)load_bitmatrix(path);
  } catch (const rt::Error& e) {
    by_path = e.status();
  }
  std::stringstream ss(blob);
  bits::BitMatrix out;
  const rt::Status by_stream = try_load_bitmatrix(ss, out);
  EXPECT_EQ(by_path.code, by_stream.code) << what << ": "
                                          << by_path.to_string();
  EXPECT_EQ(by_path.message, by_stream.message) << what;
  EXPECT_EQ(by_path.offset, by_stream.offset) << what;
  return by_path;
}

TEST(StatusApi, PathLoadsFlagEveryTruncationBoundaryLikeTheStream) {
  const std::string blob = valid_sbm();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const rt::Status st = expect_routes_agree(
        blob.substr(0, cut), "truncated at byte " + std::to_string(cut));
    EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt) << "@" << cut;
  }
  EXPECT_EQ(load_bitmatrix(write_blob("whole.sbm", blob)),
            random_bitmatrix(6, 100, 0.5, 1));
}

TEST(StatusApi, PathLoadsRejectCorruptHeadersLikeTheStream) {
  // Bad magic, dimensions past their caps or a stride too narrow for
  // the columns, and sizes that wrap past 64 bits.
  Rng rng(9105);
  for (int trial = 0; trial < 200; ++trial) {
    std::string blob = valid_sbm();
    blob[rng.next_below(4 + 3 * 8)] = static_cast<char>(rng.next_u64());
    (void)expect_routes_agree(blob, "trial " + std::to_string(trial));
  }
  EXPECT_EQ(expect_routes_agree(
                header_only("SBM1", {1ull << 40, 64, 1ull << 24}),
                "wrapping size")
                .code,
            rt::ErrorCode::kIoCorrupt);
}

TEST(StatusApi, IoFaultPlanFiresOncePerPathLoad) {
  // Each path load draws the io site once: with the fault planted on the
  // second draw, only the second of three loads fails.
  const std::string blob = valid_sbm();
  const auto path = write_blob("fault.sbm", blob);
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("io:after=2"));
  EXPECT_NO_THROW((void)load_bitmatrix(path));
  try {
    (void)load_bitmatrix(path);
    FAIL() << "the second load must draw the planted fault";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kIoCorrupt);
    EXPECT_TRUE(e.status().injected);
    EXPECT_EQ(e.status().offset, 0u);
  }
  EXPECT_NO_THROW((void)load_bitmatrix(path));
}

TEST(StatusApi, BinaryLoadersRejectHeadersWhoseSizesOverflow) {
  // Every dimension is within the 2^40 cap, but the payload size each
  // header declares wraps to 0 in 64 bits, which an empty payload matches.
  constexpr std::uint64_t kRows = 1ull << 40;
  {
    // .sbm: 2^40 rows x 2^24 words of stride x 8 B.
    std::stringstream ss(header_only("SBM1", {kRows, 64, 1ull << 24}));
    bits::BitMatrix out;
    const rt::Status st = try_load_bitmatrix(ss, out);
    EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt) << st.to_string();
  }
  {
    // .scm: 2^40 rows x 2^24 columns x 4 B.
    std::stringstream ss(header_only("SCM1", {kRows, 1ull << 24}));
    bits::CountMatrix out;
    const rt::Status st = try_load_countmatrix(ss, out);
    EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt) << st.to_string();
    EXPECT_EQ(out.rows(), 0u);
  }
}

TEST(StatusApi, TextLoadersNeverCrashOnTruncation) {
  // Text formats may truncate onto a line boundary and legitimately
  // parse as a shorter file; the contract is structured-status-or-ok,
  // never a crash or an unclassified escape.
  PopulationParams p;
  p.seed = 31;
  const auto ds = with_synthetic_metadata(generate_genotypes(4, 6, p));
  std::stringstream plink_ss, vcf_ss;
  save_plink_lite(ds, plink_ss);
  save_vcf_lite(ds, vcf_ss);
  const std::string plink_text = plink_ss.str();
  const std::string vcf_text = vcf_ss.str();
  for (std::size_t cut = 0; cut < plink_text.size(); ++cut) {
    std::stringstream ss(plink_text.substr(0, cut));
    PlinkLiteDataset out;
    const rt::Status st = try_load_plink_lite(ss, out);
    if (!st.ok()) {
      EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt) << "plink @" << cut;
    }
  }
  for (std::size_t cut = 0; cut < vcf_text.size(); ++cut) {
    std::stringstream ss(vcf_text.substr(0, cut));
    PlinkLiteDataset out;
    const rt::Status st = try_load_vcf_lite(ss, out);
    if (!st.ok()) {
      EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt) << "vcf @" << cut;
    }
  }
}

TEST(StatusApi, ThrowingAndStatusLoadersAgree) {
  const std::string blob = valid_sbm();
  const std::string cut = blob.substr(0, blob.size() / 2);
  std::stringstream ss1(cut);
  bits::BitMatrix out;
  const rt::Status st = try_load_bitmatrix(ss1, out);
  ASSERT_FALSE(st.ok());
  std::stringstream ss2(cut);
  try {
    (void)load_bitmatrix(ss2);
    FAIL() << "expected rt::Error";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), st.code);
    EXPECT_EQ(e.status().offset, st.offset);
  }
}

TEST(StatusApi, IoInjectionSiteSynthesizesCorruption) {
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("io:after=1"));
  const std::string blob = valid_sbm();
  std::stringstream ss(blob);
  bits::BitMatrix out;
  const rt::Status st = try_load_bitmatrix(ss, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code, rt::ErrorCode::kIoCorrupt);
  EXPECT_TRUE(st.injected);
  // Second load: the one-shot plan is spent, the bytes are fine.
  std::stringstream ss2(blob);
  EXPECT_TRUE(try_load_bitmatrix(ss2, out).ok());
}

}  // namespace
}  // namespace snp::io
