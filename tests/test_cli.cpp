// CLI driver: every subcommand end-to-end through temp files, plus
// error-path coverage.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/plink_lite.hpp"
#include "io/rng.hpp"

namespace snp::cli {
namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

/// Per-test unique temp path. ctest -j runs each discovered test as its
/// own process of this binary; a shared name under TempDir() would let
/// concurrent tests clobber each other's files.
std::string tmp(const std::string& name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("snpcmp_cli_") +
                        info->test_suite_name() + "_" + info->name());
  fs::create_directories(dir);
  return (dir / name).string();
}

TEST(Cli, HelpAndNoArgs) {
  const auto help = run_cli({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  const auto none = run_cli({});
  EXPECT_EQ(none.code, 1);
  EXPECT_NE(none.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandAndOptions) {
  EXPECT_EQ(run_cli({"frobnicate"}).code, 1);
  const auto bad_opt = run_cli({"gen", "--out", tmp("x"), "--bogus", "1"});
  EXPECT_EQ(bad_opt.code, 1);
  EXPECT_NE(bad_opt.err.find("unknown option"), std::string::npos);
  const auto bad_val =
      run_cli({"gen", "--out", tmp("x"), "--loci", "abc"});
  EXPECT_EQ(bad_val.code, 1);
  const auto missing = run_cli({"gen", "--loci", "10"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--out"), std::string::npos);
  const auto dangling = run_cli({"gen", "--out"});
  EXPECT_EQ(dangling.code, 1);
  // A leftover --threads fails loudly, like any unknown option.
  const auto threads = run_cli({"search", "--queries", tmp("q.sbm"), "--db",
                                tmp("db.sbm"), "--threads", "2"});
  EXPECT_EQ(threads.code, 1);
  EXPECT_NE(threads.err.find("unknown option --threads"), std::string::npos)
      << threads.err;
}

TEST(Cli, Devices) {
  const auto r = run_cli({"devices"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Titan V"), std::string::npos);
  EXPECT_NE(r.out.find("Vega 64"), std::string::npos);
  EXPECT_NE(r.out.find("cpu"), std::string::npos);
}

TEST(Cli, FullLdPipeline) {
  const std::string cohort = tmp("cohort.plink");
  const std::string packed = tmp("cohort.sbm");
  const std::string gamma = tmp("gamma.scm");
  auto r = run_cli({"gen", "--loci", "40", "--samples", "200", "--seed",
                    "9", "--ld-block", "8", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"encode", "--in", cohort, "--out", packed});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"ld", "--in", packed, "--device", "gtx980", "--out", gamma,
               "--top", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("GTX 980"), std::string::npos);
  EXPECT_NE(r.out.find("top locus pairs"), std::string::npos);
  EXPECT_TRUE(fs::exists(gamma));
}

TEST(Cli, LdTopPairsBreakTiesByIndex) {
  // Five copies of locus 3 make ten pairs tie at r^2 = 1, far above every
  // pair of independent random loci; they print in (i, j) order.
  auto loci = io::random_bitmatrix(40, 256, 0.4, 31);
  constexpr std::size_t kCopies[] = {11, 20, 27, 36};
  for (const std::size_t copy : kCopies) {
    for (std::size_t s = 0; s < loci.bit_cols(); ++s) {
      loci.set(copy, s, loci.get(3, s));
    }
  }
  const std::string packed = tmp("dup.sbm");
  io::save_bitmatrix(loci, fs::path(packed));
  const std::vector<std::string> tied = {
      "3 x 11",  "3 x 20",  "3 x 27",  "3 x 36",  "11 x 20",
      "11 x 27", "11 x 36", "20 x 27", "20 x 36", "27 x 36"};
  for (const int top : {10, 4}) {
    const auto r = run_cli({"ld", "--in", packed, "--device", "cpu", "--top",
                            std::to_string(top)});
    ASSERT_EQ(r.code, 0) << r.err;
    std::istringstream lines(r.out.substr(r.out.find("top locus pairs")));
    std::string line;
    std::getline(lines, line);
    std::vector<std::string> printed;
    while (std::getline(lines, line)) {
      EXPECT_NE(line.find("r2=1"), std::string::npos) << line;
      printed.push_back(line.substr(2, line.find("  r2=") - 2));
    }
    EXPECT_EQ(printed, std::vector<std::string>(tied.begin(),
                                                tied.begin() + top));
  }
}

TEST(Cli, SearchPipeline) {
  const std::string db = tmp("db.sbm");
  auto r = run_cli({"gendb", "--profiles", "500", "--snps", "256",
                    "--seed", "11", "--out", db});
  ASSERT_EQ(r.code, 0) << r.err;
  // Use the database itself (first rows) as queries: exact matches exist.
  const std::string queries = tmp("q.sbm");
  {
    const auto full = io::load_bitmatrix(fs::path(db));
    io::save_bitmatrix(full.row_slice(3, 5), fs::path(queries));
  }
  r = run_cli({"search", "--queries", queries, "--db", db, "--device",
               "titanv", "--top", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("query 0:  #3 (0 mismatches)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("query 1:  #4 (0 mismatches)"), std::string::npos);
}

TEST(Cli, SearchHostTraceHasStageSlicesByDefault) {
  const std::string db = tmp("db.sbm");
  const std::string queries = tmp("q.sbm");
  const std::string trace = tmp("host.json");
  ASSERT_EQ(run_cli({"gendb", "--profiles", "2000", "--snps", "256",
                     "--seed", "21", "--out", db})
                .code,
            0);
  ASSERT_EQ(run_cli({"gendb", "--profiles", "4", "--snps", "256", "--seed",
                     "22", "--out", queries})
                .code,
            0);
  const auto r = run_cli({"search", "--queries", queries, "--db", db,
                          "--host-trace", trace});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string marker = "wrote host-pipeline timeline (";
  const auto at = r.out.find(marker);
  ASSERT_NE(at, std::string::npos) << r.out;
  const std::size_t chunks = std::stoul(r.out.substr(at + marker.size()));
  ASSERT_GT(chunks, 0u);
  std::ifstream is(trace);
  std::stringstream content;
  content << is.rdbuf();
  const std::string json = content.str();
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  // One slice per stage per chunk, and no other slices.
  EXPECT_EQ(count(R"("ph": "X")"), 3 * chunks) << json;
  for (const std::string stage : {"pack", "exec", "drain"}) {
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(count(R"({"name": ")" + stage + " chunk " +
                      std::to_string(c) + R"(", "ph": "X")"),
                1u)
          << stage << " chunk " << c << " in " << json;
    }
  }
}

TEST(Cli, SearchTraceOutHasHostStageSlicesByDefault) {
  // The merged trace's pipeline process (pid 2) carries one pack, exec
  // and drain slice for every chunk the device timeline (pid 0) shows.
  const std::string db = tmp("db.sbm");
  const std::string queries = tmp("q.sbm");
  const std::string trace = tmp("merged.json");
  ASSERT_EQ(run_cli({"gendb", "--profiles", "2000", "--snps", "256",
                     "--seed", "23", "--out", db})
                .code,
            0);
  ASSERT_EQ(run_cli({"gendb", "--profiles", "4", "--snps", "256", "--seed",
                     "24", "--out", queries})
                .code,
            0);
  const auto r = run_cli({"search", "--queries", queries, "--db", db,
                          "--trace-out", trace});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream is(trace);
  std::stringstream content;
  content << is.rdbuf();
  const std::string json = content.str();
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  std::size_t chunks = 0;
  while (count(R"({"name": "kernel chunk )" + std::to_string(chunks) +
               R"(", "ph": "X", "pid": 0,)") == 1) {
    ++chunks;
  }
  ASSERT_GT(chunks, 0u) << json;
  for (const std::string stage : {"pack", "exec", "drain"}) {
    EXPECT_EQ(count(R"({"name": ")" + stage + " chunk "), chunks)
        << stage << " in " << json;
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(count(R"({"name": ")" + stage + " chunk " +
                      std::to_string(c) + R"(", "ph": "X", "pid": 2,)"),
                1u)
          << stage << " chunk " << c << " in " << json;
    }
  }
}

TEST(Cli, LdMixtureAndSubmitRejectThreads) {
  // The other verbs that once took --threads (search and serve are
  // checked with the usage errors): each runs without the flag and exits
  // 1 with it, so a script that still passes it fails loudly.
  const std::string db = tmp("db.sbm");
  const std::string queries = tmp("q.sbm");
  ASSERT_EQ(run_cli({"gendb", "--profiles", "50", "--snps", "128",
                     "--seed", "25", "--out", db})
                .code,
            0);
  ASSERT_EQ(run_cli({"gendb", "--profiles", "2", "--snps", "128", "--seed",
                     "26", "--out", queries})
                .code,
            0);
  const std::vector<std::vector<std::string>> calls = {
      {"ld", "--in", db},
      {"mixture", "--profiles", db, "--mixtures", queries},
      {"submit", "--db", db, "--queries", queries}};
  for (std::vector<std::string> args : calls) {
    const std::string verb = args.front();
    ASSERT_EQ(run_cli(args).code, 0) << verb << " without --threads";
    args.insert(args.end(), {"--threads", "2"});
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 1) << verb;
    EXPECT_NE(r.err.find("unknown option --threads"), std::string::npos)
        << verb << ": " << r.err;
  }
}

TEST(Cli, MixturePipeline) {
  const std::string db = tmp("mixdb.sbm");
  auto r = run_cli({"gendb", "--profiles", "100", "--snps", "512",
                    "--seed", "13", "--maf-min", "0.02", "--maf-max",
                    "0.15", "--out", db});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string mixtures = tmp("mix.sbm");
  {
    const auto full = io::load_bitmatrix(fs::path(db));
    const auto set = io::generate_mixtures(full, 2, 2, 14);
    io::save_bitmatrix(set.mixtures, fs::path(mixtures));
  }
  for (const char* pre : {"no", "yes"}) {
    r = run_cli({"mixture", "--profiles", db, "--mixtures", mixtures,
                 "--device", "vega64", "--pre-negate", pre});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("mixture 0:"), std::string::npos);
    EXPECT_NE(r.out.find("consistent profiles"), std::string::npos);
  }
}

TEST(Cli, EstimateCommand) {
  const auto r = run_cli({"estimate", "--m", "32", "--n", "1000000",
                          "--kbits", "512", "--op", "xor", "--device",
                          "vega64"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("projected 32 x 1000000 x 512 bits (XOR)"),
            std::string::npos);
  EXPECT_NE(r.out.find("end-to-end:"), std::string::npos);
  const auto cpu = run_cli({"estimate", "--device", "cpu", "--m", "100",
                            "--n", "100", "--kbits", "320", "--op",
                            "and"});
  EXPECT_EQ(cpu.code, 0);
  EXPECT_NE(cpu.out.find("Xeon"), std::string::npos);
}

TEST(Cli, EnvCommand) {
  const auto text = run_cli({"env"});
  ASSERT_EQ(text.code, 0) << text.err;
  EXPECT_NE(text.out.find("cpu:"), std::string::npos);
  EXPECT_NE(text.out.find("compiler:"), std::string::npos);
  EXPECT_NE(text.out.find("perf:"), std::string::npos);
  const auto json = run_cli({"env", "--format", "json"});
  ASSERT_EQ(json.code, 0) << json.err;
  EXPECT_EQ(json.out.front(), '{');
  EXPECT_NE(json.out.find("\"cpu_model\""), std::string::npos);
  EXPECT_NE(json.out.find("\"logical_cores\""), std::string::npos);
  EXPECT_EQ(run_cli({"env", "--format", "xml"}).code, 1);
}

TEST(Cli, EstimatePerfFlag) {
  // --perf must never change the computed results: with or without it,
  // the projection lines are identical, and the perf line itself is
  // either real counters or a clean "unavailable" note (no PMU in CI).
  const std::vector<std::string> base = {"estimate", "--m",      "32",
                                         "--n",      "1000000",  "--kbits",
                                         "512",      "--device", "gtx980"};
  const auto plain = run_cli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;
  auto with_perf = base;
  with_perf.emplace_back("--perf");
  const auto perf = run_cli(with_perf);
  ASSERT_EQ(perf.code, 0) << perf.err;
  EXPECT_NE(perf.out.find("perf:"), std::string::npos) << perf.out;
  const bool have_counters =
      perf.out.find("IPC") != std::string::npos;
  const bool clean_fallback =
      perf.out.find("perf counters unavailable") != std::string::npos;
  EXPECT_TRUE(have_counters || clean_fallback) << perf.out;
  // Strip the perf line; everything else must match the plain run.
  std::string scrubbed;
  std::istringstream lines(perf.out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("perf:", 0) == 0) {
      continue;
    }
    scrubbed += line + "\n";
  }
  EXPECT_EQ(scrubbed, plain.out);
}

TEST(Cli, GenTsvFormat) {
  const std::string path = tmp("g.tsv");
  const auto r = run_cli({"gen", "--loci", "5", "--samples", "8", "--out",
                          path, "--format", "tsv"});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto g = io::load_genotypes_tsv(fs::path(path));
  EXPECT_EQ(g.loci(), 5u);
  EXPECT_EQ(g.samples(), 8u);
  EXPECT_EQ(run_cli({"gen", "--out", path, "--format", "xml"}).code, 1);
}

TEST(Cli, VcfPipeline) {
  const std::string vcf = tmp("cohort.vcf");
  const std::string packed = tmp("vcf_cohort.sbm");
  auto r = run_cli({"gen", "--loci", "20", "--samples", "30", "--out",
                    vcf, "--format", "vcf"});
  ASSERT_EQ(r.code, 0) << r.err;
  // encode auto-detects the .vcf extension.
  r = run_cli({"encode", "--in", vcf, "--out", packed});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("encoded 20 loci x 30 samples"), std::string::npos)
      << r.out;
}

TEST(Cli, KinshipCommand) {
  const std::string cohort = tmp("kin.plink");
  auto r = run_cli({"gen", "--loci", "3000", "--samples", "10",
                    "--maf-min", "0.1", "--maf-max", "0.5", "--seed",
                    "77", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"kinship", "--in", cohort, "--top", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("KING-robust kinship over 3000 loci"),
            std::string::npos);
  EXPECT_NE(r.out.find("top related pairs"), std::string::npos);
  // Random cohort: every listed pair should be unrelated.
  EXPECT_NE(r.out.find("unrelated"), std::string::npos);
}

TEST(Cli, QcCommand) {
  const std::string cohort = tmp("qc.plink");
  auto r = run_cli({"gen", "--loci", "200", "--samples", "400",
                    "--maf-min", "0.001", "--maf-max", "0.5", "--seed",
                    "31", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string filtered = tmp("qc_pass.plink");
  r = run_cli({"qc", "--in", cohort, "--min-maf", "0.05", "--out",
               filtered});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("QC over 200 loci"), std::string::npos);
  EXPECT_NE(r.out.find("pass"), std::string::npos);
  // The filtered file loads and has fewer loci.
  const auto ds = io::load_plink_lite(std::filesystem::path(filtered));
  EXPECT_LT(ds.loci.size(), 200u);
  EXPECT_GT(ds.loci.size(), 0u);
}

TEST(Cli, AssocCommand) {
  const std::string cohort = tmp("assoc.plink");
  auto r = run_cli({"gen", "--loci", "50", "--samples", "60", "--maf-min",
                    "0.2", "--maf-max", "0.5", "--seed", "37", "--out",
                    cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  // Mixed name/index case spec.
  r = run_cli({"assoc", "--in", cohort, "--cases",
               "sample0,sample1,2,3,4,5,6,7,8,9,10,11,12,13,14", "--top",
               "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("association scan over 50 loci (15 cases / 60"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("top hits"), std::string::npos);
  EXPECT_NE(r.out.find("OR="), std::string::npos);
  // Bad case spec.
  r = run_cli({"assoc", "--in", cohort, "--cases", "nobody"});
  EXPECT_EQ(r.code, 1);
}


TEST(Cli, EstimateTraceExport) {
  const std::string trace = tmp("timeline.json");
  const auto r = run_cli({"estimate", "--m", "32", "--n", "2000000",
                          "--kbits", "512", "--device", "gtx980",
                          "--trace", trace});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote chrome://tracing timeline"),
            std::string::npos);
  std::ifstream is(trace);
  ASSERT_TRUE(is.good());
  std::string json((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("kernel chunk"), std::string::npos);
  EXPECT_NE(json.find("GTX 980"), std::string::npos);
}


TEST(Cli, AssocPhenoFile) {
  const std::string cohort = tmp("pheno_cohort.plink");
  auto r = run_cli({"gen", "--loci", "30", "--samples", "20", "--maf-min",
                    "0.2", "--seed", "41", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string pheno = tmp("pheno.tsv");
  {
    std::ofstream os(pheno);
    os << "sample0\tcase\nsample1\t1\nsample2\tcontrol\nsample3\t0\n";
  }
  r = run_cli({"assoc", "--in", cohort, "--pheno", pheno, "--top", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(2 cases / 20 samples)"), std::string::npos)
      << r.out;
  // Mutually exclusive with --cases; bad status rejected.
  EXPECT_EQ(run_cli({"assoc", "--in", cohort, "--pheno", pheno, "--cases",
                     "0"})
                .code,
            1);
  {
    std::ofstream os(pheno);
    os << "sample0\tmaybe\n";
  }
  EXPECT_EQ(run_cli({"assoc", "--in", cohort, "--pheno", pheno}).code, 1);
}

TEST(Cli, ClusterCommand) {
  // Two diverged populations; the cluster command must separate the
  // sample names and report a positive Fst.
  const std::string path = tmp("twopop.plink");
  {
    io::Rng rng(4242);
    bits::GenotypeMatrix g(800, 12);
    for (std::size_t l = 0; l < 800; ++l) {
      const double p1 = 0.1 + 0.5 * rng.next_double();
      const double p2 = 0.9 - 0.5 * rng.next_double();
      for (std::size_t s = 0; s < 12; ++s) {
        const double p = s < 6 ? p1 : p2;
        g.at(l, s) = static_cast<std::uint8_t>(
            static_cast<int>(rng.next_bernoulli(p)) +
            static_cast<int>(rng.next_bernoulli(p)));
      }
    }
    io::save_plink_lite(io::with_synthetic_metadata(std::move(g)),
                        std::filesystem::path(path));
  }
  const auto r = run_cli({"cluster", "--in", path, "--k", "2",
                          "--device", "titanv"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cluster 0 (6):"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cluster 1 (6):"), std::string::npos);
  EXPECT_NE(r.out.find("Hudson Fst"), std::string::npos);
}


TEST(Cli, KernelSrcCommand) {
  const auto r = run_cli({"kernel-src", "--device", "vega64",
                          "--workload", "fastid", "--op", "andnot"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("__kernel void snp_compare"), std::string::npos);
  EXPECT_NE(r.out.find("#define SNP_K_C 512"), std::string::npos);
  EXPECT_NE(r.out.find("nb_val"), std::string::npos);  // separate NOT
  const std::string path = tmp("kernel.cl");
  const auto w = run_cli({"kernel-src", "--out", path});
  ASSERT_EQ(w.code, 0) << w.err;
  std::ifstream is(path);
  EXPECT_TRUE(is.good());
}


TEST(Cli, LintCleanOnEveryPresetCombination) {
  for (const std::string device : {"gtx980", "titanv", "vega64"}) {
    for (const std::string workload : {"ld", "fastid"}) {
      for (const std::string op : {"and", "xor", "andnot"}) {
        const auto r = run_cli({"lint", "--device", device, "--workload",
                                workload, "--op", op});
        EXPECT_EQ(r.code, 0) << device << " " << workload << " " << op
                             << "\n" << r.out << r.err;
        EXPECT_NE(r.out.find("0 error(s)"), std::string::npos);
        // The Eq. 5 discrepancy info rides along on every preset.
        EXPECT_NE(r.out.find("SNP-CFG-006"), std::string::npos);
        EXPECT_NE(r.out.find("DESIGN.md"), std::string::npos);
      }
    }
  }
}

TEST(Cli, LintJsonFormat) {
  const auto r = run_cli({"lint", "--device", "gtx980", "--format",
                          "json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"device\": \"GTX 980\""), std::string::npos);
  EXPECT_NE(r.out.find("\"errors\": 0"), std::string::npos);
  EXPECT_NE(r.out.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(r.out.find("SNP-CFG-006"), std::string::npos);
}

TEST(Cli, LintCorruptedConfigsExitNonZeroWithCheckIds) {
  // Exit 3 distinguishes "found errors" from usage (1) / runtime (2).
  auto r = run_cli({"lint", "--device", "titanv", "--k-c", "9999"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-SHMEM-001"), std::string::npos);
  r = run_cli({"lint", "--device", "gtx980", "--n-r", "24"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-CFG-005"), std::string::npos);
  r = run_cli({"lint", "--device", "vega64", "--m-c", "64"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-BANK-001"), std::string::npos);
  r = run_cli({"lint", "--device", "titanv", "--grid-m", "81"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-GRID-001"), std::string::npos);
}

TEST(Cli, LintRejectsBadFlags) {
  EXPECT_EQ(run_cli({"lint", "--workload", "bogus"}).code, 1);
  EXPECT_EQ(run_cli({"lint", "--format", "yaml"}).code, 1);
  EXPECT_EQ(run_cli({"lint", "--bogus", "1"}).code, 1);
}

TEST(Cli, LintUndersizedTileAllocationTripsBoundProof) {
  // --lds-words probes a launch-time LDS allocation smaller than the
  // staged tile: the interval bounds proof must reject it.
  const auto r = run_cli({"lint", "--device", "titanv", "--lds-words",
                          "64"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-BOUND-001"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("Eq. 4/5"), std::string::npos) << r.out;
}

TEST(Cli, LintHugeTripCountTripsOverflowProof) {
  // --k-iters probes the real k-loop trip count; at 3e8 trips the Eq. 2-3
  // popcount accumulators provably wrap 32 bits.
  const auto r = run_cli({"lint", "--device", "titanv", "--k-iters",
                          "300000000"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("SNP-OVF-001"), std::string::npos) << r.out;
}

TEST(Cli, LintJsonOutputIsDeterministic) {
  // The machine-readable report is sorted by (check ID, section, index):
  // two runs must be byte-identical, and diagnostics carry their site.
  const std::vector<std::string> args = {"lint",   "--device",    "gtx980",
                                         "--format", "json"};
  const auto a = run_cli(args);
  const auto b = run_cli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out.find("\"section\":"), std::string::npos);
  EXPECT_NE(a.out.find("\"index\":"), std::string::npos);
}

TEST(Cli, LintSoakRunsTheMutationSoundnessSweep) {
  const auto r = run_cli({"lint", "--soak", "1"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("18 corpus program(s)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("0 failure(s)"), std::string::npos) << r.out;
}

TEST(Cli, SearchWithUndersizedLdsIsBlockedBeforeLaunch) {
  // Acceptance fixture: a fabricated out-of-bounds tile configuration
  // must be refused by the pre-launch verifier with exit 3 and the
  // check ID as the first stderr token.
  const std::string cohort = tmp("blocked.plink");
  const std::string packed = tmp("blocked.sbm");
  auto r = run_cli({"gen", "--loci", "8", "--samples", "128", "--seed",
                    "5", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"encode", "--in", cohort, "--out", packed});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"search", "--queries", packed, "--db", packed, "--device",
               "titanv", "--lds-words", "16"});
  EXPECT_EQ(r.code, 3);
  EXPECT_EQ(r.err.rfind("SNP-BOUND-001 ", 0), 0u) << r.err;
  EXPECT_NE(r.err.find("pre-launch verification failed"),
            std::string::npos)
      << r.err;
  // The same search without the corrupted allocation goes through.
  r = run_cli({"search", "--queries", packed, "--db", packed, "--device",
               "titanv"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, ComputeCommandsSurfaceLintNotes) {
  // An idle-core grid reaches the user as a `lint:` line in the timing
  // report (the pre-launch pass warns but only error severity blocks).
  const std::string cohort = tmp("lint_cohort.plink");
  const std::string packed = tmp("lint_cohort.sbm");
  auto r = run_cli({"gen", "--loci", "40", "--samples", "200", "--seed",
                    "11", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"encode", "--in", cohort, "--out", packed});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"ld", "--in", packed, "--device", "gtx980", "--top", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("lint:"), std::string::npos);
  EXPECT_NE(r.out.find("SNP-CFG-006"), std::string::npos);
}

TEST(Cli, QcLdPruneOption) {
  const std::string cohort = tmp("prune_cohort.plink");
  auto r = run_cli({"gen", "--loci", "60", "--samples", "800",
                    "--ld-block", "10", "--maf-min", "0.2", "--seed",
                    "53", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string pruned = tmp("pruned.plink");
  r = run_cli({"qc", "--in", cohort, "--min-maf", "0.0", "--min-hwe-p",
               "0.0", "--ld-prune-r2", "0.2", "--out", pruned});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("LD pruning"), std::string::npos) << r.out;
  const auto ds = io::load_plink_lite(std::filesystem::path(pruned));
  EXPECT_LT(ds.loci.size(), 30u);  // 6 blocks of 10 collapse hard
  EXPECT_GE(ds.loci.size(), 6u);
}


TEST(Cli, MergeAndSubsetCommands) {
  const std::string cohort = tmp("ops_cohort.plink");
  auto r = run_cli({"gen", "--loci", "10", "--samples", "8", "--seed",
                    "61", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string left = tmp("ops_left.plink");
  const std::string right = tmp("ops_right.plink");
  r = run_cli({"subset", "--in", cohort, "--samples",
               "sample0,sample1,sample2,sample3", "--out", left});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"subset", "--in", cohort, "--samples",
               "sample4,sample5,sample6,sample7", "--out", right});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string merged = tmp("ops_merged.plink");
  r = run_cli({"merge", "--a", left, "--b", right, "--axis", "samples",
               "--out", merged});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("10 loci x 8 samples"), std::string::npos)
      << r.out;
  // Round trip restored the original genotypes.
  const auto orig = io::load_plink_lite(std::filesystem::path(cohort));
  const auto back = io::load_plink_lite(std::filesystem::path(merged));
  for (std::size_t l = 0; l < 10; ++l) {
    for (std::size_t s = 0; s < 8; ++s) {
      EXPECT_EQ(back.genotypes.at(l, s), orig.genotypes.at(l, s));
    }
  }
  // Locus-range subset.
  const std::string window = tmp("ops_window.plink");
  r = run_cli({"subset", "--in", cohort, "--loci", "2-5", "--out",
               window});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 loci x 8 samples"), std::string::npos);
  // Usage errors.
  EXPECT_EQ(run_cli({"subset", "--in", cohort, "--out", window}).code, 1);
  EXPECT_EQ(run_cli({"merge", "--a", left, "--b", right, "--axis",
                     "diag", "--out", merged})
                .code,
            1);
}


TEST(Cli, ReportCommand) {
  const std::string cohort = tmp("report_cohort.plink");
  auto r = run_cli({"gen", "--loci", "60", "--samples", "40", "--maf-min",
                    "0.1", "--seed", "71", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string report = tmp("cohort_report.md");
  r = run_cli({"report", "--in", cohort, "--out", report, "--cases",
               "sample0,sample1,sample2", "--device", "vega64"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream is(report);
  ASSERT_TRUE(is.good());
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# snpcmp cohort report"), std::string::npos);
  EXPECT_NE(text.find("## Quality control"), std::string::npos);
  EXPECT_NE(text.find("## Relatedness"), std::string::npos);
  EXPECT_NE(text.find("## Association"), std::string::npos);
  EXPECT_NE(text.find("Vega 64"), std::string::npos);
  EXPECT_EQ(
      run_cli({"report", "--in", cohort, "--out", report, "--cases",
               "ghost"})
          .code,
      1);
}

TEST(Cli, MissingFileIsRuntimeError) {
  const auto r = run_cli({"ld", "--in", tmp("nonexistent.sbm")});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, UsageDocumentsFaultToleranceFlags) {
  const auto help = run_cli({"help"});
  EXPECT_NE(help.out.find("--fail-policy"), std::string::npos);
  EXPECT_NE(help.out.find("--inject-faults"), std::string::npos);
  EXPECT_NE(help.out.find("docs/robustness.md"), std::string::npos);
}

TEST(Cli, BadFaultFlagsAreUsageErrors) {
  const std::string db = tmp("db.sbm");
  auto r = run_cli({"gendb", "--profiles", "50", "--snps", "128",
                    "--out", db});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"search", "--queries", db, "--db", db, "--fail-policy",
               "panic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--fail-policy"), std::string::npos);
  r = run_cli({"search", "--queries", db, "--db", db, "--inject-faults",
               "warp:p=0.5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("bad fault plan"), std::string::npos);
}

TEST(Cli, LdRecoversUnderInjectionAndReportsFaults) {
  const std::string cohort = tmp("cohort.txt");
  const std::string packed = tmp("cohort.sbm");
  auto r = run_cli({"gen", "--loci", "30", "--samples", "128", "--seed",
                    "21", "--out", cohort});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"encode", "--in", cohort, "--out", packed});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto clean = run_cli(
      {"ld", "--in", packed, "--device", "titanv", "--top", "3"});
  ASSERT_EQ(clean.code, 0) << clean.err;
  EXPECT_EQ(clean.out.find("faults:"), std::string::npos);
  const auto faulty = run_cli(
      {"ld", "--in", packed, "--device", "titanv", "--top", "3",
       "--inject-faults", "launch:p=1:seed=4", "--fail-policy",
       "degrade"});
  ASSERT_EQ(faulty.code, 0) << faulty.err;
  EXPECT_NE(faulty.out.find("faults:"), std::string::npos);
  EXPECT_NE(faulty.out.find("degraded to CPU"), std::string::npos);
  // The ranked pairs (everything after the report) must be identical.
  const auto pairs_of = [](const std::string& text) {
    return text.substr(text.find("top locus pairs"));
  };
  EXPECT_EQ(pairs_of(faulty.out), pairs_of(clean.out));
}

TEST(Cli, AbortPolicyExitsFourWithStableCode) {
  const std::string db = tmp("db.sbm");
  auto r = run_cli({"gendb", "--profiles", "64", "--snps", "128",
                    "--out", db});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run_cli({"search", "--queries", db, "--db", db, "--inject-faults",
               "readback:after=1", "--fail-policy", "abort"});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.err.find("SNPRT-READBACK"), std::string::npos);
  // The plan is scoped to the command: a follow-up run is clean.
  r = run_cli({"search", "--queries", db, "--db", db});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("faults:"), std::string::npos);
}

TEST(Cli, OptionValuesMustMatchTheirKinds) {
  // A yes|no choice takes only yes or no, a workload only ld or fastid, a
  // real only a finite number, an int option at most INT_MAX, a --loci
  // entry only a whole index of the cohort, and a verb without options
  // none. Each error names the option.
  const std::string db = tmp("db.sbm");
  const std::string cohort = tmp("c.plink");
  ASSERT_EQ(run_cli({"gendb", "--profiles", "20", "--snps", "128", "--out",
                     db})
                .code,
            0);
  ASSERT_EQ(run_cli({"gen", "--loci", "6", "--samples", "4", "--out",
                     cohort})
                .code,
            0);
  const std::string script = tmp("s.jsonl");
  std::ofstream(script) << "{\"submit\": 0}\n";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"mixture", "--profiles", db, "--mixtures", db, "--pre-negate",
         "true"},
        "--pre-negate"},
       {{"serve", "--db", db, "--queries", db, "--script", script,
         "--pre-negate", "true"},
        "--pre-negate"},
       {{"kernel-src", "--pre-negate", "true"}, "--pre-negate"},
       {{"lint", "--pre-negate", "true"}, "--pre-negate"},
       {{"estimate", "--no-init", "maybe"}, "--no-init"},
       {{"kernel-src", "--workload", "banana"}, "--workload"},
       {{"gen", "--out", tmp("x.plink"), "--maf-min", "nan"}, "--maf-min"},
       {{"gen", "--out", tmp("x.plink"), "--maf-max", "inf"}, "--maf-max"},
       {{"lint", "--lds-words", "4294967297"}, "--lds-words"},
       {{"search", "--queries", db, "--db", db, "--lds-words", "2147483648"},
        "--lds-words"},
       {{"subset", "--in", cohort, "--out", tmp("x.plink"), "--loci", "3x"},
        "--loci"},
       {{"subset", "--in", cohort, "--out", tmp("x.plink"), "--loci", "2-9"},
        "--loci"},
       {{"encode", "--in", cohort, "--out", tmp("x.sbm"), "--format", "bed"},
        "--format"},
       {{"submit", "--db", db, "--queries", db, "--deadline-ms", "nan"},
        "--deadline-ms"},
       {{"devices", "--bogus", "1"}, "--bogus"}};
  for (const auto& [args, option] : cases) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 1) << args[0] << " " << option << "\n" << r.err;
    EXPECT_NE(r.err.substr(0, r.err.find('\n')).find(option),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, SubsetRangeIsCheckedBeforeItIsExpanded) {
  // The range's end is checked against the cohort before the range is
  // expanded, so an end of 2^64 - 1 fails at once.
  const std::string cohort = tmp("c.plink");
  ASSERT_EQ(run_cli({"gen", "--loci", "6", "--samples", "4", "--out",
                     cohort})
                .code,
            0);
  const auto r = run_cli({"subset", "--in", cohort, "--out", tmp("x.plink"),
                          "--loci", "0-18446744073709551615"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--loci"), std::string::npos) << r.err;
}

TEST(Cli, FailedWritesExitTwo) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  const std::string db = tmp("db.sbm");
  const std::string cohort = tmp("c.plink");
  ASSERT_EQ(run_cli({"gendb", "--profiles", "20", "--snps", "128", "--out",
                     db})
                .code,
            0);
  ASSERT_EQ(run_cli({"gen", "--loci", "6", "--samples", "4", "--out",
                     cohort})
                .code,
            0);
  const std::string full = "/dev/full";
  const std::vector<std::vector<std::string>> calls = {
      {"kernel-src", "--out", full},
      {"search", "--queries", db, "--db", db, "--metrics-out", full},
      {"search", "--queries", db, "--db", db, "--trace-out", full},
      {"search", "--queries", db, "--db", db, "--host-trace", full},
      {"submit", "--db", db, "--queries", db, "--cost-out", full},
      {"report", "--in", cohort, "--out", full},
      {"gen", "--loci", "6", "--samples", "4", "--out", full},
      {"gendb", "--profiles", "20", "--snps", "128", "--out", full}};
  for (const auto& args : calls) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[0] << " " << args[args.size() - 2];
    EXPECT_EQ(r.out.find("to /dev/full"), std::string::npos) << r.out;
  }
}

TEST(Cli, UsageComesFromTheVerbTable) {
  const std::string help = run_cli({"help"}).out;
  for (const std::string verb : {"merge", "subset"}) {
    const auto at = help.find("\n  " + verb + " ");
    ASSERT_NE(at, std::string::npos) << verb;
    auto end = at;  // the next line that starts a verb
    do {
      end = help.find("\n  ", end + 1);
    } while (end != std::string::npos && help[end + 3] == ' ');
    EXPECT_NE(help.substr(at, end - at).find("[--format auto|plink|vcf]"),
              std::string::npos)
        << help.substr(at, end - at);
  }
}

TEST(Cli, ModesRejectEachOthersOptions) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"lint", "--soak", "1", "--device",
                                 "titanv"},
        std::vector<std::string>{"report", "--trace", tmp("t.json"),
                                 "--metrics", tmp("m.json"), "--device",
                                 "titanv"}}) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 1) << args[0];
    EXPECT_EQ(r.err.rfind("error: unknown option --device", 0), 0U)
        << r.err;
  }
}

TEST(Cli, EveryVerbRejectsThreads) {
  for (const std::string verb :
       {"devices", "env", "gen", "gendb", "encode", "kinship", "qc",
        "assoc", "cluster", "ld", "search", "mixture", "merge", "subset",
        "kernel-src", "lint", "report", "estimate", "serve", "submit"}) {
    const auto r = run_cli({verb, "--threads", "2"});
    EXPECT_EQ(r.code, 1) << verb;
    EXPECT_EQ(r.err.rfind("error: unknown option --threads", 0), 0U)
        << verb << ": " << r.err;
  }
}

}  // namespace
}  // namespace snp::cli
