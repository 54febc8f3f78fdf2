// Byte-exact CLI goldens. Each test runs the snpcmp binary once per
// command, as its own process, on fixed seeds, and compares a transcript
// of every command, exit code and stdout with tests/golden/cli/<test>.txt.
//
// The transcript replaces the test's temp dir with @TMP@ and adds an
// FNV-1a digest of every file a command writes. It leaves out what reads
// the wall clock or the host: the `slo:` and `perf:` lines, and the
// cohort report's `## Telemetry` table (process-wide counters). Builds
// with telemetry compiled out compare without the lines the cost ledger
// prints (`cost:` and `wrote cost ledger`) and without the digest of its
// document (`file cost.json`), which such builds leave empty. Usage
// errors pin the exit code and the first stderr line.
//
// SNPCMP_UPDATE_GOLDENS=1 rewrites the golden files from the binary.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "obs/obs.hpp"

namespace snp {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    q += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return q + "'";
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (auto pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Drops the lines no golden may match on.
std::string scrub(const std::string& text) {
  std::istringstream lines(text);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("slo:", 0) == 0 || line.rfind("perf:", 0) == 0 ||
        (!obs::kEnabled && (line.rfind("cost:", 0) == 0 ||
                            line.rfind("wrote cost ledger", 0) == 0 ||
                            line.rfind("file cost.json", 0) == 0))) {
      continue;
    }
    kept += line + "\n";
  }
  return kept;
}

/// One test's scratch dir and the transcript of the commands it ran.
class Transcript {
 public:
  Transcript() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("snpcmp_golden_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    name_ = info->name();
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs `snpcmp args...` and records its exit code and stdout.
  int run(const std::vector<std::string>& args) {
    const Result r = exec(args);
    text_ += "$ snpcmp" + joined(args) + "\nexit " + std::to_string(r.code) +
             "\n" + replace_all(r.out, dir_.string(), "@TMP@");
    return r.code;
  }

  /// Runs `snpcmp args...` and records its exit code and first stderr
  /// line only: a usage error's text after that line is the usage.
  void usage_error(const std::vector<std::string>& args) {
    const Result r = exec(args);
    const std::string err = replace_all(r.err, dir_.string(), "@TMP@");
    text_ += "$ snpcmp" + joined(args) + "\nexit " + std::to_string(r.code) +
             ": " + err.substr(0, err.find('\n')) + "\n";
  }

  /// Records the size and digest of a file a command wrote.
  void file(const std::string& name) {
    const std::string bytes = slurp(dir_ / name);
    text_ += "file " + name + ": " + std::to_string(bytes.size()) +
             " bytes, fnv1a " + fnv1a(bytes) + "\n";
  }

  /// Records a text file a command wrote, up to the blank line before
  /// the first line that starts with `stop`.
  void text_file(const std::string& name, const std::string& stop) {
    const std::string body = slurp(dir_ / name);
    const auto end = body.find("\n\n" + stop);
    text_ += "cat " + name + "\n" +
             replace_all(body.substr(0, end == std::string::npos ? end
                                                                 : end + 1),
                         dir_.string(), "@TMP@");
  }

  /// Compares the transcript with its golden (or rewrites the golden).
  void check() const {
    const fs::path golden = fs::path(SNP_GOLDEN_DIR) / (name_ + ".txt");
    if (std::getenv("SNPCMP_UPDATE_GOLDENS") != nullptr) {
      std::ofstream(golden, std::ios::binary) << scrub(text_);
      return;
    }
    ASSERT_TRUE(fs::exists(golden)) << golden;
    EXPECT_EQ(scrub(text_), scrub(slurp(golden))) << "golden " << golden;
  }

 private:
  struct Result {
    int code = 0;
    std::string out;
    std::string err;
  };

  static std::string joined(const std::vector<std::string>& args) {
    std::string s;
    for (const auto& a : args) {
      s += ' ';
      s += a;
    }
    return s;
  }

  Result exec(const std::vector<std::string>& args) const {
    // A fault plan or flight-dump path in the caller's environment would
    // change what the binary does.
    std::string cmd = "env -u SNPCMP_FAULTS -u SNPCMP_FLIGHT_OUT " +
                      quote(SNPCMP_BIN);
    for (const auto& a : args) {
      cmd += ' ';
      cmd += quote(replace_all(a, "@TMP@", dir_.string()));
    }
    const fs::path out = dir_ / ".stdout";
    const fs::path err = dir_ / ".stderr";
    cmd += " > ";
    cmd += quote(out.string());
    cmd += " 2> ";
    cmd += quote(err.string());
    const int status = std::system(cmd.c_str());
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, slurp(out),
            slurp(err)};
  }

  fs::path dir_;
  std::string name_;
  std::string text_;
};

TEST(CliGolden, CohortVerbs) {
  Transcript t;
  t.run({"gen", "--out", "@TMP@/c.plink", "--loci", "40", "--samples", "24",
         "--seed", "9", "--ld-block", "8", "--maf-min", "0.1"});
  t.file("c.plink");
  t.run({"gen", "--out", "@TMP@/c.vcf", "--loci", "12", "--samples", "6",
         "--seed", "5", "--format", "vcf"});
  t.file("c.vcf");
  t.run({"gen", "--out", "@TMP@/c.tsv", "--loci", "5", "--samples", "4",
         "--format", "tsv"});
  t.file("c.tsv");
  t.run({"encode", "--in", "@TMP@/c.plink", "--out", "@TMP@/c.sbm"});
  t.file("c.sbm");
  t.run({"encode", "--in", "@TMP@/c.vcf", "--out", "@TMP@/v.sbm", "--plane",
         "hom"});
  t.file("v.sbm");
  t.run({"kinship", "--in", "@TMP@/c.plink", "--top", "3"});
  t.run({"qc", "--in", "@TMP@/c.plink", "--min-maf", "0.15"});
  t.run({"qc", "--in", "@TMP@/c.plink", "--min-maf", "0.0", "--min-hwe-p",
         "0.0", "--ld-prune-r2", "0.2", "--ld-prune-window", "10", "--out",
         "@TMP@/pruned.plink"});
  t.file("pruned.plink");
  t.run({"assoc", "--in", "@TMP@/c.plink", "--cases",
         "sample0,sample1,2,3,4,5,6,7", "--top", "3"});
  t.run({"cluster", "--in", "@TMP@/c.plink", "--device", "gtx980", "--k",
         "2"});
  t.run({"subset", "--in", "@TMP@/c.plink", "--samples",
         "sample0,sample1,sample2", "--out", "@TMP@/left.plink"});
  t.file("left.plink");
  t.run({"subset", "--in", "@TMP@/c.plink", "--samples",
         "sample3,sample4", "--loci", "0-9", "--out", "@TMP@/right.plink"});
  t.file("right.plink");
  t.run({"subset", "--in", "@TMP@/c.plink", "--loci", "2,4,8", "--out",
         "@TMP@/some.vcf"});
  t.file("some.vcf");
  t.run({"merge", "--a", "@TMP@/left.plink", "--b", "@TMP@/c.plink", "--axis",
         "loci", "--out", "@TMP@/m.plink"});
  t.run({"merge", "--a", "@TMP@/some.vcf", "--b", "@TMP@/some.vcf", "--axis",
         "samples", "--out", "@TMP@/m.vcf", "--format", "vcf"});
  t.run({"report", "--in", "@TMP@/c.plink", "--out", "@TMP@/r.md", "--cases",
         "sample0,sample1,sample2", "--device", "vega64"});
  t.text_file("r.md", "## Telemetry");
  t.check();
}

TEST(CliGolden, ComparisonVerbs) {
  Transcript t;
  t.run({"gendb", "--out", "@TMP@/db.sbm", "--profiles", "300", "--snps",
         "256", "--seed", "11"});
  t.file("db.sbm");
  t.run({"gendb", "--out", "@TMP@/q.sbm", "--profiles", "3", "--snps", "256",
         "--seed", "12", "--maf-min", "0.1", "--maf-max", "0.4"});
  t.file("q.sbm");
  t.run({"gen", "--out", "@TMP@/c.plink", "--loci", "48", "--samples", "200",
         "--seed", "9", "--ld-block", "8"});
  t.run({"encode", "--in", "@TMP@/c.plink", "--out", "@TMP@/c.sbm"});
  t.run({"ld", "--in", "@TMP@/c.sbm", "--device", "titanv", "--top", "5",
         "--out", "@TMP@/gamma.scm"});
  t.file("gamma.scm");
  t.run({"ld", "--in", "@TMP@/c.sbm", "--device", "gtx980", "--top", "3"});
  t.run({"search", "--queries", "@TMP@/q.sbm", "--db", "@TMP@/db.sbm",
         "--device", "titanv", "--top", "3"});
  t.run({"search", "--queries", "@TMP@/q.sbm", "--db", "@TMP@/db.sbm",
         "--device", "vega64"});
  {
    const auto db = io::generate_profile_db(100, 512, {});
    io::save_bitmatrix(db, fs::path(t.path("mixdb.sbm")));
    io::save_bitmatrix(io::generate_mixtures(db, 2, 2, 14).mixtures,
                       fs::path(t.path("mix.sbm")));
  }
  t.run({"mixture", "--profiles", "@TMP@/mixdb.sbm", "--mixtures",
         "@TMP@/mix.sbm", "--device", "vega64"});
  t.run({"mixture", "--profiles", "@TMP@/mixdb.sbm", "--mixtures",
         "@TMP@/mix.sbm", "--device", "gtx980", "--pre-negate", "yes",
         "--tolerance", "2"});
  t.run({"estimate", "--m", "32", "--n", "1000000", "--kbits", "512", "--op",
         "xor", "--device", "vega64"});
  t.run({"estimate", "--m", "64", "--n", "4096", "--kbits", "1024", "--op",
         "and", "--device", "gtx980", "--no-init", "yes"});
  t.check();
}

TEST(CliGolden, FastIdEdges) {
  // The FastID verbs at their edges: no candidates, a top past the
  // database, and the query or mixture side as the streamed operand.
  Transcript t;
  t.run({"gendb", "--out", "@TMP@/db.sbm", "--profiles", "300", "--snps",
         "256", "--seed", "11"});
  t.run({"gendb", "--out", "@TMP@/q.sbm", "--profiles", "3", "--snps", "256",
         "--seed", "12"});
  t.run({"gendb", "--out", "@TMP@/small.sbm", "--profiles", "9", "--snps",
         "256", "--seed", "13"});
  t.run({"gendb", "--out", "@TMP@/many.sbm", "--profiles", "40", "--snps",
         "256", "--seed", "14"});
  t.run({"search", "--queries", "@TMP@/q.sbm", "--db", "@TMP@/db.sbm",
         "--device", "titanv", "--top", "0"});
  t.run({"search", "--queries", "@TMP@/q.sbm", "--db", "@TMP@/small.sbm",
         "--device", "gtx980", "--top", "4611686018427387904"});
  t.run({"search", "--queries", "@TMP@/many.sbm", "--db", "@TMP@/small.sbm",
         "--device", "vega64", "--top", "2"});
  {
    const auto profiles = io::generate_profile_db(6, 384, {});
    io::save_bitmatrix(profiles, fs::path(t.path("few.sbm")));
    io::save_bitmatrix(io::generate_mixtures(profiles, 24, 2, 15).mixtures,
                       fs::path(t.path("mixes.sbm")));
  }
  t.run({"mixture", "--profiles", "@TMP@/few.sbm", "--mixtures",
         "@TMP@/mixes.sbm", "--device", "titanv", "--tolerance", "3"});
  t.check();
}

TEST(CliGolden, KernelVerbs) {
  Transcript t;
  t.run({"devices"});
  t.run({"lint", "--device", "gtx980"});
  t.run({"lint", "--device", "vega64", "--workload", "fastid", "--op",
         "andnot", "--pre-negate", "yes", "--format", "json"});
  t.run({"lint", "--device", "titanv", "--k-c", "9999"});
  t.run({"kernel-src", "--device", "vega64", "--workload", "fastid", "--op",
         "andnot"});
  t.run({"kernel-src", "--device", "gtx980", "--out", "@TMP@/k.cl"});
  t.file("k.cl");
  t.check();
}

TEST(CliGolden, ServiceVerbs) {
  Transcript t;
  t.run({"gendb", "--out", "@TMP@/db.sbm", "--profiles", "300", "--snps",
         "256", "--seed", "11"});
  t.run({"gendb", "--out", "@TMP@/db2.sbm", "--profiles", "300", "--snps",
         "256", "--seed", "13"});
  t.run({"gendb", "--out", "@TMP@/q.sbm", "--profiles", "5", "--snps", "256",
         "--seed", "12"});
  std::ofstream(t.path("s.jsonl"))
      << "{\"submit\": 0, \"count\": 2}\n"
      << "{\"submit\": 1, \"class\": 2}\n"
      << "# a comment line\n"
      << "\n"
      << "{\"submit\": 2, \"policy\": \"degrade\"}\n"
      << "{\"barrier\": true}\n"
      << "{\"submit\": 0}\n"
      << "{\"submit\": 3, \"deadline_ms\": -1}\n"
      << "{\"epoch\": \"" << t.path("db2.sbm") << "\"}\n"
      << "{\"submit\": 4, \"deadline_ms\": 600000}\n";
  t.run({"serve", "--db", "@TMP@/db.sbm", "--queries", "@TMP@/q.sbm",
         "--script", "@TMP@/s.jsonl", "--device", "titanv", "--max-batch",
         "8", "--cost-out", "@TMP@/cost.json"});
  t.file("cost.json");
  t.run({"submit", "--db", "@TMP@/db.sbm", "--queries", "@TMP@/q.sbm",
         "--device", "gtx980", "--max-batch", "2", "--op", "and",
         "--deadline-ms", "600000", "--class", "2"});
  t.run({"submit", "--db", "@TMP@/db.sbm", "--queries", "@TMP@/q.sbm",
         "--device", "vega64", "--op", "andnot", "--pre-negate", "yes",
         "--max-queue", "2", "--cache", "0"});
  t.check();
}

TEST(CliGolden, UsageErrors) {
  Transcript t;
  t.run({"gen", "--out", "@TMP@/c.plink", "--loci", "8", "--samples", "8"});
  t.run({"gendb", "--out", "@TMP@/db.sbm", "--profiles", "8", "--snps",
         "64"});
  const std::string c = "@TMP@/c.plink";
  const std::string db = "@TMP@/db.sbm";
  t.usage_error({"env", "--bogus", "1"});
  t.usage_error({"gen", "--out", "@TMP@/x", "--loci", "abc"});
  t.usage_error({"gendb", "--profiles", "10"});
  t.usage_error({"encode", "--in", c, "--out", "@TMP@/x", "--bogus", "1"});
  t.usage_error({"kinship", "--in", c, "--top", "-1"});
  t.usage_error({"qc", "--in", c, "--min-maf", "low"});
  t.usage_error({"assoc", "--in", c});
  t.usage_error({"cluster", "--format", "vcf"});
  t.usage_error({"ld", "--in", db, "--threads", "2"});
  t.usage_error({"search", "--queries", db, "--db", db, "--fail-policy",
                 "panic"});
  t.usage_error({"mixture", "--profiles", db});
  t.usage_error({"merge", "--a", c, "--b", c});
  t.usage_error({"subset", "--in", c, "--out", "@TMP@/x"});
  t.usage_error({"kernel-src", "--op", "nand"});
  t.usage_error({"lint", "--workload", "bogus"});
  t.usage_error({"lint", "--soak", "1", "--device", "titanv"});
  t.usage_error({"report", "--in", c});
  t.usage_error({"report", "--trace", "@TMP@/t.json", "--metrics",
                 "@TMP@/m.json", "--device", "titanv"});
  t.usage_error({"estimate", "--m", "1.5"});
  t.usage_error({"serve", "--db", db, "--queries", db});
  t.usage_error({"submit", "--db", db, "--queries", db, "--admission",
                 "drop"});
  t.usage_error({"frobnicate"});
  t.usage_error({"gen", "--out"});
  t.check();
}

}  // namespace
}  // namespace snp
