// CLI contract tests for `snpcmp serve` / `snpcmp submit` (PR 6): exit
// codes, fault propagation through the service path (exit 4 with the
// SNPRT-* code leading stderr), and golden checks on the deterministic
// "service:" report block and per-request lines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "obs/obs.hpp"

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

/// Per-test unique temp path (mirrors test_cli.cpp: ctest -j runs each
/// discovered test as its own process, so shared names would collide).
std::string tmp(const std::string& name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("snpcmp_svc_") +
                        info->test_suite_name() + "_" + info->name());
  fs::create_directories(dir);
  return (dir / name).string();
}

/// A small deterministic db + query pair every test shares.
struct Fixture {
  std::string db = tmp("db.sbm");
  std::string queries = tmp("q.sbm");
  Fixture() {
    io::save_bitmatrix(io::random_bitmatrix(41, 192, 0.5, 8101),
                       fs::path(db));
    io::save_bitmatrix(io::random_bitmatrix(6, 192, 0.4, 8102),
                       fs::path(queries));
  }
};

std::string write_script(const std::string& path,
                         const std::vector<std::string>& lines) {
  std::ofstream os(path);
  for (const auto& line : lines) os << line << "\n";
  return path;
}

/// Extracts "digest=..." from the `req N:` line for request N.
std::string digest_of(const std::string& out, std::size_t req) {
  const std::string needle = "req " + std::to_string(req) + ": ";
  const auto pos = out.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no line for request " << req << " in:\n" << out;
    return "";
  }
  const auto d = out.find("digest=", pos);
  if (d == std::string::npos) {
    ADD_FAILURE() << "no digest on request " << req << " in:\n" << out;
    return "";
  }
  return out.substr(d + 7, 16);
}

TEST(ServeCli, GoldenReportBlockAndRequestLines) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0, "count": 2})", R"({"submit": 1})",
       R"({"submit": 2, "count": 2})", "# a comment, skipped", "",
       R"({"barrier": true})", R"({"submit": 0})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--max-batch", "8"});
  ASSERT_EQ(r.code, 0) << r.err;
  // The deterministic block, golden line by line. (The "slo:" line is
  // wall-clock and deliberately NOT matched.)
  EXPECT_NE(r.out.find("service:     device=cpu op=XOR pre-negate=no"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(
                "service:     requests=6 completed=6 failed=0 rejected=0"),
            std::string::npos)
      << r.out;
  EXPECT_NE(
      r.out.find("service:     batches=1 mean-width=5 max-width=5"),
      std::string::npos)
      << r.out;
  // The second copy of query 0 caches its row, so the repeat after the
  // barrier hits; query 2's second copy is cached too, but never read.
  EXPECT_NE(r.out.find("service:     cache hits=1 misses=5"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("service:     queue peak=5 epoch=1"),
            std::string::npos)
      << r.out;
  // Approximate (bucket-upper-bound) percentiles carry the '~' marker,
  // with obs compiled in or out: the SLO monitor is the engine's latency
  // record in every build.
  EXPECT_NE(r.out.find("slo:         p50~="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("(bucket upper bounds)"), std::string::npos)
      << r.out;
  // Duplicate submissions of the same profile must carry one digest.
  EXPECT_EQ(digest_of(r.out, 3), digest_of(r.out, 4));
  EXPECT_EQ(digest_of(r.out, 0), digest_of(r.out, 1));
  EXPECT_EQ(digest_of(r.out, 0), digest_of(r.out, 5));
  EXPECT_NE(r.out.find("req 5: cache-hit epoch=1"), std::string::npos)
      << r.out;
}

TEST(ServeCli, SubmitVerbMatchesEquivalentScript) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"), {R"({"submit": 0})", R"({"submit": 1})",
                         R"({"submit": 2})", R"({"submit": 3})",
                         R"({"submit": 4})", R"({"submit": 5})"});
  const auto served =
      run_cli({"serve", "--db", f.db, "--queries", f.queries, "--script",
               script, "--device", "cpu", "--max-batch", "4"});
  const auto oneshot =
      run_cli({"submit", "--db", f.db, "--queries", f.queries, "--device",
               "cpu", "--max-batch", "4"});
  ASSERT_EQ(served.code, 0) << served.err;
  ASSERT_EQ(oneshot.code, 0) << oneshot.err;
  for (std::size_t q = 0; q < 6; ++q) {
    EXPECT_EQ(digest_of(served.out, q), digest_of(oneshot.out, q))
        << "query " << q;
  }
  EXPECT_NE(oneshot.out.find(
                "service:     requests=6 completed=6 failed=0 rejected=0"),
            std::string::npos)
      << oneshot.out;
  EXPECT_NE(oneshot.out.find(
                "service:     batches=2 mean-width=3 max-width=4"),
            std::string::npos)
      << oneshot.out;
}

TEST(ServeCli, InjectedFaultExitsFourWithCodeLeadingStderr) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0})", R"({"submit": 1})", R"({"barrier": true})",
       R"({"submit": 2})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "titanv",
                          "--inject-faults", "launch:after=1",
                          "--fail-policy", "abort"});
  EXPECT_EQ(r.code, 4);
  // The stable code must be the first stderr token after "error:" —
  // scripts match on it (docs/robustness.md exit contract).
  EXPECT_EQ(r.err.rfind("error: [SNPRT-LAUNCH]", 0), 0U) << r.err;
  // The failed batch is per-request visible, and the next batch (after
  // the barrier) still completed — the report block proves the engine
  // survived the failure.
  EXPECT_NE(r.out.find("req 0: error [SNPRT-LAUNCH]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(
                "service:     requests=3 completed=1 failed=2 rejected=0"),
            std::string::npos)
      << r.out;
}

/// Satellite 5 / acceptance: the fault-path flight dump is deterministic
/// and self-identifying — it names the SNPRT code and carries the failed
/// request's trace id, which is the same id printed on its `req N:` line.
TEST(ServeCli, FaultFlightDumpNamesCodeAndFailedRequest) {
  if (!obs::kEnabled) GTEST_SKIP() << "flight recorder compiled out";
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"), {R"({"submit": 0})", R"({"submit": 1})"});
  const auto dump = tmp("flight.json");
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "titanv",
                          "--inject-faults", "launch:after=1",
                          "--fail-policy", "abort", "--flight-out", dump});
  EXPECT_EQ(r.code, 4);
  // The SNPRT token must stay the first stderr token (exit contract);
  // the flight note follows it.
  EXPECT_EQ(r.err.rfind("error: [SNPRT-LAUNCH]", 0), 0U) << r.err;
  EXPECT_NE(r.err.find("flight: wrote " + dump), std::string::npos)
      << r.err;

  // The failed request's trace id, from its own report line.
  const auto line = r.out.find("req 0: error [SNPRT-LAUNCH]");
  ASSERT_NE(line, std::string::npos) << r.out;
  const auto tpos = r.out.find("trace=", line);
  ASSERT_NE(tpos, std::string::npos) << r.out;
  const auto tend =
      r.out.find_first_not_of("0123456789", tpos + 6);
  const std::string trace = r.out.substr(tpos + 6, tend - (tpos + 6));
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace, "0");

  std::ifstream is(dump);
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"flight\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\": \"fault: SNPRT-LAUNCH\""),
            std::string::npos)
      << json;
  // The fault event carries the batch root's (= failed request's) trace
  // id and the named code.
  EXPECT_NE(json.find("\"kind\": \"fault\", \"trace\": " + trace),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"code\": \"SNPRT-LAUNCH\""), std::string::npos)
      << json;
  // Both requests resolved (exactly-once even on failure): resolve
  // events made it into the ring before the dump.
  EXPECT_NE(json.find("\"kind\": \"resolve\""), std::string::npos) << json;
}

TEST(ServeCli, OnDemandFlightDumpAndRequestTraceIds) {
  if (!obs::kEnabled) GTEST_SKIP() << "flight recorder compiled out";
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0, "count": 2})", R"({"submit": 1})",
       R"({"barrier": true})", R"({"submit": 0})"});
  const auto dump = tmp("flight.json");
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--flight-out", dump});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote flight recording ("), std::string::npos)
      << r.out;
  // Every request line names its trace id; ids are unique, including
  // the cache hit (identity is per-request, the cached row is shared).
  // The second copy of query 0 caches its row; request 3 hits it.
  std::vector<std::string> traces;
  for (std::size_t req = 0; req < 4; ++req) {
    const auto line = r.out.find("req " + std::to_string(req) + ": ");
    ASSERT_NE(line, std::string::npos) << r.out;
    const auto tpos = r.out.find("trace=", line);
    ASSERT_NE(tpos, std::string::npos) << r.out;
    const auto tend = r.out.find_first_not_of("0123456789", tpos + 6);
    traces.push_back(r.out.substr(tpos + 6, tend - (tpos + 6)));
    EXPECT_NE(traces.back(), "0");
    EXPECT_NE(traces.back(), "");
  }
  EXPECT_NE(traces[0], traces[1]);
  EXPECT_NE(traces[0], traces[3]);
  EXPECT_NE(traces[1], traces[3]);
  EXPECT_NE(traces[2], traces[3]);

  std::ifstream is(dump);
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"reason\": \"on-demand\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\": \"enqueue\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"cache-hit\", \"trace\": " + traces[3]),
            std::string::npos)
      << json;
}

// Runs with telemetry compiled out too: the `slo:` lines come from the
// engine's SLO monitor, which every build feeds.
TEST(ServeCli, SloObjectiveReportsBurnAndExemplar) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"), {R"({"submit": 0, "count": 4})"});
  // Unmeetable objective: every completion breaches, the monitor trips,
  // and the exemplar names a real request.
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--slo-ms", "0.000001"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("slo:         objective=1e-06 ms breaches=4/4"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(" trips=1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("slo:         exemplar trace="), std::string::npos)
      << r.out;

  // A generous objective reports zero breaches and no trips.
  const auto ok = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                           "--script", script, "--device", "cpu",
                           "--slo-ms", "60000"});
  ASSERT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("breaches=0/4"), std::string::npos) << ok.out;
  EXPECT_NE(ok.out.find(" trips=0"), std::string::npos) << ok.out;
}

TEST(ServeCli, DegradePolicyRecoversWithExitZero) {
  const Fixture f;
  const auto script =
      write_script(tmp("req.jsonl"), {R"({"submit": 0, "count": 4})"});
  const auto clean =
      run_cli({"serve", "--db", f.db, "--queries", f.queries, "--script",
               script, "--device", "titanv"});
  const auto faulty = run_cli(
      {"serve", "--db", f.db, "--queries", f.queries, "--script", script,
       "--device", "titanv", "--inject-faults", "launch:p=0.9:seed=5",
       "--fail-policy", "degrade"});
  ASSERT_EQ(clean.code, 0) << clean.err;
  ASSERT_EQ(faulty.code, 0) << faulty.err;
  // Degraded, slower — but bit-identical to the clean run.
  EXPECT_EQ(digest_of(clean.out, 0), digest_of(faulty.out, 0));
  EXPECT_NE(faulty.out.find("service:     faults="), std::string::npos)
      << faulty.out;
}

TEST(ServeCli, EpochSwapRecomputesAgainstNewDatabase) {
  const Fixture f;
  const std::string db2 = tmp("db2.sbm");
  io::save_bitmatrix(io::random_bitmatrix(41, 192, 0.5, 8201),
                     fs::path(db2));
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0})", R"({"barrier": true})", R"({"epoch": ")" + db2 +
                                                       R"("})",
       R"({"submit": 0})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Same profile, new epoch: cache must NOT serve the stale row.
  EXPECT_NE(r.out.find("req 0: batch=1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("req 1: batch=2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("epoch=2"), std::string::npos) << r.out;
  EXPECT_NE(digest_of(r.out, 0), digest_of(r.out, 1));
  EXPECT_NE(r.out.find("service:     queue peak=1 epoch=2"),
            std::string::npos)
      << r.out;
}

TEST(ServeCli, AdmissionRejectShedsAreReportedNotFatal) {
  const Fixture f;
  const auto script =
      write_script(tmp("req.jsonl"), {R"({"submit": 0, "count": 4})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--max-queue", "2", "--cache", "0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("req 2: rejected [SNPRT-OVERLOAD]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 3: rejected [SNPRT-OVERLOAD]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(
                "service:     requests=4 completed=2 failed=0 rejected=2"),
            std::string::npos)
      << r.out;
}

TEST(ServeCli, UsageErrors) {
  const Fixture f;
  // Missing required options.
  EXPECT_EQ(run_cli({"serve", "--db", f.db}).code, 1);
  EXPECT_EQ(run_cli({"submit", "--db", f.db}).code, 1);
  // Bad option values.
  const auto script =
      write_script(tmp("req.jsonl"), {R"({"submit": 0})"});
  EXPECT_EQ(run_cli({"serve", "--db", f.db, "--queries", f.queries,
                     "--script", script, "--admission", "drop"})
                .code,
            1);
  EXPECT_EQ(run_cli({"serve", "--db", f.db, "--queries", f.queries,
                     "--script", script, "--op", "nand"})
                .code,
            1);
  // A leftover --threads fails loudly, like any unknown option.
  const auto threads = run_cli({"serve", "--db", f.db, "--queries",
                                f.queries, "--script", script, "--threads",
                                "2"});
  EXPECT_EQ(threads.code, 1);
  EXPECT_NE(threads.err.find("unknown option --threads"), std::string::npos)
      << threads.err;
  // Missing script file.
  EXPECT_EQ(run_cli({"serve", "--db", f.db, "--queries", f.queries,
                     "--script", tmp("nope.jsonl")})
                .code,
            1);
}

TEST(ServeCli, ScriptErrorsCarryLineNumbers) {
  const Fixture f;
  {
    const auto script =
        write_script(tmp("bad1.jsonl"), {R"({"submit": 0})", R"({"pop": 1})"});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find(":2:"), std::string::npos) << r.err;
  }
  {
    // Query row out of range.
    const auto script =
        write_script(tmp("bad2.jsonl"), {R"({"submit": 99})"});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("out of range"), std::string::npos) << r.err;
  }
  {
    // Unknown per-request policy.
    const auto script = write_script(
        tmp("bad3.jsonl"), {R"({"submit": 0, "policy": "panic"})"});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("bad policy"), std::string::npos) << r.err;
  }
}

TEST(ServeCli, PerRequestPolicySplitsBatches) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0})", R"({"submit": 1, "policy": "degrade"})",
       R"({"submit": 2})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--max-batch", "8"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Different recovery classes never share a batch: [0], [1], [2].
  EXPECT_NE(r.out.find("req 0: batch=1 width=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 1: batch=2 width=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 2: batch=3 width=1"), std::string::npos)
      << r.out;
}

TEST(ServeCli, MetricsDumpIncludesServiceCounters) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics registry compiled out";
  const Fixture f;
  const std::string metrics = tmp("metrics.json");
  const auto script =
      write_script(tmp("req.jsonl"), {R"({"submit": 0, "count": 3})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--metrics-out", metrics});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream is(metrics);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_NE(buf.str().find("svc.requests"), std::string::npos);
  EXPECT_NE(buf.str().find("svc.batches"), std::string::npos);
}

/// PR-8 tentpole surface (b): the deterministic "cost:" report block and
/// the --cost-out ledger document. Counts are pure functions of the
/// scripted workload; the JSON is byte-stable modulo process-global
/// trace ids, which we normalize before comparing replays.
TEST(ServeCli, CostBlockAndLedgerJsonAreDeterministic) {
  if (!obs::kEnabled) GTEST_SKIP() << "cost ledger compiled out";
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0, "count": 2})", R"({"submit": 1})",
       R"({"submit": 2, "count": 2})", R"({"barrier": true})",
       R"({"submit": 0})"});
  // Simulated device: attributed times come from the machine model, so
  // the whole document (not just counts) replays byte-identically.
  const auto run_once = [&](const std::string& cost_path) {
    return run_cli({"serve", "--db", f.db, "--queries", f.queries,
                    "--script", script, "--device", "titanv",
                    "--max-batch", "8", "--cost-out", cost_path});
  };
  const auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
  };
  const std::string cost1 = tmp("cost1.json");
  const std::string cost2 = tmp("cost2.json");
  const auto r1 = run_once(cost1);
  const auto r2 = run_once(cost2);
  ASSERT_EQ(r1.code, 0) << r1.err;
  ASSERT_EQ(r2.code, 0) << r2.err;

  // 5 misses coalesce into one batch before the barrier, and the second
  // copy of query 0 caches its row; the repeat of query 0 is a cache hit
  // that rides no batch.
  EXPECT_NE(r1.out.find(
                "cost:        requests=6 cache-hits=1 batches=1 dropped=0"),
            std::string::npos)
      << r1.out;
  EXPECT_NE(r1.out.find("cost:        h2d="), std::string::npos) << r1.out;
  EXPECT_NE(r1.out.find("wrote cost ledger (6 requests) to " + cost1),
            std::string::npos)
      << r1.out;

  const std::string j1 = slurp(cost1);
  EXPECT_NE(j1.find("\"cost\": 1"), std::string::npos) << j1;
  EXPECT_NE(j1.find("\"batches\""), std::string::npos) << j1;
  EXPECT_NE(j1.find("\"requests\""), std::string::npos) << j1;
  EXPECT_NE(j1.find("\"cache_hit\": true"), std::string::npos) << j1;
  // Wall-clock axes stay out of the document — that's what makes the
  // scripted replay below byte-comparable.
  EXPECT_EQ(j1.find("queue_wait"), std::string::npos) << j1;

  const std::regex trace_re("\"trace\": \\d+");
  const std::string n1 = std::regex_replace(j1, trace_re, "\"trace\": T");
  const std::string n2 =
      std::regex_replace(slurp(cost2), trace_re, "\"trace\": T");
  EXPECT_EQ(n1, n2);
}

/// PR-8 tentpole surface (c): `snpcmp report --trace` ingests the
/// artifacts one serve run wrote and produces a deterministic bottleneck
/// report. (Single serve per test: the metrics registry is
/// process-global, and Little's-law consistency is an engine-scoped
/// claim.)
TEST(ServeCli, ReportVerbAnalyzesServeArtifactsDeterministically) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0})", R"({"submit": 1})", R"({"submit": 2})",
       R"({"barrier": true})", R"({"submit": 3, "count": 3})"});
  const std::string trace = tmp("trace.json");
  const std::string metrics = tmp("metrics.json");
  const std::string cost = tmp("cost.json");
  const auto served = run_cli(
      {"serve", "--db", f.db, "--queries", f.queries, "--script", script,
       "--device", "titanv", "--max-batch", "4", "--trace-out", trace,
       "--metrics-out", metrics, "--cost-out", cost});
  ASSERT_EQ(served.code, 0) << served.err;

  const auto report = [&] {
    return run_cli({"report", "--trace", trace, "--metrics", metrics,
                    "--cost", cost, "--top", "3"});
  };
  const auto p1 = report();
  const auto p2 = report();
  ASSERT_EQ(p1.code, 0) << p1.err;
  EXPECT_NE(p1.out.find("pipeline report:"), std::string::npos) << p1.out;
  // The Little's line renders with its decomposition. (PASS itself is
  // asserted where the process is known fresh — test_cost's engine-scoped
  // check and the check.sh serve->report smoke — because the wait
  // histogram is process-global and a direct whole-binary run of this
  // suite accumulates earlier tests' serves into it.)
  EXPECT_NE(p1.out.find("littles law: sum(wait)"), std::string::npos)
      << p1.out;
  EXPECT_NE(p1.out.find("[lambda"), std::string::npos) << p1.out;
  EXPECT_NE(p1.out.find("top requests by device time:"), std::string::npos)
      << p1.out;
  // Same input files, same report bytes.
  EXPECT_EQ(p1.out, p2.out);

  // --out writes the same report to a file.
  const std::string saved = tmp("report.txt");
  const auto p3 = run_cli({"report", "--trace", trace, "--metrics",
                           metrics, "--cost", cost, "--top", "3", "--out",
                           saved});
  ASSERT_EQ(p3.code, 0) << p3.err;
  EXPECT_NE(p3.out.find("wrote pipeline report to " + saved),
            std::string::npos)
      << p3.out;
  std::ifstream is(saved);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), p1.out);

  // Pipeline mode needs --metrics; the cohort-report mode (no --trace)
  // keeps requiring --in/--out.
  EXPECT_EQ(run_cli({"report", "--trace", trace}).code, 1);
  EXPECT_EQ(run_cli({"report"}).code, 1);
}

/// PR-10 surface (satellite b): "deadline_ms" in the script grammar, the
/// `deadlines:` report block, and the exit-4 contract extended to
/// SNPRT-DEADLINE. A negative deadline sheds at admission, a microsecond
/// one expires in the paused backlog and is shed at batch formation
/// (never launched), and a generous one is met — all deterministic, so
/// the block is golden.
TEST(ServeCli, DeadlineFieldsShedMeetAndReportGolden) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0, "deadline_ms": -1})",
       R"({"submit": 1, "deadline_ms": 600000})",
       R"({"submit": 2, "deadline_ms": 0.000001})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--cache", "0"});
  // A formation-shed request resolves with kDeadline: the first-error
  // exit contract extends to SNPRT-DEADLINE.
  EXPECT_EQ(r.code, 4);
  EXPECT_EQ(r.err.rfind("error: [SNPRT-DEADLINE]", 0), 0U) << r.err;
  EXPECT_NE(r.out.find("req 0: rejected [SNPRT-DEADLINE]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 1: batch=1 width=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 2: error [SNPRT-DEADLINE]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("deadlines:   met=1 expired=0 shed=2"),
            std::string::npos)
      << r.out;
  // The shed request never launched: exactly one batch, width 1.
  EXPECT_NE(r.out.find("service:     batches=1 mean-width=1 max-width=1"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(
                "service:     requests=3 completed=1 failed=1 rejected=1"),
            std::string::npos)
      << r.out;
}

TEST(ServeCli, SubmitDeadlineFlagAppliesToEveryRequest) {
  const Fixture f;
  const auto with = run_cli({"submit", "--db", f.db, "--queries",
                             f.queries, "--device", "cpu", "--deadline-ms",
                             "600000"});
  ASSERT_EQ(with.code, 0) << with.err;
  EXPECT_NE(with.out.find("deadlines:   met=6 expired=0 shed=0"),
            std::string::npos)
      << with.out;
  // Without deadlines the block stays silent — legacy goldens hold.
  const auto without = run_cli({"submit", "--db", f.db, "--queries",
                                f.queries, "--device", "cpu"});
  ASSERT_EQ(without.code, 0) << without.err;
  EXPECT_EQ(without.out.find("deadlines:"), std::string::npos)
      << without.out;
  // And the deadline must not change the results.
  for (std::size_t q = 0; q < 6; ++q) {
    EXPECT_EQ(digest_of(with.out, q), digest_of(without.out, q))
        << "query " << q;
  }
}

TEST(ServeCli, RequestClassFieldSplitsBatches) {
  const Fixture f;
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 0})", R"({"submit": 1, "class": 2})",
       R"({"submit": 2})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu",
                          "--max-batch", "8"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Different request classes never share a batch: [0], [1], [2].
  EXPECT_NE(r.out.find("req 0: batch=1 width=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 1: batch=2 width=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("req 2: batch=3 width=1"), std::string::npos)
      << r.out;
}

TEST(ServeCli, MalformedDeadlineAndClassCarryLineNumbers) {
  const Fixture f;
  {
    const auto script = write_script(
        tmp("bad4.jsonl"), {R"({"submit": 0, "deadline_ms": "soon"})"});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find(":1:"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("expects a number"), std::string::npos) << r.err;
  }
  {
    const auto script = write_script(
        tmp("bad5.jsonl"), {R"({"submit": 0, "class": "gold"})"});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("expects an integer"), std::string::npos)
        << r.err;
  }
}

TEST(ServeCli, ScriptLinesAreStrictJsonObjects) {
  const Fixture f;
  // A false barrier, a misspelt key, a missing comma, a quoted or
  // fractional row, a second verb, a repeated key, a field without
  // "submit", a class past INT_MAX, a non-object line and an infinite
  // deadline are each an error naming the line.
  for (const std::string line :
       {R"({"barrier": false})", R"({"submit": 1, "cuont": 3})",
        R"({"submit": 2 "count": 2})", R"({"submit": "0"})",
        R"({"barrier": true, "submit": 0})", R"({"submit": 1.0})",
        R"({"submit": 0, "count": -1})", R"({"count": 2})",
        R"({"submit": 0, "submit": 1})", R"({"epoch": 3})",
        R"({"submit": 0, "class": 2147483648})", R"([{"submit": 0}])",
        R"({"submit": 0, "deadline_ms": 1e999})"}) {
    const auto script =
        write_script(tmp("bad.jsonl"), {R"({"submit": 0})", line});
    const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                            "--script", script, "--device", "cpu"});
    EXPECT_EQ(r.code, 1) << line << "\n" << r.out;
    EXPECT_EQ(r.err.rfind("error: serve: " + script + ":2: ", 0), 0U)
        << line << "\n" << r.err;
  }
}

TEST(ServeCli, ScriptLinesMayEndInAComment) {
  // The annotated style of docs/service.md: a '#' after the object starts
  // a comment, a '#' inside a string does not.
  const Fixture f;
  const std::string db2 = tmp("db#2.sbm");
  io::save_bitmatrix(io::random_bitmatrix(41, 192, 0.5, 8201),
                     fs::path(db2));
  const auto script = write_script(
      tmp("req.jsonl"),
      {R"({"submit": 3}                    # enqueue query row 3)",
       R"({"submit": 1, "count": 2}        # ... twice)",
       R"({"barrier": true}                # release + drain the backlog,)",
       R"(                                 # closing one generation)",
       R"({"epoch": ")" + db2 + R"("}  # swap the database)",
       R"({"submit": 3})"});
  const auto r = run_cli({"serve", "--db", f.db, "--queries", f.queries,
                          "--script", script, "--device", "cpu"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("service:     requests=4 completed=4"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("queue peak=3 epoch=2"), std::string::npos) << r.out;
  EXPECT_NE(digest_of(r.out, 0), digest_of(r.out, 3));
}

TEST(ServeCli, SubmitDeadlineBeyondTheClockIsMet) {
  // Past steady_clock's range the deadline saturates: nothing is shed.
  const Fixture f;
  const auto r = run_cli({"submit", "--db", f.db, "--queries", f.queries,
                          "--device", "cpu", "--deadline-ms", "1e300"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("deadlines:   met=6 expired=0 shed=0"),
            std::string::npos)
      << r.out;
  for (const char* bad : {"nan", "inf"}) {
    const auto rejected =
        run_cli({"submit", "--db", f.db, "--queries", f.queries,
                 "--deadline-ms", bad});
    EXPECT_EQ(rejected.code, 1) << bad;
    EXPECT_NE(rejected.err.find("--deadline-ms"), std::string::npos)
        << rejected.err;
  }
}

}  // namespace
}  // namespace snp::cli
