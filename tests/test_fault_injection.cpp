// Fault-injection soak: every injection site x every recovery policy x
// many seeds must end with counts bit-identical to a clean serial run
// (the whole point of the recovery ladder — slower, never wrong), plus
// the observability and abort-path contracts around it.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "multi/multi_gpu.hpp"
#include "rt/fault.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using bits::CountMatrix;

/// Small but multi-chunk workload: several chunks means every pipeline
/// site (h2d, launch, readback, pool, drain) is checked repeatedly.
struct Workload {
  BitMatrix a = io::random_bitmatrix(6, 256, 0.4, 4401);
  BitMatrix b = io::random_bitmatrix(97, 256, 0.5, 4402);
};

ComputeOptions soak_options(rt::FailPolicy policy) {
  ComputeOptions opts;
  opts.chunk_rows = 16;  // ~7 chunks
  opts.recovery.policy = policy;
  opts.recovery.backoff_base_s = 0.0;  // keep the soak fast
  return opts;
}

CountMatrix clean_baseline(const Workload& w) {
  Context ctx = Context::gpu("titanv");
  return ctx.compare(w.a, w.b, Comparison::kXor, soak_options(
                                                     rt::FailPolicy::kAbort))
      .counts;
}

TEST(FaultSoak, LaunchHundredSeedsUnderEveryRecoveryPolicy) {
  const Workload w;
  const CountMatrix expected = clean_baseline(w);
  for (const auto policy :
       {rt::FailPolicy::kRetry, rt::FailPolicy::kFailover,
        rt::FailPolicy::kDegrade}) {
    for (int seed = 0; seed < 100; ++seed) {
      rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
          "launch:p=0.05:seed=" + std::to_string(seed)));
      Context ctx = Context::gpu("titanv");
      const auto r =
          ctx.compare(w.a, w.b, Comparison::kXor, soak_options(policy));
      ASSERT_TRUE(r.counts == expected)
          << "policy=" << rt::to_string(policy) << " seed=" << seed;
      const std::uint64_t fires = rt::FaultInjector::global().fires();
      if (fires > 0) {
        EXPECT_FALSE(r.timing.fault_events.empty())
            << "policy=" << rt::to_string(policy) << " seed=" << seed;
      } else {
        EXPECT_TRUE(r.timing.fault_events.empty());
      }
    }
  }
}

TEST(FaultSoak, EverySiteEveryPolicyRecovers) {
  const Workload w;
  const CountMatrix expected = clean_baseline(w);
  for (const std::string site :
       {"alloc", "h2d", "launch", "readback", "pool", "timeout"}) {
    for (const auto policy :
         {rt::FailPolicy::kRetry, rt::FailPolicy::kFailover,
          rt::FailPolicy::kDegrade}) {
      for (int seed = 0; seed < 20; ++seed) {
        rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
            site + ":p=0.1:seed=" + std::to_string(seed)));
        Context ctx = Context::gpu("titanv");
        const auto r = ctx.compare(w.a, w.b, Comparison::kXor,
                                   soak_options(policy));
        ASSERT_TRUE(r.counts == expected)
            << "site=" << site << " policy=" << rt::to_string(policy)
            << " seed=" << seed;
      }
    }
  }
}

TEST(FaultSoak, SameSeedReplaysTheSameRecoverySequence) {
  const Workload w;
  auto run = [&] {
    rt::ScopedFaultPlan plan(
        rt::FaultPlan::parse("launch:p=0.3:seed=77"));
    Context ctx = Context::gpu("titanv");
    const auto r = ctx.compare(w.a, w.b, Comparison::kXor,
                               soak_options(rt::FailPolicy::kDegrade));
    std::ostringstream os;
    for (const auto& ev : r.timing.fault_events) {
      os << ev.site << '/' << rt::code_name(ev.code) << '/' << ev.action
         << '/' << ev.chunk << '/' << ev.attempt << ';';
    }
    return os.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(FaultSoak, AbortPropagatesTheSiteCode) {
  const Workload w;
  const struct {
    const char* site;
    rt::ErrorCode code;
  } cases[] = {
      {"alloc", rt::ErrorCode::kAlloc},
      {"h2d", rt::ErrorCode::kH2d},
      {"launch", rt::ErrorCode::kLaunch},
      {"readback", rt::ErrorCode::kReadback},
      {"pool", rt::ErrorCode::kPoolTask},
      {"timeout", rt::ErrorCode::kTimeout},
  };
  for (const auto& c : cases) {
    rt::ScopedFaultPlan plan(
        rt::FaultPlan::parse(std::string(c.site) + ":after=1"));
    Context ctx = Context::gpu("titanv");
    try {
      (void)ctx.compare(w.a, w.b, Comparison::kXor,
                        soak_options(rt::FailPolicy::kAbort));
      FAIL() << "expected rt::Error for site " << c.site;
    } catch (const rt::Error& e) {
      EXPECT_EQ(e.code(), c.code) << "site=" << c.site;
    }
  }
}

TEST(FaultSoak, DegradedStreamingDeliversEveryRowExactlyOnce) {
  // Full mid-run degradation with a streaming consumer: the CPU rung
  // must deliver only the undelivered remainder — never a chunk twice.
  const Workload w;
  const CountMatrix expected = clean_baseline(w);
  rt::ScopedFaultPlan plan(
      rt::FaultPlan::parse("launch:p=1:seed=1"));
  ComputeOptions opts = soak_options(rt::FailPolicy::kDegrade);
  opts.keep_counts = false;
  CountMatrix assembled(w.a.rows(), w.b.rows());
  std::set<std::size_t> seen_rows;
  bool duplicate = false;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    const std::size_t len =
        v.streamed_b ? v.part.cols() : v.part.rows();
    for (std::size_t r = v.row0; r < v.row0 + len; ++r) {
      duplicate = duplicate || !seen_rows.insert(r).second;
    }
    for (std::size_t i = 0; i < v.part.rows(); ++i) {
      for (std::size_t j = 0; j < v.part.cols(); ++j) {
        if (v.streamed_b) {
          assembled.at(i, v.row0 + j) = v.part.at(i, j);
        } else {
          assembled.at(v.row0 + i, j) = v.part.at(i, j);
        }
      }
    }
  };
  Context ctx = Context::gpu("titanv");
  const auto r = ctx.compare(w.a, w.b, Comparison::kXor, opts);
  EXPECT_TRUE(r.timing.degraded);
  EXPECT_FALSE(duplicate);
  EXPECT_EQ(seen_rows.size(), w.b.rows());
  EXPECT_TRUE(assembled == expected);
}

TEST(FaultSoak, CliSearchRecoversAndReportsFaults) {
  // End-to-end through the CLI: inject heavily, require the recovered
  // ranking to match the clean run and the report to say what happened.
  const auto tmp = testing::TempDir();
  const std::string db = tmp + "/soak_db.sbm";
  const std::string q = tmp + "/soak_q.sbm";
  io::save_bitmatrix(io::random_bitmatrix(200, 256, 0.5, 4403),
                     std::filesystem::path(db));
  io::save_bitmatrix(io::random_bitmatrix(3, 256, 0.5, 4404),
                     std::filesystem::path(q));
  auto run = [&](const std::vector<std::string>& extra) {
    std::vector<std::string> args = {"search", "--queries", q, "--db",
                                     db, "--device", "titanv"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::ostringstream out, err;
    const int rc = cli::run(args, out, err);
    return std::pair<int, std::string>(rc, out.str());
  };
  const auto [clean_rc, clean_out] = run({});
  ASSERT_EQ(clean_rc, 0);
  const auto queries_of = [](const std::string& text) {
    std::string result;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
      if (line.rfind("query ", 0) == 0) result += line + '\n';
    }
    return result;
  };
  for (const char* policy : {"retry", "failover", "degrade"}) {
    const auto [rc, out] = run({"--inject-faults", "launch:p=0.5:seed=9",
                                "--fail-policy", policy});
    ASSERT_EQ(rc, 0) << policy;
    EXPECT_EQ(queries_of(out), queries_of(clean_out)) << policy;
    EXPECT_NE(out.find("faults:"), std::string::npos) << policy;
  }
  // Abort: non-zero exit with the stable code on stderr.
  std::ostringstream out, err;
  const int rc = cli::run({"search", "--queries", q, "--db", db,
                           "--inject-faults", "launch:after=1",
                           "--fail-policy", "abort"},
                          out, err);
  EXPECT_EQ(rc, 4);
  EXPECT_NE(err.str().find("SNPRT-LAUNCH"), std::string::npos);
  // A bad plan is a usage error, not a runtime failure.
  std::ostringstream out2, err2;
  EXPECT_EQ(cli::run({"search", "--queries", q, "--db", db,
                      "--inject-faults", "warp:p=1"},
                     out2, err2),
            1);
}

TEST(FaultSoak, MultiGpuSoakStaysBitIdentical) {
  const auto a = io::random_bitmatrix(5, 192, 0.4, 4405);
  const auto b = io::random_bitmatrix(240, 192, 0.5, 4406);
  Context single = Context::gpu("titanv");
  const auto expected = single.compare(a, b, Comparison::kAnd).counts;
  for (const auto policy :
       {rt::FailPolicy::kFailover, rt::FailPolicy::kDegrade}) {
    for (int seed = 0; seed < 15; ++seed) {
      rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
          "shard:p=0.3:seed=" + std::to_string(seed) +
          ",launch:p=0.02:seed=" + std::to_string(seed)));
      multi::MultiGpuContext mg("titanv", 3);
      multi::MultiGpuOptions opts;
      opts.per_device = soak_options(policy);
      const auto r = mg.compare(a, b, Comparison::kAnd, opts);
      ASSERT_TRUE(r.counts == expected)
          << "policy=" << rt::to_string(policy) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace snp
