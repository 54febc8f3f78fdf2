// Public API: Context, streaming/double-buffering, timing reports, domain
// wrappers, failure injection.
#include "core/snpcmp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "obs/obs.hpp"
#include "rt/status.hpp"

namespace snp {
namespace {

using bits::Comparison;

TEST(Context, CpuAndGpuIdentity) {
  Context cpu = Context::cpu();
  EXPECT_FALSE(cpu.is_gpu());
  EXPECT_THROW((void)cpu.gpu_spec(), std::logic_error);
  Context gpu = Context::gpu("titanv");
  EXPECT_TRUE(gpu.is_gpu());
  EXPECT_EQ(gpu.gpu_spec().name, "Titan V");
  EXPECT_THROW((void)Context::gpu("unknown"), std::invalid_argument);
}

TEST(Context, RejectsBadOperands) {
  Context ctx = Context::cpu();
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  const auto b = io::random_bitmatrix(4, 128, 0.5, 2);
  EXPECT_THROW((void)ctx.compare(a, b, Comparison::kAnd),
               std::invalid_argument);
  EXPECT_THROW((void)ctx.compare(bits::BitMatrix(), b, Comparison::kAnd),
               std::invalid_argument);
  ComputeOptions opts;
  opts.pre_negate = true;
  const auto b2 = io::random_bitmatrix(4, 64, 0.5, 2);
  EXPECT_THROW((void)ctx.compare(a, b2, Comparison::kAnd, opts),
               std::invalid_argument);
}

TEST(Context, CpuCompareMatchesReference) {
  Context ctx = Context::cpu();
  const auto a = io::random_bitmatrix(9, 300, 0.4, 3);
  const auto b = io::random_bitmatrix(11, 300, 0.6, 4);
  const auto result = ctx.compare(a, b, Comparison::kXor);
  EXPECT_TRUE(result.counts ==
              bits::compare_reference(a, b, Comparison::kXor));
  EXPECT_GT(result.timing.kernel_s, 0.0);
  EXPECT_EQ(result.timing.chunks, 1);
}

TEST(Context, GpuCompareMatchesReferenceAllDevices) {
  const auto a = io::random_bitmatrix(20, 500, 0.4, 5);
  const auto b = io::random_bitmatrix(30, 500, 0.6, 6);
  for (const char* name : {"gtx980", "titanv", "vega64"}) {
    Context ctx = Context::gpu(name);
    const auto result = ctx.compare(a, b, Comparison::kAnd);
    EXPECT_TRUE(result.counts ==
                bits::compare_reference(a, b, Comparison::kAnd))
        << name;
    EXPECT_GT(result.timing.end_to_end_s, 0.0) << name;
    EXPECT_GT(result.timing.kernel_gops, 0.0) << name;
  }
}

TEST(Context, WorkloadPresetSelection) {
  Context ctx = Context::gpu("titanv");
  const auto q = io::random_bitmatrix(8, 256, 0.5, 7);
  const auto db = io::random_bitmatrix(5000, 256, 0.5, 8);
  const auto sq = io::random_bitmatrix(300, 256, 0.5, 9);
  // Tiny query vs huge database -> FastID preset (grid 1x80).
  const auto fid_cfg = ctx.effective_config(q, db, Comparison::kXor);
  EXPECT_EQ(fid_cfg.grid.grid_m, 1);
  EXPECT_EQ(fid_cfg.grid.grid_n, 80);
  // Square -> LD preset (grid 80x1).
  const auto ld_cfg = ctx.effective_config(sq, sq, Comparison::kAnd);
  EXPECT_EQ(ld_cfg.grid.grid_m, 80);
  // Explicit override wins.
  ComputeOptions opts;
  opts.config = model::paper_preset(ctx.gpu_spec(),
                                    model::WorkloadKind::kLd);
  const auto forced = ctx.effective_config(q, db, Comparison::kXor, opts);
  EXPECT_EQ(forced.grid.grid_m, 80);
}

TEST(Context, StreamingChunksProduceSameCounts) {
  // Force many small chunks; counts must equal the single-chunk result.
  Context ctx = Context::gpu("gtx980");
  const auto a = io::random_bitmatrix(16, 200, 0.4, 10);
  const auto b = io::random_bitmatrix(2000, 200, 0.5, 11);
  ComputeOptions one;
  one.chunk_rows = 2000;  // entire database in one chunk
  const auto whole = ctx.compare(a, b, Comparison::kXor, one);
  ComputeOptions chunked;
  chunked.chunk_rows = 768;  // not a divisor of 2000: ragged tail chunk
  const auto pieces = ctx.compare(a, b, Comparison::kXor, chunked);
  EXPECT_TRUE(whole.counts == pieces.counts);
  EXPECT_GT(pieces.timing.chunks, 1);
  EXPECT_EQ(whole.timing.chunks, 1);
}

TEST(Context, StreamsLargerOperandEitherSide) {
  // A much larger than B (mixture-analysis shape): chunking must happen on
  // A without changing results.
  Context ctx = Context::gpu("vega64");
  const auto profiles = io::random_bitmatrix(1500, 128, 0.3, 12);
  const auto mixtures = io::random_bitmatrix(4, 128, 0.6, 13);
  ComputeOptions opts;
  opts.chunk_rows = 333;
  const auto r = ctx.compare(profiles, mixtures, Comparison::kAndNot, opts);
  EXPECT_TRUE(r.counts == bits::compare_reference(
                              profiles, mixtures, Comparison::kAndNot));
  EXPECT_GT(r.timing.chunks, 3);
}

TEST(Context, PreNegationMatchesFusedResults) {
  Context ctx = Context::gpu("vega64");
  const auto profiles = io::random_bitmatrix(300, 256, 0.3, 14);
  const auto mixtures = io::random_bitmatrix(3, 256, 0.5, 15);
  ComputeOptions fused;
  const auto rf = ctx.compare(profiles, mixtures, Comparison::kAndNot,
                              fused);
  ComputeOptions pre;
  pre.pre_negate = true;
  const auto rp = ctx.compare(profiles, mixtures, Comparison::kAndNot, pre);
  EXPECT_TRUE(rf.counts == rp.counts);
  // Pre-negation avoids the in-kernel NOT: at least as fast on Vega.
  EXPECT_LE(rp.timing.kernel_s, rf.timing.kernel_s + 1e-12);
}

TEST(Context, TimingReportConsistency) {
  Context ctx = Context::gpu("titanv");
  const auto a = io::random_bitmatrix(64, 1024, 0.5, 16);
  const auto b = io::random_bitmatrix(512, 1024, 0.5, 17);
  const auto r = ctx.compare(a, b, Comparison::kAnd);
  const auto& t = r.timing;
  EXPECT_GT(t.init_s, 0.1);  // hundreds of ms (Section VI-B)
  EXPECT_GE(t.end_to_end_s, t.init_s + t.kernel_s);
  EXPECT_GT(t.h2d_s, 0.0);
  EXPECT_GT(t.d2h_s, 0.0);
  EXPECT_LE(t.pct_of_peak, 100.0);
  EXPECT_EQ(t.device, "Titan V");
  EXPECT_FALSE(t.config.empty());
}

TEST(Context, InitCanBeExcluded) {
  Context ctx = Context::gpu("gtx980");
  const auto a = io::random_bitmatrix(8, 128, 0.5, 18);
  const auto b = io::random_bitmatrix(8, 128, 0.5, 19);
  ComputeOptions with;
  ComputeOptions without;
  without.include_init = false;
  const auto rw = ctx.compare(a, b, Comparison::kAnd, with);
  const auto ro = ctx.compare(a, b, Comparison::kAnd, without);
  EXPECT_GT(rw.timing.end_to_end_s, ro.timing.end_to_end_s + 0.1);
  EXPECT_DOUBLE_EQ(ro.timing.init_s, 0.0);
}

TEST(Context, DoubleBufferingHidesTransfers) {
  Context ctx = Context::gpu("titanv");
  const auto a = io::random_bitmatrix(128, 4096, 0.5, 20);
  const auto b = io::random_bitmatrix(4096, 4096, 0.5, 21);
  ComputeOptions db;
  db.chunk_rows = 512;
  db.functional = false;  // timing-only keeps this test fast
  ComputeOptions serial = db;
  serial.double_buffer = false;
  const auto r_db = ctx.compare(a, b, Comparison::kAnd, db);
  const auto r_serial = ctx.compare(a, b, Comparison::kAnd, serial);
  EXPECT_LT(r_db.timing.end_to_end_s, r_serial.timing.end_to_end_s);
  EXPECT_GT(r_db.timing.overlap_hidden_s, 0.0);
}

TEST(Context, TimingOnlyModeSkipsCounts) {
  Context ctx = Context::gpu("vega64");
  const auto a = io::random_bitmatrix(32, 512, 0.5, 22);
  const auto b = io::random_bitmatrix(64, 512, 0.5, 23);
  ComputeOptions opts;
  opts.functional = false;
  const auto r = ctx.compare(a, b, Comparison::kAnd, opts);
  EXPECT_EQ(r.counts.rows(), 0u);
  EXPECT_GT(r.timing.kernel_s, 0.0);
}

TEST(Context, LdWrapper) {
  Context ctx = Context::gpu("gtx980");
  const auto loci = io::random_bitmatrix(40, 300, 0.35, 24);
  const auto r = ctx.ld(loci);
  EXPECT_TRUE(r.counts ==
              bits::compare_reference(loci, loci, Comparison::kAnd));
}

TEST(Context, IdentitySearchFindsPlantedMatches) {
  Context ctx = Context::gpu("titanv");
  io::ProfileDbParams params;
  params.seed = 25;
  const auto db = io::generate_profile_db(800, 512, params);
  const std::vector<std::size_t> planted = {17, 437, 799};
  const auto queries = io::extract_queries(db, planted);
  const auto result = ctx.identity_search(queries, db, 1);
  ASSERT_EQ(result.top.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(result.top[i].size(), 1u);
    EXPECT_EQ(result.top[i][0].reference_index, planted[i]);
    EXPECT_EQ(result.top[i][0].mismatches, 0u);
  }
}

TEST(Context, MixtureAnalysisRecoversContributors) {
  Context ctx = Context::gpu("vega64");
  io::ProfileDbParams params;
  params.seed = 26;
  params.maf_min = 0.05;
  params.maf_max = 0.25;
  const auto db = io::generate_profile_db(300, 600, params);
  const auto mixtures = io::generate_mixtures(db, 2, 3, 27);
  const auto result = ctx.mixture_analysis(db, mixtures.mixtures);
  ASSERT_EQ(result.included.size(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    for (const std::size_t c : mixtures.contributors[m]) {
      EXPECT_NE(std::find(result.included[m].begin(),
                          result.included[m].end(), c),
                result.included[m].end())
          << "mixture " << m << " missing contributor " << c;
    }
  }
}

TEST(Context, ResidentOperandTooLargeThrows) {
  Context ctx = Context::gpu("gtx980");  // max alloc ~0.98 GiB
  // Both sides of a square problem over the limit: the resident operand
  // cannot fit, so the framework refuses (data-free estimate path).
  EXPECT_THROW((void)ctx.estimate(600000, 600000, 16384, Comparison::kAnd),
               rt::Error);
}

TEST(Context, EstimateMatchesCompareChunking) {
  Context ctx = Context::gpu("gtx980");
  const auto a = io::random_bitmatrix(16, 200, 0.4, 30);
  const auto b = io::random_bitmatrix(2000, 200, 0.5, 31);
  ComputeOptions opts;
  opts.chunk_rows = 768;
  opts.functional = false;
  const auto measured = ctx.compare(a, b, Comparison::kXor, opts);
  const auto projected =
      ctx.estimate(16, 2000, 200, Comparison::kXor, opts);
  EXPECT_EQ(projected.chunks, measured.timing.chunks);
  EXPECT_NEAR(projected.kernel_s, measured.timing.kernel_s,
              0.05 * measured.timing.kernel_s);
  EXPECT_NEAR(projected.end_to_end_s, measured.timing.end_to_end_s,
              0.05 * measured.timing.end_to_end_s);
}

TEST(Context, EstimatePaperScaleDatabase) {
  // Fig. 8 scale without materializing data: 32 queries vs >20 M profiles.
  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.functional = false;
  const auto t =
      ctx.estimate(32, 20'000'000, 1024, Comparison::kXor, opts);
  EXPECT_GT(t.chunks, 1);
  EXPECT_GT(t.end_to_end_s, t.init_s);
  EXPECT_LT(t.end_to_end_s, 60.0);  // sanity: seconds, not hours
}

TEST(Context, EstimateCpuUsesXeonModel) {
  Context ctx = Context::cpu();
  const auto t = ctx.estimate(1000, 1000, 10000, Comparison::kAnd);
  // 1000*1000*313 word-ops at 85 % of 50.4 G/s.
  EXPECT_NEAR(t.kernel_s, 313e6 / (50.4e9 * 0.85), 1e-6);
  EXPECT_NE(t.device.find("Xeon"), std::string::npos);
}

TEST(Context, CpuLdKeepsTheEngineSelfRule) {
  // A CPU context keeps gamma in one window, so ld() hands the engine one
  // matrix on both sides and the engine computes only the tiles on or
  // above the diagonal, as cpu::ld_counts does.
  if (!obs::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out (SNPCMP_OBS=OFF)";
  }
  const obs::Counter& wordops =
      obs::MetricsRegistry::global().counter("cpu.wordops");
  const auto loci = io::random_bitmatrix(2048, 256, 0.5, 270);
  std::uint64_t w0 = wordops.value();
  const bits::CountMatrix direct = cpu::ld_counts(loci);
  const std::uint64_t engine = wordops.value() - w0;
  Context ctx = Context::cpu();
  w0 = wordops.value();
  const CompareResult r = ctx.ld(loci);
  EXPECT_EQ(wordops.value() - w0, engine);
  EXPECT_EQ(r.timing.chunks, 1);
  EXPECT_TRUE(r.counts == direct);
}

/// The "core.lint" spans `run` records (0 with telemetry compiled out).
template <typename Fn>
int lint_spans(const Fn& run) {
  obs::TraceCollector& collector = obs::TraceCollector::global();
  collector.set_enabled(true);
  collector.begin_session();
  run();
  collector.set_enabled(false);
  int spans = 0;
  for (const obs::TraceEvent& ev : collector.events()) {
    spans += ev.name == "core.lint" ? 1 : 0;
  }
  return spans;
}

TEST(ContextLint, RepeatedLaunchReplaysItsVerdict) {
  // gtx980's LD preset idles cores at this shape: SNP-CFG-006 warns.
  Context ctx = Context::gpu("gtx980");
  const auto loci = io::random_bitmatrix(40, 200, 0.5, 290);
  std::vector<std::string> first, again;
  EXPECT_EQ(lint_spans([&] {
              first = ctx.ld(loci).timing.lint_notes;
              again = ctx.ld(loci).timing.lint_notes;
            }),
            obs::kEnabled ? 1 : 0);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.front().find("SNP-CFG-006"), std::string::npos)
      << first.front();
  EXPECT_EQ(again, first);
  // A changed k is a different launch, proved once; the first shape is
  // still known.
  const auto wider = io::random_bitmatrix(40, 2000, 0.5, 291);
  EXPECT_EQ(lint_spans([&] {
              (void)ctx.ld(wider);
              (void)ctx.ld(wider);
              EXPECT_EQ(ctx.ld(loci).timing.lint_notes, first);
            }),
            obs::kEnabled ? 1 : 0);
  // Verdicts belong to their context.
  Context other = Context::gpu("gtx980");
  EXPECT_EQ(lint_spans([&] {
              EXPECT_EQ(other.ld(loci).timing.lint_notes, first);
            }),
            obs::kEnabled ? 1 : 0);
}

TEST(ContextLint, ErrorVerdictBlocksEveryLaunch) {
  // An LDS allocation of 16 words cannot hold the A tile: SNP-BOUND-001.
  Context ctx = Context::gpu("titanv");
  const auto q = io::random_bitmatrix(8, 128, 0.5, 292);
  ComputeOptions undersized;
  undersized.lds_words = 16;
  EXPECT_EQ(lint_spans([&] {
              for (int i = 0; i < 3; ++i) {
                try {
                  (void)ctx.compare(q, q, Comparison::kXor, undersized);
                  ADD_FAILURE() << "launch " << i << " went through";
                } catch (const analyze::VerificationError& e) {
                  EXPECT_EQ(e.check_id(), "SNP-BOUND-001") << "launch " << i;
                  EXPECT_EQ(std::string(e.what())
                                .rfind("pre-launch verification failed", 0),
                            0u)
                      << e.what();
                }
              }
            }),
            obs::kEnabled ? 1 : 0);
  // The default allocation is another key, and launches.
  EXPECT_NO_THROW((void)ctx.compare(q, q, Comparison::kXor));
}

TEST(ContextLint, ConcurrentLaunchesProveOnce) {
  Context ctx = Context::gpu("gtx980");
  const auto loci = io::random_bitmatrix(40, 200, 0.5, 293);
  const CompareResult expected = Context::gpu("gtx980").ld(loci);
  constexpr std::size_t kThreads = 4;
  std::vector<CompareResult> results(kThreads);
  EXPECT_EQ(lint_spans([&] {
              std::vector<std::thread> threads;
              for (std::size_t t = 0; t < kThreads; ++t) {
                threads.emplace_back([&, t] { results[t] = ctx.ld(loci); });
              }
              for (std::thread& t : threads) {
                t.join();
              }
            }),
            obs::kEnabled ? 1 : 0);
  for (const CompareResult& r : results) {
    EXPECT_EQ(r.timing.lint_notes, expected.timing.lint_notes);
    EXPECT_TRUE(r.counts == expected.counts);
  }
}

}  // namespace
}  // namespace snp
