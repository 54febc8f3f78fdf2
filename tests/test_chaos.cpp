// Chaos-soak matrix (PR 10): the request-lifecycle robustness features
// — deadlines, per-class retry budgets, the per-device circuit breaker
// and the SLO brown-out — must compose. Each cell of the matrix runs a
// seeded fault soak with one feature combination enabled and checks the
// invariants that must hold in *every* cell: exactly-once resolution,
// bit-identical successful rows, stable SNPRT codes on failures, and no
// expired request ever reaching a launch. CI runs this suite under both
// ASan and TSan (chaos-soak job).
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "obs/obs.hpp"
#include "rt/fault.hpp"
#include "rt/recovery.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using svc::QueryResult;
using svc::ServiceConfig;
using svc::ServiceEngine;

/// One matrix cell: which robustness features are armed.
struct ChaosCell {
  bool breaker;
  bool budget;
};

/// Serial ground truth for the soak workload (abort policy, no service).
std::vector<std::vector<std::uint32_t>> ground_truth(const BitMatrix& queries,
                                                     const BitMatrix& db) {
  Context ctx = Context::gpu("titanv");
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    ComputeOptions copts;
    copts.recovery.policy = rt::FailPolicy::kAbort;
    copts.lint = false;
    const auto r = ctx.compare(queries.row_slice(q, q + 1), db,
                               Comparison::kXor, copts);
    const auto span = r.counts.raw();
    rows.emplace_back(span.begin(), span.end());
  }
  return rows;
}

ServiceConfig chaos_config(const ChaosCell& cell) {
  ServiceConfig cfg;
  cfg.device = "titanv";
  cfg.op = Comparison::kXor;
  cfg.max_batch_rows = 4;
  cfg.cache_capacity = 0;
  cfg.recovery.policy = rt::FailPolicy::kRetry;
  cfg.recovery.backoff_base_s = 0.0;
  cfg.start_paused = true;
  if (cell.breaker) {
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.probe_interval = 3;
    cfg.breaker.success_threshold = 1;
  }
  if (cell.budget) {
    cfg.retry_budget = 4.0;
    cfg.retry_budget_refill = 0.5;
  }
  return cfg;
}

/// Per-request outcome: (0, row) on success, (SNPRT code, {}) otherwise.
using Outcome = std::pair<int, std::vector<std::uint32_t>>;

std::vector<Outcome> run_cell(const ChaosCell& cell, int seed,
                              const BitMatrix& queries, const BitMatrix& db,
                              std::size_t waves) {
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
      "timeout:p=0.06:seed=" + std::to_string(seed) +
      ",launch:p=0.06:seed=" + std::to_string(seed + 9000)));
  // The breaker registry is keyed by device name and process-global:
  // every cell must start from a closed breaker or cells would couple.
  rt::BreakerRegistry::global().reset();
  ServiceEngine engine(db, chaos_config(cell));
  std::vector<Outcome> outcomes;
  for (std::size_t wave = 0; wave < waves; ++wave) {
    svc::SubmitOptions options;
    options.deadline_ms = 1e7;  // armed, but only injection can fire it
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
    }
    engine.resume();
    engine.drain();
    engine.pause();
    for (auto& f : futs) {
      try {
        outcomes.emplace_back(0, f.get().row);
      } catch (const rt::Error& e) {
        outcomes.emplace_back(static_cast<int>(e.code()),
                              std::vector<std::uint32_t>{});
      }
    }
  }
  return outcomes;
}

/// Every cell, every seed: exactly-once resolution with bit-identical
/// rows on success and stable codes on failure, twice per seed to prove
/// the whole feature stack is deterministic (probes, refills and sheds
/// are ordinal-driven, never wall-clock).
TEST(ChaosSoak, FeatureMatrixIsDeterministicAndExactlyOnce) {
  const BitMatrix db = io::random_bitmatrix(21, 192, 0.5, 781);
  const BitMatrix queries = io::random_bitmatrix(6, 192, 0.4, 782);
  const auto expected = ground_truth(queries, db);

  for (const ChaosCell cell :
       {ChaosCell{false, false}, ChaosCell{true, false},
        ChaosCell{false, true}, ChaosCell{true, true}}) {
    for (int seed = 0; seed < 25; ++seed) {
      const auto first = run_cell(cell, seed, queries, db, 3);
      const auto second = run_cell(cell, seed, queries, db, 3);
      ASSERT_EQ(first, second)
          << "breaker=" << cell.breaker << " budget=" << cell.budget
          << " seed=" << seed << " diverged between runs";
      ASSERT_EQ(first.size(), 3 * queries.rows());
      for (std::size_t i = 0; i < first.size(); ++i) {
        if (first[i].first == 0) {
          EXPECT_EQ(first[i].second, expected[i % queries.rows()])
              << "successful row not bit-identical, request " << i;
        } else {
          // Failures carry a stable terminal code from the taxonomy.
          const auto code = static_cast<rt::ErrorCode>(first[i].first);
          EXPECT_TRUE(code == rt::ErrorCode::kExhausted ||
                      code == rt::ErrorCode::kDeadline ||
                      code == rt::ErrorCode::kTimeout ||
                      code == rt::ErrorCode::kLaunch ||
                      code == rt::ErrorCode::kCancelled)
              << "unexpected terminal code " << first[i].first;
        }
      }
    }
  }
  rt::BreakerRegistry::global().reset();
}

/// Breaker-specific invariant under chaos: once the breaker opens, the
/// fast-fail path must not feed back into the failure count (a breaker
/// that trips itself deeper open on its own fast-fails never recovers),
/// and probes must eventually close it again when the plan dries up.
TEST(ChaosSoak, BreakerRecoversAfterThePlanDriesUp) {
  const BitMatrix db = io::random_bitmatrix(21, 192, 0.5, 783);
  const BitMatrix queries = io::random_bitmatrix(4, 192, 0.4, 784);
  const auto expected = ground_truth(queries, db);
  rt::BreakerRegistry::global().reset();

  ChaosCell cell{true, false};
  ServiceConfig cfg = chaos_config(cell);
  cfg.recovery.max_attempts = 1;  // no retries: failures hit the breaker
  ServiceEngine engine(db, cfg);
  {
    // count-capped plan: enough fires to open the breaker, then clean.
    rt::ScopedFaultPlan plan(
        rt::FaultPlan::parse("launch:p=1:seed=3:count=4"));
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
    engine.resume();
    engine.drain();
    engine.pause();
    for (auto& f : futs) {
      EXPECT_THROW((void)f.get(), rt::Error);
    }
  }
  // The plan is disarmed; keep submitting waves. Open-state fast-fails
  // (kCancelled from the breaker, degraded to nothing by kRetry policy)
  // may shed a wave or two, but the ordinal-driven probe schedule must
  // close the breaker and the engine must return to bit-identical rows.
  bool recovered = false;
  for (int wave = 0; wave < 8 && !recovered; ++wave) {
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
    engine.resume();
    engine.drain();
    engine.pause();
    bool all_ok = true;
    for (std::size_t q = 0; q < futs.size(); ++q) {
      try {
        EXPECT_EQ(futs[q].get().row, expected[q]) << "query=" << q;
      } catch (const rt::Error&) {
        all_ok = false;  // breaker still open for this batch
      }
    }
    recovered = all_ok;
  }
  EXPECT_TRUE(recovered) << "breaker never closed after the faults ended";
  rt::BreakerRegistry::global().reset();
}

}  // namespace
}  // namespace snp
