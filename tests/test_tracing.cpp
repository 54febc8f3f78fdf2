// Trace-context propagation conformance (PR 7): a request's trace id,
// allocated at svc submit(), must reach every span, flight record and
// fault event produced on its behalf — through dispatcher batch
// formation, exec::ThreadPool workers and the rt recovery ladder — and
// the flow chains in the collector must be well-formed (monotone,
// submit-opened, resolve-closed). The 50-seed fault soak pins the
// invariant under every recovery path the injector can trigger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "rt/fault.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using obs::current_trace;
using obs::ScopedTraceContext;
using obs::TraceContext;
using svc::QueryResult;
using svc::ServiceConfig;
using svc::ServiceEngine;

TEST(TraceContext, AllocatorIsMonotonicAndNeverZero) {
  const std::uint64_t a = obs::next_trace_id();
  const std::uint64_t b = obs::next_trace_id();
  const std::uint64_t c = obs::next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(TraceContext, DefaultIsNoContext) {
  EXPECT_EQ(current_trace().trace_id, 0u);
  EXPECT_FALSE(current_trace().valid());
}

TEST(TraceContext, ScopedInstallNestsAndRestores) {
  {
    const ScopedTraceContext outer(TraceContext{11});
    EXPECT_EQ(current_trace().trace_id, 11u);
    {
      const ScopedTraceContext inner(TraceContext{22});
      EXPECT_EQ(current_trace().trace_id, 22u);
    }
    EXPECT_EQ(current_trace().trace_id, 11u);
  }
  EXPECT_EQ(current_trace().trace_id, 0u);
}

TEST(TraceContext, ThreadPoolCarriesPostersContext) {
  exec::ThreadPool pool(2);
  std::promise<std::uint64_t> seen_under;
  std::promise<std::uint64_t> seen_after;
  {
    const ScopedTraceContext ctx(TraceContext{77});
    pool.post([&] { seen_under.set_value(current_trace().trace_id); });
  }
  // Posted outside any scope: the worker must run context-free even
  // though the previous task installed 77 on the same worker thread.
  pool.post([&] { seen_after.set_value(current_trace().trace_id); });
  EXPECT_EQ(seen_under.get_future().get(), 77u);
  EXPECT_EQ(seen_after.get_future().get(), 0u);
}

TEST(TraceContext, InlinePoolAlsoPropagates) {
  exec::ThreadPool pool(0);  // tasks run inline on the posting thread
  std::uint64_t seen = 0;
  {
    const ScopedTraceContext ctx(TraceContext{31});
    pool.post([&] { seen = current_trace().trace_id; });
  }
  EXPECT_EQ(seen, 31u);
}

TEST(ServiceTracing, ResultsCarryUniqueIdsMatchingTraceOut) {
  const BitMatrix db = io::random_bitmatrix(24, 192, 0.5, 901);
  const BitMatrix queries = io::random_bitmatrix(6, 192, 0.4, 902);
  ServiceConfig cfg;
  cfg.device = "titanv";
  cfg.op = Comparison::kXor;
  cfg.cache_capacity = 0;
  cfg.start_paused = true;
  ServiceEngine engine(db, cfg);
  std::vector<std::future<QueryResult>> futs;
  std::vector<std::uint64_t> submitted_ids;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::uint64_t id = 0;
    svc::SubmitOptions options;
    options.trace_out = &id;
    futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
    submitted_ids.push_back(id);
  }
  engine.resume();
  std::set<std::uint64_t> unique;
  for (std::size_t q = 0; q < futs.size(); ++q) {
    const QueryResult qr = futs[q].get();
    EXPECT_NE(qr.trace_id, 0u);
    EXPECT_EQ(qr.trace_id, submitted_ids[q]);
    unique.insert(qr.trace_id);
  }
  EXPECT_EQ(unique.size(), futs.size());
}

TEST(ServiceTracing, CacheHitsKeepTheRequestsOwnId) {
  const BitMatrix db = io::random_bitmatrix(24, 192, 0.5, 903);
  const BitMatrix query = io::random_bitmatrix(1, 192, 0.4, 904);
  ServiceConfig cfg;
  cfg.device = "titanv";
  cfg.cache_capacity = 64;
  ServiceEngine engine(db, cfg);
  const QueryResult miss = engine.submit(query).get();
  const QueryResult cached = engine.submit(query).get();  // second miss
  const QueryResult hit = engine.submit(query).get();
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.row, miss.row);
  EXPECT_EQ(cached.row, miss.row);
  EXPECT_NE(hit.trace_id, 0u);
  EXPECT_NE(hit.trace_id, cached.trace_id);
  // The cached *row* is shared; the trace identity is per-request.
  EXPECT_NE(hit.trace_id, miss.trace_id);
}

/// Flow chains recorded through the collector must be well-formed per
/// request: opened by exactly one 's' endpoint, closed by exactly one
/// 'f', timestamps monotone along the chain.
TEST(ServiceTracing, CollectorFlowChainsAreWellFormed) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "flow points compile away under SNPCMP_OBS=OFF";
  }
  obs::TraceCollector& collector = obs::TraceCollector::global();
  collector.set_enabled(true);
  collector.begin_session();

  const BitMatrix db = io::random_bitmatrix(24, 192, 0.5, 905);
  const BitMatrix queries = io::random_bitmatrix(5, 192, 0.4, 906);
  std::vector<std::uint64_t> ids;
  {
    ServiceConfig cfg;
    cfg.device = "titanv";
    cfg.cache_capacity = 0;
    cfg.start_paused = true;
    ServiceEngine engine(db, cfg);
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      std::uint64_t id = 0;
      svc::SubmitOptions options;
      options.trace_out = &id;
      futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
      ids.push_back(id);
    }
    engine.resume();
    for (auto& f : futs) {
      (void)f.get();
    }
  }
  collector.set_enabled(false);

  // events() returns a snapshot by value; keep it alive for the
  // pointers collected below.
  const std::vector<obs::TraceEvent> events = collector.events();
  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> flows;
  for (const obs::TraceEvent& ev : events) {
    if (ev.flow_id != 0) {
      flows[ev.flow_id].push_back(&ev);
    }
  }
  for (const std::uint64_t id : ids) {
    auto it = flows.find(id);
    ASSERT_NE(it, flows.end()) << "request " << id << " left no flow";
    auto& chain = it->second;
    std::stable_sort(chain.begin(), chain.end(),
                     [](const obs::TraceEvent* x, const obs::TraceEvent* y) {
                       return x->ts_us < y->ts_us;
                     });
    EXPECT_EQ(chain.front()->flow_phase, 's') << "request " << id;
    EXPECT_EQ(chain.back()->flow_phase, 'f') << "request " << id;
    std::size_t starts = 0;
    std::size_t finishes = 0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      starts += chain[i]->flow_phase == 's' ? 1u : 0u;
      finishes += chain[i]->flow_phase == 'f' ? 1u : 0u;
      if (i > 0) {
        EXPECT_LE(chain[i - 1]->ts_us, chain[i]->ts_us)
            << "request " << id << " flow not monotone";
      }
    }
    EXPECT_EQ(starts, 1u) << "request " << id;
    EXPECT_EQ(finishes, 1u) << "request " << id;
  }
}

/// The ISSUE's 50-seed soak: under randomized fault injection every
/// batch / chunk / fault / retry flight record must carry a trace id
/// that belongs to a submitted request — no orphaned work, no id
/// invented downstream — across retry, failover and degrade rungs.
TEST(ServiceTracing, FiftySeedFaultSoakPropagatesIdsEverywhere) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "flight records compile away under SNPCMP_OBS=OFF";
  }
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const BitMatrix db = io::random_bitmatrix(20, 192, 0.5, 907);
  const BitMatrix queries = io::random_bitmatrix(4, 192, 0.4, 908);
  std::uint64_t faults_seen = 0;
  for (int seed = 1; seed <= 50; ++seed) {
    flight.clear();
    const rt::ScopedFaultPlan plan(
        "launch:p=0.3:seed=" + std::to_string(seed));
    std::set<std::uint64_t> ids;
    {
      ServiceConfig cfg;
      cfg.device = "titanv";
      cfg.cache_capacity = 0;
      cfg.max_batch_rows = 2;  // multiple batches per seed
      cfg.recovery.policy = rt::FailPolicy::kDegrade;
      cfg.recovery.backoff_base_s = 0.0;
      cfg.start_paused = true;
      ServiceEngine engine(db, cfg);
      std::vector<std::future<QueryResult>> futs;
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        std::uint64_t id = 0;
        svc::SubmitOptions options;
        options.trace_out = &id;
        futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
        ids.insert(id);
      }
      engine.resume();
      for (std::size_t q = 0; q < futs.size(); ++q) {
        const QueryResult qr = futs[q].get();  // degrade never fails
        EXPECT_NE(ids.find(qr.trace_id), ids.end());
      }
    }
    for (const obs::FlightRecord& rec : flight.snapshot()) {
      switch (rec.kind) {
        case obs::FlightKind::kBatch:
        case obs::FlightKind::kChunkPack:
        case obs::FlightKind::kChunkExec:
        case obs::FlightKind::kChunkDrain:
        case obs::FlightKind::kFault:
        case obs::FlightKind::kRetry:
          EXPECT_NE(ids.find(rec.trace_id), ids.end())
              << "seed " << seed << ": " << to_string(rec.kind)
              << " record carries foreign trace id " << rec.trace_id;
          faults_seen += rec.kind == obs::FlightKind::kFault ||
                                 rec.kind == obs::FlightKind::kRetry
                             ? 1
                             : 0;
          break;
        default:
          break;
      }
    }
  }
  // p=0.3 over 50 seeds x 2 batches: the soak must actually have hit
  // the recovery ladder, or it proves nothing.
  EXPECT_GT(faults_seen, 0u);
  flight.clear();
}

}  // namespace
}  // namespace snp
