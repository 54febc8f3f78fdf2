// src/obs unit tests: registry concurrency (counters/gauges/histograms
// hammered from many threads), fixed-bucket histogram semantics, span
// nesting depth bookkeeping, and structural validity of the emitted
// metrics/trace JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/envinfo.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"

namespace snp::obs {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Structural JSON sanity without a parser: balanced braces/brackets and
/// no trailing comma before a closer.
void expect_balanced_json(const std::string& s) {
  long braces = 0;
  long brackets = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
    if (c == ',') {
      const auto next = s.find_first_not_of(" \n\t", i + 1);
      ASSERT_NE(next, std::string::npos);
      EXPECT_NE(s[next], '}') << "trailing comma at offset " << i;
      EXPECT_NE(s[next], ']') << "trailing comma at offset " << i;
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a.b.c");
  Counter& c2 = reg.counter("a.b.c");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);

  Gauge& g = reg.gauge("a.b.level");
  g.set(7);
  g.sub(2);
  EXPECT_EQ(reg.gauge("a.b.level").value(), 5);
  EXPECT_EQ(g.peak(), 7);
}

TEST(MetricsRegistry, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Registration races with updates on purpose: every thread looks
      // the metrics up by name each iteration block.
      Counter& c = reg.counter("stress.counter");
      Gauge& g = reg.gauge("stress.gauge");
      Histogram& h =
          reg.histogram("stress.histo", {0.001, 0.01, 0.1, 1.0});
      for (int i = 0; i < kIters; ++i) {
        c.increment();
        g.add(1);
        g.sub(1);
        h.observe(0.005);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("stress.counter"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.gauges.at("stress.gauge"), 0);
  EXPECT_GE(snap.gauge_peaks.at("stress.gauge"), 1);
  const auto& h = snap.histograms.at("stress.histo");
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * kIters);
  // 0.005 lands in the (0.001, 0.01] bucket.
  EXPECT_EQ(h.counts[1], h.count);
  EXPECT_NEAR(h.sum, 0.005 * static_cast<double>(h.count),
              1e-6 * static_cast<double>(h.count));
}

TEST(Histogram, BucketBoundariesUseLowerInclusiveLeSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1        -> bucket 0
  h.observe(1.0);   // <= 1        -> bucket 0 (le is inclusive)
  h.observe(1.5);   // <= 2        -> bucket 1
  h.observe(5.0);   // <= 5        -> bucket 2
  h.observe(99.0);  // overflow    -> bucket 3
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 99.0);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

TEST(Histogram, LatencyBoundsAreStrictlyIncreasing) {
  const auto b = Histogram::latency_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) == b.end());
  EXPECT_LE(b.front(), 1e-6);
  EXPECT_GE(b.back(), 10.0);
  // Adjacent bounds differ by at most 2^(1/8) (up to rounding): the
  // grid's documented ~9.1% error bound.
  const double ratio = std::exp2(1.0 / 8.0) *
                       (1.0 + 4.0 * std::numeric_limits<double>::epsilon());
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_LE(b[i] / b[i - 1], ratio) << "i=" << i;
  }
}

TEST(Histogram, LatencyQuantilesAreAtMostOneGridRatioAboveExact) {
  // Log-uniform samples over 1 us .. 1 s. mt19937_64's output sequence is
  // fixed by the standard, so the samples are the same on every host.
  std::mt19937_64 rng(20261017);
  std::vector<double> samples(10000);
  Histogram h(Histogram::latency_bounds());
  for (double& t : samples) {
    const double u = static_cast<double>(rng() >> 11U) * 0x1p-53;
    t = 1e-6 * std::pow(1e6, u);
    h.observe(t);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // The exact ceil-rank quantile of the sorted samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    const double le =
        percentile_le(h.bounds(), h.bucket_counts(), h.count(), q);
    EXPECT_GE(le, exact) << "q=" << q;
    EXPECT_LE(le, std::exp2(1.0 / 8.0) * exact) << "q=" << q;
  }
}

TEST(Span, NestingTracksDepthAndContainment) {
  TraceCollector collector;
  collector.set_enabled(true);
  collector.begin_session();
  EXPECT_EQ(Span::current_depth(), 0);
  {
    Span outer("outer", collector);
    EXPECT_EQ(Span::current_depth(), 1);
    {
      Span inner("inner", collector);
      EXPECT_EQ(Span::current_depth(), 2);
    }
    EXPECT_EQ(Span::current_depth(), 1);
  }
  EXPECT_EQ(Span::current_depth(), 0);

  const auto events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  // Containment: outer's interval covers inner's.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
  // Same thread, same track.
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(Span, DisabledCollectorRecordsNothing) {
  TraceCollector collector;
  ASSERT_FALSE(collector.enabled());
  {
    Span s("ignored", collector);
  }
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(Span::current_depth(), 0);
}

TEST(TraceCollector, BeginSessionClearsAndRezeroesEpoch) {
  TraceCollector collector;
  collector.set_enabled(true);
  { Span s("first", collector); }
  ASSERT_EQ(collector.size(), 1u);
  collector.begin_session();
  EXPECT_EQ(collector.size(), 0u);
  { Span s("second", collector); }
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].ts_us, 0.0);
}

TEST(TraceWriter, EmitsValidChromeTraceJson) {
  std::vector<TrackLabel> tracks{{0, 0, "engine a"}, {1, 3, "thread 3"}};
  std::vector<TraceEvent> events;
  TraceEvent ev;
  ev.name = "slice \"quoted\"";
  ev.pid = 0;
  ev.tid = 0;
  ev.ts_us = 1.5;
  ev.dur_us = 2.5;
  events.push_back(ev);
  ev.name = "zero-length";
  ev.dur_us = 0.0;  // must be dropped
  events.push_back(ev);

  std::ostringstream os;
  write_trace_events(tracks, events, os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_EQ(count_occurrences(json, "thread_name"), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 1u);
  EXPECT_EQ(count_occurrences(json, "zero-length"), 0u);
  // The quote inside the span name must be escaped.
  EXPECT_NE(json.find("slice \\\"quoted\\\""), std::string::npos);
}

TEST(MetricsWriter, JsonSnapshotIsStructurallyValid) {
  MetricsRegistry reg;
  reg.counter("x.bytes").add(42);
  reg.gauge("x.depth").set(3);
  reg.histogram("x.lat", {0.1, 1.0}).observe(0.5);
  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.bytes\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"gauge_peaks\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

TEST(MetricsWriter, PrometheusFormatSanitizesAndPrefixes) {
  MetricsRegistry reg;
  reg.counter("exec.pool.tasks_run").add(7);
  reg.gauge("exec.pool.queue_depth").set(2);
  reg.histogram("exec.pool.task_wait_seconds", {0.1, 1.0}).observe(0.05);
  std::ostringstream os;
  write_metrics_prometheus(reg.snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("snpcmp_exec_pool_tasks_run 7"), std::string::npos);
  EXPECT_NE(text.find("snpcmp_exec_pool_queue_depth 2"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("_count 1"), std::string::npos);
  // Dots only survive inside `# HELP` text (where the exposition format
  // allows them and the original registry name is genuinely useful);
  // sample lines must use the sanitized spelling.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# HELP ", 0) == 0) continue;
    EXPECT_EQ(line.find("exec.pool"), std::string::npos)
        << "dots must be sanitized outside HELP: " << line;
  }
}

TEST(MetricsWriter, PrometheusConformanceGolden) {
  // PR-8 satellite: the exposition format pinned byte-for-byte — HELP
  // before TYPE before samples for every family, build_info first with
  // escaped label values, gauges growing a _peak twin, histograms as
  // cumulative buckets + _sum + _count.
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.depth").set(2);
  auto& h = reg.histogram("c.lat_seconds", {0.5});
  h.observe(0.25);
  h.observe(2.0);
  EnvInfo env;
  env.compiler = "g++ \"13\"";
  env.git_sha = "abc123";
  env.hostname = "node\\1";
  env.kernel = "6.1";
  env.cpu_model = "Test\nCPU";
  std::ostringstream os;
  write_metrics_prometheus(reg.snapshot(), env, os);
  const std::string expected =
      "# HELP snpcmp_build_info execution environment of this process\n"
      "# TYPE snpcmp_build_info gauge\n"
      "snpcmp_build_info{compiler=\"g++ \\\"13\\\"\",git_sha=\"abc123\","
      "host=\"node\\\\1\",kernel=\"6.1\",cpu=\"Test\\nCPU\"} 1\n"
      "# HELP snpcmp_a_count snpcmp registry metric a.count\n"
      "# TYPE snpcmp_a_count counter\n"
      "snpcmp_a_count 3\n"
      "# HELP snpcmp_b_depth snpcmp registry metric b.depth\n"
      "# TYPE snpcmp_b_depth gauge\n"
      "snpcmp_b_depth 2\n"
      "# HELP snpcmp_b_depth_peak snpcmp registry metric b.depth "
      "high-water mark\n"
      "# TYPE snpcmp_b_depth_peak gauge\n"
      "snpcmp_b_depth_peak 2\n"
      "# HELP snpcmp_c_lat_seconds snpcmp registry metric c.lat_seconds\n"
      "# TYPE snpcmp_c_lat_seconds histogram\n"
      "snpcmp_c_lat_seconds_bucket{le=\"0.5\"} 1\n"
      "snpcmp_c_lat_seconds_bucket{le=\"+Inf\"} 2\n"
      "snpcmp_c_lat_seconds_sum 2.25\n"
      "snpcmp_c_lat_seconds_count 2\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(MetricsWriter, PrometheusHelpPrecedesTypeForEveryFamily) {
  MetricsRegistry reg;
  reg.counter("x.n").increment();
  reg.gauge("y.g").set(1);
  reg.histogram("z.h", {1.0}).observe(0.5);
  std::ostringstream os;
  write_metrics_prometheus(reg.snapshot(), os);
  const std::string text = os.str();
  // Scan line pairs: every `# TYPE <name>` must be directly preceded by
  // `# HELP <name>` (the format requires HELP first when both appear).
  std::istringstream is(text);
  std::string prev;
  std::string line;
  std::size_t families = 0;
  while (std::getline(is, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      ++families;
      const std::string name =
          line.substr(7, line.find(' ', 7) - 7);
      ASSERT_EQ(prev.rfind("# HELP " + name + " ", 0), 0U)
          << "TYPE for " << name << " not preceded by its HELP:\n"
          << text;
    }
    prev = line;
  }
  EXPECT_GE(families, 5U);  // build_info + counter + gauge + peak + hist
}

TEST(MetricsWriter, PrometheusNonFiniteValuesRenderPerExposition) {
  MetricsRegistry reg;
  // An infinite histogram bound and ±inf observations must render as
  // +Inf / -Inf (ostream would print "inf", which Prometheus rejects).
  auto& hi = reg.histogram("inf.bound",
                           {1.0, std::numeric_limits<double>::infinity()});
  hi.observe(std::numeric_limits<double>::infinity());
  auto& lo = reg.histogram("neg.obs", {1.0});
  lo.observe(-std::numeric_limits<double>::infinity());
  std::ostringstream os;
  write_metrics_prometheus(reg.snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("snpcmp_inf_bound_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("snpcmp_inf_bound_sum +Inf"), std::string::npos)
      << text;
  EXPECT_NE(text.find("snpcmp_neg_obs_sum -Inf"), std::string::npos)
      << text;
  // Bare ostream spellings must never appear as sample values.
  EXPECT_EQ(text.find(" inf\n"), std::string::npos) << text;
  EXPECT_EQ(text.find(" nan\n"), std::string::npos) << text;
}

TEST(MetricsWriter, PromEscapeLabelHandlesEveryClass) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_escape_label("two\nlines"), "two\\nlines");
}

TEST(MetricsWriter, HistogramPercentilesAreMarkedApproximate) {
  MetricsRegistry reg;
  auto& h = reg.histogram("svc.latency", {0.001, 0.01, 0.1});
  h.observe(0.0005);
  h.observe(0.0005);
  h.observe(0.05);
  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  const std::string json = os.str();
  expect_balanced_json(json);
  // Satellite 1: published percentiles are bucket upper bounds and say
  // so — "approx": true rides next to them in every histogram block.
  EXPECT_NE(json.find("\"percentiles\": {\"p50_le\": 0.001"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99_le\": 0.1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"approx\": true"), std::string::npos) << json;
}

TEST(MetricsWriter, EmptyAndOverflowPercentilesAreNull) {
  MetricsRegistry reg;
  (void)reg.histogram("svc.empty", {0.001});
  reg.histogram("svc.over", {0.001}).observe(5.0);  // overflow only
  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  const std::string json = os.str();
  expect_balanced_json(json);
  // NaN (empty) and +inf (overflow bucket) are not JSON: both render as
  // null rather than poisoning the document.
  EXPECT_EQ(count_occurrences(json, "\"p50_le\": null"), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "nan"), 0u);
  EXPECT_EQ(count_occurrences(json, "inf"), 0u);
}

// ---- SLO burn-rate monitor ---------------------------------------------

TEST(Slo, PercentileLeIsBucketUpperBoundOverflowAndEmptyAreHonest) {
  SloMonitor mon(SloOptions{});  // no objective: histogram still feeds
  EXPECT_TRUE(std::isnan(mon.percentile_le(0.5)));

  mon.record(2e-5, 1);
  mon.record(2e-5, 2);
  mon.record(2e-5, 3);
  // All three sit in one latency-grid bucket: p50 reports its upper
  // bound, never an interpolated fiction below a real observation.
  const double p50 = mon.percentile_le(0.5);
  EXPECT_GE(p50, 2e-5);
  EXPECT_LE(p50, 2.5e-5);

  mon.record(100.0, 4);  // beyond the last bound -> overflow
  EXPECT_TRUE(std::isinf(mon.percentile_le(1.0)));
}

TEST(Slo, ExemplarsRetainTheLatestTraceIdPerBucket) {
  SloMonitor mon(SloOptions{});
  mon.record(2e-5, 7);
  mon.record(2e-5, 9);    // same bucket: newest wins
  mon.record(0.5, 1234);  // far bucket
  const auto counts = mon.bucket_counts();
  const auto exemplars = mon.exemplars();
  ASSERT_EQ(counts.size(), mon.bounds().size() + 1);  // + overflow
  ASSERT_EQ(exemplars.size(), counts.size());
  std::uint64_t total = 0;
  bool saw9 = false;
  bool saw1234 = false;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (counts[i] == 0) {
      EXPECT_FALSE(exemplars[i].has_value());
      continue;
    }
    ASSERT_TRUE(exemplars[i].has_value());
    saw9 = saw9 || exemplars[i]->trace_id == 9;
    saw1234 = saw1234 || exemplars[i]->trace_id == 1234;
    EXPECT_NE(exemplars[i]->trace_id, 7u) << "stale exemplar kept";
  }
  EXPECT_EQ(total, 3u);
  EXPECT_TRUE(saw9);
  EXPECT_TRUE(saw1234);
}

TEST(Slo, BurnRateTripsOnceAndEdgeDetects) {
  SloOptions opt;
  opt.objective_s = 1e-9;  // everything breaches
  opt.error_budget = 0.01;
  opt.breach_burn_rate = 10.0;
  SloMonitor mon(opt);
  // Breach fraction 1.0 / budget 0.01 = burn 100 on both windows: the
  // first record crosses the trigger; the monitor then stays tripped
  // without re-firing (edge detection) while burn stays high.
  EXPECT_TRUE(mon.record(1.0, 1));
  EXPECT_FALSE(mon.record(1.0, 2));
  EXPECT_FALSE(mon.record(1.0, 3));
  const SloSnapshot snap = mon.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.breaches, 3u);
  EXPECT_EQ(snap.trips, 1u);
  EXPECT_GE(snap.burn_fast, opt.breach_burn_rate);
  EXPECT_GE(snap.burn_slow, opt.breach_burn_rate);
}

TEST(Slo, NoObjectiveMeansNoBurnEvaluation) {
  SloMonitor mon(SloOptions{});  // objective_s == 0
  EXPECT_FALSE(mon.record(100.0, 1));
  const SloSnapshot snap = mon.snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.breaches, 0u);
  EXPECT_EQ(snap.trips, 0u);
  EXPECT_EQ(snap.burn_fast, 0.0);
  EXPECT_EQ(snap.burn_slow, 0.0);
}

TEST(MergedTrace, CombinesSpansTimelineAndChunksOnDistinctPids) {
  TraceCollector collector;
  collector.set_enabled(true);
  collector.begin_session();
  // Record a span-shaped event directly so its duration is deterministic
  // (a real Span closed immediately could round to 0 us and be dropped).
  TraceEvent span_ev;
  span_ev.name = "host work";
  span_ev.tid = 0;
  span_ev.ts_us = 10.0;
  span_ev.dur_us = 50.0;
  collector.record(span_ev);

  sim::Timeline tl;
  tl.init_seconds = 0.25;
  sim::ChunkTimes ct;
  ct.h2d_start = 0.25;
  ct.h2d_end = 0.5;
  ct.kernel_start = 0.5;
  ct.kernel_end = 1.0;
  ct.d2h_start = 1.0;
  ct.d2h_end = 1.25;
  tl.chunks.push_back(ct);

  sim::HostChunkEvent hc;
  hc.index = 0;
  hc.rows = 8;
  hc.host_pack_start = 0.001;
  hc.host_pack_end = 0.002;
  hc.host_exec_start = 0.002;
  hc.host_exec_end = 0.005;
  hc.host_drain_start = 0.005;
  hc.host_drain_end = 0.006;
  const std::vector<sim::HostChunkEvent> chunks{hc};

  std::ostringstream os;
  sim::write_merged_chrome_trace(collector, &tl, chunks, os, "testdev");
  const std::string json = os.str();
  expect_balanced_json(json);
  // All three pid groups appear: device engines (0), host spans (1),
  // pipeline stages (2).
  EXPECT_NE(json.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("host work"), std::string::npos);
  EXPECT_NE(json.find("kernel chunk 0"), std::string::npos);
  EXPECT_NE(json.find("pack chunk 0"), std::string::npos);
  EXPECT_NE(json.find("virtual clock"), std::string::npos);
}

TEST(ObsMacros, CompileAndUpdateTheGlobalRegistry) {
  // The macros target the process-global registry; read back through a
  // snapshot delta so other tests' metrics don't interfere.
  const auto before = MetricsRegistry::global().snapshot();
  const std::uint64_t base =
      before.counters.count("test.macro.counter") != 0
          ? before.counters.at("test.macro.counter")
          : 0;
  SNP_OBS_COUNT("test.macro.counter", 2);
  SNP_OBS_GAUGE_SET("test.macro.gauge", 5);
  SNP_OBS_OBSERVE("test.macro.lat", 0.001);
  {
    SNP_OBS_SPAN("test.macro.span");
  }
  const auto after = MetricsRegistry::global().snapshot();
  if constexpr (kEnabled) {
    EXPECT_EQ(after.counters.at("test.macro.counter"), base + 2);
    EXPECT_EQ(after.gauges.at("test.macro.gauge"), 5);
    EXPECT_GE(after.histograms.at("test.macro.lat").count, 1u);
  } else {
    EXPECT_EQ(after.counters.count("test.macro.counter"), 0u);
  }
}

// ------------------------------------------------------------------ stats

TEST(Stats, MedianAndMadOfKnownSeries) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
  const std::vector<double> v{1.0, 1.0, 2.0, 2.0, 4.0};
  // raw MAD around median 2 is 1; scaled by 1.4826.
  EXPECT_NEAR(mad_of(v, 2.0), 1.4826, 1e-9);
}

TEST(Stats, OutlierRejectionIsDeterministicAndOrderPreserving) {
  const std::vector<double> v{10.0, 10.2, 9.9, 10.1, 50.0, 10.0, 9.8};
  std::size_t n1 = 0, n2 = 0;
  const auto kept1 = reject_outliers(v, 3.5, &n1);
  const auto kept2 = reject_outliers(v, 3.5, &n2);
  EXPECT_EQ(kept1, kept2);  // same input -> same subset, always
  EXPECT_EQ(n1, 1u);
  EXPECT_EQ(kept1.size(), 6u);
  EXPECT_TRUE(std::find(kept1.begin(), kept1.end(), 50.0) == kept1.end());
  // Zero MAD (majority identical) must reject nothing, even far points.
  std::size_t n3 = 0;
  const std::vector<double> flat{5.0, 5.0, 5.0, 5.0, 99.0};
  EXPECT_EQ(reject_outliers(flat, 3.5, &n3).size(), 5u);
  EXPECT_EQ(n3, 0u);
}

TEST(Stats, ConstantSamplesGiveZeroWidthCi) {
  const std::vector<double> v(12, 3.25);
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.median, 3.25);
  EXPECT_DOUBLE_EQ(s.ci_lo, 3.25);
  EXPECT_DOUBLE_EQ(s.ci_hi, 3.25);
  EXPECT_DOUBLE_EQ(s.rel_ci_width(), 0.0);
  EXPECT_EQ(s.outliers_dropped, 0u);
}

TEST(Stats, CiShrinksWithMoreSamples) {
  // Deterministic pseudo-noise around 1.0; the bootstrap CI on the
  // median must tighten as the sample count grows.
  auto noisy = [](std::size_t n) {
    std::vector<double> v;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v.push_back(1.0 + 0.1 * (static_cast<double>(x % 1000) / 1000.0 -
                               0.5));
    }
    return v;
  };
  const Summary small = summarize(noisy(10));
  const Summary large = summarize(noisy(120));
  EXPECT_GT(small.rel_ci_width(), 0.0);
  EXPECT_LT(large.rel_ci_width(), small.rel_ci_width());
}

TEST(Stats, WarmupDetectionDropsLeadingColdSamples) {
  // 3 cold samples far above a long steady tail.
  std::vector<double> v{9.0, 7.5, 6.0};
  for (int i = 0; i < 20; ++i) {
    v.push_back(1.0 + 0.01 * (i % 3));
  }
  EXPECT_EQ(warmup_cutoff(v), 3u);
  const Summary s = summarize(v);
  EXPECT_EQ(s.warmup_dropped, 3u);
  EXPECT_LT(s.median, 1.1);
  // Short series are never trimmed: too little evidence to judge.
  const std::vector<double> tiny{5.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(warmup_cutoff(tiny), 0u);
  // A steady series keeps everything.
  const std::vector<double> steady(16, 2.0);
  EXPECT_EQ(warmup_cutoff(steady), 0u);
}

TEST(Stats, TCriticalMatchesStandardTables) {
  EXPECT_NEAR(t_critical(0.95, 1), 12.706, 0.01);
  EXPECT_NEAR(t_critical(0.95, 4), 2.776, 0.01);
  EXPECT_NEAR(t_critical(0.95, 30), 2.042, 0.01);
  EXPECT_NEAR(t_critical(0.95, 1000), 1.962, 0.01);
  EXPECT_NEAR(t_critical(0.99, 10), 3.169, 0.02);
}

TEST(Stats, RunBenchmarkConvergesAtMinRepsForDeterministicFn) {
  std::size_t calls = 0;
  RepetitionPolicy p;
  p.min_reps = 5;
  p.max_reps = 200;
  const Summary s = run_benchmark(
      [&calls]() {
        ++calls;
        return 0.001;
      },
      p);
  // A zero-variance sample function satisfies the CI target immediately
  // after the minimum repetitions — no wasted work.
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(s.reps, 5u);
  EXPECT_DOUBLE_EQ(s.median, 0.001);
  EXPECT_DOUBLE_EQ(s.ci_lo, s.ci_hi);
}

TEST(Stats, RunBenchmarkRespectsMaxReps) {
  std::size_t calls = 0;
  RepetitionPolicy p;
  p.min_reps = 3;
  p.max_reps = 10;
  p.target_rel_ci = 0.0;  // unreachable: only max_reps can stop it
  p.time_budget_s = 1e9;
  std::uint64_t x = 1;
  (void)run_benchmark(
      [&]() {
        ++calls;
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return 1.0 + static_cast<double>(x % 100) / 100.0;
      },
      p);
  EXPECT_EQ(calls, 10u);
}

// ------------------------------------------------------- hardware counters

TEST(HwCountersTest, GracefulWhateverThePlatformAllows) {
  // This test must pass both on a PMU-enabled host and inside a locked
  // down container: either the counters count, or every operation is a
  // clean no-op with a reason attached.
  HwCounters hw;
  hw.start();
  volatile double acc = 0.0;
  for (int i = 0; i < 100000; ++i) {
    acc = acc + static_cast<double>(i) * 1e-9;
  }
  hw.stop();
  const HwCounterValues v = hw.read();
  if (hw.ok()) {
    if (v.valid) {
      EXPECT_GT(v.cycles, 0u);
      EXPECT_NE(v.to_line().find("ipc"), std::string::npos);
    }
  } else {
    EXPECT_FALSE(v.valid);
    EXPECT_FALSE(hw.error().empty());
    EXPECT_NE(v.to_line().find("perf counters unavailable"),
              std::string::npos);
  }
  // available() agrees with what construction experienced.
  EXPECT_EQ(HwCounters::available(), hw.ok());
}

TEST(HwCountersTest, InvalidValuesNeverPublish) {
  MetricsRegistry reg;
  HwCounterValues v;  // valid == false
  v.cycles = 123;
  HwCounters::publish(v, reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("obs.hw.cycles"), 0u);
  v.valid = true;
  v.has_instructions = true;
  v.instructions = 456;
  HwCounters::publish(v, reg);
  const auto snap2 = reg.snapshot();
  EXPECT_EQ(snap2.counters.at("obs.hw.cycles"), 123u);
  EXPECT_EQ(snap2.counters.at("obs.hw.instructions"), 456u);
}

TEST(HwCountersTest, DerivedRatesHandleZeroDenominators) {
  HwCounterValues v;
  EXPECT_DOUBLE_EQ(v.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(v.cache_miss_pct(), 0.0);
  EXPECT_DOUBLE_EQ(v.branch_miss_per_kinstr(), 0.0);
}

// ----------------------------------------------------------------- envinfo

TEST(EnvInfo, CollectNeverThrowsAndPopulatesCoreFields) {
  const EnvInfo env = collect_env_info();
  EXPECT_FALSE(env.cpu_model.empty());
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.kernel.empty());
  EXPECT_GE(env.logical_cores, 1);
  std::ostringstream os;
  write_env_json(env, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"cpu_model\""), std::string::npos);
  EXPECT_NE(json.find("\"logical_cores\""), std::string::npos);
}

TEST(EnvInfo, JsonEscapeHandlesEveryClass) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("a\x01" "b"), "a\\u0001b");
}

// --------------------------------------------------------- bench JsonWriter

TEST(BenchJsonWriter, EscapingAndNonFiniteRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(::testing::TempDir()) / "snp_obs_jsonwriter.json";
  {
    bench::JsonWriter w("escape \"me\"", path.string());
    ASSERT_TRUE(w.active());
    w.set_primary("wall_s", /*lower_better=*/true);
    w.header("label", bench::stats_cols("wall_s"), "ratio");
    Summary s;
    s.median = 1.5;
    s.ci_lo = 1.4;
    s.ci_hi = 1.6;
    s.reps = 7;
    w.row(std::string("tab\there \"q\" back\\slash"), s,
          std::numeric_limits<double>::quiet_NaN());
  }  // dtor closes the document
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  // Control characters and quotes must appear escaped, non-finite as
  // null — the document always parses.
  EXPECT_NE(doc.find("\"bench\": \"escape \\\"me\\\"\""),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("tab\\there \\\"q\\\" back\\\\slash"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"ratio\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"primary\": {\"metric\": \"wall_s\", "
                     "\"lower_better\": true}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"wall_s\": 1.5"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wall_s_ci_lo\": 1.4"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wall_s_ci_hi\": 1.6"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wall_s_reps\": 7"), std::string::npos) << doc;
  EXPECT_EQ(doc.find('\t'), std::string::npos);  // no raw controls
  fs::remove(path);
}

}  // namespace
}  // namespace snp::obs
