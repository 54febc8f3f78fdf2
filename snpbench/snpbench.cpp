// snpbench — the repository benchmark program (README.md beside this file).
//
// One process runs one workload at one seed and prints one JSON document
// on stdout: every metric it measured (name, unit, value, sample count),
// the host CPU accounting of each phase, and the outcome of its
// correctness checks. The framework only ever sees the generated inputs.
//
//   snpbench --workload idsearch_small --seed 1 --seconds 20 --trace 0
//            [--workdir DIR] [--trace-out FILE] [--quick]
//
// --trace 0 measures the end-to-end metrics with the trace collector off.
// --trace 1 measures the per-layer metrics: it runs the `mid` phase once
// with the collector off and once with it on (the difference is the
// tracing overhead), wraps the benchmark's own calls into public
// functions in obs::Spans, and replays public layer calls at the
// workload's shapes for the layers its own path does not cross.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "bits/compare.hpp"
#include "bits/genotype.hpp"
#include "cl/clmini.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/rng.hpp"
#include "kern/gpu_kernel.hpp"
#include "obs/envinfo.hpp"
#include "obs/span.hpp"
#include "stats/ld.hpp"
#include "svc/service.hpp"

namespace {

using namespace snp;
using Clock = std::chrono::steady_clock;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::filesystem::path workdir = ".";
  std::filesystem::path trace_out;  ///< Chrome trace of the traced phase
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile, q in [0, 1]; NaN for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Runs `fn` at least `min_reps` times and until `min_s` seconds have
/// passed; returns the seconds each call took.
template <class F>
std::vector<double> time_reps(F&& fn, int min_reps, double min_s) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (static_cast<int>(out.size()) < min_reps ||
         seconds_since(start) < min_s) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(seconds_since(t0));
  }
  return out;
}

// ---- process and host accounting ----------------------------------------

struct ProcUsage {
  double cpu_s = 0.0;
  double minflt = 0.0;
  double invol_cs = 0.0;

  static ProcUsage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) +
             static_cast<double>(t.tv_usec) * 1e-6;
    };
    return {tv(ru.ru_utime) + tv(ru.ru_stime),
            static_cast<double>(ru.ru_minflt),
            static_cast<double>(ru.ru_nivcsw)};
  }
  ProcUsage operator-(const ProcUsage& o) const {
    return {cpu_s - o.cpu_s, minflt - o.minflt, invol_cs - o.invol_cs};
  }
};

/// Host CPU time by state, from the aggregate "cpu" line of /proc/stat
/// (user nice system idle iowait irq softirq steal), in seconds. All zero
/// where /proc/stat is unavailable.
struct HostCpu {
  std::array<double, 8> s{};

  static HostCpu now() {
    HostCpu h;
    std::ifstream in("/proc/stat");
    std::string label;
    if (in >> label && label == "cpu") {
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      for (double& v : h.s) {
        std::uint64_t ticks = 0;
        if (!(in >> ticks)) break;
        v = static_cast<double>(ticks) / tick;
      }
    }
    return h;
  }
  HostCpu operator-(const HostCpu& o) const {
    HostCpu d;
    for (std::size_t i = 0; i < s.size(); ++i) d.s[i] = s[i] - o.s[i];
    return d;
  }
};

/// Peak resident set (VmHWM) of this process in MiB; NaN if unknown.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return kNaN;
}

// ---- report ---------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_.push_back({name, unit, value, samples});
  }

  /// Host CPU accounting for one phase (and the requests or jobs it ran).
  void phase(const std::string& name, double rate, std::size_t attempted,
             std::size_t failed, double wall_s, const HostCpu& cpu,
             const ProcUsage& usage) {
    std::ostringstream os;
    os << "{\"name\": \"" << name << "\", \"rate\": " << num(rate)
       << ", \"wall_s\": " << num(wall_s) << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"host_cpu_s\": {\"user\": "
       << num(cpu.s[0] + cpu.s[1]) << ", \"system\": "
       << num(cpu.s[2] + cpu.s[5] + cpu.s[6]) << ", \"idle\": "
       << num(cpu.s[3]) << ", \"iowait\": " << num(cpu.s[4])
       << ", \"steal\": " << num(cpu.s[7]) << "}, \"process_cpu_s\": "
       << num(usage.cpu_s) << ", \"minflt\": " << num(usage.minflt)
       << ", \"invol_cs\": " << num(usage.invol_cs) << "}";
    phases_.push_back(os.str());
  }

  /// Counts operations for the result line; `failed` includes every
  /// rejected or failed request and every output that failed a check.
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void check(const std::string& what, std::size_t checked, std::size_t bad) {
    checks_.push_back({what, checked, bad});
    failed_ += bad;
    if (bad > 0) correct_ = false;
  }

  void write(std::ostream& os, const Options& opt) const {
    os << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
       << ", \"seconds\": " << num(opt.seconds)
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"quick\": " << (opt.quick ? "true" : "false") << ", \"env\": ";
    obs::write_env_json(obs::collect_env_info(), os);
    os << ", \"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ",\n \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      os << (i ? ", " : "") << "{\"name\": \"" << checks_[i].what
         << "\", \"checked\": " << checks_[i].checked
         << ", \"bad\": " << checks_[i].bad << "}";
    }
    os << "],\n \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      os << (i ? ",\n  " : "\n  ") << phases_[i];
    }
    os << "],\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? ",\n  " : "\n  ") << "\"" << m.name << "\": {\"value\": "
         << num(m.value) << ", \"unit\": \"" << m.unit
         << "\", \"samples\": " << m.samples << "}";
    }
    os << "}}\n";
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
    std::size_t samples;
  };
  struct Check {
    std::string what;
    std::size_t checked;
    std::size_t bad;
  };

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> phases_;
  std::vector<Check> checks_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// FNV-1a over the top-left `n` x `n` block of a count matrix.
std::uint64_t hash_counts(const bits::CountMatrix& c, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      h = (h ^ c.at(i, j)) * 0x100000001b3ULL;
    }
  }
  return h;
}

// ---- span aggregation -------------------------------------------------------

/// Durations of every slice of one span name, whole and minus the slices
/// nested directly inside it on the same thread (self time), in ms.
struct SpanTimes {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};
using SpanIndex = std::map<std::string, SpanTimes>;

SpanIndex index_spans(std::vector<obs::TraceEvent> events) {
  std::erase_if(events, [](const obs::TraceEvent& e) { return e.dur_us <= 0; });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  SpanIndex index;
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;
  const auto close = [&](std::size_t i) {
    SpanTimes& t = index[events[i].name];
    t.total_ms.push_back(events[i].dur_us * 1e-3);
    t.self_ms.push_back((events[i].dur_us - child_us[i]) * 1e-3);
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      close(open.back());
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.dur_us;
    open.push_back(i);
  }
  for (auto it = open.rbegin(); it != open.rend(); ++it) close(*it);
  return index;
}

/// Span sessions of one traced run in priority order: the workload's own
/// path first, then replays. A metric reads the first session that
/// recorded any of its span names.
class Sessions {
 public:
  void add(std::vector<obs::TraceEvent> events) {
    sessions_.push_back(index_spans(std::move(events)));
  }

  [[nodiscard]] std::vector<double> times(
      std::initializer_list<const char*> names, bool self) const {
    for (const SpanIndex& s : sessions_) {
      auto out = times_in(s, names, self);
      if (!out.empty()) return out;
    }
    return {};
  }

  /// The first session that recorded `name`; nullptr if none did.
  [[nodiscard]] const SpanIndex* find(const char* name) const {
    for (const SpanIndex& s : sessions_) {
      if (s.contains(name)) return &s;
    }
    return nullptr;
  }

  [[nodiscard]] static std::vector<double> times_in(
      const SpanIndex& s, std::initializer_list<const char*> names,
      bool self) {
    std::vector<double> out;
    for (const char* n : names) {
      if (const auto it = s.find(n); it != s.end()) {
        const auto& v = self ? it->second.self_ms : it->second.total_ms;
        out.insert(out.end(), v.begin(), v.end());
      }
    }
    return out;
  }

  void metric(Report& r, const std::string& name,
              std::initializer_list<const char*> spans, bool self, double q,
              double scale, const std::string& unit) const {
    const auto v = times(spans, self);
    r.add(name, quantile(v, q) * scale, unit, v.size());
  }

 private:
  std::vector<SpanIndex> sessions_;
};

/// Writes the workload's own traced phase as a Chrome trace (load it in
/// Perfetto) when --trace-out names a file.
void save_trace(const Options& opt,
                const std::vector<obs::TraceEvent>& events) {
  if (opt.trace_out.empty()) return;
  std::ofstream os(opt.trace_out);
  obs::write_trace_events({}, events, os);
  if (!os) throw std::runtime_error("cannot write " + opt.trace_out.string());
}

/// Enables the global trace collector for its lifetime.
class TraceSession {
 public:
  TraceSession() {
    obs::TraceCollector::global().begin_session();
    obs::TraceCollector::global().set_enabled(true);
  }
  ~TraceSession() { obs::TraceCollector::global().set_enabled(false); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The events recorded since the last take(); starts the next session.
  std::vector<obs::TraceEvent> take() {
    auto events = obs::TraceCollector::global().events();
    obs::TraceCollector::global().begin_session();
    return events;
  }
};

// ---- service workloads ------------------------------------------------------

struct ServiceSpec {
  std::size_t profiles;
  std::size_t snps;
  const char* device;
  std::size_t distinct;  ///< distinct query profiles
  bool zipf;             ///< Zipf(1.0) draws instead of cycling the set
  bool monitor;          ///< stats() every 100 ms, update_database() every 2 s
  double lo_qps;
  double mid_qps;
  double limit_ms;  ///< p99 limit of the max_qps search
};

std::optional<ServiceSpec> service_spec(const std::string& w, bool quick) {
  if (w == "idsearch_small") {
    return quick ? ServiceSpec{512, 256, "titanv", 2048, false, false, 500,
                               1000, 5}
                 : ServiceSpec{2048, 512, "titanv", 4096, false, false, 2000,
                               8000, 5};
  }
  if (w == "idsearch_large") {
    return quick ? ServiceSpec{4096, 512, "titanv", 2048, false, false, 50,
                               100, 250}
                 : ServiceSpec{65536, 1024, "titanv", 4096, false, false, 100,
                               250, 250};
  }
  if (w == "idsearch_repeat") {
    return quick ? ServiceSpec{2048, 512, "cpu", 2048, true, true, 500, 1000,
                               10}
                 : ServiceSpec{16384, 1024, "cpu", 8192, true, true, 2000,
                               6000, 10};
  }
  return std::nullopt;
}

struct ServiceData {
  bits::Comparison op = bits::Comparison::kXor;
  /// Database served at odd epochs ([0]) and even epochs ([1]); equal
  /// unless the workload updates the database.
  std::array<bits::BitMatrix, 2> db;
  std::vector<bits::BitMatrix> queries;  ///< distinct one-row queries
  std::vector<std::int64_t> planted;     ///< source DB row, or -1
  std::vector<double> zipf_cdf;          ///< empty: the set is cycled
};

ServiceData make_service_data(const ServiceSpec& s, std::uint64_t seed) {
  io::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  ServiceData d;
  io::ProfileDbParams p;
  p.seed = seed * 7 + 1;
  d.db[0] = io::generate_profile_db(s.profiles, s.snps, p);
  d.db[1] = d.db[0];
  std::vector<bool> changed(s.profiles, false);
  if (s.monitor) {  // the second version redraws 1% of the rows
    p.seed = seed * 7 + 2;
    const std::size_t n = std::max<std::size_t>(1, s.profiles / 100);
    const auto fresh = io::generate_profile_db(n, s.snps, p);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = rng.next_below(s.profiles);
      changed[r] = true;
      std::ranges::copy(fresh.row64(i), d.db[1].row64(r).begin());
    }
  }
  p.seed = seed * 7 + 3;
  auto q = io::generate_profile_db(s.distinct, s.snps, p);
  d.planted.assign(s.distinct, -1);
  for (std::size_t i = 0; i < s.distinct; ++i) {
    // 10% of the queries are database rows with two bits flipped.
    if (!rng.next_bernoulli(0.1)) continue;
    std::size_t src = rng.next_below(s.profiles);
    while (changed[src]) src = rng.next_below(s.profiles);
    std::ranges::copy(d.db[0].row64(src), q.row64(i).begin());
    const std::size_t b1 = rng.next_below(s.snps);
    const std::size_t b2 = (b1 + 1 + rng.next_below(s.snps - 1)) % s.snps;
    q.set(i, b1, !q.get(i, b1));
    q.set(i, b2, !q.get(i, b2));
    d.planted[i] = static_cast<std::int64_t>(src);
  }
  for (std::size_t i = 0; i < s.distinct; ++i) {
    d.queries.push_back(q.row_slice(i, i + 1));
  }
  if (s.zipf) {
    double sum = 0.0;
    for (std::size_t k = 0; k < s.distinct; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      d.zipf_cdf.push_back(sum);
    }
    for (double& c : d.zipf_cdf) c /= sum;
  }
  return d;
}

/// Draws the query sequence and the Poisson arrival times of the phases.
class LoadGen {
 public:
  LoadGen(const ServiceData& d, std::uint64_t seed)
      : data_(d), rng_(seed * 0xbf58476d1ce4e5b9ULL + 5) {}

  std::uint32_t next_query() {
    if (data_.zipf_cdf.empty()) {
      return static_cast<std::uint32_t>(cursor_++ % data_.queries.size());
    }
    const auto it = std::upper_bound(data_.zipf_cdf.begin(),
                                     data_.zipf_cdf.end(),
                                     rng_.next_double());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - data_.zipf_cdf.begin(),
                                 static_cast<std::ptrdiff_t>(
                                     data_.zipf_cdf.size() - 1)));
  }
  double next_gap(double rate) {
    return -std::log1p(-rng_.next_double()) / rate;
  }

 private:
  const ServiceData& data_;
  io::Rng rng_;
  std::size_t cursor_ = 0;
};

/// A result kept for the reference check after the timed phases.
struct Kept {
  std::uint32_t query = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> row;
};

struct PhaseOutcome {
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t hits = 0;
  /// Completed requests: scheduled send time, and latency from it to the
  /// future observed ready.
  std::vector<double> due_s;
  std::vector<double> lat_ms;
  std::vector<double> miss_due_s;  ///< rejected or failed requests
  std::vector<double> lag_ms;      ///< scheduled send -> submit() call
  /// QueryResult.cost queue wait and service time of the requests that
  /// rode a batch (cache hits excluded).
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  double drain_ms = 0.0;  ///< last scheduled send -> last completion
  std::size_t planted_checked = 0;
  std::size_t planted_bad = 0;
  std::vector<Kept> kept;
  double wall_s = 0.0;
  HostCpu cpu;
  ProcUsage usage;

  [[nodiscard]] std::size_t failures() const { return rejected + failed; }

  /// Every request's latency, a rejected or failed one counting as a miss
  /// (+inf).
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v = lat_ms;
    v.insert(v.end(), failures(), std::numeric_limits<double>::infinity());
    return v;
  }

  /// The median, over up to eight equal windows of scheduled send time
  /// with at least 1,000 requests each, of each window's latency
  /// q-quantile, failures counting as misses: a stall spoils the windows
  /// it falls in, not the phase's value.
  [[nodiscard]] double windowed_ms(double q) const {
    const auto k = std::clamp<std::size_t>(attempted / 1000, 1, 8);
    std::vector<std::vector<double>> windows(k);
    const auto at = [&](double due) -> std::vector<double>& {
      const auto i = static_cast<std::size_t>(due / seconds *
                                              static_cast<double>(k));
      return windows[std::min(k - 1, i)];
    };
    for (std::size_t i = 0; i < lat_ms.size(); ++i) {
      at(due_s[i]).push_back(lat_ms[i]);
    }
    for (const double due : miss_due_s) {
      at(due).push_back(std::numeric_limits<double>::infinity());
    }
    std::vector<double> per_window;
    for (auto& w : windows) {
      if (!w.empty()) per_window.push_back(quantile(std::move(w), q));
    }
    return median(std::move(per_window));
  }
};

/// One open-loop phase: Poisson arrivals at `rate` for `seconds`. The
/// calling thread sends on schedule; a collector thread waits on the
/// futures in FIFO order (the order they resolve in). Latency runs from
/// each request's scheduled send time, so a stall also delays every
/// request scheduled behind it.
PhaseOutcome run_open_loop(svc::ServiceEngine& engine, const ServiceData& data,
                           LoadGen& gen, double rate, double seconds) {
  // What the phase keeps of a result once it is observed ready: the row
  // only for every 64th request, so that no row outlives its observation.
  struct Slot {
    double due = 0.0;
    double done = -1.0;
    std::uint32_t query = 0;
    bool rejected = false;
    bool failed = false;
    bool hit = false;
    int planted = 0;  ///< +1: gamma <= 2 at its source row, -1: not, 0: none
    double wait_ms = 0.0;
    double service_ms = 0.0;
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> row;  ///< every 64th request only
    std::future<svc::QueryResult> fut;
  };
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * seconds)));
  std::vector<Slot> slots(n);
  double t = 0.0;
  for (Slot& s : slots) {
    t += gen.next_gap(rate);
    s.due = t;
    s.query = gen.next_query();
  }

  const auto digest = [&](std::size_t j, Slot& s) {
    try {
      svc::QueryResult r = s.fut.get();
      s.hit = r.cache_hit;
      s.wait_ms = static_cast<double>(r.cost.queue_wait_ns) * 1e-6;
      s.service_ms = static_cast<double>(r.cost.service_ns) * 1e-6;
      if (const std::int64_t src = data.planted[s.query]; src >= 0) {
        s.planted = r.row.at(static_cast<std::size_t>(src)) <= 2 ? 1 : -1;
      }
      s.epoch = r.epoch;
      if (j % 64 == 0) s.row = std::move(r.row);
    } catch (...) {
      s.failed = true;
    }
  };

  PhaseOutcome out;
  out.rate = rate;
  out.seconds = seconds;
  out.attempted = n;
  out.lag_ms.reserve(n);
  std::atomic<std::size_t> published{0};
  const HostCpu cpu0 = HostCpu::now();
  const ProcUsage usage0 = ProcUsage::now();
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);

  // The collector owns a slot once the sender has published it.
  std::thread collector([&] {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p; (p = published.load(std::memory_order_acquire)) <= j;) {
        published.wait(p, std::memory_order_acquire);
      }
      Slot& s = slots[j];
      if (s.rejected || s.done >= 0.0) continue;
      s.fut.wait();
      s.done = seconds_since(t0);
      digest(j, s);
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s.due));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    out.lag_ms.push_back((seconds_since(t0) - s.due) * 1e3);
    try {
      const obs::Span span("svc.submit");
      s.fut = engine.submit(data.queries[s.query]);
    } catch (...) {  // shed (rt::Error kOverload) or refused
      s.rejected = true;
    }
    // A cache hit resolves inside submit(): stamp it at the return, and
    // digest it here rather than hold its row until the collector, which
    // waits on the misses ahead of it, gets to it.
    if (!s.rejected &&
        s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      s.done = seconds_since(t0);
      digest(i, s);
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  out.wall_s = seconds_since(t0);
  out.due_s.reserve(n);
  out.lat_ms.reserve(n);
  out.wait_ms.reserve(n);
  out.service_ms.reserve(n);
  double last_done = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    Slot& s = slots[j];
    out.rejected += s.rejected ? 1 : 0;
    out.failed += s.failed ? 1 : 0;
    if (s.rejected || s.failed) {
      out.miss_due_s.push_back(s.due);
      continue;
    }
    out.due_s.push_back(s.due);
    out.lat_ms.push_back((s.done - s.due) * 1e3);
    last_done = std::max(last_done, s.done);
    if (s.hit) {
      out.hits++;
    } else {
      out.wait_ms.push_back(s.wait_ms);
      out.service_ms.push_back(s.service_ms);
    }
    if (s.planted != 0) out.planted_checked++;
    if (s.planted < 0) out.planted_bad++;
    if (j % 64 == 0) out.kept.push_back({s.query, s.epoch, std::move(s.row)});
  }
  out.drain_ms = std::max(0.0, last_done - slots.back().due) * 1e3;
  out.cpu = HostCpu::now() - cpu0;
  out.usage = ProcUsage::now() - usage0;
  engine.drain();
  return out;
}

/// Compares every kept result row with the naive reference engine run
/// against the database of the result's epoch. Returns mismatches.
std::size_t verify_kept(const ServiceData& d, const PhaseOutcome& o) {
  std::size_t bad = 0;
  for (const Kept& k : o.kept) {
    const auto ref = bits::compare_reference(d.queries[k.query],
                                             d.db[(k.epoch - 1) % 2], d.op);
    const auto raw = ref.raw();
    if (!std::equal(raw.begin(), raw.end(), k.row.begin(), k.row.end())) {
      bad++;
    }
  }
  return bad;
}

/// A telemetry reader and database writer beside the query load: stats()
/// every 100 ms, update_database() every `update_every` alternating the
/// two versions.
class Monitor {
 public:
  Monitor(svc::ServiceEngine& engine, const ServiceData& data,
          std::chrono::milliseconds update_every)
      : engine_(engine),
        data_(data),
        update_every_(update_every),
        thread_([this] { loop(); }) {}
  ~Monitor() { halt(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Joins the thread; rethrows what the monitor loop threw.
  void stop() {
    halt();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void halt() {
    {
      const std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    try {
      auto next_update = Clock::now() + update_every_;
      std::unique_lock lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                           [&] { return stop_; })) {
        lock.unlock();
        {
          const obs::Span span("svc.stats");
          (void)engine_.stats();
        }
        if (Clock::now() >= next_update) {
          const obs::Span span("svc.update_database");
          engine_.update_database(data_.db[engine_.epoch() % 2]);
          next_update += update_every_;
        }
        lock.lock();
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  svc::ServiceEngine& engine_;
  const ServiceData& data_;
  const std::chrono::milliseconds update_every_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread thread_;
};

/// The database file the set-up step loads, written untimed.
class SbmFile {
 public:
  SbmFile(const Options& opt, const bits::BitMatrix& m)
      : path_(opt.workdir / (opt.workload + "-" + std::to_string(getpid()) +
                             ".sbm")) {
    io::save_bitmatrix(m, path_);
  }
  ~SbmFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  SbmFile(const SbmFile&) = delete;
  SbmFile& operator=(const SbmFile&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Set-up: load the .sbm, construct, answer one warm request. It is timed
/// in blocks spread over the process (kBlocks of them in an untraced
/// run), so that a slow stretch of the host spoils one block rather than
/// the median; a block repeats it at least once and for at least
/// 1/kBlocks of half a second (at most 200/kBlocks times). report() gives
/// setup_s (end to end) and its io.load_ms and core.construct_ms parts,
/// each the median over every block.
template <class Construct, class Warm>
class SetupTimer {
 public:
  static constexpr int kBlocks = 3;

  SetupTimer(const SbmFile& file, Construct construct, Warm warm)
      : file_(file), construct_(std::move(construct)), warm_(std::move(warm)) {}

  /// Times one block; returns what its last repetition made.
  auto block() {
    decltype(construct_(bits::BitMatrix{})) made{};
    const auto start = Clock::now();
    for (int reps = 0; reps < 1 || (reps < 200 / kBlocks &&
                                    seconds_since(start) < 0.5 / kBlocks);
         ++reps) {
      made = {};
      const auto t0 = Clock::now();
      bits::BitMatrix m = io::load_bitmatrix(file_.path());
      const auto t1 = Clock::now();
      made = construct_(std::move(m));
      const auto t2 = Clock::now();
      warm_(*made);
      total_.push_back(seconds_since(t0));
      load_.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e3);
      build_.push_back(std::chrono::duration<double>(t2 - t1).count() * 1e3);
    }
    return made;
  }

  void report(Report& rep, const Options& opt) const {
    if (opt.trace) {
      rep.add("io.load_ms", median(load_), "ms", load_.size());
      rep.add("core.construct_ms", median(build_), "ms", build_.size());
    } else {
      rep.add("setup_s", median(total_), "s", total_.size());
    }
  }

 private:
  const SbmFile& file_;
  Construct construct_;
  Warm warm_;
  std::vector<double> total_, load_, build_;
};

/// The latency percentiles of one phase: p50, p90, p99, and p99.9 where
/// the sample supports it.
void add_latency(Report& rep, const std::string& suffix,
                 const std::vector<double>& lat_ms) {
  rep.add("lat_p50_ms." + suffix, quantile(lat_ms, 0.5), "ms", lat_ms.size());
  rep.add("lat_p90_ms." + suffix, quantile(lat_ms, 0.9), "ms", lat_ms.size());
  rep.add("lat_p99_ms." + suffix, quantile(lat_ms, 0.99), "ms", lat_ms.size());
  // The highest percentile with at least ten samples beyond it.
  if (lat_ms.size() >= 10000) {
    rep.add("lat_p999_ms." + suffix, quantile(lat_ms, 0.999), "ms",
            lat_ms.size());
  }
}

/// Requests per batch in a traced phase: the requests that rode a batch
/// over the `svc.batch` spans; NaN without spans.
double mean_batch_rows(const Sessions& spans, const PhaseOutcome& traced) {
  const auto batches = spans.times({"svc.batch"}, false).size();
  const std::size_t batched = traced.attempted - traced.rejected - traced.hits;
  return batches == 0 ? kNaN
                      : static_cast<double>(batched) /
                            static_cast<double>(batches);
}

/// Per-layer metrics of the service layer from one traced open-loop phase.
void add_service_layer(Report& rep, const Sessions& spans,
                       const PhaseOutcome& traced) {
  spans.metric(rep, "svc.submit_us.p50", {"svc.submit"}, false, 0.5, 1e3, "us");
  spans.metric(rep, "svc.submit_us.p99", {"svc.submit"}, false, 0.99, 1e3, "us");
  const auto& w = traced.wait_ms;
  const auto& s = traced.service_ms;
  rep.add("svc.queue_wait_ms.p50", quantile(w, 0.5), "ms", w.size());
  rep.add("svc.queue_wait_ms.p90", quantile(w, 0.9), "ms", w.size());
  rep.add("svc.service_ms.p50", quantile(s, 0.5), "ms", s.size());
  rep.add("svc.service_ms.p90", quantile(s, 0.9), "ms", s.size());
  rep.add("svc.batch_rows.mean", mean_batch_rows(spans, traced), "rows",
          spans.times({"svc.batch"}, false).size());
  rep.add("svc.cache_hit_ratio",
          static_cast<double>(traced.hits) /
              static_cast<double>(traced.attempted),
          "ratio", traced.attempted);
  spans.metric(rep, "svc.batch_self_ms.p50", {"svc.batch"}, true, 0.5, 1.0, "ms");
  rep.add("svc.rejected", static_cast<double>(traced.rejected), "count",
          traced.attempted);
  rep.add("svc.failed", static_cast<double>(traced.failed), "count",
          traced.attempted);
  spans.metric(rep, "svc.stats_ms.p50", {"svc.stats"}, false, 0.5, 1.0, "ms");
  spans.metric(rep, "svc.stats_ms.max", {"svc.stats"}, false, 1.0, 1.0, "ms");
  spans.metric(rep, "svc.update_db_ms.max", {"svc.update_database"}, false,
               1.0, 1.0, "ms");
  rep.add("loadgen.lag_ms.p99", quantile(traced.lag_ms, 0.99), "ms",
          traced.lag_ms.size());
  // Attribution cross-checks (not gated), within the session that served
  // the phase: the batch span against the requests' measured service
  // time, and the self times of the layers under a batch against it.
  const SpanIndex* served = spans.find("svc.batch");
  if (served == nullptr) return;
  const auto batch_ms = Sessions::times_in(*served, {"svc.batch"}, false);
  rep.add("check.batch_vs_service_pct",
          (mean(batch_ms) / mean(traced.service_ms) - 1.0) * 100.0, "%",
          batch_ms.size());
  double layers = 0.0;
  for (const double v : Sessions::times_in(
           *served,
           {"svc.batch", "core.compare_gpu", "core.compare_cpu",
            "cpu.compare_blocked", "core.chunk.pack", "core.chunk.execute",
            "core.chunk.drain"},
           true)) {
    layers += v;
  }
  double batch_total = 0.0;
  for (const double v : batch_ms) batch_total += v;
  rep.add("check.layer_sum_pct", (layers / batch_total - 1.0) * 100.0, "%",
          batch_ms.size());
}

/// Calls stats() and update_database() after a phase, for workloads whose
/// own load has no telemetry reader or database writer.
void replay_stats_and_update(svc::ServiceEngine& engine,
                             const ServiceData& data) {
  for (int i = 0; i < 10; ++i) {
    const obs::Span span("svc.stats");
    (void)engine.stats();
  }
  const obs::Span span("svc.update_database");
  engine.update_database(data.db[engine.epoch() % 2]);
}

/// Replays public calls of the layers below the service at one compare
/// shape: `a` is the A operand one launch sees, `b` the streamed operand,
/// `cfg` the device configuration the workload's own launches use.
/// Metrics that are rates or set-up costs go straight to the report; the
/// replays that the program itself instruments record spans into the
/// current trace session.
void replay_layers(Report& rep, const bits::BitMatrix& a,
                   const bits::BitMatrix& b, bits::Comparison op,
                   const model::KernelConfig& cfg) {
  {  // exec: the cost of handing one task to a pool thread and waiting
    exec::ThreadPool pool(1);
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      pool.post([] {});
      pool.wait_idle();
      us.push_back(seconds_since(t0) * 1e6);
    }
    rep.add("exec.handoff_us.p50", median(us), "us", us.size());
  }

  const double wordops = static_cast<double>(a.rows()) *
                         static_cast<double>(b.rows()) *
                         static_cast<double>(a.words32_per_row());
  Context gpu = Context::gpu("titanv");
  const model::GpuSpec& dev = gpu.gpu_spec();
  {
    const kern::GpuSnpKernel kernel(dev, cfg, op);
    bits::CountMatrix c(a.rows(), b.rows());
    const auto t = time_reps([&] { kernel.execute(a, b, c); }, 3, 0.3);
    rep.add("kern.gwops", wordops / median(t) / 1e9, "Gwop/s", t.size());
  }
  {
    const auto t = time_reps([&] { (void)cpu::compare_blocked(a, b, op); }, 3,
                             0.3);
    rep.add("cpu.gwops", wordops / median(t) / 1e9, "Gwop/s", t.size());
  }
  for (int i = 0; i < 3; ++i) {
    const obs::Span span("core.lint");
    analyze::AnalyzeOptions aopts;
    aopts.k_iterations = std::max<std::uint64_t>(
        1, (a.words32_per_row() + static_cast<std::size_t>(aopts.unroll) - 1) /
               static_cast<std::size_t>(aopts.unroll));
    (void)analyze::analyze(dev, cfg, op, aopts);
  }
  Context host = Context::cpu();
  for (int i = 0; i < 3; ++i) (void)host.compare(a, b, op);
  ComputeOptions copts;
  copts.config = cfg;
  copts.lint = false;
  TimingReport timing;
  for (int i = 0; i < 3; ++i) timing = gpu.compare(a, b, op, copts).timing;
  rep.add("sim.d2h_bytes_per_row",
          static_cast<double>(timing.d2h_bytes) /
              static_cast<double>(a.rows()),
          "B", 1);

  {  // cl: the launch's context + 5 buffers, then the streamed uploads
    const bool stream_b = b.rows() >= a.rows();
    const bits::BitMatrix& resident = stream_b ? a : b;
    const bits::BitMatrix& streamed = stream_b ? b : a;
    const std::size_t chunk_rows = timing.chunk_events.front().rows;
    const std::size_t row_bytes = streamed.words64_per_row() * 8;
    const std::size_t c_chunk = chunk_rows * resident.rows() * 4;
    std::vector<double> setup_ms, gbps;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      cl::Context ctx{cl::Device(dev)};
      const auto res = ctx.create_buffer(resident.size_bytes());
      const std::array stream{ctx.create_buffer(chunk_rows * row_bytes),
                              ctx.create_buffer(chunk_rows * row_bytes)};
      const std::array out{ctx.create_buffer(c_chunk),
                           ctx.create_buffer(c_chunk)};
      setup_ms.push_back(seconds_since(t0) * 1e3);
      const auto raw = std::as_bytes(streamed.raw64());
      const auto t1 = Clock::now();
      for (std::size_t off = 0, ci = 0; off < raw.size();
           off += chunk_rows * row_bytes, ++ci) {
        const std::size_t len = std::min(chunk_rows * row_bytes,
                                         raw.size() - off);
        (void)ctx.queue().enqueue_write(*stream[ci % 2], raw.subspan(off, len));
      }
      gbps.push_back(static_cast<double>(raw.size()) / seconds_since(t1) /
                     1e9);
    }
    rep.add("cl.setup_ms", median(setup_ms), "ms", setup_ms.size());
    rep.add("cl.h2d_gbps", median(gbps), "GB/s", gbps.size());
  }
  {  // stats: r^2 over a square block of the streamed operand's rows
    const auto sq = b.row_slice(0, std::min<std::size_t>(1024, b.rows()));
    const auto gamma = cpu::compare_blocked(sq, sq, bits::Comparison::kAnd);
    const auto counts = stats::row_counts(sq);
    for (int i = 0; i < 3; ++i) {
      const obs::Span span("stats.r2_matrix");
      (void)stats::r2_matrix(gamma, counts, sq.bit_cols());
    }
  }
}

/// Span-derived per-layer metrics of the layers below the service.
void add_core_layers(Report& rep, const Sessions& spans) {
  spans.metric(rep, "core.compare_self_ms.p50",
               {"core.compare_gpu", "core.compare_cpu"}, true, 0.5, 1.0, "ms");
  spans.metric(rep, "core.chunk_pack_ms.p50", {"core.chunk.pack"}, false, 0.5,
               1.0, "ms");
  spans.metric(rep, "core.chunk_drain_ms.p50", {"core.chunk.drain"}, false,
               0.5, 1.0, "ms");
  spans.metric(rep, "kern.execute_ms.p50", {"core.chunk.execute"}, false, 0.5,
               1.0, "ms");
  spans.metric(rep, "core.compare_cpu_ms.p50", {"core.compare_cpu"}, false,
               0.5, 1.0, "ms");
  spans.metric(rep, "core.lint_ms.p50", {"core.lint"}, false, 0.5, 1.0, "ms");
  spans.metric(rep, "stats.r2_ms.p50", {"stats.r2_matrix"}, false, 0.5, 1.0,
               "ms");
}

void add_proc(Report& rep, const ProcUsage& u, double units, double wall_s) {
  rep.add("proc.cpu_ms_per_req", u.cpu_s * 1e3 / units, "ms",
          static_cast<std::size_t>(units));
  rep.add("proc.minflt_per_req", u.minflt / units, "count",
          static_cast<std::size_t>(units));
  rep.add("proc.invol_cs_per_s", u.invol_cs / wall_s, "1/s",
          static_cast<std::size_t>(units));
}

/// Rows [0, m) of the query set as one batched A operand.
bits::BitMatrix batch_operand(const ServiceData& d, std::size_t m) {
  bits::BitMatrix a(m, d.db[0].bit_cols());
  for (std::size_t i = 0; i < m; ++i) {
    std::ranges::copy(d.queries[i % d.queries.size()].row64(0),
                      a.row64(i).begin());
  }
  return a;
}

/// A rate the max_qps search judged, with the windowed p99 it measured.
struct Probe {
  double rate;
  double p99_ms;
};

/// The pass rule of the max_qps search, for every rate it judges: the
/// windowed p99 meets the limit and the backlog left at the last send
/// drains within it.
bool meets_limit(const PhaseOutcome& o, double limit_ms) {
  return o.windowed_ms(0.99) <= limit_ms && o.drain_ms <= limit_ms;
}

/// The rate at which p99 crosses `limit` inside the bracket [ok, bad],
/// log-linear in both; `ok.rate` when `bad` gives nothing to interpolate
/// with (it failed on failures or drain alone).
double interpolate_rate(const Probe& ok, const Probe& bad, double limit) {
  if (!(ok.p99_ms > 0.0 && ok.p99_ms < limit && std::isfinite(bad.p99_ms) &&
        bad.p99_ms > limit)) {
    return ok.rate;
  }
  const double t = std::log(limit / ok.p99_ms) / std::log(bad.p99_ms / ok.p99_ms);
  return ok.rate * std::pow(bad.rate / ok.rate, t);
}

void run_service(const Options& opt, const ServiceSpec& spec, Report& rep) {
  const ServiceData data = make_service_data(spec, opt.seed);
  LoadGen gen(data, opt.seed);
  svc::ServiceConfig cfg;
  cfg.device = spec.device;
  // Deep enough that a host scheduling stall sheds nothing at the mid rate
  // (a 30-ms stall at 8,000 qps queues 240 requests; the default is 256).
  cfg.max_queue = 4096;
  const SbmFile file(opt, data.db[0]);
  SetupTimer setup(
      file,
      [&](bits::BitMatrix db) {
        return std::make_unique<svc::ServiceEngine>(std::move(db), cfg);
      },
      [&](svc::ServiceEngine& e) { (void)e.submit(data.queries[0]).get(); });

  const double s = opt.seconds;
  std::deque<PhaseOutcome> checked;  // deque: references stay valid
  const auto record = [&](const std::string& name, PhaseOutcome o,
                          bool counted) -> const PhaseOutcome& {
    rep.phase(name, o.rate, o.attempted, o.failures(), o.wall_s, o.cpu,
              o.usage);
    if (counted) rep.count(o.attempted, o.failures());
    checked.push_back(std::move(o));
    return checked.back();
  };
  // Runs `body` on a fresh engine after an unmeasured warm-up at
  // `warm_rate`, so nothing inherits the cache or the served-request
  // history (whose telemetry grows with it) of what ran before. With
  // `tracing`, the warm-up's spans are dropped and, for workloads without
  // a monitor, stats() and update_database() are replayed after `body`.
  const std::chrono::milliseconds update_every(opt.quick ? 200 : 2000);
  const auto on_fresh_engine = [&](double warm_rate, TraceSession* tracing,
                                   const auto& body) {
    svc::ServiceEngine engine(data.db[0], cfg);
    std::optional<Monitor> monitor;
    if (spec.monitor) monitor.emplace(engine, data, update_every);
    (void)run_open_loop(engine, data, gen, warm_rate, 0.01 * s);
    if (tracing != nullptr) (void)tracing->take();
    body(engine);
    if (tracing != nullptr && !monitor) replay_stats_and_update(engine, data);
    if (monitor) monitor->stop();
  };

  if (!opt.trace) {
    // lo, then mid, on one engine. Where a monitor swaps the database, a
    // phase lasts whole update periods, so that lo and mid hold the same
    // number of swaps.
    const double period = std::chrono::duration<double>(update_every).count();
    const double phase_s =
        spec.monitor ? period * std::max(1.0, std::round(0.2 * s / period))
                     : 0.2 * s;
    const PhaseOutcome* lo = nullptr;
    const PhaseOutcome* mid = nullptr;
    on_fresh_engine(spec.mid_qps, nullptr, [&](svc::ServiceEngine& e) {
      lo = &record("lo", run_open_loop(e, data, gen, spec.lo_qps, phase_s),
                   true);
      mid = &record("mid", run_open_loop(e, data, gen, spec.mid_qps, phase_s),
                    true);
    });
    add_latency(rep, "lo", lo->latencies());
    add_latency(rep, "mid", mid->latencies());
    // Read before the probes, whose rates vary from run to run, and before
    // set-up is timed: every engine built leaves its threads' flight
    // recorder rings (96 KiB each) behind, so the peak would grow with
    // the number of set-up repetitions.
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    (void)setup.block();
    // max_qps: from `mid`, probes double the rate while it passes (halve
    // it while it fails) until a bracket [ok, bad] holds the limit, then
    // bisect it in log space; each probe runs on a fresh engine. The
    // result interpolates log-linearly in p99 inside the final bracket. If
    // every probe passes, the highest one is reported and marked censored
    // (1); if none does (a host too loaded to hold the limit even at a
    // fraction of mid), the lowest one is, marked censored the other way
    // (-1), and the run goes on: max_qps is not gated.
    std::optional<Probe> ok, bad;
    const auto judge = [&](const PhaseOutcome& o) {
      (meets_limit(o, spec.limit_ms) ? ok : bad) =
          Probe{o.rate, o.windowed_ms(0.99)};
    };
    judge(*mid);
    constexpr int kProbes = 6;
    for (int p = 0; p < kProbes; ++p) {
      if (p == kProbes / 2) (void)setup.block();
      const double r = ok && bad ? std::sqrt(ok->rate * bad->rate)
                       : ok      ? 2.0 * ok->rate
                                 : 0.5 * bad->rate;
      on_fresh_engine(r, nullptr, [&](svc::ServiceEngine& e) {
        judge(record("probe" + std::to_string(p),
                     run_open_loop(e, data, gen, r, 0.075 * s), false));
      });
    }
    rep.add("max_qps", !ok   ? bad->rate
                       : bad ? interpolate_rate(*ok, *bad, spec.limit_ms)
                             : ok->rate,
            "1/s", kProbes + 1);
    rep.add("max_qps.censored", !ok ? -1.0 : bad ? 0.0 : 1.0, "count",
            kProbes + 1);
  } else {
    const PhaseOutcome* plain = nullptr;
    on_fresh_engine(spec.mid_qps, nullptr, [&](svc::ServiceEngine& e) {
      plain = &record("mid", run_open_loop(e, data, gen, spec.mid_qps, 0.3 * s),
                      true);
    });
    (void)setup.block();
    TraceSession tracing;
    const PhaseOutcome* served = nullptr;
    on_fresh_engine(spec.mid_qps, &tracing, [&](svc::ServiceEngine& e) {
      served = &record("mid.traced",
                       run_open_loop(e, data, gen, spec.mid_qps, 0.3 * s),
                       true);
    });
    const PhaseOutcome& traced = *served;
    Sessions spans;
    auto own = tracing.take();
    save_trace(opt, own);
    spans.add(std::move(own));
    // The layers below replay at the batch width this phase formed.
    const double rows = mean_batch_rows(spans, traced);
    const auto a = batch_operand(
        data, std::isfinite(rows) && rows > 1.0
                  ? static_cast<std::size_t>(std::lround(rows))
                  : 1);
    replay_layers(rep, a, data.db[0], data.op,
                  Context::gpu("titanv").effective_config(a, data.db[0],
                                                          data.op));
    spans.add(tracing.take());
    add_service_layer(rep, spans, traced);
    add_core_layers(rep, spans);
    add_proc(rep, plain->usage, static_cast<double>(plain->attempted),
             plain->wall_s);
    rep.add("obs.trace_overhead_pct",
            (median(traced.lat_ms) / median(plain->lat_ms) - 1.0) * 100.0,
            "%", traced.lat_ms.size());
  }
  (void)setup.block();
  setup.report(rep, opt);

  std::size_t kept = 0, bad = 0, planted = 0, planted_bad = 0;
  for (const PhaseOutcome& o : checked) {
    kept += o.kept.size();
    bad += verify_kept(data, o);
    planted += o.planted_checked;
    planted_bad += o.planted_bad;
  }
  rep.check("every 64th result equals the reference", kept, bad);
  rep.check("planted queries match their source row", planted, planted_bad);
}

// ---- ld_batch -----------------------------------------------------------------

struct LdJob {
  double seconds = 0.0;
  std::uint64_t hash = 0;
};

/// One LD job as a user runs it: co-occurrence counts on the device, then
/// r^2 of every locus pair.
LdJob run_ld_job(Context& ctx, const bits::BitMatrix& cohort) {
  LdJob job;
  const auto t0 = Clock::now();
  CompareResult res = ctx.ld(cohort);
  {
    const obs::Span span("stats.r2_matrix");
    (void)stats::r2_matrix(res.counts, stats::row_counts(cohort),
                           cohort.bit_cols());
  }
  job.seconds = seconds_since(t0);
  job.hash = hash_counts(res.counts, cohort.rows());
  return job;
}

struct Cohort {
  const bits::BitMatrix& loci;
  std::uint64_t expect;  ///< hash of its counts by the naive reference
  int per_round;         ///< jobs per round
};

struct JobLoop {
  std::vector<std::vector<double>> job_ms;  ///< per cohort
  std::size_t jobs = 0;
  std::size_t bad = 0;
  double wall_s = 0.0;
  HostCpu cpu;
  ProcUsage usage;
};

/// Closed loop, one caller: rounds of jobs back to back for `seconds` (at
/// least three rounds). A round runs each cohort's jobs in turn, so
/// cohorts of different sizes sample the host over the same stretch.
JobLoop run_jobs(Context& ctx, const std::vector<Cohort>& cohorts,
                 double seconds) {
  JobLoop out;
  out.job_ms.resize(cohorts.size());
  const HostCpu cpu0 = HostCpu::now();
  const ProcUsage usage0 = ProcUsage::now();
  const auto t0 = Clock::now();
  for (int round = 0; round < 3 || seconds_since(t0) < seconds; ++round) {
    for (std::size_t c = 0; c < cohorts.size(); ++c) {
      for (int j = 0; j < cohorts[c].per_round; ++j) {
        const LdJob job = run_ld_job(ctx, cohorts[c].loci);
        out.job_ms[c].push_back(job.seconds * 1e3);
        out.jobs++;
        if (job.hash != cohorts[c].expect) out.bad++;
      }
    }
  }
  out.wall_s = seconds_since(t0);
  out.cpu = HostCpu::now() - cpu0;
  out.usage = ProcUsage::now() - usage0;
  return out;
}

/// What the ld_batch set-up produces: the loaded cohort and its context.
struct LdSession {
  bits::BitMatrix loci;
  Context ctx;
};

void run_ld(const Options& opt, Report& rep) {
  const std::size_t n = opt.quick ? 512 : 2048;  // loci of the mid cohort
  const std::size_t samples = opt.quick ? 512 : 4096;
  io::PopulationParams pp;
  pp.seed = opt.seed;
  pp.spectrum = io::MafSpectrum::kUShaped;
  pp.ld_block_len = 20;
  std::uint64_t ref_mid = 0, ref_lo = 0;
  std::optional<SbmFile> file;
  {
    const bits::BitMatrix loci =
        bits::encode(io::generate_genotypes(n, samples, pp),
                     bits::EncodingPlane::kPresence);
    file.emplace(opt, loci);
    // The naive reference, untimed.
    const auto ref =
        bits::compare_reference(loci, loci, bits::Comparison::kAnd);
    ref_mid = hash_counts(ref, n);
    ref_lo = hash_counts(ref, n / 2);
  }
  std::size_t jobs = 0, bad = 0;
  SetupTimer setup(
      *file,
      [](bits::BitMatrix m) {
        return std::make_unique<LdSession>(
            LdSession{std::move(m), Context::gpu("titanv")});
      },
      [&](LdSession& made) {
        jobs++;
        if (run_ld_job(made.ctx, made.loci).hash != ref_mid) bad++;
      });
  const auto session = setup.block();
  Context& gpu = session->ctx;
  const bits::BitMatrix& loci = session->loci;
  const bits::BitMatrix lo_cohort = loci.row_slice(0, n / 2);

  const double s = opt.seconds;
  const auto record = [&](const std::string& name, const JobLoop& p) {
    rep.phase(name, static_cast<double>(p.jobs) / p.wall_s, p.jobs, p.bad,
              p.wall_s, p.cpu, p.usage);
    rep.count(p.jobs, 0);
    jobs += p.jobs;
    bad += p.bad;
  };
  if (!opt.trace) {
    // Rounds of four lo jobs (a quarter of the pairs each) and one mid
    // job, so that both cohorts sample the host over the same stretch.
    const JobLoop loop =
        run_jobs(gpu, {{lo_cohort, ref_lo, 4}, {loci, ref_mid, 1}}, 0.75 * s);
    record("lo+mid", loop);
    const auto& mid = loop.job_ms[1];
    add_latency(rep, "lo", loop.job_ms[0]);
    add_latency(rep, "mid", mid);
    rep.add("max_qps", 1e3 / quantile(mid, 0.5), "1/s", mid.size());
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    (void)setup.block();
  } else {
    const JobLoop plain = run_jobs(gpu, {{loci, ref_mid, 1}}, 0.25 * s);
    record("mid", plain);
    (void)setup.block();
    TraceSession tracing;
    const JobLoop traced = run_jobs(gpu, {{loci, ref_mid, 1}}, 0.25 * s);
    record("mid.traced", traced);
    Sessions spans;
    auto own = tracing.take();
    save_trace(opt, own);
    spans.add(std::move(own));
    add_proc(rep, plain.usage, static_cast<double>(plain.jobs), plain.wall_s);
    rep.add("obs.trace_overhead_pct",
            (median(traced.job_ms[0]) / median(plain.job_ms[0]) - 1.0) * 100.0,
            "%", traced.jobs);

    // The service layer at this workload's shape: single-locus LD lookups
    // (one locus against the cohort) served open loop.
    ServiceData lookup;
    lookup.op = bits::Comparison::kAnd;
    lookup.db = {loci, loci};
    for (std::size_t i = 0; i < std::min<std::size_t>(1024, n); ++i) {
      lookup.queries.push_back(loci.row_slice(i, i + 1));
    }
    lookup.planted.assign(lookup.queries.size(), -1);
    svc::ServiceConfig cfg;
    cfg.op = bits::Comparison::kAnd;
    PhaseOutcome served;
    {
      svc::ServiceEngine engine(loci, cfg);
      LoadGen gen(lookup, opt.seed);
      served = run_open_loop(engine, lookup, gen, 500.0, 0.1 * s);
      replay_stats_and_update(engine, lookup);
    }
    spans.add(tracing.take());
    rep.phase("lookup.traced", served.rate, served.attempted,
              served.failures(), served.wall_s, served.cpu, served.usage);
    rep.check("every 64th lookup equals the reference", served.kept.size(),
              verify_kept(lookup, served));

    const auto a = loci.row_slice(0, std::min<std::size_t>(256, n));
    replay_layers(rep, a, loci, bits::Comparison::kAnd,
                  gpu.effective_config(loci, loci, bits::Comparison::kAnd));
    spans.add(tracing.take());
    add_service_layer(rep, spans, served);
    add_core_layers(rep, spans);
  }
  (void)setup.block();
  setup.report(rep, opt);
  rep.check("LD counts hash equals the naive reference", jobs, bad);
}

int usage_error(const std::string& msg) {
  std::cerr << "snpbench: " << msg
            << "\nusage: snpbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--workdir DIR] [--trace-out FILE] [--quick]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--workdir") {
        opt.workdir = val;
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        return usage_error("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return usage_error("bad value for " + arg + ": " + val);
    }
  }
  if (!(opt.seconds > 0.0)) return usage_error("--seconds must be > 0");

  try {
    Report rep;
    if (const auto spec = service_spec(opt.workload, opt.quick)) {
      run_service(opt, *spec, rep);
    } else if (opt.workload == "ld_batch") {
      run_ld(opt, rep);
    } else {
      return usage_error("unknown workload '" + opt.workload + "'");
    }
    rep.write(std::cout, opt);
  } catch (const std::exception& e) {
    std::cerr << "snpbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
