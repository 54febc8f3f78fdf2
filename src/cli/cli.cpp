#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analyze/analyzer.hpp"
#include "analyze/mutate.hpp"
#include "bits/genotype.hpp"
#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/plink_lite.hpp"
#include "io/cohort_ops.hpp"
#include "io/vcf_lite.hpp"
#include "kern/opencl_source.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "rt/fault.hpp"
#include "rt/recovery.hpp"
#include "rt/status.hpp"
#include "sim/trace.hpp"
#include "stats/assoc.hpp"
#include "stats/forensic.hpp"
#include "stats/cluster.hpp"
#include "stats/fst.hpp"
#include "stats/kinship.hpp"
#include "stats/ld.hpp"
#include "stats/ld_prune.hpp"
#include "stats/qc.hpp"
#include "svc/service.hpp"

namespace snp::cli {

namespace {

/// Minimal `--key value` option parser with typed accessors and
/// unknown-flag detection.
class Options {
 public:
  Options(const std::vector<std::string>& args, std::size_t first) {
    // Boolean flags take no value; everything else is `--key value`.
    static const std::set<std::string> kBoolFlags = {"perf"};
    for (std::size_t i = first; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got '" + a + "'");
      }
      const std::string key = a.substr(2);
      if (kBoolFlags.count(key) != 0) {
        values_[key] = "yes";
        continue;
      }
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for '" + a + "'");
      }
      values_[key] = args[++i];
    }
  }

  /// Presence of a boolean flag (declared in kBoolFlags above).
  [[nodiscard]] bool flag(const std::string& key) {
    used_.insert(key);
    return values_.find(key) != values_.end();
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) {
    used_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::string require(const std::string& key) {
    used_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required --" + key);
    }
    return it->second;
  }

  [[nodiscard]] std::uint64_t num(const std::string& key,
                                  std::uint64_t fallback) {
    used_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    std::uint64_t v = 0;
    const auto* begin = it->second.data();
    const auto* end = begin + it->second.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr != end) {
      throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                  it->second + "'");
    }
    return v;
  }

  [[nodiscard]] double real(const std::string& key, double fallback) {
    used_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos != it->second.size()) {
        throw std::invalid_argument("");
      }
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + key + " expects a number, got '" +
                                  it->second + "'");
    }
  }

  void reject_unknown() const {
    for (const auto& [key, value] : values_) {
      if (used_.find(key) == used_.end()) {
        throw std::invalid_argument("unknown option --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

/// Shared `--metrics-out F` / `--trace-out F` / `--metrics-format
/// json|prom` / `--perf` handling for the compute commands. Construct
/// before reject_unknown() (parsing marks the flags used), call begin()
/// before the work starts (arms the global TraceCollector and zeroes its
/// epoch; opens and starts the hardware counter group when --perf was
/// given) and finish() after (prints the IPC/cache line, publishes the
/// obs.hw.* counters, then writes the metrics snapshot and the merged
/// Chrome trace). Counter failures never affect the computed results —
/// an unavailable PMU degrades to a one-line note.
class Telemetry {
 public:
  explicit Telemetry(Options& opt)
      : metrics_path_(opt.str("metrics-out", "")),
        trace_path_(opt.str("trace-out", "")),
        flight_path_(opt.str("flight-out", "")),
        format_(opt.str("metrics-format", "json")),
        perf_(opt.flag("perf")) {
    if (format_ != "json" && format_ != "prom") {
      throw std::invalid_argument(
          "--metrics-format must be json or prom");
    }
  }

  [[nodiscard]] bool wants_trace() const { return !trace_path_.empty(); }

  void begin() const {
    if (perf_) {
      hw_ = std::make_unique<obs::HwCounters>();
      hw_->start();
    }
    if (!flight_path_.empty()) {
      // Configure the recorder's automatic-dump destination up front so
      // the exit-4 fault path and SLO-breach dumps land here too — those
      // fire while this command's stack is unwinding, after finish() can
      // no longer run.
      obs::FlightRecorder::global().set_dump_path(flight_path_);
    }
    if (wants_trace()) {
      obs::TraceCollector::global().set_enabled(true);
      obs::TraceCollector::global().begin_session();
    }
  }

  /// `tl` (may be null) and `chunks` (may be empty) add the simulated
  /// device timeline and the host chunk pipeline as extra track groups
  /// alongside the collected spans. `host_anchor_us` is the span-clock
  /// time at which the compare started (TimingReport::trace_anchor_us);
  /// it re-anchors the pid-0/pid-2 tracks onto the span clock so flow
  /// arrows stay monotone across pids.
  void finish(std::ostream& out, const sim::Timeline* tl,
              std::span<const sim::HostChunkEvent> chunks,
              const std::string& device,
              double host_anchor_us = 0.0) const {
    if (hw_) {
      hw_->stop();
      const obs::HwCounterValues v = hw_->read();
      if (v.valid) {
        out << "perf:        " << v.to_line() << "\n";
        // Into the registry before the snapshot below, so --metrics-out
        // dumps carry the same numbers.
        obs::HwCounters::publish(v, obs::MetricsRegistry::global());
      } else {
        out << "perf:        perf counters unavailable"
            << (hw_->error().empty() ? "" : " (" + hw_->error() + ")")
            << "\n";
      }
    }
    if (!metrics_path_.empty()) {
      std::ofstream os(metrics_path_);
      if (!os) {
        throw std::runtime_error("cannot open metrics file " +
                                 metrics_path_);
      }
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::global().snapshot();
      if (format_ == "prom") {
        obs::write_metrics_prometheus(snap, os);
      } else {
        obs::write_metrics_json(snap, os);
      }
      out << "wrote metrics (" << format_ << ") to " << metrics_path_
          << "\n";
    }
    if (wants_trace()) {
      obs::TraceCollector& spans = obs::TraceCollector::global();
      spans.set_enabled(false);
      std::ofstream os(trace_path_);
      if (!os) {
        throw std::runtime_error("cannot open trace file " + trace_path_);
      }
      sim::write_merged_chrome_trace(spans, tl, chunks, os, device,
                                     host_anchor_us);
      out << "wrote merged chrome trace (" << spans.size()
          << " host spans, " << chunks.size() << " pipeline chunks) to "
          << trace_path_ << "\n";
    }
    if (!flight_path_.empty()) {
      // On-demand dump for runs that finished cleanly; faulted runs are
      // dumped by the exit-4 path in run() instead.
      obs::FlightRecorder& fr = obs::FlightRecorder::global();
      if (fr.dump_to_file(flight_path_, "on-demand")) {
        out << "wrote flight recording (" << fr.snapshot().size()
            << " events) to " << flight_path_ << "\n";
      } else {
        throw std::runtime_error("cannot open flight file " + flight_path_);
      }
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string flight_path_;
  std::string format_;
  bool perf_ = false;
  /// Owned lazily by the const begin()/finish() pair — the Telemetry
  /// object itself stays logically const through the command body.
  mutable std::unique_ptr<obs::HwCounters> hw_;
};

/// Shared `--inject-faults SPEC` / `--fail-policy P` handling for the
/// compute commands (docs/robustness.md). Construct before
/// reject_unknown(); apply() validates the flags, sets the recovery
/// policy on the compute options, and arms the fault plan for this
/// object's lifetime — i.e. exactly the command body, so sequential
/// in-process cli::run() calls (tests, batch drivers) never leak an
/// armed plan into each other.
class FaultControl {
 public:
  explicit FaultControl(Options& opt)
      : spec_(opt.str("inject-faults", "")),
        policy_text_(opt.str("fail-policy", "")) {}

  void apply(ComputeOptions& copts) {
    if (!policy_text_.empty()) {
      const auto policy = rt::parse_fail_policy(policy_text_);
      if (!policy) {
        throw std::invalid_argument(
            "--fail-policy must be abort, retry, failover or degrade");
      }
      copts.recovery.policy = *policy;
    }
    if (!spec_.empty()) {
      try {
        scoped_.emplace(rt::FaultPlan::parse(spec_));
      } catch (const rt::Error& e) {
        throw std::invalid_argument(e.status().message);
      }
    }
  }

 private:
  std::string spec_;
  std::string policy_text_;
  std::optional<rt::ScopedFaultPlan> scoped_;
};

bits::Comparison parse_op(const std::string& s) {
  if (s == "and" || s == "ld") {
    return bits::Comparison::kAnd;
  }
  if (s == "xor" || s == "identity") {
    return bits::Comparison::kXor;
  }
  if (s == "andnot" || s == "mixture") {
    return bits::Comparison::kAndNot;
  }
  throw std::invalid_argument("unknown op '" + s +
                              "' (and|xor|andnot)");
}

Context make_context(const std::string& device) {
  if (device == "cpu") {
    return Context::cpu();
  }
  return Context::gpu(device);
}

void print_timing(std::ostream& out, const TimingReport& t) {
  out << "device:      " << t.device << "\n";
  if (!t.config.empty()) {
    out << "config:      " << t.config << "\n";
  }
  for (const auto& note : t.lint_notes) {
    out << "lint:        " << note << "\n";
  }
  out << "init:        " << t.init_s * 1e3 << " ms\n"
      << "h2d:         " << t.h2d_s * 1e3 << " ms\n"
      << "kernel:      " << t.kernel_s * 1e3 << " ms\n"
      << "d2h:         " << t.d2h_s * 1e3 << " ms\n"
      << "end-to-end:  " << t.end_to_end_s * 1e3 << " ms\n"
      << "chunks:      " << t.chunks << "\n";
  // Only on faulty runs, so golden output on clean runs stays stable.
  if (!t.fault_events.empty() || t.degraded) {
    out << "faults:      " << t.fault_events.size() << " event(s)"
        << (t.degraded ? ", degraded to CPU" : "") << "\n";
    const std::size_t shown =
        std::min<std::size_t>(t.fault_events.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      const rt::FaultEvent& ev = t.fault_events[i];
      out << "  fault:     " << ev.site << " " << rt::code_name(ev.code)
          << " -> " << ev.action;
      if (ev.chunk >= 0) {
        out << " (chunk " << ev.chunk << ")";
      }
      if (ev.attempt > 0) {
        out << " attempt " << ev.attempt;
      }
      out << "\n";
    }
    if (t.fault_events.size() > shown) {
      out << "  ...        " << t.fault_events.size() - shown
          << " more event(s)\n";
    }
  }
  if (t.kernel_gops > 0.0) {
    out << "throughput:  " << t.kernel_gops << " Gword-ops/s ("
        << t.pct_of_peak << "% of peak)\n";
  }
  if (t.attainable_gops > 0.0) {
    // Achieved-vs-model roofline efficiency (obs::EfficiencySummary);
    // peak recovered from pct_of_peak = achieved / peak * 100.
    obs::EfficiencySummary eff;
    eff.achieved_gops = t.kernel_gops;
    eff.attainable_gops = t.attainable_gops;
    eff.peak_gops = t.pct_of_peak > 0.0
                        ? t.kernel_gops * 100.0 / t.pct_of_peak
                        : 0.0;
    eff.memory_bound = t.memory_bound;
    out << "roofline:    " << eff.to_line() << "\n";
  }
}

int cmd_devices(std::ostream& out) {
  out << "cpu        native BLIS-like engine (host)\n";
  for (const auto& dev : model::all_gpus()) {
    out << dev.name << "  [" << dev.microarch << ", " << dev.vendor
        << "]  " << dev.n_cores << " cores x " << dev.n_clusters
        << " clusters @ " << dev.freq_ghz << " GHz, "
        << dev.shared_bytes / 1024 << " KiB shared, "
        << static_cast<double>(dev.global_bytes) / (1 << 30)
        << " GiB global\n";
  }
  return 0;
}

/// `snpcmp env`: the benchmark-environment fingerprint (CPU model,
/// cores, governor, compiler, git sha) plus perf-counter availability —
/// the header tools/run_bench.sh embeds in every aggregated BENCH json
/// so regressions can be told apart from hardware changes.
int cmd_env(Options& opt, std::ostream& out) {
  const std::string format = opt.str("format", "text");
  opt.reject_unknown();
  const obs::EnvInfo env = obs::collect_env_info();
  const bool perf_ok = obs::HwCounters::available();
  if (format == "json") {
    obs::write_env_json(env, out);
    out << "\n";
  } else if (format == "text") {
    out << "cpu:        " << env.cpu_model << "\n"
        << "cores:      " << env.logical_cores << "\n"
        << "governor:   " << env.governor << "\n"
        << "compiler:   " << env.compiler << "\n"
        << "git_sha:    " << env.git_sha << "\n"
        << "hostname:   " << env.hostname << "\n"
        << "kernel:     " << env.kernel << "\n"
        << "perf:       "
        << (perf_ok ? "hardware counters available"
                    : "perf counters unavailable")
        << "\n";
  } else {
    throw std::invalid_argument("--format must be json or text");
  }
  return 0;
}

int cmd_gen(Options& opt, std::ostream& out) {
  const std::size_t loci = opt.num("loci", 1000);
  const std::size_t samples = opt.num("samples", 512);
  io::PopulationParams p;
  p.seed = opt.num("seed", 1);
  p.ld_block_len = opt.num("ld-block", 1);
  p.maf_min = opt.real("maf-min", 0.01);
  p.maf_max = opt.real("maf-max", 0.5);
  const std::string path = opt.require("out");
  const std::string format = opt.str("format", "plink");
  opt.reject_unknown();
  auto g = io::generate_genotypes(loci, samples, p);
  if (format == "plink") {
    io::save_plink_lite(io::with_synthetic_metadata(std::move(g)), path);
  } else if (format == "vcf") {
    io::save_vcf_lite(io::with_synthetic_metadata(std::move(g)), path);
  } else if (format == "tsv") {
    io::save_genotypes_tsv(g, std::filesystem::path(path));
  } else {
    throw std::invalid_argument("--format must be plink, vcf or tsv");
  }
  out << "wrote " << loci << " loci x " << samples << " samples to "
      << path << " (" << format << ")\n";
  return 0;
}

int cmd_gendb(Options& opt, std::ostream& out) {
  const std::size_t profiles = opt.num("profiles", 100000);
  const std::size_t snps = opt.num("snps", 512);
  io::ProfileDbParams p;
  p.seed = opt.num("seed", 2);
  p.maf_min = opt.real("maf-min", 0.05);
  p.maf_max = opt.real("maf-max", 0.5);
  const std::string path = opt.require("out");
  opt.reject_unknown();
  const auto db = io::generate_profile_db(profiles, snps, p);
  io::save_bitmatrix(db, std::filesystem::path(path));
  out << "wrote profile database " << profiles << " x " << snps
      << " bits (" << db.size_bytes() / 1024 << " KiB) to " << path
      << "\n";
  return 0;
}

/// Loads a genotype dataset, auto-detecting VCF by extension unless the
/// caller forces a format.
io::PlinkLiteDataset load_dataset(const std::string& path,
                                  const std::string& format) {
  const bool vcf =
      format == "vcf" ||
      (format == "auto" && path.size() > 4 &&
       path.compare(path.size() - 4, 4, ".vcf") == 0);
  return vcf ? io::load_vcf_lite(std::filesystem::path(path))
             : io::load_plink_lite(std::filesystem::path(path));
}

int cmd_encode(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string out_path = opt.require("out");
  const std::string plane = opt.str("plane", "presence");
  const std::string format = opt.str("format", "auto");
  opt.reject_unknown();
  const auto ds = load_dataset(in, format);
  const auto enc = plane == "presence" ? bits::EncodingPlane::kPresence
                  : plane == "hom"     ? bits::EncodingPlane::kHomozygous
                                       : throw std::invalid_argument(
                                             "--plane must be presence "
                                             "or hom");
  const auto m = bits::encode(ds.genotypes, enc);
  io::save_bitmatrix(m, std::filesystem::path(out_path));
  out << "encoded " << m.rows() << " loci x " << m.bit_cols()
      << " samples (" << plane << " plane) to " << out_path << "\n";
  return 0;
}

int cmd_ld(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string device = opt.str("device", "titanv");
  const std::string gamma_out = opt.str("out", "");
  const std::size_t top = opt.num("top", 10);
  const Telemetry tele(opt);
  FaultControl faults(opt);
  opt.reject_unknown();
  tele.begin();
  const auto m = io::load_bitmatrix(std::filesystem::path(in));
  Context ctx = make_context(device);
  ComputeOptions copts;
  faults.apply(copts);
  const auto res = ctx.ld(m, copts);
  if (!gamma_out.empty()) {
    io::save_countmatrix(res.counts, std::filesystem::path(gamma_out));
  }
  print_timing(out, res.timing);
  tele.finish(out, nullptr, res.timing.chunk_events, res.timing.device,
              res.timing.trace_anchor_us);
  const auto r2 =
      stats::r2_matrix(res.counts, stats::row_counts(m), m.bit_cols());
  // The `top` strongest pairs, r^2 descending and then (i, j) ascending,
  // by a bounded selection: a heap whose front is the weakest pair kept.
  struct Hit {
    std::size_t i, j;
    double r2;
  };
  const auto stronger = [](const Hit& a, const Hit& b) {
    return a.r2 != b.r2 ? a.r2 > b.r2
                        : std::tie(a.i, a.j) < std::tie(b.i, b.j);
  };
  std::vector<Hit> best;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) {
      const Hit hit{i, j, r2.at(i, j)};
      if (best.size() < top) {
        best.push_back(hit);
        std::push_heap(best.begin(), best.end(), stronger);
      } else if (top > 0 && stronger(hit, best.front())) {
        std::pop_heap(best.begin(), best.end(), stronger);
        best.back() = hit;
        std::push_heap(best.begin(), best.end(), stronger);
      }
    }
  }
  std::sort_heap(best.begin(), best.end(), stronger);
  out << "top locus pairs by r^2:\n";
  for (const Hit& hit : best) {
    out << "  " << hit.i << " x " << hit.j << "  r2=" << hit.r2 << "\n";
  }
  return 0;
}

int cmd_search(Options& opt, std::ostream& out) {
  const std::string qpath = opt.require("queries");
  const std::string dbpath = opt.require("db");
  const std::string device = opt.str("device", "titanv");
  const std::size_t top = opt.num("top", 3);
  const std::string host_trace = opt.str("host-trace", "");
  const auto lds_words = static_cast<int>(opt.num("lds-words", 0));
  const Telemetry tele(opt);
  FaultControl faults(opt);
  opt.reject_unknown();
  tele.begin();
  const auto queries = io::load_bitmatrix(std::filesystem::path(qpath));
  const auto db = io::load_bitmatrix(std::filesystem::path(dbpath));
  Context ctx = make_context(device);
  ComputeOptions copts;
  copts.lds_words = lds_words;
  faults.apply(copts);
  const auto res = ctx.identity_search(queries, db, copts);
  print_timing(out, res.comparison.timing);
  tele.finish(out, nullptr, res.comparison.timing.chunk_events,
              res.comparison.timing.device,
              res.comparison.timing.trace_anchor_us);
  if (!host_trace.empty()) {
    std::ofstream os(host_trace);
    if (!os) {
      throw std::runtime_error("cannot open trace file " + host_trace);
    }
    sim::write_host_chrome_trace(res.comparison.timing.chunk_events, os,
                                 device + " host pipeline");
    out << "wrote host-pipeline timeline ("
        << res.comparison.timing.chunk_events.size() << " chunks) to "
        << host_trace << "\n";
  }
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto row = res.comparison.counts.raw().subspan(q * db.rows(),
                                                         db.rows());
    const auto ranked = stats::rank_matches(row, db.bit_cols(), 1.0, top);
    out << "query " << q << ":";
    for (const auto& c : ranked) {
      out << "  #" << c.reference_index << " (" << c.mismatches
          << " mismatches)";
    }
    out << "\n";
  }
  return 0;
}

int cmd_mixture(Options& opt, std::ostream& out) {
  const std::string ppath = opt.require("profiles");
  const std::string mpath = opt.require("mixtures");
  const std::string device = opt.str("device", "vega64");
  const auto tolerance = static_cast<std::uint32_t>(opt.num("tolerance",
                                                            0));
  const bool pre_negate = opt.str("pre-negate", "no") == "yes";
  const Telemetry tele(opt);
  FaultControl faults(opt);
  opt.reject_unknown();
  tele.begin();
  const auto profiles = io::load_bitmatrix(std::filesystem::path(ppath));
  const auto mixtures = io::load_bitmatrix(std::filesystem::path(mpath));
  Context ctx = make_context(device);
  ComputeOptions copts;
  copts.pre_negate = pre_negate;
  faults.apply(copts);
  const auto res =
      ctx.mixture_analysis(profiles, mixtures, tolerance, copts);
  print_timing(out, res.comparison.timing);
  tele.finish(out, nullptr, res.comparison.timing.chunk_events,
              res.comparison.timing.device,
              res.comparison.timing.trace_anchor_us);
  for (std::size_t m = 0; m < mixtures.rows(); ++m) {
    out << "mixture " << m << ": " << res.included[m].size()
        << " consistent profiles:";
    for (const std::size_t p : res.included[m]) {
      out << " " << p;
    }
    out << "\n";
  }
  return 0;
}

int cmd_kinship(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string format = opt.str("format", "auto");
  const std::size_t top = opt.num("top", 10);
  opt.reject_unknown();
  const auto ds = load_dataset(in, format);
  const auto phi = stats::kinship_matrix(ds.genotypes);
  const std::size_t n = ds.samples.size();
  out << "KING-robust kinship over " << ds.loci.size() << " loci, " << n
      << " samples\n";
  struct Pair {
    std::size_t i, j;
    stats::KinshipResult r;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairs.push_back({i, j, phi[i * n + j]});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.r.phi > b.r.phi;
  });
  out << "top related pairs:\n";
  for (std::size_t k = 0; k < std::min(top, pairs.size()); ++k) {
    const auto& p = pairs[k];
    out << "  " << ds.samples[p.i] << " x " << ds.samples[p.j]
        << "  phi=" << p.r.phi << "  ("
        << stats::to_string(p.r.relationship)
        << ", het-het=" << p.r.n_het_het << ", ibs0=" << p.r.n_ibs0
        << ")\n";
  }
  return 0;
}

int cmd_qc(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string format = opt.str("format", "auto");
  const std::string out_path = opt.str("out", "");
  stats::QcThresholds t;
  t.min_maf = opt.real("min-maf", t.min_maf);
  t.max_missing_rate = opt.real("max-missing", t.max_missing_rate);
  t.min_hwe_p = opt.real("min-hwe-p", t.min_hwe_p);
  const double prune_r2 = opt.real("ld-prune-r2", 0.0);
  const std::size_t prune_window = opt.num("ld-prune-window", 50);
  opt.reject_unknown();
  const auto ds = load_dataset(in, format);
  const auto report =
      stats::qc_report(ds.genotypes, ds.missing_per_locus, t);
  std::size_t pass = 0, low_maf = 0, missing = 0, hwe = 0;
  for (const auto& qc : report) {
    pass += qc.pass() ? 1u : 0u;
    low_maf += (qc.flags & stats::kQcLowMaf) ? 1u : 0u;
    missing += (qc.flags & stats::kQcHighMissing) ? 1u : 0u;
    hwe += (qc.flags & stats::kQcHweViolation) ? 1u : 0u;
  }
  out << "QC over " << report.size() << " loci x " << ds.samples.size()
      << " samples: " << pass << " pass, " << low_maf << " low-MAF, "
      << missing << " high-missing, " << hwe << " HWE-violating\n";
  if (!out_path.empty()) {
    auto filtered = stats::filter_loci(ds, report);
    if (prune_r2 > 0.0) {
      const auto kept = stats::ld_prune(
          filtered.genotypes,
          stats::LdPruneParams{prune_window, prune_r2});
      std::vector<stats::LocusQc> keep_mask(filtered.loci.size());
      for (auto& qc : keep_mask) {
        qc.flags = stats::kQcLowMaf;  // default: drop
      }
      for (const std::size_t k : kept) {
        keep_mask[k].flags = stats::kQcPass;
      }
      filtered = stats::filter_loci(filtered, keep_mask);
      out << "LD pruning (r2 > " << prune_r2 << " within "
          << prune_window << "): " << kept.size() << " loci kept\n";
    }
    io::save_plink_lite(filtered, std::filesystem::path(out_path));
    out << "wrote " << filtered.loci.size() << " passing loci to "
        << out_path << "\n";
  }
  return 0;
}

int cmd_assoc(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string format = opt.str("format", "auto");
  const std::string cases_spec = opt.str("cases", "");
  const std::string pheno_path = opt.str("pheno", "");
  const std::size_t top = opt.num("top", 10);
  opt.reject_unknown();
  if (cases_spec.empty() == pheno_path.empty()) {
    throw std::invalid_argument(
        "assoc: give exactly one of --cases or --pheno");
  }
  const auto ds = load_dataset(in, format);
  std::vector<bool> is_case(ds.samples.size(), false);
  if (!pheno_path.empty()) {
    // Phenotype file: one "sample<TAB>status" line per sample; status in
    // {0, 1, case, control}. Unlisted samples default to control.
    std::ifstream ph(pheno_path);
    if (!ph) {
      throw std::runtime_error("assoc: cannot open --pheno " + pheno_path);
    }
    std::string name, status;
    while (ph >> name >> status) {
      const auto it =
          std::find(ds.samples.begin(), ds.samples.end(), name);
      if (it == ds.samples.end()) {
        throw std::invalid_argument("assoc: unknown sample '" + name +
                                    "' in --pheno");
      }
      const bool value = status == "1" || status == "case";
      if (!value && status != "0" && status != "control") {
        throw std::invalid_argument("assoc: bad status '" + status + "'");
      }
      is_case[static_cast<std::size_t>(it - ds.samples.begin())] = value;
    }
  }
  // --cases is a comma-separated list of sample names or indices.
  std::istringstream cs(cases_spec);
  std::string token;
  while (std::getline(cs, token, ',')) {
    auto it = std::find(ds.samples.begin(), ds.samples.end(), token);
    if (it != ds.samples.end()) {
      is_case[static_cast<std::size_t>(it - ds.samples.begin())] = true;
      continue;
    }
    try {
      const std::size_t idx = std::stoul(token);
      if (idx >= is_case.size()) {
        throw std::out_of_range("");
      }
      is_case[idx] = true;
    } catch (const std::exception&) {
      throw std::invalid_argument("--cases entry '" + token +
                                  "' is neither a sample name nor index");
    }
  }
  const auto results = stats::gwas_scan(ds.genotypes, is_case);
  std::vector<std::size_t> order(results.size());
  for (std::size_t l = 0; l < order.size(); ++l) {
    order[l] = l;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return results[a].p_trend < results[b].p_trend;
  });
  out << "association scan over " << results.size() << " loci ("
      << std::count(is_case.begin(), is_case.end(), true) << " cases / "
      << ds.samples.size() << " samples)\n";
  out << "top hits by trend test:\n";
  for (std::size_t k = 0; k < std::min(top, order.size()); ++k) {
    const std::size_t l = order[k];
    out << "  " << ds.loci[l].id << " (chr" << ds.loci[l].chrom << ":"
        << ds.loci[l].pos << ")  p=" << results[l].p_trend
        << "  OR=" << results[l].odds_ratio
        << "  maf case/ctrl=" << results[l].maf_cases << "/"
        << results[l].maf_controls << "\n";
  }
  return 0;
}

int cmd_cluster(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string format = opt.str("format", "auto");
  const std::string device = opt.str("device", "gtx980");
  const std::size_t k = opt.num("k", 2);
  opt.reject_unknown();
  const auto ds = load_dataset(in, format);
  const auto profiles = stats::encode_individual_major(
      ds.genotypes, bits::EncodingPlane::kPresence);
  Context ctx = make_context(device);
  const auto gamma =
      ctx.compare(profiles, profiles, bits::Comparison::kXor);
  const auto tree = stats::upgma(gamma.counts);
  const auto labels = tree.cut_k(k);
  out << "UPGMA over " << ds.samples.size() << " samples x "
      << ds.loci.size() << " loci (XOR distances on "
      << ctx.device_name() << ")\n";
  std::vector<std::vector<std::string>> members(k);
  for (std::size_t s = 0; s < labels.size(); ++s) {
    members[labels[s]].push_back(ds.samples[s]);
  }
  for (std::size_t c = 0; c < k; ++c) {
    out << "cluster " << c << " (" << members[c].size() << "):";
    for (const auto& name : members[c]) {
      out << " " << name;
    }
    out << "\n";
  }
  if (k == 2) {
    std::vector<bool> in_pop1(labels.size());
    for (std::size_t s = 0; s < labels.size(); ++s) {
      in_pop1[s] = labels[s] == 0;
    }
    out << "Hudson Fst between the two clusters: "
        << stats::fst_scan(ds.genotypes, in_pop1).genome_wide << "\n";
  }
  return 0;
}

void save_dataset(const io::PlinkLiteDataset& ds, const std::string& path,
                  const std::string& format) {
  const bool vcf =
      format == "vcf" ||
      (format == "auto" && path.size() > 4 &&
       path.compare(path.size() - 4, 4, ".vcf") == 0);
  if (vcf) {
    io::save_vcf_lite(ds, std::filesystem::path(path));
  } else {
    io::save_plink_lite(ds, std::filesystem::path(path));
  }
}

int cmd_merge(Options& opt, std::ostream& out) {
  const std::string a_path = opt.require("a");
  const std::string b_path = opt.require("b");
  const std::string out_path = opt.require("out");
  const std::string axis = opt.str("axis", "samples");
  const std::string format = opt.str("format", "auto");
  opt.reject_unknown();
  const auto a = load_dataset(a_path, format);
  const auto b = load_dataset(b_path, format);
  const auto merged = axis == "samples" ? io::merge_samples(a, b)
                      : axis == "loci"  ? io::merge_loci(a, b)
                                        : throw std::invalid_argument(
                                              "--axis must be samples or "
                                              "loci");
  save_dataset(merged, out_path, format);
  out << "merged " << axis << ": " << merged.loci.size() << " loci x "
      << merged.samples.size() << " samples -> " << out_path << "\n";
  return 0;
}

int cmd_subset(Options& opt, std::ostream& out) {
  const std::string in = opt.require("in");
  const std::string out_path = opt.require("out");
  const std::string samples_spec = opt.str("samples", "");
  const std::string loci_spec = opt.str("loci", "");
  const std::string format = opt.str("format", "auto");
  opt.reject_unknown();
  if (samples_spec.empty() && loci_spec.empty()) {
    throw std::invalid_argument("subset: give --samples and/or --loci");
  }
  auto ds = load_dataset(in, format);
  if (!loci_spec.empty()) {
    // "--loci a-b" keeps the inclusive index range; or a comma list.
    std::vector<std::size_t> keep;
    const auto dash = loci_spec.find('-');
    if (dash != std::string::npos) {
      const std::size_t lo = std::stoul(loci_spec.substr(0, dash));
      const std::size_t hi = std::stoul(loci_spec.substr(dash + 1));
      if (hi < lo) {
        throw std::invalid_argument("subset: bad --loci range");
      }
      for (std::size_t l = lo; l <= hi; ++l) {
        keep.push_back(l);
      }
    } else {
      std::istringstream ls(loci_spec);
      std::string token;
      while (std::getline(ls, token, ',')) {
        keep.push_back(std::stoul(token));
      }
    }
    ds = io::subset_loci(ds, keep);
  }
  if (!samples_spec.empty()) {
    std::vector<std::string> names;
    std::istringstream ss(samples_spec);
    std::string token;
    while (std::getline(ss, token, ',')) {
      names.push_back(token);
    }
    ds = io::subset_samples(ds, names);
  }
  save_dataset(ds, out_path, format);
  out << "subset: " << ds.loci.size() << " loci x " << ds.samples.size()
      << " samples -> " << out_path << "\n";
  return 0;
}

/// `snpcmp report --trace T --metrics M [--cost C]`: offline pipeline
/// bottleneck analysis over the artifacts a run already wrote (see
/// obs::analyze_pipeline / docs/observability.md). Deterministic: same
/// input files, same report bytes.
int cmd_report_pipeline(Options& opt, std::ostream& out) {
  const std::string trace_path = opt.require("trace");
  const std::string metrics_path = opt.require("metrics");
  const std::string cost_path = opt.str("cost", "");
  const std::string out_path = opt.str("out", "");
  obs::ReportOptions ropts;
  ropts.top_n = opt.num("top", 5);
  ropts.littles_tolerance = opt.real("littles-tol", 0.10);
  opt.reject_unknown();

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("report: cannot open " + path);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const obs::jsonlite::Value trace = obs::jsonlite::parse(slurp(trace_path));
  const obs::jsonlite::Value metrics =
      obs::jsonlite::parse(slurp(metrics_path));
  std::optional<obs::jsonlite::Value> cost;
  if (!cost_path.empty()) {
    cost = obs::jsonlite::parse(slurp(cost_path));
  }
  const obs::PipelineReport rep = obs::analyze_pipeline(
      trace, metrics, cost ? &*cost : nullptr, ropts);
  if (out_path.empty()) {
    obs::write_pipeline_report(rep, out);
  } else {
    std::ofstream os(out_path);
    if (!os) {
      throw std::runtime_error("report: cannot open " + out_path);
    }
    obs::write_pipeline_report(rep, os);
    out << "wrote pipeline report to " << out_path << "\n";
  }
  return 0;
}

int cmd_report(Options& opt, std::ostream& out) {
  // --trace selects the pipeline-bottleneck mode; the original cohort
  // report (--in/--out) is unchanged.
  if (!opt.str("trace", "").empty()) {
    return cmd_report_pipeline(opt, out);
  }
  const std::string in = opt.require("in");
  const std::string out_path = opt.require("out");
  const std::string format = opt.str("format", "auto");
  const std::string device = opt.str("device", "titanv");
  const std::string cases_spec = opt.str("cases", "");
  opt.reject_unknown();
  const auto ds = load_dataset(in, format);

  std::ofstream os(out_path);
  if (!os) {
    throw std::runtime_error("report: cannot open " + out_path);
  }
  os << "# snpcmp cohort report\n\n"
     << "Input: `" << in << "` — " << ds.loci.size() << " loci x "
     << ds.samples.size() << " samples";
  if (ds.missing_calls > 0) {
    os << " (" << ds.missing_calls << " missing calls)";
  }
  os << "\n\n## Quality control\n\n";
  const auto qc = stats::qc_report(ds.genotypes, ds.missing_per_locus);
  std::size_t pass = 0, low_maf = 0, missing = 0, hwe = 0;
  double mean_maf = 0.0, mean_het = 0.0;
  for (const auto& q : qc) {
    pass += q.pass() ? 1u : 0u;
    low_maf += (q.flags & stats::kQcLowMaf) ? 1u : 0u;
    missing += (q.flags & stats::kQcHighMissing) ? 1u : 0u;
    hwe += (q.flags & stats::kQcHweViolation) ? 1u : 0u;
    mean_maf += q.maf;
    mean_het += q.het_observed;
  }
  os << "| metric | value |\n|---|---|\n"
     << "| passing loci | " << pass << " / " << qc.size() << " |\n"
     << "| low MAF | " << low_maf << " |\n"
     << "| high missingness | " << missing << " |\n"
     << "| HWE violations | " << hwe << " |\n"
     << "| mean MAF | " << mean_maf / static_cast<double>(qc.size())
     << " |\n"
     << "| mean heterozygosity | "
     << mean_het / static_cast<double>(qc.size()) << " |\n";

  os << "\n## Relatedness (KING-robust)\n\n";
  const auto kin = stats::kinship_matrix(ds.genotypes);
  const std::size_t n = ds.samples.size();
  std::size_t related = 0;
  double max_phi = -1.0;
  std::size_t max_i = 0, max_j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto& r = kin[i * n + j];
      related +=
          r.relationship != stats::Relationship::kUnrelated ? 1u : 0u;
      if (r.phi > max_phi) {
        max_phi = r.phi;
        max_i = i;
        max_j = j;
      }
    }
  }
  os << related << " related pair(s); closest: " << ds.samples[max_i]
     << " x " << ds.samples[max_j] << " (phi=" << max_phi << ", "
     << stats::to_string(stats::classify_kinship(max_phi)) << ")\n";

  if (!cases_spec.empty()) {
    os << "\n## Association (Cochran-Armitage trend)\n\n";
    std::vector<bool> is_case(n, false);
    std::istringstream cs(cases_spec);
    std::string token;
    while (std::getline(cs, token, ',')) {
      const auto it =
          std::find(ds.samples.begin(), ds.samples.end(), token);
      if (it == ds.samples.end()) {
        throw std::invalid_argument("report: unknown case '" + token +
                                    "'");
      }
      is_case[static_cast<std::size_t>(it - ds.samples.begin())] = true;
    }
    const auto assoc = stats::gwas_scan(ds.genotypes, is_case);
    std::vector<std::size_t> order(assoc.size());
    for (std::size_t l = 0; l < order.size(); ++l) {
      order[l] = l;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return assoc[a].p_trend < assoc[b].p_trend;
              });
    os << "| locus | p (trend) | OR |\n|---|---|---|\n";
    for (std::size_t k = 0; k < std::min<std::size_t>(5, order.size());
         ++k) {
      const std::size_t l = order[k];
      os << "| " << ds.loci[l].id << " | " << assoc[l].p_trend << " | "
         << assoc[l].odds_ratio << " |\n";
    }
  }

  os << "\n## Projected device performance\n\n";
  Context ctx = make_context(device);
  if (ctx.is_gpu()) {
    ComputeOptions copts;
    copts.functional = false;
    const auto t = ctx.estimate(ds.loci.size(), ds.loci.size(),
                                ds.samples.size(),
                                bits::Comparison::kAnd, copts);
    os << "All-pairs LD on " << t.device << ": kernel "
       << t.kernel_s * 1e3 << " ms, end-to-end " << t.end_to_end_s * 1e3
       << " ms (" << t.kernel_gops << " Gword-ops/s, " << t.pct_of_peak
       << "% of peak)\n";
    if (t.attainable_gops > 0.0) {
      obs::EfficiencySummary eff;
      eff.achieved_gops = t.kernel_gops;
      eff.attainable_gops = t.attainable_gops;
      eff.peak_gops = t.pct_of_peak > 0.0
                          ? t.kernel_gops * 100.0 / t.pct_of_peak
                          : 0.0;
      eff.memory_bound = t.memory_bound;
      os << "\nRoofline: " << eff.to_line() << "\n";
    }
  }

  // Process-wide telemetry accumulated while building this report (io
  // loads, model estimates, any pool activity) — the `report` summary
  // view of the src/obs registry.
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().snapshot();
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    os << "\n## Telemetry\n\n| metric | value |\n|---|---|\n";
    for (const auto& [name, value] : snap.counters) {
      os << "| " << name << " | " << value << " |\n";
    }
    for (const auto& [name, value] : snap.gauges) {
      os << "| " << name << " (gauge) | " << value << " |\n";
    }
  }
  out << "wrote report to " << out_path << "\n";
  return 0;
}

int cmd_kernel_src(Options& opt, std::ostream& out) {
  const std::string device = opt.str("device", "titanv");
  const std::string workload = opt.str("workload", "ld");
  const auto op = parse_op(opt.str("op", workload == "ld" ? "and" : "xor"));
  const bool pre_negate = opt.str("pre-negate", "no") == "yes";
  const std::string out_path = opt.str("out", "");
  opt.reject_unknown();
  const auto dev = model::gpu_by_name(device);
  auto cfg = model::paper_preset(
      dev, workload == "ld" ? model::WorkloadKind::kLd
                            : model::WorkloadKind::kFastId);
  cfg.pre_negated = pre_negate && op == bits::Comparison::kAndNot;
  const std::string program = kern::render_program(dev, cfg, op);
  if (out_path.empty()) {
    out << program;
  } else {
    std::ofstream os(out_path);
    if (!os) {
      throw std::runtime_error("cannot open " + out_path);
    }
    os << program;
    out << "wrote OpenCL program (" << program.size() << " bytes) to "
        << out_path << "\n";
  }
  return 0;
}

/// `snpcmp lint`: the src/analyze static analyzer as a CLI verb. With no
/// overrides it checks the Table II preset for --device/--workload; the
/// --m-r/--m-c/--k-c/--n-r/--grid-m/--grid-n overrides let CI and tests
/// probe deliberately corrupted configs, --lds-words/--k-iters probe a
/// specific launch shape (allocation and trip count) against the dataflow
/// proofs, and --soak N runs the analyzer's own mutation soundness soak
/// (N seeds per corpus cell). Exit 0 = clean (warn/info allowed), 3 = at
/// least one error-severity diagnostic (or any soak failure); 1/2 keep
/// their usual usage/runtime meanings.
int cmd_lint(Options& opt, std::ostream& out) {
  const auto soak_seeds = static_cast<int>(opt.num("soak", 0));
  if (soak_seeds > 0) {
    opt.reject_unknown();
    const auto stats = analyze::mutation_soak(soak_seeds);
    out << "soak: " << stats.programs << " corpus program(s), "
        << stats.mutants << " mutant(s), " << stats.skipped
        << " inapplicable, " << stats.failures.size() << " failure(s)\n";
    for (const auto& f : stats.failures) {
      out << "soak failure: " << f << "\n";
    }
    return stats.failures.empty() ? 0 : 3;
  }
  const std::string device = opt.str("device", "titanv");
  const std::string workload = opt.str("workload", "ld");
  if (workload != "ld" && workload != "fastid") {
    throw std::invalid_argument("--workload must be ld or fastid");
  }
  const auto kind = workload == "ld" ? model::WorkloadKind::kLd
                                     : model::WorkloadKind::kFastId;
  const auto op = parse_op(opt.str("op", workload == "ld" ? "and" : "xor"));
  const bool pre_negate = opt.str("pre-negate", "no") == "yes";
  const std::string format = opt.str("format", "text");
  if (format != "text" && format != "json") {
    throw std::invalid_argument("--format must be text or json");
  }
  const auto dev = model::gpu_by_name(device);
  auto cfg = model::paper_preset(dev, kind);
  cfg.pre_negated = pre_negate && op == bits::Comparison::kAndNot;
  cfg.m_r = static_cast<int>(
      opt.num("m-r", static_cast<std::uint64_t>(cfg.m_r)));
  cfg.m_c = static_cast<int>(
      opt.num("m-c", static_cast<std::uint64_t>(cfg.m_c)));
  cfg.k_c = static_cast<int>(
      opt.num("k-c", static_cast<std::uint64_t>(cfg.k_c)));
  cfg.n_r = static_cast<int>(
      opt.num("n-r", static_cast<std::uint64_t>(cfg.n_r)));
  cfg.grid.grid_m = static_cast<int>(
      opt.num("grid-m", static_cast<std::uint64_t>(cfg.grid.grid_m)));
  cfg.grid.grid_n = static_cast<int>(
      opt.num("grid-n", static_cast<std::uint64_t>(cfg.grid.grid_n)));
  analyze::AnalyzeOptions aopts;
  aopts.k_iterations = opt.num("k-iters", aopts.k_iterations);
  aopts.lds_words = static_cast<int>(opt.num("lds-words", 0));
  opt.reject_unknown();

  const analyze::Report report = analyze::analyze(dev, cfg, op, aopts);
  const auto errors = report.count(analyze::Severity::kError);
  const auto warns = report.count(analyze::Severity::kWarn);
  const auto infos = report.count(analyze::Severity::kInfo);
  if (format == "json") {
    out << "{\"device\": \"" << obs::json_escape(dev.name)
        << "\", \"workload\": \"" << workload << "\", \"op\": \""
        << to_string(op) << "\", \"config\": \""
        << obs::json_escape(cfg.to_string()) << "\", \"errors\": "
        << errors << ", \"warnings\": " << warns << ", \"infos\": "
        << infos << ", \"diagnostics\": ";
    report.write_json(out);
    out << "}\n";
  } else {
    out << "lint: " << dev.name << " " << workload << " " << to_string(op)
        << " " << cfg.to_string() << "\n";
    report.write_text(out);
    out << errors << " error(s), " << warns << " warning(s), " << infos
        << " info(s)\n";
  }
  return report.has_errors() ? 3 : 0;
}

int cmd_estimate(Options& opt, std::ostream& out) {
  const std::size_t m = opt.num("m", 32);
  const std::size_t n = opt.num("n", 20'000'000);
  const std::size_t k_bits = opt.num("kbits", 1024);
  const auto op = parse_op(opt.str("op", "xor"));
  const std::string device = opt.str("device", "titanv");
  const bool no_init = opt.str("no-init", "no") == "yes";
  const std::string trace_path = opt.str("trace", "");
  const Telemetry tele(opt);
  opt.reject_unknown();
  tele.begin();
  Context ctx = make_context(device);
  ComputeOptions copts;
  copts.functional = false;
  copts.include_init = !no_init;
  sim::Timeline timeline;
  const bool want_timeline = !trace_path.empty() || tele.wants_trace();
  if (want_timeline) {
    copts.timeline_out = &timeline;
  }
  const auto t = ctx.estimate(m, n, k_bits, op, copts);
  out << "projected " << m << " x " << n << " x " << k_bits << " bits ("
      << to_string(op) << ")\n";
  print_timing(out, t);
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      throw std::runtime_error("cannot open trace file " + trace_path);
    }
    sim::write_chrome_trace(timeline, os, t.device);
    out << "wrote chrome://tracing timeline to " << trace_path << "\n";
  }
  tele.finish(out, want_timeline && ctx.is_gpu() ? &timeline : nullptr, {},
              t.device, t.trace_anchor_us);
  return 0;
}

// ---- serve / submit: the ServiceEngine front-end (docs/service.md) ----

/// FNV-1a over a gamma row — a stable per-request digest, so golden CLI
/// tests can pin result identity without printing thousands of counts.
std::string row_digest(std::span<const std::uint32_t> row) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t v : row) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Minimal field extractors for the request-script JSONL lines — the
/// grammar is three fixed keys, not general JSON (docs/service.md).
std::optional<std::string> json_field(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = line.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  ++pos;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size()) return std::nullopt;
  if (line[pos] == '"') {
    const auto end = line.find('"', pos + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(pos + 1, end - pos - 1);
  }
  std::size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ' ') {
    ++end;
  }
  return line.substr(pos, end - pos);
}

std::optional<std::uint64_t> json_num(const std::string& line,
                                      const std::string& key) {
  const auto text = json_field(line, key);
  if (!text) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text->data(), text->data() + text->size(), v);
  if (ec != std::errc{} || ptr != text->data() + text->size()) {
    throw std::invalid_argument("script: '" + key +
                                "' expects an integer, got '" + *text + "'");
  }
  return v;
}

/// Signed-double variant for keys like "deadline_ms", where a negative
/// value means "already expired at submission" (docs/service.md).
std::optional<double> json_real(const std::string& line,
                                const std::string& key) {
  const auto text = json_field(line, key);
  if (!text) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const double v = std::stod(*text, &consumed);
    if (consumed != text->size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("script: '" + key +
                                "' expects a number, got '" + *text + "'");
  }
}

svc::ServiceConfig parse_service_config(Options& opt) {
  svc::ServiceConfig cfg;
  cfg.device = opt.str("device", "titanv");
  cfg.op = parse_op(opt.str("op", "xor"));
  cfg.pre_negate = opt.str("pre-negate", "no") == "yes";
  cfg.max_batch_rows = opt.num("max-batch", 32);
  cfg.coalesce_window_s = opt.real("window-ms", 0.0) / 1e3;
  cfg.max_queue = opt.num("max-queue", 256);
  cfg.cache_capacity = opt.num("cache", 1024);
  const std::string admission = opt.str("admission", "reject");
  const auto policy = svc::parse_admission_policy(admission);
  if (!policy) {
    throw std::invalid_argument("--admission must be reject or block");
  }
  cfg.admission = *policy;
  // Latency SLO: --slo-ms arms the burn-rate monitor (docs/observability
  // .md); a breach dumps the flight recorder to the --flight-out /
  // $SNPCMP_FLIGHT_OUT destination.
  cfg.slo.objective_s = opt.real("slo-ms", 0.0) / 1e3;
  // Request-lifecycle robustness knobs (docs/robustness.md): a per-device
  // circuit breaker ahead of the recovery ladder, a per-class retry token
  // bucket, and the brown-out shed ceiling used when the SLO trips.
  cfg.breaker.failure_threshold = static_cast<int>(opt.num("breaker", 0));
  cfg.retry_budget = opt.real("retry-budget", 0.0);
  cfg.brownout_class_max =
      static_cast<int>(opt.num("brownout-class", 0));
  // Script-driven runs gate batch formation on barriers, so batch ids and
  // widths are a pure function of the script — CI-golden by construction.
  cfg.start_paused = true;
  return cfg;
}

/// One scripted request's outcome slot, resolved after the final barrier.
struct ScriptedRequest {
  std::future<svc::QueryResult> fut;
  std::string shed_code;        ///< non-empty: rejected at admission
  std::uint64_t trace_id = 0;   ///< allocated by submit() even for sheds
};

/// The deterministic "service:" report block (golden in test_service_cli)
/// plus the wall-clock "slo:" line, which goldens must not match on.
void print_service_report(std::ostream& out, const svc::ServiceEngine& eng) {
  const svc::ServiceStats s = eng.stats();
  const svc::ServiceConfig& cfg = eng.config();
  out << "service:     device=" << cfg.device << " op=" << to_string(cfg.op)
      << " pre-negate=" << (cfg.pre_negate ? "yes" : "no") << "\n"
      << "service:     requests=" << s.submitted << " completed="
      << s.completed << " failed=" << s.failed << " rejected=" << s.rejected
      << "\n"
      << "service:     batches=" << s.batches << " mean-width="
      << s.mean_batch_rows << " max-width=" << s.max_batch_rows << "\n"
      << "service:     cache hits=" << s.cache_hits << " misses="
      << s.cache_misses << "\n"
      << "service:     queue peak=" << s.peak_queue_depth << " epoch="
      << s.epoch << "\n";
  if (s.fault_events > 0 || s.degraded_batches > 0) {
    out << "service:     faults=" << s.fault_events << " degraded-batches="
        << s.degraded_batches << "\n";
  }
  // Deadline outcomes (docs/robustness.md): sheds never reached a kernel
  // launch; expired means the result was delivered late or the batch was
  // cancelled mid-pipeline. Silent when no request carried a deadline, so
  // legacy goldens are unaffected.
  if (s.deadline_shed > 0 || s.deadline_expired > 0 || s.deadline_met > 0) {
    out << "deadlines:   met=" << s.deadline_met << " expired="
        << s.deadline_expired << " shed=" << s.deadline_shed << "\n";
  }
  if (s.brownout_entries > 0 || s.brownout_shed > 0) {
    out << "brownout:    entries=" << s.brownout_entries << " shed="
        << s.brownout_shed
        << (s.brownout_active ? " active=yes" : " active=no") << "\n";
  }
  // Honest percentiles: the SLO monitor's histogram gives bucket upper
  // bounds, marked '~=' (docs/observability.md). Silent until a request
  // has completed.
  const svc::SloReport slo = eng.slo();
  if (slo.state.total > 0) {
    out << "slo:         p50~=" << slo.p50_le_s * 1e3 << " ms p99~="
        << slo.p99_le_s * 1e3 << " ms max=" << s.max_latency_s * 1e3
        << " ms (bucket upper bounds)\n";
  }
  if (slo.objective_s > 0.0) {
    out << "slo:         objective=" << slo.objective_s * 1e3
        << " ms breaches=" << slo.state.breaches << "/" << slo.state.total
        << " burn fast=" << slo.state.burn_fast << " slow="
        << slo.state.burn_slow << " trips=" << slo.state.trips << "\n";
    if (slo.worst.has_value()) {
      out << "slo:         exemplar trace=" << slo.worst->trace_id
          << " latency=" << slo.worst->latency_s * 1e3 << " ms\n";
    }
  }
}

/// The deterministic "cost:" report block: ledger totals over the run.
/// Counts and bytes/word-ops are pure functions of a scripted workload
/// (CI-golden); attributed times are kept off these lines because the
/// degrade rung adds measured wall clock to them. Silent when the ledger
/// is empty (SNPCMP_OBS=OFF or attribution disabled).
void print_cost_report(std::ostream& out, const svc::ServiceEngine& eng) {
  const obs::CostSnapshot cs = eng.cost();
  if (cs.total_requests == 0) {
    return;
  }
  out << "cost:        requests=" << cs.total_requests << " cache-hits="
      << cs.cache_hits << " batches=" << cs.total_batches << " dropped="
      << cs.dropped_requests << "\n"
      << "cost:        h2d=" << cs.h2d_bytes << " B d2h=" << cs.d2h_bytes
      << " B wordops=" << cs.wordops << "\n";
  if (cs.retries > 0 || cs.failovers > 0 || cs.degraded_batches > 0) {
    out << "cost:        retries=" << cs.retries << " failovers="
        << cs.failovers << " degraded-batches=" << cs.degraded_batches
        << "\n";
  }
}

/// Shared `--cost-out F.json` handling for serve/submit: writes the
/// engine ledger's deterministic JSON document after the report blocks.
void write_cost_out(std::ostream& out, const svc::ServiceEngine& eng,
                    const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open cost file " + path);
  }
  eng.write_cost_json(os);
  out << "wrote cost ledger (" << eng.cost().total_requests
      << " requests) to " << path << "\n";
}

/// Resolves every scripted request in submission order, prints its stable
/// per-request line, and returns the first batch failure (the CLI rethrows
/// it after the report so the SNPRT-* exit-4 contract holds end to end).
std::exception_ptr print_request_lines(std::ostream& out,
                                       std::vector<ScriptedRequest>& reqs) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out << "req " << i << ": ";
    // Every line ends with the request's trace id — the handle into the
    // merged Perfetto trace and the flight-recorder dump.
    if (!reqs[i].shed_code.empty()) {
      out << "rejected [" << reqs[i].shed_code << "] trace="
          << reqs[i].trace_id << "\n";
      continue;
    }
    try {
      const svc::QueryResult r = reqs[i].fut.get();
      if (r.cache_hit) {
        out << "cache-hit epoch=" << r.epoch;
      } else {
        out << "batch=" << r.batch_id << " width=" << r.batch_rows
            << " epoch=" << r.epoch;
      }
      if (r.degraded) {
        out << " degraded";
      }
      out << " digest=" << row_digest(r.row) << " trace=" << r.trace_id
          << "\n";
    } catch (const rt::Error& e) {
      out << "error [" << rt::code_name(e.code()) << "] trace="
          << reqs[i].trace_id << "\n";
      if (!first_error) first_error = std::current_exception();
    } catch (const std::exception&) {
      out << "error trace=" << reqs[i].trace_id << "\n";
      if (!first_error) first_error = std::current_exception();
    }
  }
  return first_error;
}

/// Submits query row `q`, mapping an admission shed to a printed line
/// instead of a fatal error (the service kept running — that is the point
/// of a shed policy). Overload and expired-deadline sheds both stay
/// non-fatal; every other admission error is a real bug and propagates.
void submit_one(svc::ServiceEngine& engine, const bits::BitMatrix& queries,
                std::size_t q, const svc::SubmitOptions& base,
                std::vector<ScriptedRequest>& reqs) {
  ScriptedRequest slot;
  svc::SubmitOptions options = base;
  options.trace_out = &slot.trace_id;
  try {
    slot.fut = engine.submit(queries.row_slice(q, q + 1), options);
  } catch (const rt::Error& e) {
    if (e.code() != rt::ErrorCode::kOverload &&
        e.code() != rt::ErrorCode::kDeadline) {
      throw;
    }
    slot.shed_code = rt::code_name(e.code());
  }
  reqs.push_back(std::move(slot));
}

/// `snpcmp serve`: drive a ServiceEngine from a JSONL request script.
/// Lines: {"submit": Q [, "policy": "...", "count": N, "deadline_ms": X,
/// "class": C]} enqueues query row Q; {"barrier": true} releases the
/// backlog and waits for it (resume -> drain -> pause), closing the
/// current coalescing generation; {"epoch": "FILE.sbm"} swaps the
/// resident database. '#' and blank lines are skipped; a final barrier
/// is implicit.
int cmd_serve(Options& opt, std::ostream& out) {
  const std::string dbpath = opt.require("db");
  const std::string qpath = opt.require("queries");
  const std::string script_path = opt.require("script");
  const std::string cost_path = opt.str("cost-out", "");
  svc::ServiceConfig cfg = parse_service_config(opt);
  const Telemetry tele(opt);
  FaultControl faults(opt);
  opt.reject_unknown();
  tele.begin();
  // Reuse the shared fault flags: the armed plan spans the engine's whole
  // lifetime, and the recovery policy becomes the engine default.
  ComputeOptions proto;
  faults.apply(proto);
  cfg.recovery = proto.recovery;

  const auto queries = io::load_bitmatrix(std::filesystem::path(qpath));
  svc::ServiceEngine engine(
      io::load_bitmatrix(std::filesystem::path(dbpath)), cfg);

  std::ifstream script(script_path);
  if (!script) {
    throw std::invalid_argument("serve: cannot open --script " +
                                script_path);
  }
  std::vector<ScriptedRequest> reqs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(script, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      if (json_field(line, "barrier")) {
        engine.resume();
        engine.drain();
        engine.pause();
      } else if (const auto path = json_field(line, "epoch")) {
        engine.update_database(
            io::load_bitmatrix(std::filesystem::path(*path)));
      } else if (const auto q = json_num(line, "submit")) {
        if (*q >= queries.rows()) {
          throw std::invalid_argument("query row out of range");
        }
        svc::SubmitOptions options;
        if (const auto policy_text = json_field(line, "policy")) {
          const auto policy = rt::parse_fail_policy(*policy_text);
          if (!policy) {
            throw std::invalid_argument("bad policy '" + *policy_text +
                                        "'");
          }
          options.recovery = cfg.recovery;
          options.recovery->policy = *policy;
        }
        options.deadline_ms = json_real(line, "deadline_ms").value_or(0.0);
        options.request_class = static_cast<int>(
            json_num(line, "class").value_or(1));
        const std::uint64_t count = json_num(line, "count").value_or(1);
        for (std::uint64_t c = 0; c < count; ++c) {
          submit_one(engine, queries, *q, options, reqs);
        }
      } else {
        throw std::invalid_argument(
            "expected \"submit\", \"barrier\" or \"epoch\"");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("serve: " + script_path + ":" +
                                  std::to_string(lineno) + ": " + e.what());
    }
  }
  engine.resume();
  engine.drain();

  const std::exception_ptr first_error = print_request_lines(out, reqs);
  print_service_report(out, engine);
  print_cost_report(out, engine);
  write_cost_out(out, engine, cost_path);
  tele.finish(out, nullptr, {}, cfg.device);
  if (first_error) std::rethrow_exception(first_error);
  return 0;
}

/// `snpcmp submit`: one-shot convenience — every row of --queries becomes
/// one request, coalesced under --max-batch. Equivalent to a script of N
/// submit lines and one barrier.
int cmd_submit(Options& opt, std::ostream& out) {
  const std::string dbpath = opt.require("db");
  const std::string qpath = opt.require("queries");
  const std::string cost_path = opt.str("cost-out", "");
  svc::ServiceConfig cfg = parse_service_config(opt);
  svc::SubmitOptions options;
  options.deadline_ms = opt.real("deadline-ms", 0.0);
  options.request_class = static_cast<int>(opt.num("class", 1));
  const Telemetry tele(opt);
  FaultControl faults(opt);
  opt.reject_unknown();
  tele.begin();
  ComputeOptions proto;
  faults.apply(proto);
  cfg.recovery = proto.recovery;

  const auto queries = io::load_bitmatrix(std::filesystem::path(qpath));
  svc::ServiceEngine engine(
      io::load_bitmatrix(std::filesystem::path(dbpath)), cfg);
  std::vector<ScriptedRequest> reqs;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    submit_one(engine, queries, q, options, reqs);
  }
  engine.resume();
  engine.drain();

  const std::exception_ptr first_error = print_request_lines(out, reqs);
  print_service_report(out, engine);
  print_cost_report(out, engine);
  write_cost_out(out, engine, cost_path);
  tele.finish(out, nullptr, {}, cfg.device);
  if (first_error) std::rethrow_exception(first_error);
  return 0;
}

}  // namespace

std::string usage() {
  return R"(usage: snpcmp <command> [--option value ...]

commands:
  devices                       list available (simulated) devices
  env       [--format text|json]
                                benchmark environment fingerprint (CPU,
                                governor, compiler, git sha, perf-counter
                                availability)
  gen       --out F             generate a genotype cohort
            [--loci N] [--samples N] [--seed S] [--ld-block N]
            [--maf-min X] [--maf-max X] [--format plink|vcf|tsv]
  gendb     --out F             generate a forensic profile database (.sbm)
            [--profiles N] [--snps N] [--seed S] [--maf-min X] [--maf-max X]
  encode    --in F --out F      pack genotypes into bit vectors
            [--plane presence|hom] [--format auto|plink|vcf]
  kinship   --in F              KING-robust relatedness over a cohort
            [--top K] [--format auto|plink|vcf]
  qc        --in F              per-locus QC (MAF, missingness, HWE)
            [--min-maf X] [--max-missing X] [--min-hwe-p X]
            [--ld-prune-r2 X [--ld-prune-window N]]
            [--out F: write passing loci] [--format auto|plink|vcf]
  assoc     --in F               case-control GWAS scan (trend + allelic)
            --cases L | --pheno F  (L = comma-separated names/indices;
            pheno file = "sample<TAB>0|1|case|control" lines)
            [--top K] [--format auto|plink|vcf]
  cluster   --in F               UPGMA population structure (+ Fst at k=2)
            [--k N] [--device D] [--format auto|plink|vcf]
  ld        --in F.sbm          linkage disequilibrium (Eq. 1)
            [--device D] [--out gamma.scm] [--top K] [telemetry flags]
  search    --queries F --db F  FastID identity search (Eq. 2)
            [--device D] [--top K] [--host-trace F.json]
            [--lds-words N: launch-time LDS allocation the pre-launch
            verifier proves the kernel against; blocked with exit 3 if
            too small] [telemetry flags]
  mixture   --profiles F --mixtures F   FastID mixture analysis (Eq. 3)
            [--device D] [--tolerance T] [--pre-negate yes|no]
            [telemetry flags]
  merge     --a F --b F --out F [--axis samples|loci]
            combine genotyping batches (samples) or marker panels (loci)
  subset    --in F --out F [--samples n1,n2,...] [--loci a-b | i,j,...]
            extract a sample/locus subset
  kernel-src [--device D] [--workload ld|fastid] [--op and|xor|andnot]
            [--pre-negate yes|no] [--out F.cl]
            render the parameterized OpenCL kernel for a device
  lint      [--device D] [--workload ld|fastid] [--op and|xor|andnot]
            [--pre-negate yes|no] [--format text|json]
            [--m-r N] [--m-c N] [--k-c N] [--n-r N] [--grid-m N] [--grid-n N]
            [--lds-words N] [--k-iters N] [--soak N]
            static analysis of the kernel config, instruction IR
            (dataflow race/bounds/overflow proofs), and rendered OpenCL
            source (docs/static-analysis.md); --lds-words/--k-iters probe
            an explicit launch shape, --soak N runs the mutation
            soundness soak with N seeds per corpus cell; exit 3 when
            error-severity diagnostics (or soak failures) are present
  report    --in F --out R.md   markdown cohort report (QC + kinship +
            optional association + projected device performance)
            [--cases L] [--device D] [--format auto|plink|vcf]
  report    --trace T.json --metrics M.json
            pipeline bottleneck analysis over a run's telemetry
            artifacts: per-stage utilization, overlap and coalescing
            efficiency, queue-wait decomposition, Little's-law
            consistency check, top-N most expensive requests
            [--cost C.json: cost ledger for the top-N section]
            [--top N] [--littles-tol X] [--out R.txt]
  estimate  [--m N] [--n N] [--kbits N] [--op and|xor|andnot]
            [--device D] [--no-init yes|no] [--trace F.json]
            [telemetry flags]
            paper-scale projection (+ chrome://tracing timeline)
  serve     --db F.sbm --queries F.sbm --script R.jsonl
            script-driven resident-DB query service (docs/service.md);
            script lines: {"submit": Q[, "policy": P, "count": N,
            "deadline_ms": X, "class": C]}, {"barrier": true},
            {"epoch": "F.sbm"}; deadline_ms sets the request's
            end-to-end deadline (negative = already expired; shed at
            admission with SNPRT-DEADLINE), class its brown-out shed
            priority (lowest sheds first)
            [--device D] [--op and|xor|andnot] [--pre-negate yes|no]
            [--max-batch N] [--window-ms X] [--max-queue N]
            [--admission reject|block] [--cache N]
            [--slo-ms X: latency objective for the burn-rate monitor;
            a breach dumps the flight recorder and, with
            --brownout-class, starts shedding low classes]
            [--breaker N: open the per-device circuit breaker after N
            consecutive device failures (docs/robustness.md)]
            [--retry-budget X: per-class retry token bucket capacity;
            an empty bucket fast-fails instead of retrying]
            [--brownout-class C: during brown-out, shed classes <= C]
            [--cost-out F.json: per-request cost ledger (exact batch-
            cost shares by gamma-row ownership; docs/observability.md)]
            [fault-tolerance flags] [telemetry flags]
  submit    --db F.sbm --queries F.sbm
            one-shot service submission: every query row becomes one
            request, coalesced under --max-batch (same options as
            serve, plus [--deadline-ms X] [--class C] applied to every
            request)

fault-tolerance flags (ld, search, mixture, serve, submit;
docs/robustness.md):
  --fail-policy abort|retry|failover|degrade
                                recovery policy for device faults
                                (default retry; degrade falls back to the
                                host engine with bit-identical results)
  --inject-faults SPEC          deterministic fault plan, e.g.
                                "launch:p=0.05:seed=7" or "h2d:after=3"
                                (sites: alloc h2d launch readback pool io
                                shard timeout; also via SNPCMP_FAULTS);
                                unrecovered faults exit 4 with the stable
                                SNPRT-* code on stderr

telemetry flags (ld, search, mixture, estimate, serve, submit):
  --metrics-out F.json          dump the process metrics registry
  --metrics-format json|prom    metrics dump format (default json)
  --trace-out F.json            merged Perfetto/chrome://tracing trace:
                                host spans + chunk pipeline + simulated
                                device timeline in one file, with flow
                                arrows linking each service request's
                                submit -> batch -> chunks -> resolution
  --flight-out F.json           dump the always-on flight recorder (ring
                                of enqueue/batch/chunk/fault events) at
                                exit; also the destination for automatic
                                dumps on exit-4 faults and SLO breaches
                                (env fallback: SNPCMP_FLIGHT_OUT)
  --perf                        wrap the run in hardware perf counters
                                (Linux perf_event_open) and print IPC and
                                cache/branch miss rates; degrades to a
                                note where counters are unavailable

devices: cpu, gtx980, titanv, vega64
)";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 1 : 0;
  }
  // In-process callers (tests, batch drivers) run many commands through
  // this entry point: a previous command's --flight-out must not become
  // this command's automatic fault-dump destination.
  obs::FlightRecorder::global().set_dump_path("");
  try {
    const std::string& cmd = args[0];
    if (cmd == "devices") {
      return cmd_devices(out);
    }
    Options opt(args, 1);
    if (cmd == "env") {
      return cmd_env(opt, out);
    }
    if (cmd == "gen") {
      return cmd_gen(opt, out);
    }
    if (cmd == "gendb") {
      return cmd_gendb(opt, out);
    }
    if (cmd == "encode") {
      return cmd_encode(opt, out);
    }
    if (cmd == "ld") {
      return cmd_ld(opt, out);
    }
    if (cmd == "search") {
      return cmd_search(opt, out);
    }
    if (cmd == "mixture") {
      return cmd_mixture(opt, out);
    }
    if (cmd == "kinship") {
      return cmd_kinship(opt, out);
    }
    if (cmd == "qc") {
      return cmd_qc(opt, out);
    }
    if (cmd == "assoc") {
      return cmd_assoc(opt, out);
    }
    if (cmd == "cluster") {
      return cmd_cluster(opt, out);
    }
    if (cmd == "kernel-src") {
      return cmd_kernel_src(opt, out);
    }
    if (cmd == "lint") {
      return cmd_lint(opt, out);
    }
    if (cmd == "merge") {
      return cmd_merge(opt, out);
    }
    if (cmd == "subset") {
      return cmd_subset(opt, out);
    }
    if (cmd == "report") {
      return cmd_report(opt, out);
    }
    if (cmd == "estimate") {
      return cmd_estimate(opt, out);
    }
    if (cmd == "serve") {
      return cmd_serve(opt, out);
    }
    if (cmd == "submit") {
      return cmd_submit(opt, out);
    }
    err << "unknown command '" << cmd << "'\n" << usage();
    return 1;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << "\n" << usage();
    return 1;
  } catch (const analyze::VerificationError& e) {
    // Pre-launch verification failure: the dataflow engine proved the
    // configured kernel unsafe, so nothing launched. The stable check ID
    // is the first stderr token (same contract as SNPRT-* faults) and
    // the exit code matches `snpcmp lint`'s error exit.
    err << e.check_id() << " " << e.what() << "\n";
    return 3;
  } catch (const rt::Error& e) {
    // Structured runtime failure (exhausted retries under --fail-policy
    // abort/retry, unrecoverable corruption, ...): the stable SNPRT-*
    // code is the first token so scripts can match on it. The flight
    // recorder is dumped after the error line (stderr contract: the code
    // stays first) to --flight-out / $SNPCMP_FLIGHT_OUT when configured.
    err << "error: " << e.what() << "\n";
    const std::string dumped = obs::FlightRecorder::global().auto_dump(
        "fault: " + std::string(rt::code_name(e.code())));
    if (!dumped.empty()) {
      err << "flight: wrote " << dumped << "\n";
    }
    return 4;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace snp::cli
