#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "analyze/analyzer.hpp"
#include "analyze/mutate.hpp"
#include "bits/genotype.hpp"
#include "core/snpcmp.hpp"
#include "io/cohort_ops.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/plink_lite.hpp"
#include "io/vcf_lite.hpp"
#include "kern/opencl_source.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "rt/fault.hpp"
#include "rt/recovery.hpp"
#include "rt/status.hpp"
#include "sim/trace.hpp"
#include "stats/assoc.hpp"
#include "stats/cluster.hpp"
#include "stats/fst.hpp"
#include "stats/kinship.hpp"
#include "stats/ld.hpp"
#include "stats/ld_prune.hpp"
#include "stats/qc.hpp"
#include "svc/service.hpp"

namespace snp::cli {

namespace {

// ---- the verb table's types and the option parser -----------------------

/// What an option's value must be, checked before the verb's handler
/// runs: any text; an unsigned 64-bit integer (kUint), or one of at most
/// INT_MAX (kInt); a finite real; no value at all (kFlag); or one of the
/// '|'-separated values of the option's `arg` (kChoice).
enum class Kind : std::uint8_t { kText, kUint, kInt, kReal, kFlag, kChoice };

constexpr bool kRequired = true;

/// One `--name arg` option. Its usage line is `[--name arg]`, followed
/// by `help` where a group lists it.
struct Opt {
  std::string_view name;
  Kind kind = Kind::kText;
  std::string_view arg = {};  ///< metavariable, or a choice's values
  bool required = false;
  std::string_view help = {};
};

/// Options several verbs take whole: telemetry, fault tolerance, ...
struct Group {
  std::string_view title;
  std::vector<Opt> opts;
};

struct Call;

/// One row of the verb table. A verb with two modes has two rows: the
/// row with a `mode` comes first and runs when its mode option is given.
struct Verb {
  std::string_view name;
  std::string_view usage;  ///< what the verb does; '\n' continues it
  std::vector<Opt> opts;
  std::vector<const Group*> groups;
  int (*handler)(Call&, std::ostream&);
  std::string_view mode = {};

  [[nodiscard]] const Opt* find(std::string_view key) const {
    for (const Opt& o : opts) {
      if (o.name == key) return &o;
    }
    for (const Group* g : groups) {
      for (const Opt& o : g->opts) {
        if (o.name == key) return &o;
      }
    }
    return nullptr;
  }
};

/// A whole-token unsigned integer ("3x", "+3" and " 3" are not).
std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// A whole-token finite real number.
std::optional<double> parse_real(const std::string& s) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    return std::nullopt;  // no number, or out of double's range
  }
  if (pos != s.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// The `--key value` arguments of one verb row: every option known,
/// every value of its kind, every required option given.
class Options {
 public:
  Options(const Verb& verb, const std::vector<std::string>& args) {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (flag.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got '" + flag + "'");
      }
      const Opt* o = verb.find(std::string_view(flag).substr(2));
      if (o == nullptr) {
        throw std::invalid_argument("unknown option " + flag);
      }
      std::string& value = values_[std::string(o->name)];
      if (o->kind == Kind::kFlag) continue;
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for '" + flag + "'");
      }
      value = args[++i];
      check(flag, *o, value);
    }
    for (const Opt& o : verb.opts) {
      if (o.required && !has(o.name)) {
        throw std::invalid_argument("missing required --" +
                                    std::string(o.name));
      }
    }
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return values_.find(key) != values_.end();
  }
  [[nodiscard]] std::string text(std::string_view key,
                                 std::string_view fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::string(fallback) : it->second;
  }
  [[nodiscard]] std::uint64_t num(std::string_view key,
                                  std::uint64_t fallback) const {
    return has(key) ? parse_uint(text(key)).value() : fallback;
  }
  /// A Kind::kInt option, which always fits an int.
  [[nodiscard]] int int_num(std::string_view key, int fallback) const {
    return has(key) ? static_cast<int>(num(key, 0)) : fallback;
  }
  [[nodiscard]] double real(std::string_view key, double fallback) const {
    return has(key) ? parse_real(text(key)).value() : fallback;
  }
  /// A yes|no choice, no when absent.
  [[nodiscard]] bool yes(std::string_view key) const {
    return text(key) == "yes";
  }

 private:
  static void check(const std::string& flag, const Opt& o,
                    const std::string& v) {
    const bool is_int = o.kind == Kind::kInt;
    if (o.kind == Kind::kUint || is_int) {
      const auto n = parse_uint(v);
      if (!n || (is_int && *n > INT_MAX)) {
        throw std::invalid_argument(flag + " expects an integer" +
                                    (is_int ? " up to 2147483647" : "") +
                                    ", got '" + v + "'");
      }
    } else if (o.kind == Kind::kReal && !parse_real(v)) {
      throw std::invalid_argument(flag + " expects a number, got '" + v +
                                  "'");
    } else if (o.kind == Kind::kChoice) {
      std::string list;  // "a|b|c" reads "a, b or c"
      for (std::size_t start = 0, bar = 0; bar != std::string_view::npos;
           start = bar + 1) {
        bar = o.arg.find('|', start);
        const std::string_view choice = o.arg.substr(start, bar - start);
        if (choice == v) return;
        list += start == 0 ? "" : bar == v.npos ? " or " : ", ";
        list += choice;
      }
      throw std::invalid_argument(flag + " must be " + list);
    }
  }

  std::map<std::string, std::string, std::less<>> values_;
};

/// The telemetry flags: begin() arms the trace collector and the --perf
/// counters before the work, finish() prints the perf line and writes the
/// metrics, merged trace and flight dump after it. An unavailable PMU
/// degrades to a one-line note and never affects the results.
class Telemetry {
 public:
  explicit Telemetry(const Options& opt)
      : metrics_path_(opt.text("metrics-out")),
        trace_path_(opt.text("trace-out")),
        flight_path_(opt.text("flight-out")),
        format_(opt.text("metrics-format", "json")),
        perf_(opt.has("perf")) {}

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
      io::write_file(metrics_path_, [&](std::ostream& os) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        if (format_ == "prom") {
          obs::write_metrics_prometheus(snap, os);
        } else {
          obs::write_metrics_json(snap, os);
        }
      });
      out << "wrote metrics (" << format_ << ") to " << metrics_path_
          << "\n";
    }
    if (wants_trace()) {
      obs::TraceCollector& spans = obs::TraceCollector::global();
      spans.set_enabled(false);
      io::write_file(trace_path_, [&](std::ostream& os) {
        sim::write_merged_chrome_trace(spans, tl, chunks, os, device,
                                       host_anchor_us);
      });
      out << "wrote merged chrome trace (" << spans.size()
          << " host spans, " << chunks.size() << " pipeline chunks) to "
          << trace_path_ << "\n";
    }
    if (!flight_path_.empty()) {
      // On-demand dump for runs that finished cleanly; faulted runs are
      // dumped by the exit-4 path in run() instead.
      obs::FlightRecorder& fr = obs::FlightRecorder::global();
      if (!fr.dump_to_file(flight_path_, "on-demand")) {
        throw std::runtime_error("cannot write flight file " + flight_path_);
      }
      out << "wrote flight recording (" << fr.snapshot().size()
          << " events) to " << flight_path_ << "\n";
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

/// The fault-tolerance flags (docs/robustness.md). apply() sets the
/// recovery policy and arms the fault plan for this object's lifetime —
/// exactly the command, so in-process cli::run() calls never leak a plan.
class FaultControl {
 public:
  explicit FaultControl(const Options& opt)
      : policy_(rt::parse_fail_policy(opt.text("fail-policy"))) {
    const std::string spec = opt.text("inject-faults");
    try {
      if (!spec.empty()) plan_ = rt::FaultPlan::parse(spec);
    } catch (const rt::Error& e) {
      throw std::invalid_argument(e.status().message);
    }
  }

  void apply(ComputeOptions& copts) {
    if (policy_) copts.recovery.policy = *policy_;
    if (plan_) scoped_.emplace(*plan_);
  }

 private:
  std::optional<rt::FailPolicy> policy_;
  std::optional<rt::FaultPlan> plan_;
  std::optional<rt::ScopedFaultPlan> scoped_;
};

/// What a handler gets: its checked options and the groups read from
/// them (inert when the verb lacks the group).
struct Call {
  Call(const Verb& verb, const std::vector<std::string>& args)
      : opt(verb, args), tele(opt), faults(opt) {}
  Options opt;
  Telemetry tele;
  FaultControl faults;
};

// ---- shared helpers -----------------------------------------------------

bits::Comparison parse_op(const std::string& s) {
  if (s == "and" || s == "ld") return bits::Comparison::kAnd;
  if (s == "xor" || s == "identity") return bits::Comparison::kXor;
  if (s == "andnot" || s == "mixture") return bits::Comparison::kAndNot;
  throw std::invalid_argument("unknown op '" + s + "' (and|xor|andnot)");
}

Context make_context(const std::string& device) {
  return device == "cpu" ? Context::cpu() : Context::gpu(device);
}

/// The achieved-vs-model roofline efficiency (obs::EfficiencySummary);
/// the peak comes back from pct_of_peak = achieved / peak * 100.
std::string roofline(const TimingReport& t) {
  obs::EfficiencySummary eff;
  eff.achieved_gops = t.kernel_gops;
  eff.attainable_gops = t.attainable_gops;
  eff.peak_gops =
      t.pct_of_peak > 0.0 ? t.kernel_gops * 100.0 / t.pct_of_peak : 0.0;
  eff.memory_bound = t.memory_bound;
  return eff.to_line();
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
    out << "roofline:    " << roofline(t) << "\n";
  }
}

/// A comparison verb's timing block, then its telemetry outputs.
void finish_compare(Call& c, std::ostream& out, const TimingReport& t) {
  print_timing(out, t);
  c.tele.finish(out, nullptr, t.chunk_events, t.device, t.trace_anchor_us);
}

/// VCF by --format, or by a ".vcf" extension under --format auto.
bool is_vcf(const std::string& path, const std::string& format) {
  return format == "vcf" ||
         (format == "auto" && path.size() > 4 && path.ends_with(".vcf"));
}

io::PlinkLiteDataset load_dataset(const std::string& path,
                                  const std::string& format) {
  return is_vcf(path, format)
             ? io::load_vcf_lite(std::filesystem::path(path))
             : io::load_plink_lite(std::filesystem::path(path));
}

/// The cohort named by --in and --format.
io::PlinkLiteDataset input(const Options& opt) {
  return load_dataset(opt.text("in"), opt.text("format", "auto"));
}

/// The .sbm bit matrix named by option `key`.
bits::BitMatrix matrix(const Options& opt, std::string_view key) {
  return io::load_bitmatrix(std::filesystem::path(opt.text(key)));
}

void save_dataset(const io::PlinkLiteDataset& ds, const std::string& path,
                  const std::string& format) {
  if (is_vcf(path, format)) {
    io::save_vcf_lite(ds, std::filesystem::path(path));
  } else {
    io::save_plink_lite(ds, std::filesystem::path(path));
  }
}

/// Loci per QC flag, plus the MAF and heterozygosity sums.
struct QcTally {
  std::size_t pass = 0, low_maf = 0, missing = 0, hwe = 0;
  double maf_sum = 0.0, het_sum = 0.0;
};

QcTally tally(const std::vector<stats::LocusQc>& report) {
  QcTally t;
  for (const auto& q : report) {
    t.pass += q.pass() ? 1u : 0u;
    t.low_maf += (q.flags & stats::kQcLowMaf) ? 1u : 0u;
    t.missing += (q.flags & stats::kQcHighMissing) ? 1u : 0u;
    t.hwe += (q.flags & stats::kQcHweViolation) ? 1u : 0u;
    t.maf_sum += q.maf;
    t.het_sum += q.het_observed;
  }
  return t;
}

/// --cases: a comma-separated list of sample names or column indices.
std::vector<bool> case_mask(const std::string& spec,
                            const std::vector<std::string>& samples) {
  std::vector<bool> is_case(samples.size(), false);
  std::istringstream cs(spec);
  for (std::string token; std::getline(cs, token, ',');) {
    const auto it = std::find(samples.begin(), samples.end(), token);
    const auto idx = it != samples.end()
                         ? std::optional<std::uint64_t>(it - samples.begin())
                         : parse_uint(token);
    if (!idx || *idx >= samples.size()) {
      throw std::invalid_argument("--cases entry '" + token +
                                  "' is neither a sample name nor index");
    }
    is_case[*idx] = true;
  }
  return is_case;
}

/// Locus indices by ascending trend-test p-value.
std::vector<std::size_t> by_p_value(
    const std::vector<stats::AssocResult>& results) {
  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return results[a].p_trend < results[b].p_trend;
  });
  return order;
}

/// The Table II kernel that --device/--workload/--op/--pre-negate name.
struct Kernel {
  std::string workload;
  bits::Comparison op;
  model::GpuSpec dev;
  model::KernelConfig cfg;
};

Kernel kernel_of(const Options& opt) {
  const std::string workload = opt.text("workload", "ld");
  const auto op = parse_op(opt.text("op", workload == "ld" ? "and" : "xor"));
  const auto dev = model::gpu_by_name(opt.text("device", "titanv"));
  auto cfg = model::paper_preset(dev, workload == "ld"
                                          ? model::WorkloadKind::kLd
                                          : model::WorkloadKind::kFastId);
  cfg.pre_negated = opt.yes("pre-negate") && op == bits::Comparison::kAndNot;
  return {workload, op, dev, cfg};
}

// ---- verb handlers ------------------------------------------------------

int cmd_devices(Call& /*c*/, std::ostream& out) {
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
int cmd_env(Call& c, std::ostream& out) {
  const obs::EnvInfo env = obs::collect_env_info();
  if (c.opt.text("format", "text") == "json") {
    obs::write_env_json(env, out);
    out << "\n";
    return 0;
  }
  out << "cpu:        " << env.cpu_model << "\n"
      << "cores:      " << env.logical_cores << "\n"
      << "governor:   " << env.governor << "\n"
      << "compiler:   " << env.compiler << "\n"
      << "git_sha:    " << env.git_sha << "\n"
      << "hostname:   " << env.hostname << "\n"
      << "kernel:     " << env.kernel << "\n"
      << "perf:       "
      << (obs::HwCounters::available() ? "hardware counters available"
                                       : "perf counters unavailable")
      << "\n";
  return 0;
}

int cmd_gen(Call& c, std::ostream& out) {
  const std::size_t loci = c.opt.num("loci", 1000);
  const std::size_t samples = c.opt.num("samples", 512);
  io::PopulationParams p;
  p.seed = c.opt.num("seed", 1);
  p.ld_block_len = c.opt.num("ld-block", 1);
  p.maf_min = c.opt.real("maf-min", 0.01);
  p.maf_max = c.opt.real("maf-max", 0.5);
  const std::string path = c.opt.text("out");
  const std::string format = c.opt.text("format", "plink");
  auto g = io::generate_genotypes(loci, samples, p);
  if (format == "tsv") {
    io::save_genotypes_tsv(g, std::filesystem::path(path));
  } else {
    save_dataset(io::with_synthetic_metadata(std::move(g)), path, format);
  }
  out << "wrote " << loci << " loci x " << samples << " samples to "
      << path << " (" << format << ")\n";
  return 0;
}

int cmd_gendb(Call& c, std::ostream& out) {
  const std::size_t profiles = c.opt.num("profiles", 100000);
  const std::size_t snps = c.opt.num("snps", 512);
  io::ProfileDbParams p;
  p.seed = c.opt.num("seed", 2);
  p.maf_min = c.opt.real("maf-min", 0.05);
  p.maf_max = c.opt.real("maf-max", 0.5);
  const std::string path = c.opt.text("out");
  const auto db = io::generate_profile_db(profiles, snps, p);
  io::save_bitmatrix(db, std::filesystem::path(path));
  out << "wrote profile database " << profiles << " x " << snps
      << " bits (" << db.size_bytes() / 1024 << " KiB) to " << path
      << "\n";
  return 0;
}

int cmd_encode(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  const std::string plane = c.opt.text("plane", "presence");
  const auto m = bits::encode(input(c.opt).genotypes,
                              plane == "presence"
                                  ? bits::EncodingPlane::kPresence
                                  : bits::EncodingPlane::kHomozygous);
  io::save_bitmatrix(m, std::filesystem::path(out_path));
  out << "encoded " << m.rows() << " loci x " << m.bit_cols()
      << " samples (" << plane << " plane) to " << out_path << "\n";
  return 0;
}

int cmd_ld(Call& c, std::ostream& out) {
  const std::string gamma_out = c.opt.text("out");
  const std::size_t top = c.opt.num("top", 10);
  c.tele.begin();
  const auto m = matrix(c.opt, "in");
  Context ctx = make_context(c.opt.text("device", "titanv"));
  ComputeOptions copts;
  c.faults.apply(copts);
  const auto res = ctx.ld(m, copts);
  if (!gamma_out.empty()) {
    io::save_countmatrix(res.counts, std::filesystem::path(gamma_out));
  }
  finish_compare(c, out, res.timing);
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

int cmd_search(Call& c, std::ostream& out) {
  const std::string device = c.opt.text("device", "titanv");
  const std::size_t top = c.opt.num("top", 3);
  const std::string host_trace = c.opt.text("host-trace");
  c.tele.begin();
  const auto queries = matrix(c.opt, "queries");
  const auto db = matrix(c.opt, "db");
  Context ctx = make_context(device);
  ComputeOptions copts;
  copts.lds_words = c.opt.int_num("lds-words", 0);
  c.faults.apply(copts);
  const auto res = ctx.identity_search(queries, db, top, copts);
  const TimingReport& t = res.timing;
  finish_compare(c, out, t);
  if (!host_trace.empty()) {
    io::write_file(host_trace, [&](std::ostream& os) {
      sim::write_host_chrome_trace(t.chunk_events, os,
                                   device + " host pipeline");
    });
    out << "wrote host-pipeline timeline (" << t.chunk_events.size()
        << " chunks) to " << host_trace << "\n";
  }
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    out << "query " << q << ":";
    for (const auto& hit : res.top[q]) {
      out << "  #" << hit.reference_index << " (" << hit.mismatches
          << " mismatches)";
    }
    out << "\n";
  }
  return 0;
}

int cmd_mixture(Call& c, std::ostream& out) {
  const auto tolerance =
      static_cast<std::uint32_t>(c.opt.int_num("tolerance", 0));
  c.tele.begin();
  const auto profiles = matrix(c.opt, "profiles");
  const auto mixtures = matrix(c.opt, "mixtures");
  Context ctx = make_context(c.opt.text("device", "vega64"));
  ComputeOptions copts;
  copts.pre_negate = c.opt.yes("pre-negate");
  c.faults.apply(copts);
  const auto res =
      ctx.mixture_analysis(profiles, mixtures, tolerance, copts);
  finish_compare(c, out, res.timing);
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

int cmd_kinship(Call& c, std::ostream& out) {
  const std::size_t top = c.opt.num("top", 10);
  const auto ds = input(c.opt);
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

int cmd_qc(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  stats::QcThresholds t;
  t.min_maf = c.opt.real("min-maf", t.min_maf);
  t.max_missing_rate = c.opt.real("max-missing", t.max_missing_rate);
  t.min_hwe_p = c.opt.real("min-hwe-p", t.min_hwe_p);
  const double prune_r2 = c.opt.real("ld-prune-r2", 0.0);
  const std::size_t prune_window = c.opt.num("ld-prune-window", 50);
  const auto ds = input(c.opt);
  const auto report =
      stats::qc_report(ds.genotypes, ds.missing_per_locus, t);
  const QcTally q = tally(report);
  out << "QC over " << report.size() << " loci x " << ds.samples.size()
      << " samples: " << q.pass << " pass, " << q.low_maf << " low-MAF, "
      << q.missing << " high-missing, " << q.hwe << " HWE-violating\n";
  if (out_path.empty()) {
    return 0;
  }
  auto filtered = stats::filter_loci(ds, report);
  if (prune_r2 > 0.0) {
    const auto kept = stats::ld_prune(
        filtered.genotypes, stats::LdPruneParams{prune_window, prune_r2});
    std::vector<stats::LocusQc> keep_mask(filtered.loci.size());
    for (auto& locus : keep_mask) {
      locus.flags = stats::kQcLowMaf;  // default: drop
    }
    for (const std::size_t k : kept) {
      keep_mask[k].flags = stats::kQcPass;
    }
    filtered = stats::filter_loci(filtered, keep_mask);
    out << "LD pruning (r2 > " << prune_r2 << " within " << prune_window
        << "): " << kept.size() << " loci kept\n";
  }
  io::save_plink_lite(filtered, std::filesystem::path(out_path));
  out << "wrote " << filtered.loci.size() << " passing loci to "
      << out_path << "\n";
  return 0;
}

int cmd_assoc(Call& c, std::ostream& out) {
  const std::string cases = c.opt.text("cases");
  const std::string pheno_path = c.opt.text("pheno");
  const std::size_t top = c.opt.num("top", 10);
  if (cases.empty() == pheno_path.empty()) {
    throw std::invalid_argument(
        "assoc: give exactly one of --cases or --pheno");
  }
  const auto ds = input(c.opt);
  std::vector<bool> is_case = case_mask(cases, ds.samples);
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
  const auto results = stats::gwas_scan(ds.genotypes, is_case);
  const auto order = by_p_value(results);
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

int cmd_cluster(Call& c, std::ostream& out) {
  const std::size_t k = c.opt.num("k", 2);
  const auto ds = input(c.opt);
  const auto profiles = stats::encode_individual_major(
      ds.genotypes, bits::EncodingPlane::kPresence);
  Context ctx = make_context(c.opt.text("device", "gtx980"));
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
  for (std::size_t cl = 0; cl < k; ++cl) {
    out << "cluster " << cl << " (" << members[cl].size() << "):";
    for (const auto& name : members[cl]) {
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

int cmd_merge(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  const std::string axis = c.opt.text("axis", "samples");
  const std::string format = c.opt.text("format", "auto");
  const auto a = load_dataset(c.opt.text("a"), format);
  const auto b = load_dataset(c.opt.text("b"), format);
  const auto merged =
      axis == "samples" ? io::merge_samples(a, b) : io::merge_loci(a, b);
  save_dataset(merged, out_path, format);
  out << "merged " << axis << ": " << merged.loci.size() << " loci x "
      << merged.samples.size() << " samples -> " << out_path << "\n";
  return 0;
}

int cmd_subset(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  const std::string samples_spec = c.opt.text("samples");
  const std::string loci_spec = c.opt.text("loci");
  const std::string format = c.opt.text("format", "auto");
  if (samples_spec.empty() && loci_spec.empty()) {
    throw std::invalid_argument("subset: give --samples and/or --loci");
  }
  auto ds = input(c.opt);
  if (!loci_spec.empty()) {
    // "--loci a-b" keeps the inclusive index range; or a comma list.
    const auto index = [&](const std::string& token) {
      const auto l = parse_uint(token);
      if (!l || *l >= ds.loci.size()) {
        throw std::invalid_argument("subset: --loci entry '" + token +
                                    "' is not a locus index below " +
                                    std::to_string(ds.loci.size()));
      }
      return *l;
    };
    std::vector<std::size_t> keep;
    if (const auto dash = loci_spec.find('-'); dash != std::string::npos) {
      const std::size_t lo = index(loci_spec.substr(0, dash));
      const std::size_t hi = index(loci_spec.substr(dash + 1));
      if (hi < lo) {
        throw std::invalid_argument("subset: bad --loci range");
      }
      keep.resize(hi - lo + 1);
      std::iota(keep.begin(), keep.end(), lo);
    } else {
      std::istringstream ls(loci_spec);
      for (std::string token; std::getline(ls, token, ',');) {
        keep.push_back(index(token));
      }
    }
    ds = io::subset_loci(ds, keep);
  }
  if (!samples_spec.empty()) {
    std::vector<std::string> names;
    std::istringstream ss(samples_spec);
    for (std::string token; std::getline(ss, token, ',');) {
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
int cmd_report_pipeline(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  obs::ReportOptions ropts;
  ropts.top_n = c.opt.num("top", 5);
  ropts.littles_tolerance = c.opt.real("littles-tol", 0.10);
  const auto load = [](const std::string& path) {
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("report: cannot open " + path);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return obs::jsonlite::parse(ss.str());
  };
  const obs::jsonlite::Value trace = load(c.opt.text("trace"));
  const obs::jsonlite::Value metrics = load(c.opt.text("metrics"));
  std::optional<obs::jsonlite::Value> cost;
  if (!c.opt.text("cost").empty()) {
    cost = load(c.opt.text("cost"));
  }
  const obs::PipelineReport rep = obs::analyze_pipeline(
      trace, metrics, cost ? &*cost : nullptr, ropts);
  if (out_path.empty()) {
    obs::write_pipeline_report(rep, out);
    return 0;
  }
  io::write_file(out_path, [&](std::ostream& os) {
    obs::write_pipeline_report(rep, os);
  });
  out << "wrote pipeline report to " << out_path << "\n";
  return 0;
}

void write_cohort_report(std::ostream& os, const Options& opt,
                         const io::PlinkLiteDataset& ds) {
  os << "# snpcmp cohort report\n\n"
     << "Input: `" << opt.text("in") << "` — " << ds.loci.size() << " loci x "
     << ds.samples.size() << " samples";
  if (ds.missing_calls > 0) {
    os << " (" << ds.missing_calls << " missing calls)";
  }
  os << "\n\n## Quality control\n\n";
  const auto qc = stats::qc_report(ds.genotypes, ds.missing_per_locus);
  const QcTally q = tally(qc);
  const auto loci = static_cast<double>(qc.size());
  os << "| metric | value |\n|---|---|\n"
     << "| passing loci | " << q.pass << " / " << qc.size() << " |\n"
     << "| low MAF | " << q.low_maf << " |\n"
     << "| high missingness | " << q.missing << " |\n"
     << "| HWE violations | " << q.hwe << " |\n"
     << "| mean MAF | " << q.maf_sum / loci << " |\n"
     << "| mean heterozygosity | " << q.het_sum / loci << " |\n";

  os << "\n## Relatedness (KING-robust)\n\n";
  const auto kin = stats::kinship_matrix(ds.genotypes);
  const std::size_t n = ds.samples.size();
  std::size_t related = 0;
  double max_phi = -1.0;
  std::size_t max_i = 0, max_j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto& r = kin[i * n + j];
      related += r.relationship != stats::Relationship::kUnrelated ? 1u : 0u;
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

  if (const std::string cases = opt.text("cases"); !cases.empty()) {
    os << "\n## Association (Cochran-Armitage trend)\n\n";
    const auto assoc =
        stats::gwas_scan(ds.genotypes, case_mask(cases, ds.samples));
    const auto order = by_p_value(assoc);
    os << "| locus | p (trend) | OR |\n|---|---|---|\n";
    for (std::size_t k = 0; k < std::min<std::size_t>(5, order.size());
         ++k) {
      const std::size_t l = order[k];
      os << "| " << ds.loci[l].id << " | " << assoc[l].p_trend << " | "
         << assoc[l].odds_ratio << " |\n";
    }
  }

  os << "\n## Projected device performance\n\n";
  Context ctx = make_context(opt.text("device", "titanv"));
  if (ctx.is_gpu()) {
    ComputeOptions copts;
    copts.functional = false;
    const auto t = ctx.estimate(ds.loci.size(), ds.loci.size(),
                                ds.samples.size(), bits::Comparison::kAnd,
                                copts);
    os << "All-pairs LD on " << t.device << ": kernel "
       << t.kernel_s * 1e3 << " ms, end-to-end " << t.end_to_end_s * 1e3
       << " ms (" << t.kernel_gops << " Gword-ops/s, " << t.pct_of_peak
       << "% of peak)\n";
    if (t.attainable_gops > 0.0) {
      os << "\nRoofline: " << roofline(t) << "\n";
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
}

int cmd_report(Call& c, std::ostream& out) {
  const std::string out_path = c.opt.text("out");
  const auto ds = input(c.opt);
  io::write_file(out_path, [&](std::ostream& os) {
    write_cohort_report(os, c.opt, ds);
  });
  out << "wrote report to " << out_path << "\n";
  return 0;
}

int cmd_kernel_src(Call& c, std::ostream& out) {
  const Kernel k = kernel_of(c.opt);
  const std::string out_path = c.opt.text("out");
  const std::string program = kern::render_program(k.dev, k.cfg, k.op);
  if (out_path.empty()) {
    out << program;
    return 0;
  }
  io::write_file(out_path, [&](std::ostream& os) { os << program; });
  out << "wrote OpenCL program (" << program.size() << " bytes) to "
      << out_path << "\n";
  return 0;
}

/// `snpcmp lint`: the src/analyze static analyzer over the Table II
/// preset, with blocking overrides to probe corrupted configs and
/// --lds-words/--k-iters to probe a launch shape. Exit 3 on any
/// error-severity diagnostic (warn/info allowed).
int cmd_lint(Call& c, std::ostream& out) {
  const Options& opt = c.opt;
  Kernel k = kernel_of(opt);
  model::KernelConfig& cfg = k.cfg;
  cfg.m_r = opt.int_num("m-r", cfg.m_r);
  cfg.m_c = opt.int_num("m-c", cfg.m_c);
  cfg.k_c = opt.int_num("k-c", cfg.k_c);
  cfg.n_r = opt.int_num("n-r", cfg.n_r);
  cfg.grid.grid_m = opt.int_num("grid-m", cfg.grid.grid_m);
  cfg.grid.grid_n = opt.int_num("grid-n", cfg.grid.grid_n);
  analyze::AnalyzeOptions aopts;
  aopts.k_iterations = opt.num("k-iters", aopts.k_iterations);
  aopts.lds_words = opt.int_num("lds-words", 0);

  const analyze::Report report = analyze::analyze(k.dev, cfg, k.op, aopts);
  const auto errors = report.count(analyze::Severity::kError);
  const auto warns = report.count(analyze::Severity::kWarn);
  const auto infos = report.count(analyze::Severity::kInfo);
  if (opt.text("format", "text") == "json") {
    out << "{\"device\": \"" << obs::json_escape(k.dev.name)
        << "\", \"workload\": \"" << k.workload << "\", \"op\": \""
        << to_string(k.op) << "\", \"config\": \""
        << obs::json_escape(cfg.to_string()) << "\", \"errors\": "
        << errors << ", \"warnings\": " << warns << ", \"infos\": "
        << infos << ", \"diagnostics\": ";
    report.write_json(out);
    out << "}\n";
  } else {
    out << "lint: " << k.dev.name << " " << k.workload << " "
        << to_string(k.op) << " " << cfg.to_string() << "\n";
    report.write_text(out);
    out << errors << " error(s), " << warns << " warning(s), " << infos
        << " info(s)\n";
  }
  return report.has_errors() ? 3 : 0;
}

/// `snpcmp lint --soak N`: the analyzer's own mutation soundness soak,
/// N seeds per corpus cell. Exit 3 on any soak failure.
int cmd_lint_soak(Call& c, std::ostream& out) {
  const auto stats = analyze::mutation_soak(c.opt.int_num("soak", 0));
  out << "soak: " << stats.programs << " corpus program(s), "
      << stats.mutants << " mutant(s), " << stats.skipped
      << " inapplicable, " << stats.failures.size() << " failure(s)\n";
  for (const auto& f : stats.failures) {
    out << "soak failure: " << f << "\n";
  }
  return stats.failures.empty() ? 0 : 3;
}

int cmd_estimate(Call& c, std::ostream& out) {
  const std::size_t m = c.opt.num("m", 32);
  const std::size_t n = c.opt.num("n", 20'000'000);
  const std::size_t k_bits = c.opt.num("kbits", 1024);
  const auto op = parse_op(c.opt.text("op", "xor"));
  const std::string trace_path = c.opt.text("trace");
  c.tele.begin();
  Context ctx = make_context(c.opt.text("device", "titanv"));
  ComputeOptions copts;
  copts.functional = false;
  copts.include_init = !c.opt.yes("no-init");
  sim::Timeline timeline;
  const bool want_timeline = !trace_path.empty() || c.tele.wants_trace();
  if (want_timeline) {
    copts.timeline_out = &timeline;
  }
  const auto t = ctx.estimate(m, n, k_bits, op, copts);
  out << "projected " << m << " x " << n << " x " << k_bits << " bits ("
      << to_string(op) << ")\n";
  print_timing(out, t);
  if (!trace_path.empty()) {
    io::write_file(trace_path, [&](std::ostream& os) {
      sim::write_chrome_trace(timeline, os, t.device);
    });
    out << "wrote chrome://tracing timeline to " << trace_path << "\n";
  }
  c.tele.finish(out, want_timeline && ctx.is_gpu() ? &timeline : nullptr, {},
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

/// One scripted request's outcome slot, resolved after the final barrier.
struct ScriptedRequest {
  std::future<svc::QueryResult> fut;
  std::string shed_code;        ///< non-empty: rejected at admission
  std::uint64_t trace_id = 0;   ///< allocated by submit() even for sheds
};

svc::ServiceConfig service_config(const Options& opt) {
  svc::ServiceConfig cfg;
  cfg.device = opt.text("device", "titanv");
  cfg.op = parse_op(opt.text("op", "xor"));
  cfg.pre_negate = opt.yes("pre-negate");
  cfg.max_batch_rows = opt.num("max-batch", 32);
  cfg.coalesce_window_s = opt.real("window-ms", 0.0) / 1e3;
  cfg.max_queue = opt.num("max-queue", 256);
  cfg.cache_capacity = opt.num("cache", 1024);
  cfg.admission = *svc::parse_admission_policy(opt.text("admission", "reject"));
  // Latency SLO: --slo-ms arms the burn-rate monitor (docs/observability
  // .md); a breach dumps the flight recorder to the --flight-out /
  // $SNPCMP_FLIGHT_OUT destination.
  cfg.slo.objective_s = opt.real("slo-ms", 0.0) / 1e3;
  // Request-lifecycle robustness knobs (docs/robustness.md): a per-device
  // circuit breaker ahead of the recovery ladder, a per-class retry token
  // bucket, and the brown-out shed ceiling used when the SLO trips.
  cfg.breaker.failure_threshold = opt.int_num("breaker", 0);
  cfg.retry_budget = opt.real("retry-budget", 0.0);
  cfg.brownout_class_max = opt.int_num("brownout-class", 0);
  // Script-driven runs gate batch formation on barriers, so batch ids and
  // widths are a pure function of the script — CI-golden by construction.
  cfg.start_paused = true;
  return cfg;
}

/// The deterministic "service:" and "cost:" report blocks (golden in
/// test_service_cli) plus the wall-clock "slo:" lines, which goldens must
/// not match on.
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
  // Ledger totals: counts and bytes/word-ops are pure functions of a
  // scripted workload; attributed times stay off these lines because the
  // degrade rung adds measured wall clock to them. Silent when the ledger
  // is empty (SNPCMP_OBS=OFF or attribution disabled).
  const obs::CostSnapshot cs = eng.cost_totals();
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

/// Feeds requests to a paused engine: a script's lines, or every row.
using Feed = std::function<void(svc::ServiceEngine&, const bits::BitMatrix&,
                                std::vector<ScriptedRequest>&)>;

/// serve and submit: a ServiceEngine over --db fed by `feed`, drained,
/// then the per-request lines, the report blocks and the cost ledger.
int run_service(Call& c, std::ostream& out, const Feed& feed) {
  svc::ServiceConfig cfg = service_config(c.opt);
  c.tele.begin();
  // The armed fault plan spans the engine's whole lifetime, and the
  // recovery policy becomes the engine default.
  ComputeOptions proto;
  c.faults.apply(proto);
  cfg.recovery = proto.recovery;

  const auto queries = matrix(c.opt, "queries");
  svc::ServiceEngine engine(matrix(c.opt, "db"), cfg);
  std::vector<ScriptedRequest> reqs;
  feed(engine, queries, reqs);
  engine.resume();
  engine.drain();

  const std::exception_ptr first_error = print_request_lines(out, reqs);
  print_service_report(out, engine);
  if (const std::string cost_path = c.opt.text("cost-out");
      !cost_path.empty()) {
    io::write_file(cost_path,
                   [&](std::ostream& os) { engine.write_cost_json(os); });
    out << "wrote cost ledger (" << engine.cost_totals().total_requests
        << " requests) to " << cost_path << "\n";
  }
  c.tele.finish(out, nullptr, {}, cfg.device);
  if (first_error) std::rethrow_exception(first_error);
  return 0;
}

/// Runs one serve-script line (docs/service.md): a JSON object with
/// exactly one of "submit", "barrier" or "epoch"; "count", "class",
/// "deadline_ms" and "policy" go with "submit" only.
void run_script_line(std::string_view json, svc::ServiceEngine& engine,
                     const bits::BitMatrix& queries,
                     std::vector<ScriptedRequest>& reqs) {
  obs::jsonlite::Value line;
  try {
    line = obs::jsonlite::parse(json);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());
  }
  const auto* submit = line.find("submit");
  const auto* barrier = line.find("barrier");
  const auto* epoch = line.find("epoch");
  for (const auto& [key, value] : line.members) {
    const bool field = key == "count" || key == "class" ||
                       key == "deadline_ms" || key == "policy";
    if (line.find(key) != &value ||
        (field ? submit == nullptr
               : &value != submit && &value != barrier && &value != epoch)) {
      throw std::invalid_argument("unexpected key '" + key + "'");
    }
  }
  if ((submit != nullptr) + (barrier != nullptr) + (epoch != nullptr) != 1) {
    throw std::invalid_argument(
        "expected exactly one of \"submit\", \"barrier\" or \"epoch\"");
  }
  if (barrier != nullptr) {
    if (barrier->kind != obs::jsonlite::Value::Kind::kBool ||
        !barrier->boolean) {
      throw std::invalid_argument("'barrier' must be true");
    }
    engine.resume();
    engine.drain();
    engine.pause();
    return;
  }
  if (epoch != nullptr) {
    if (!epoch->is_string()) {
      throw std::invalid_argument("'epoch' expects a file name");
    }
    engine.update_database(
        io::load_bitmatrix(std::filesystem::path(epoch->text)));
    return;
  }
  // An exact integer token of at most `max`, or `fallback` when absent.
  const auto integer = [&](std::string_view key, std::uint64_t fallback,
                           std::uint64_t max) {
    const auto* v = line.find(key);
    const auto n = v == nullptr     ? std::optional(fallback)
                   : v->is_number() ? parse_uint(v->text)
                                    : std::nullopt;
    if (!n || *n > max) {
      throw std::invalid_argument("'" + std::string(key) +
                                  "' expects an integer up to " +
                                  std::to_string(max) + ", got '" + v->text +
                                  "'");
    }
    return *n;
  };
  const std::uint64_t q = integer("submit", 0, UINT64_MAX);
  if (q >= queries.rows()) {
    throw std::invalid_argument("query row out of range");
  }
  svc::SubmitOptions options;
  options.request_class = static_cast<int>(integer("class", 1, INT_MAX));
  if (const auto* p = line.find("policy")) {
    const auto policy =
        p->is_string() ? rt::parse_fail_policy(p->text) : std::nullopt;
    if (!policy) {
      throw std::invalid_argument("bad policy '" + p->text + "'");
    }
    options.recovery = engine.config().recovery;
    options.recovery->policy = *policy;
  }
  if (const auto* d = line.find("deadline_ms")) {
    if (!d->is_number()) {
      throw std::invalid_argument("'deadline_ms' expects a number, got '" +
                                  d->text + "'");
    }
    options.deadline_ms = d->number;
  }
  for (auto n = integer("count", 1, UINT64_MAX); n > 0; --n) {
    submit_one(engine, queries, q, options, reqs);
  }
}

/// `snpcmp serve`: drive a ServiceEngine from a JSONL request script. A
/// barrier releases the backlog and waits for it (resume -> drain ->
/// pause), closing the current coalescing generation; an epoch swaps the
/// resident database. Blank lines and `#` comments are skipped, and a
/// final barrier is implicit.
int cmd_serve(Call& c, std::ostream& out) {
  const std::string path = c.opt.text("script");
  return run_service(c, out, [&](svc::ServiceEngine& engine,
                                 const bits::BitMatrix& queries,
                                 std::vector<ScriptedRequest>& reqs) {
    std::ifstream script(path);
    if (!script) {
      throw std::invalid_argument("serve: cannot open --script " + path);
    }
    std::string text;
    for (std::size_t lineno = 1; std::getline(script, text); ++lineno) {
      std::size_t end = 0;  // the line ends at a '#' outside any string
      for (bool quoted = false;
           end < text.size() && (quoted || text[end] != '#'); ++end) {
        if (text[end] == '"') {
          quoted = !quoted;
        } else if (quoted && text[end] == '\\') {
          ++end;
        }
      }
      const std::string_view json = std::string_view(text).substr(0, end);
      if (json.find_first_not_of(" \t\r") == std::string_view::npos) {
        continue;
      }
      try {
        run_script_line(json, engine, queries, reqs);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("serve: " + path + ":" +
                                    std::to_string(lineno) + ": " + e.what());
      }
    }
  });
}

/// `snpcmp submit`: one-shot convenience — every row of --queries becomes
/// one request, coalesced under --max-batch. Equivalent to a script of N
/// submit lines and one barrier.
int cmd_submit(Call& c, std::ostream& out) {
  svc::SubmitOptions options;
  options.deadline_ms = c.opt.real("deadline-ms", 0.0);
  options.request_class = c.opt.int_num("class", 1);
  return run_service(c, out, [&](svc::ServiceEngine& engine,
                                 const bits::BitMatrix& queries,
                                 std::vector<ScriptedRequest>& reqs) {
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      submit_one(engine, queries, q, options, reqs);
    }
  });
}

// ---- the verb table -----------------------------------------------------

const std::vector<Verb>& verbs() {
  using enum Kind;
  static const Group kKernel{
      "kernel flags",
      {{"device", kText, "D"}, {"workload", kChoice, "ld|fastid"},
       {"op", kText, "and|xor|andnot"}, {"pre-negate", kChoice, "yes|no"}}};
  static const Group kService{
      "service flags",
      {{"device", kText, "D"}, {"op", kText, "and|xor|andnot"},
       {"pre-negate", kChoice, "yes|no"}, {"max-batch", kUint, "N"},
       {"window-ms", kReal, "X"}, {"max-queue", kUint, "N"},
       {"admission", kChoice, "reject|block"},
       {"cache", kUint, "N", false, "result-cache entries (0: no cache)"},
       {"slo-ms", kReal, "X", false,
        "latency objective; a breach dumps the flight\n"
        "recorder and starts brown-out shedding"},
       {"breaker", kInt, "N", false,
        "open a device's circuit breaker after N\n"
        "consecutive failures (docs/robustness.md)"},
       {"retry-budget", kReal, "X", false, "per-class retry token bucket"},
       {"brownout-class", kInt, "C", false,
        "in a brown-out, shed classes <= C"},
       {"cost-out", kText, "F.json", false,
        "per-request cost ledger (docs/observability.md)"}}};
  static const Group kTelemetry{
      "telemetry flags",
      {{"metrics-out", kText, "F.json", false, "dump the metrics registry"},
       {"metrics-format", kChoice, "json|prom", false,
        "metrics dump format (default json)"},
       {"trace-out", kText, "F.json", false,
        "merged Perfetto trace: host spans, chunk\n"
        "pipeline, device timeline, request flows"},
       {"flight-out", kText, "F.json", false,
        "flight-recorder dump at exit, on an exit-4\n"
        "fault or an SLO breach ($SNPCMP_FLIGHT_OUT)"},
       {"perf", kFlag, "", false,
        "IPC and cache/branch miss rates from Linux\n"
        "perf counters, or a note where there are none"}}};
  static const Group kFaults{
      "fault-tolerance flags",
      {{"fail-policy", kChoice, "abort|retry|failover|degrade", false,
        "recovery policy for device faults (default\n"
        "retry; docs/robustness.md)"},
       {"inject-faults", kText, "SPEC", false,
        "fault plan, e.g. launch:p=0.05:seed=7 (or\n"
        "$SNPCMP_FAULTS); an unrecovered fault exits 4\n"
        "with its SNPRT-* code first on stderr"}}};
  constexpr Opt in{"in", kText, "F", kRequired};
  constexpr Opt out{"out", kText, "F", kRequired};
  constexpr Opt format{"format", kChoice, "auto|plink|vcf"};
  static const std::vector<Verb> table{
      {"devices", "list available (simulated) devices", {}, {}, cmd_devices},
      {"env", "benchmark environment fingerprint (CPU, compiler, git sha)",
       {{"format", kChoice, "text|json"}}, {}, cmd_env},
      {"gen", "generate a genotype cohort",
       {out, {"loci", kUint, "N"}, {"samples", kUint, "N"},
        {"seed", kUint, "S"}, {"ld-block", kUint, "N"},
        {"maf-min", kReal, "X"}, {"maf-max", kReal, "X"},
        {"format", kChoice, "plink|vcf|tsv"}},
       {}, cmd_gen},
      {"gendb", "generate a forensic profile database (.sbm)",
       {out, {"profiles", kUint, "N"}, {"snps", kUint, "N"},
        {"seed", kUint, "S"}, {"maf-min", kReal, "X"},
        {"maf-max", kReal, "X"}},
       {}, cmd_gendb},
      {"encode", "pack genotypes into bit vectors",
       {in, out, {"plane", kChoice, "presence|hom"}, format}, {}, cmd_encode},
      {"kinship", "KING-robust relatedness over a cohort",
       {in, {"top", kUint, "K"}, format}, {}, cmd_kinship},
      {"qc", "per-locus QC (MAF, missingness, HWE); --out writes passing loci",
       {in, {"min-maf", kReal, "X"}, {"max-missing", kReal, "X"},
        {"min-hwe-p", kReal, "X"}, {"ld-prune-r2", kReal, "X"},
        {"ld-prune-window", kUint, "N"}, {"out", kText, "F"}, format},
       {}, cmd_qc},
      {"assoc",
       "case-control GWAS scan; give --cases (names or indices)\n"
       "or --pheno (\"sample<TAB>0|1|case|control\" lines)",
       {in, {"cases", kText, "L"}, {"pheno", kText, "F"},
        {"top", kUint, "K"}, format},
       {}, cmd_assoc},
      {"cluster", "UPGMA population structure (+ Fst at k=2)",
       {in, {"k", kUint, "N"}, {"device", kText, "D"}, format}, {},
       cmd_cluster},
      {"ld", "linkage disequilibrium (Eq. 1)",
       {{"in", kText, "F.sbm", kRequired}, {"device", kText, "D"},
        {"out", kText, "gamma.scm"}, {"top", kUint, "K"}},
       {&kTelemetry, &kFaults}, cmd_ld},
      {"search",
       "FastID identity search (Eq. 2); --lds-words sets the LDS\n"
       "allocation the pre-launch verifier proves (exit 3 if short)",
       {{"queries", kText, "F", kRequired}, {"db", kText, "F", kRequired},
        {"device", kText, "D"}, {"top", kUint, "K"},
        {"host-trace", kText, "F.json"}, {"lds-words", kInt, "N"}},
       {&kTelemetry, &kFaults}, cmd_search},
      {"mixture", "FastID mixture analysis (Eq. 3)",
       {{"profiles", kText, "F", kRequired},
        {"mixtures", kText, "F", kRequired}, {"device", kText, "D"},
        {"tolerance", kInt, "T"}, {"pre-negate", kChoice, "yes|no"}},
       {&kTelemetry, &kFaults}, cmd_mixture},
      {"merge", "combine genotyping batches (samples) or panels (loci)",
       {{"a", kText, "F", kRequired}, {"b", kText, "F", kRequired}, out,
        {"axis", kChoice, "samples|loci"}, format},
       {}, cmd_merge},
      {"subset", "extract samples and/or loci (a range a-b or a list)",
       {in, out, {"samples", kText, "n1,n2,..."},
        {"loci", kText, "a-b|i,j,..."}, format},
       {}, cmd_subset},
      {"kernel-src", "render the parameterized OpenCL kernel for a device",
       {{"out", kText, "F.cl"}}, {&kKernel}, cmd_kernel_src},
      {"lint", "mutation soundness soak, N seeds per corpus cell",
       {{"soak", kInt, "N", kRequired}}, {}, cmd_lint_soak, "soak"},
      {"lint",
       "static analysis of a kernel config, its IR and OpenCL\n"
       "source (docs/static-analysis.md); exit 3 on errors",
       {{"format", kChoice, "text|json"}, {"m-r", kInt, "N"},
        {"m-c", kInt, "N"}, {"k-c", kInt, "N"}, {"n-r", kInt, "N"},
        {"grid-m", kInt, "N"}, {"grid-n", kInt, "N"},
        {"lds-words", kInt, "N"}, {"k-iters", kUint, "N"}},
       {&kKernel}, cmd_lint},
      {"report",
       "pipeline bottleneck analysis of a run's trace, metrics and\n"
       "cost ledger (docs/observability.md)",
       {{"trace", kText, "T.json", kRequired},
        {"metrics", kText, "M.json", kRequired}, {"cost", kText, "C.json"},
        {"top", kUint, "N"}, {"littles-tol", kReal, "X"},
        {"out", kText, "R.txt"}},
       {}, cmd_report_pipeline, "trace"},
      {"report", "markdown cohort report (QC, kinship, association, timing)",
       {in, {"out", kText, "R.md", kRequired}, {"cases", kText, "L"},
        {"device", kText, "D"}, format},
       {}, cmd_report},
      {"estimate", "paper-scale projection (+ chrome://tracing timeline)",
       {{"m", kUint, "N"}, {"n", kUint, "N"}, {"kbits", kUint, "N"},
        {"op", kText, "and|xor|andnot"}, {"device", kText, "D"},
        {"no-init", kChoice, "yes|no"}, {"trace", kText, "F.json"}},
       {&kTelemetry}, cmd_estimate},
      {"serve",
       "script-driven resident-DB query service (docs/service.md);\n"
       "a script line is {\"submit\": Q[, \"policy\": P, \"count\": N,\n"
       "\"deadline_ms\": X, \"class\": C]}, {\"barrier\": true} or\n"
       "{\"epoch\": \"F.sbm\"}, and may end in a # comment",
       {{"db", kText, "F.sbm", kRequired},
        {"queries", kText, "F.sbm", kRequired},
        {"script", kText, "R.jsonl", kRequired}},
       {&kService, &kTelemetry, &kFaults}, cmd_serve},
      {"submit", "one request per query row, like a script with a barrier",
       {{"db", kText, "F.sbm", kRequired},
        {"queries", kText, "F.sbm", kRequired},
        {"deadline-ms", kReal, "X"}, {"class", kInt, "C"}},
       {&kService, &kTelemetry, &kFaults}, cmd_submit},
  };
  return table;
}

/// The first row for `args` whose mode option, if any, is given; null
/// for an unknown verb.
const Verb* find_verb(const std::vector<std::string>& args) {
  for (const Verb& v : verbs()) {
    if (v.name == args[0] &&
        (v.mode.empty() || std::find(args.begin() + 1, args.end(),
                                     "--" + std::string(v.mode)) !=
                               args.end())) {
      return &v;
    }
  }
  return nullptr;
}

/// Writes `text` and a newline; its later lines start `indent` spaces in.
void put_lines(std::ostream& os, std::string_view text, std::size_t indent) {
  for (auto nl = text.find('\n'); nl != std::string_view::npos;
       nl = text.find('\n')) {
    os << text.substr(0, nl) << "\n" << std::string(indent, ' ');
    text.remove_prefix(nl + 1);
  }
  os << text << "\n";
}

}  // namespace

std::string usage() {
  constexpr std::size_t kCol = 14;       // a verb's text and options
  constexpr std::size_t kHelpCol = 30;   // a group option's help
  std::ostringstream os;
  os << "usage: snpcmp <command> [--option value ...]\n\ncommands:\n";
  std::vector<const Group*> groups;
  for (const Verb& v : verbs()) {
    os << "  " << v.name << std::string(kCol - 2 - v.name.size(), ' ');
    put_lines(os, v.usage, kCol);
    std::string line;  // the options, packed into 78 columns
    const auto pack = [&](const std::string& token) {
      if (!line.empty() && kCol + line.size() + 1 + token.size() > 78) {
        os << std::string(kCol, ' ') << line << "\n";
        line.clear();
      }
      line.append(line.empty() ? "" : " ").append(token);
    };
    for (const Opt& o : v.opts) {
      std::string token(o.required ? "--" : "[--");
      token.append(o.name).append(o.arg.empty() ? "" : " ").append(o.arg);
      pack(token.append(o.required ? "" : "]"));
    }
    for (const Group* g : v.groups) {
      pack(std::string("[").append(g->title).append("]"));
      if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
        groups.push_back(g);
      }
    }
    if (!line.empty()) {
      os << std::string(kCol, ' ') << line << "\n";
    }
  }
  for (const Group* g : groups) {
    os << "\n" << g->title << " (";
    std::string_view sep;
    for (const Verb& v : verbs()) {
      if (std::find(v.groups.begin(), v.groups.end(), g) != v.groups.end()) {
        os << sep << v.name;
        sep = ", ";
      }
    }
    os << "):\n";
    for (const Opt& o : g->opts) {
      std::string s("  --");
      s.append(o.name).append(o.arg.empty() ? "" : " ").append(o.arg);
      os << s;
      if (!o.help.empty()) {
        os << (s.size() < kHelpCol ? "" : "\n")
           << std::string(kHelpCol - (s.size() < kHelpCol ? s.size() : 0),
                          ' ');
      }
      put_lines(os, o.help, kHelpCol);
    }
  }
  os << "\ndevices: cpu, gtx980, titanv, vega64\n";
  return os.str();
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
    const Verb* verb = find_verb(args);
    if (verb == nullptr) {
      err << "unknown command '" << args[0] << "'\n" << usage();
      return 1;
    }
    Call call(*verb, args);
    return verb->handler(call, out);
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
