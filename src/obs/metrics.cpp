#include "obs/metrics.hpp"

#include "obs/envinfo.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace snp::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
}

std::size_t Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  return idx;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

const std::vector<double>& Histogram::latency_bounds() {
  // Never destroyed, like global(): exec::host_pool() workers may record
  // while the process exits.
  static const auto& bounds = *new const std::vector<double>([] {
    std::vector<double> b;
    for (int i = 0; b.empty() || b.back() < 10.0; ++i) {
      b.push_back(1e-7 * std::exp2(i / 8.0));
    }
    return b;
  }());
  return bounds;
}

double percentile_le(std::span<const double> bounds,
                     std::span<const std::uint64_t> counts,
                     std::uint64_t count, double q) {
  if (count == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Rank of the q-quantile observation under the exact ceil-rank
  // definition; walk the cumulative counts to its bucket.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return bounds[i];
    }
  }
  return std::numeric_limits<double>::infinity();  // overflow bucket
}

MetricsRegistry& MetricsRegistry::global() {
  // Never destroyed: exec::host_pool() workers may record while the
  // process exits.
  static auto& registry = *new MetricsRegistry();
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->value();
    snap.gauge_peaks[name] = g->peak();
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramView view;
    view.bounds = h->bounds();
    view.counts = h->bucket_counts();
    view.count = h->count();
    view.sum = h->sum();
    snap.histograms[name] = std::move(view);
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

/// JSON string escaping for metric names (names are ASCII identifiers by
/// convention, but the writer must never emit invalid JSON regardless).
void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

template <typename Map>
void json_number_map(std::ostream& os, const Map& map) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) {
      os << ", ";
    }
    first = false;
    json_string(os, name);
    os << ": " << value;
  }
  os << "}";
}

std::string prom_name(const std::string& name) {
  std::string out = "snpcmp_";
  for (const char ch : name) {
    out += std::isalnum(static_cast<unsigned char>(ch)) != 0 ? ch : '_';
  }
  return out;
}

/// Renders a double per the exposition format: non-finite values must be
/// spelled NaN / +Inf / -Inf (ostream's "nan"/"inf" are not valid
/// Prometheus sample values).
void prom_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0.0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

/// `# HELP` text escaping: backslash and newline only (quotes are legal
/// in help text, unlike label values).
std::string prom_escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

/// One family header: `# HELP` first, `# TYPE` second (the exposition
/// format requires HELP to precede TYPE when both are present).
void prom_family(std::ostream& os, const std::string& p,
                 const std::string& source_name, const char* type) {
  os << "# HELP " << p << " "
     << prom_escape_help("snpcmp registry metric " + source_name) << "\n"
     << "# TYPE " << p << " " << type << "\n";
}

}  // namespace

void write_metrics_json(const MetricsSnapshot& snap, std::ostream& os) {
  os << "{\n  \"env\": ";
  write_env_json(collect_env_info(), os);
  os << ",\n  \"counters\": ";
  json_number_map(os, snap.counters);
  os << ",\n  \"gauges\": ";
  json_number_map(os, snap.gauges);
  os << ",\n  \"gauge_peaks\": ";
  json_number_map(os, snap.gauge_peaks);
  os << ",\n  \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n    ";
    json_string(os, name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      os << (i != 0 ? ", " : "") << h.bounds[i];
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i != 0 ? ", " : "") << h.counts[i];
    }
    os << "], \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"percentiles\": {";
    const char* sep = "";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50_le", 0.50},
          {"p90_le", 0.90},
          {"p99_le", 0.99}}) {
      const double le = percentile_le(h.bounds, h.counts, h.count, q);
      os << sep << "\"" << label << "\": ";
      if (std::isfinite(le)) {
        os << le;
      } else {
        os << "null";  // empty histogram or overflow bucket
      }
      sep = ", ";
    }
    os << ", \"approx\": true}}";
  }
  os << "\n  }\n}\n";
}

std::string prom_escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '"') {
      out += "\\\"";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

void write_metrics_prometheus(const MetricsSnapshot& snap,
                              const EnvInfo& env, std::ostream& os) {
  // Provenance as labels on a constant-1 gauge — the standard
  // build_info join-key idiom; env strings are uncontrolled, so every
  // label value goes through prom_escape_label.
  os << "# HELP snpcmp_build_info execution environment of this process\n"
     << "# TYPE snpcmp_build_info gauge\n"
     << "snpcmp_build_info{compiler=\"" << prom_escape_label(env.compiler)
     << "\",git_sha=\"" << prom_escape_label(env.git_sha) << "\",host=\""
     << prom_escape_label(env.hostname) << "\",kernel=\""
     << prom_escape_label(env.kernel) << "\",cpu=\""
     << prom_escape_label(env.cpu_model) << "\"} 1\n";
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    prom_family(os, p, name, "counter");
    os << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    prom_family(os, p, name, "gauge");
    os << p << " " << value << "\n";
    const auto peak = snap.gauge_peaks.find(name);
    if (peak != snap.gauge_peaks.end()) {
      prom_family(os, p + "_peak", name + " high-water mark", "gauge");
      os << p << "_peak " << peak->second << "\n";
    }
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prom_name(name);
    prom_family(os, p, name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      os << p << "_bucket{le=\"";
      prom_number(os, h.bounds[i]);
      os << "\"} " << cumulative << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n" << p << "_sum ";
    prom_number(os, h.sum);
    os << "\n" << p << "_count " << h.count << "\n";
  }
}

void write_metrics_prometheus(const MetricsSnapshot& snap,
                              std::ostream& os) {
  write_metrics_prometheus(snap, collect_env_info(), os);
}

}  // namespace snp::obs
