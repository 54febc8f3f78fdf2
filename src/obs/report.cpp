#include "obs/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace snp::obs::jsonlite {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("jsonlite: " + std::string(what) +
                             " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail("unexpected character");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) {
          fail("bad literal");
        }
        Value v;
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) {
          fail("bad literal");
        }
        Value v;
        v.kind = Value::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4U;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are not produced by
          // our own writers and decode as two replacement sequences).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6U));
            out += static_cast<char>(0x80 | (cp & 0x3FU));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12U));
            out += static_cast<char>(0x80 | ((cp >> 6U) & 0x3FU));
            out += static_cast<char>(0x80 | (cp & 0x3FU));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    auto digits = [&] {
      bool any = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
      return any;
    };
    if (!digits()) {
      fail("expected number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) {
        fail("expected fraction digits");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) {
        fail("expected exponent digits");
      }
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    v.number = std::strtod(v.text.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double Value::num_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::uint64_t Value::u64_or(std::string_view key,
                            std::uint64_t fallback) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_number()) {
    return fallback;
  }
  std::uint64_t out = 0;
  const char* begin = v->text.data();
  const char* end = begin + v->text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) {
    // Fractional or negative token: round through the double.
    const double d = v->number;
    return d > 0.0 ? static_cast<std::uint64_t>(d + 0.5) : fallback;
  }
  return out;
}

std::string_view Value::str_or(std::string_view key,
                               std::string_view fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? std::string_view(v->text)
                                          : fallback;
}

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace snp::obs::jsonlite

namespace snp::obs {

namespace {

using jsonlite::Value;

struct HistogramDoc {
  bool present = false;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
};

HistogramDoc read_histogram(const Value& metrics, std::string_view name) {
  HistogramDoc h;
  const Value* hists = metrics.find("histograms");
  if (hists == nullptr) {
    return h;
  }
  const Value* doc = hists->find(name);
  if (doc == nullptr || !doc->is_object()) {
    return h;
  }
  h.present = true;
  h.count = doc->u64_or("count", 0);
  h.sum = doc->num_or("sum", 0.0);
  if (const Value* b = doc->find("bounds");
      b != nullptr && b->is_array()) {
    for (const Value& x : b->items) {
      h.bounds.push_back(x.number);
    }
  }
  if (const Value* c = doc->find("counts");
      c != nullptr && c->is_array()) {
    for (const Value& x : c->items) {
      h.counts.push_back(static_cast<std::uint64_t>(x.number));
    }
  }
  return h;
}

std::uint64_t read_counter(const Value& metrics, std::string_view name) {
  const Value* counters = metrics.find("counters");
  return counters != nullptr ? counters->u64_or(name, 0) : 0;
}

bool read_gauge(const Value& metrics, std::string_view name,
                std::int64_t* out) {
  const Value* gauges = metrics.find("gauges");
  if (gauges == nullptr) {
    return false;
  }
  const Value* v = gauges->find(name);
  if (v == nullptr || !v->is_number()) {
    return false;
  }
  *out = static_cast<std::int64_t>(v->number);
  return true;
}

/// snprintf-based number rendering: locale-independent, deterministic.
std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::string fmt_pct(double ratio) { return fmt("%.1f%%", ratio * 100.0); }

std::string fmt_us(double us) {
  if (us >= 1e6) {
    return fmt("%.3f s", us / 1e6);
  }
  if (us >= 1e3) {
    return fmt("%.3f ms", us / 1e3);
  }
  return fmt("%.1f us", us);
}

std::string fmt_s(double seconds) { return fmt_us(seconds * 1e6); }

}  // namespace

PipelineReport analyze_pipeline(const Value& trace, const Value& metrics,
                                const Value* cost,
                                const ReportOptions& opts) {
  if (!trace.is_array()) {
    throw std::runtime_error("report: trace document is not an array");
  }
  if (!metrics.is_object()) {
    throw std::runtime_error("report: metrics document is not an object");
  }
  PipelineReport rep;

  // ---- trace pass: track labels, per-track busy time, span ----
  struct TrackAccum {
    std::string name;
    double busy_us = 0.0;
    std::uint64_t slices = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, TrackAccum> tracks;
  double min_ts = std::numeric_limits<double>::infinity();
  double max_end = -std::numeric_limits<double>::infinity();
  double dev_min_ts = std::numeric_limits<double>::infinity();
  double dev_max_end = -std::numeric_limits<double>::infinity();

  for (const Value& ev : trace.items) {
    if (!ev.is_object()) {
      continue;
    }
    ++rep.trace_events;
    const std::string_view ph = ev.str_or("ph", "");
    const auto pid = static_cast<std::uint32_t>(ev.num_or("pid", 0.0));
    const auto tid = static_cast<std::uint32_t>(ev.num_or("tid", 0.0));
    if (ph == "M") {
      if (ev.str_or("name", "") == "thread_name") {
        if (const Value* args = ev.find("args"); args != nullptr) {
          tracks[{pid, tid}].name = args->str_or("name", "");
        }
      }
      continue;
    }
    if (ph != "X") {
      continue;  // instants and flow records carry no busy time
    }
    const double ts = ev.num_or("ts", 0.0);
    const double dur = ev.num_or("dur", 0.0);
    TrackAccum& acc = tracks[{pid, tid}];
    acc.busy_us += dur;
    ++acc.slices;
    min_ts = std::min(min_ts, ts);
    max_end = std::max(max_end, ts + dur);
    if (pid == 0) {
      dev_min_ts = std::min(dev_min_ts, ts);
      dev_max_end = std::max(dev_max_end, ts + dur);
    }
  }
  if (max_end > min_ts) {
    rep.span_us = max_end - min_ts;
  }

  double dev_serial = 0.0;
  double dev_ideal = 0.0;
  for (const auto& [key, acc] : tracks) {
    if (acc.slices == 0) {
      continue;  // label-only track (no slices this run)
    }
    TrackUtilization t;
    t.pid = key.first;
    t.tid = key.second;
    t.name = acc.name.empty() ? "pid" + std::to_string(key.first) +
                                    "/tid" + std::to_string(key.second)
                              : acc.name;
    t.busy_us = acc.busy_us;
    t.slices = acc.slices;
    t.utilization = rep.span_us > 0.0 ? acc.busy_us / rep.span_us : 0.0;
    if (key.first == 0) {
      rep.has_device_tracks = true;
      dev_serial += acc.busy_us;
      dev_ideal = std::max(dev_ideal, acc.busy_us);
    }
    rep.tracks.push_back(std::move(t));
  }
  if (rep.has_device_tracks) {
    rep.device_serial_us = dev_serial;
    rep.device_ideal_us = dev_ideal;
    rep.device_makespan_us = std::max(0.0, dev_max_end - dev_min_ts);
    const double hideable = dev_serial - dev_ideal;
    if (hideable > 0.0) {
      const double hidden = dev_serial - rep.device_makespan_us;
      rep.overlap_efficiency = std::clamp(hidden / hideable, 0.0, 1.0);
    } else {
      rep.overlap_efficiency = 1.0;  // single engine: nothing to hide
    }
  }

  // ---- metrics pass: coalescing, queue decomposition, Little's ----
  rep.batches = read_counter(metrics, "svc.batches");
  rep.batched_rows = read_counter(metrics, "svc.batch.rows");
  if (rep.batches > 0) {
    rep.mean_batch_rows = static_cast<double>(rep.batched_rows) /
                          static_cast<double>(rep.batches);
  }
  if (read_gauge(metrics, "svc.config.max_batch_rows",
                 &rep.max_batch_rows) &&
      rep.max_batch_rows > 0 && rep.batches > 0) {
    rep.coalescing_efficiency =
        rep.mean_batch_rows / static_cast<double>(rep.max_batch_rows);
  }

  const HistogramDoc wait =
      read_histogram(metrics, "svc.queue.wait_seconds");
  const HistogramDoc service =
      read_histogram(metrics, "svc.service.time_seconds");
  rep.wait_count = wait.count;
  if (wait.count > 0) {
    rep.mean_wait_s = wait.sum / static_cast<double>(wait.count);
    rep.p99_wait_le_s =
        percentile_le(wait.bounds, wait.counts, wait.count, 0.99);
  }
  if (service.count > 0) {
    rep.mean_service_s = service.sum / static_cast<double>(service.count);
    rep.p99_service_le_s = percentile_le(service.bounds, service.counts,
                                         service.count, 0.99);
  }
  const double latency = rep.mean_wait_s + rep.mean_service_s;
  rep.wait_share = latency > 0.0 ? rep.mean_wait_s / latency : 0.0;

  LittlesCheck& lc = rep.littles;
  lc.tolerance = opts.littles_tolerance;
  std::int64_t depth_us = 0;
  if (wait.present &&
      read_gauge(metrics, "svc.queue.depth_time_us", &depth_us)) {
    lc.evaluated = true;
    lc.wait_sum_s = wait.sum;
    lc.depth_integral_s = static_cast<double>(depth_us) * 1e-6;
    const double hi = std::max(lc.wait_sum_s, lc.depth_integral_s);
    if (hi <= 1e-6) {
      // Idle service: both integrals ~0; the identity holds trivially.
      lc.rel_error = 0.0;
      lc.pass = true;
    } else {
      lc.rel_error = std::abs(lc.wait_sum_s - lc.depth_integral_s) / hi;
      lc.pass = lc.rel_error <= lc.tolerance;
    }
    const double span_s = rep.span_us * 1e-6;
    if (span_s > 0.0) {
      lc.lambda_per_s = static_cast<double>(wait.count) / span_s;
      lc.mean_depth = lc.depth_integral_s / span_s;
    }
    lc.mean_wait_s = rep.mean_wait_s;
  }

  // ---- cost-ledger pass: top-N by attributed device time ----
  if (cost != nullptr && cost->is_object()) {
    rep.has_cost = true;
    rep.cost_dropped = cost->u64_or("dropped_requests", 0);
    if (const Value* reqs = cost->find("requests");
        reqs != nullptr && reqs->is_array()) {
      rep.cost_requests = reqs->items.size();
      std::vector<ExpensiveRequest> all;
      all.reserve(reqs->items.size());
      for (const Value& r : reqs->items) {
        if (!r.is_object()) {
          continue;
        }
        ExpensiveRequest e;
        e.trace_id = r.u64_or("trace", 0);
        e.batch_id = r.u64_or("batch", 0);
        e.device_ns = r.u64_or("device_ns", 0);
        e.h2d_ns = r.u64_or("h2d_ns", 0);
        e.d2h_ns = r.u64_or("d2h_ns", 0);
        e.h2d_bytes = r.u64_or("h2d_bytes", 0);
        e.d2h_bytes = r.u64_or("d2h_bytes", 0);
        e.wordops = r.u64_or("wordops", 0);
        e.retries = static_cast<std::uint32_t>(r.u64_or("retries", 0));
        e.failovers =
            static_cast<std::uint32_t>(r.u64_or("failovers", 0));
        if (const Value* ch = r.find("cache_hit"); ch != nullptr) {
          e.cache_hit = ch->boolean;
        }
        if (const Value* dg = r.find("degraded"); dg != nullptr) {
          e.degraded = dg->boolean;
        }
        all.push_back(e);
      }
      // Rank by total attributed device-side time; trace id breaks ties
      // so the report is byte-stable across runs of the same ledger.
      std::stable_sort(all.begin(), all.end(),
                       [](const ExpensiveRequest& a,
                          const ExpensiveRequest& b) {
                         const std::uint64_t ta =
                             a.device_ns + a.h2d_ns + a.d2h_ns;
                         const std::uint64_t tb =
                             b.device_ns + b.h2d_ns + b.d2h_ns;
                         if (ta != tb) {
                           return ta > tb;
                         }
                         return a.trace_id < b.trace_id;
                       });
      if (all.size() > opts.top_n) {
        all.resize(opts.top_n);
      }
      rep.top_requests = std::move(all);
    }
  }
  return rep;
}

void write_pipeline_report(const PipelineReport& rep, std::ostream& os) {
  os << "pipeline report:\n";
  os << "  trace: " << rep.trace_events << " events, span "
     << fmt_us(rep.span_us) << "\n";

  os << "  stage utilization:\n";
  if (rep.tracks.empty()) {
    os << "    (no slices in trace)\n";
  }
  for (const TrackUtilization& t : rep.tracks) {
    char head[64];
    std::snprintf(head, sizeof head, "    [pid %u/tid %u] ", t.pid,
                  t.tid);
    os << head << t.name << ": busy " << fmt_us(t.busy_us) << ", util "
       << fmt_pct(t.utilization) << ", slices " << t.slices << "\n";
  }

  if (rep.has_device_tracks) {
    os << "  overlap: device serial " << fmt_us(rep.device_serial_us)
       << ", makespan " << fmt_us(rep.device_makespan_us) << ", ideal "
       << fmt_us(rep.device_ideal_us) << " -> efficiency "
       << fmt_pct(rep.overlap_efficiency) << "\n";
  } else {
    os << "  overlap: n/a (no device tracks; cpu run)\n";
  }

  if (rep.batches > 0) {
    os << "  coalescing: " << rep.batched_rows << " rows / "
       << rep.batches << " batches = mean width "
       << fmt("%.2f", rep.mean_batch_rows);
    if (rep.max_batch_rows > 0) {
      os << " (max " << rep.max_batch_rows << ") -> efficiency "
         << fmt_pct(rep.coalescing_efficiency);
    }
    os << "\n";
  } else {
    os << "  coalescing: n/a (no svc batches in metrics)\n";
  }

  if (rep.wait_count > 0) {
    os << "  queue: " << rep.wait_count << " requests, mean wait "
       << fmt_s(rep.mean_wait_s) << " (p99<=" << fmt_s(rep.p99_wait_le_s)
       << "), mean service " << fmt_s(rep.mean_service_s) << " (p99<="
       << fmt_s(rep.p99_service_le_s) << "), wait share "
       << fmt_pct(rep.wait_share) << "\n";
  } else {
    os << "  queue: n/a (no svc.queue.wait_seconds histogram)\n";
  }

  const LittlesCheck& lc = rep.littles;
  if (lc.evaluated) {
    os << "  littles law: sum(wait) " << fmt("%.6f s", lc.wait_sum_s)
       << " vs depth integral " << fmt("%.6f s", lc.depth_integral_s)
       << ", rel err " << fmt_pct(lc.rel_error) << " -> "
       << (lc.pass ? "PASS" : "FAIL") << " (tol "
       << fmt_pct(lc.tolerance) << ")";
    if (lc.lambda_per_s > 0.0) {
      os << " [lambda " << fmt("%.1f", lc.lambda_per_s) << "/s, W "
         << fmt_s(lc.mean_wait_s) << ", mean depth "
         << fmt("%.3f", lc.mean_depth) << "]";
    }
    os << "\n";
  } else {
    os << "  littles law: n/a (needs svc.queue.wait_seconds histogram "
          "and svc.queue.depth_time_us gauge)\n";
  }

  if (rep.has_cost) {
    os << "  cost ledger: " << rep.cost_requests << " requests";
    if (rep.cost_dropped > 0) {
      os << " (" << rep.cost_dropped << " dropped)";
    }
    os << "\n";
    os << "  top requests by device time:\n";
    if (rep.top_requests.empty()) {
      os << "    (none)\n";
    }
    std::size_t rank = 1;
    for (const ExpensiveRequest& e : rep.top_requests) {
      os << "    " << rank++ << ". trace " << e.trace_id << " batch "
         << e.batch_id << ": device " << e.device_ns << " ns, h2d "
         << e.h2d_ns << " ns/" << e.h2d_bytes << " B, d2h " << e.d2h_ns
         << " ns/" << e.d2h_bytes << " B, wordops " << e.wordops;
      if (e.retries > 0) {
        os << ", retries " << e.retries;
      }
      if (e.failovers > 0) {
        os << ", failovers " << e.failovers;
      }
      if (e.degraded) {
        os << ", degraded";
      }
      if (e.cache_hit) {
        os << ", cache hit";
      }
      os << "\n";
    }
  }
}

}  // namespace snp::obs
