#include "obs/cost.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace snp::obs {

std::atomic<bool> CostLedger::attribution_enabled_{true};

std::uint64_t quantize_cost_ns(double seconds) {
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    return 0;
  }
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

namespace {

__extension__ using u128 = unsigned __int128;
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// floor(total * cum / weight_sum), one term of the telescoping split
/// (0 < weight_sum, cum <= weight_sum). The split and the ledger's
/// decoder both take it from here, so a rebuilt share is the share.
u128 scaled_floor(std::uint64_t total, u128 cum, u128 weight_sum) {
  if (weight_sum <= kU64Max) {
    // total*W fitting in 64 bits covers every realistic batch (ns totals
    // against row-count weights), and the hardware divide there is several
    // times cheaper than the library u128 divide — this runs once per
    // member per cost axis on the batch-completion path.
    const auto w = static_cast<std::uint64_t>(weight_sum);
    std::uint64_t product = 0;
    if (!__builtin_mul_overflow(total, w, &product)) {
      return total * static_cast<std::uint64_t>(cum) / w;
    }
    // Else total * cum fits in 128 bits, the weight sum in 64.
    return static_cast<u128>(total) * cum / weight_sum;
  }
  // Past 2^64 the product needs up to 192 bits. Walk total's bits from the
  // top, keeping (total's bits so far) * cum = q * W + r with r < W; each
  // step adds r or cum (both at most W) to r, and no comparison wraps.
  u128 q = 0;
  u128 r = 0;
  const auto add = [&](u128 x) {
    const bool carry = r >= weight_sum - x;
    r = carry ? r - (weight_sum - x) : r + x;
    q += carry ? 1 : 0;
  };
  for (int bit = 63; bit >= 0; --bit) {
    q <<= 1;
    add(r);
    add((total >> bit) & 1U ? cum : 0);
  }
  return q;
}

/// Member i's share of `total`: floor(total*C[i+1]/W) - floor(total*C[i]/W)
/// with C[i] = `before`, the weight of the members ahead of it.
std::uint64_t share_of(std::uint64_t total, u128 before, std::uint64_t weight,
                       u128 weight_sum) {
  if (weight_sum == 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      scaled_floor(total, before + weight, weight_sum) -
      scaled_floor(total, before, weight_sum));
}

}  // namespace

std::vector<std::uint64_t> split_exact(
    std::uint64_t total, std::span<const std::uint64_t> weights) {
  std::vector<std::uint64_t> shares(weights.size(), 0);
  if (weights.empty()) {
    return shares;
  }
  u128 weight_sum = 0;
  for (const std::uint64_t w : weights) {
    weight_sum += w;
  }
  if (weight_sum == 0) {
    if (total != 0) {
      throw std::invalid_argument(
          "split_exact: nonzero total with all-zero weights");
    }
    return shares;
  }
  // Telescoping split: share i = floor(total*C[i+1]/W) - floor(total*C[i]/W)
  // with C the cumulative weight prefix. Adjacent floors share their
  // inner term, so the sum collapses to floor(total*W/W) = total exactly;
  // each share differs from the real-valued total*w[i]/W by less than 1.
  u128 cum = 0;
  u128 prev_floor = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    const u128 next_floor = scaled_floor(total, cum, weight_sum);
    shares[i] = static_cast<std::uint64_t>(next_floor - prev_floor);
    prev_floor = next_floor;
  }
  return shares;
}

std::vector<RequestCost> attribute_batch(
    const BatchCostTotals& batch, std::span<const std::uint64_t> trace_ids,
    std::span<const std::uint64_t> rows_owned) {
  if (trace_ids.size() != rows_owned.size()) {
    throw std::invalid_argument(
        "attribute_batch: trace_ids/rows_owned length mismatch");
  }
  const auto device = split_exact(batch.device_ns, rows_owned);
  const auto h2d = split_exact(batch.h2d_ns, rows_owned);
  const auto d2h = split_exact(batch.d2h_ns, rows_owned);
  const auto h2d_b = split_exact(batch.h2d_bytes, rows_owned);
  const auto d2h_b = split_exact(batch.d2h_bytes, rows_owned);
  const auto ops = split_exact(batch.wordops, rows_owned);

  std::vector<RequestCost> costs(trace_ids.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    RequestCost& c = costs[i];
    c.trace_id = trace_ids[i];
    c.batch_id = batch.batch_id;
    c.batch_width = batch.width;
    c.rows = rows_owned[i];
    c.epoch = batch.epoch;
    c.degraded = batch.degraded;
    // Recovery surcharges are batch-scoped incidents (a retried H2D
    // stalls every member), so each member carries the full counts
    // rather than a split — the surcharge is the price of the company
    // you were coalesced with.
    c.retries = batch.retries;
    c.failovers = batch.failovers;
    c.device_ns = device[i];
    c.h2d_ns = h2d[i];
    c.d2h_ns = d2h[i];
    c.h2d_bytes = h2d_b[i];
    c.d2h_bytes = d2h_b[i];
    c.wordops = ops[i];
  }
  return costs;
}

// ---- the encoded logs ----------------------------------------------------
//
// Each log is a FIFO of records, and each field of a record is an
// unsigned LEB128 varint: 7 bits a byte, low bits first, so a value below
// 2^7 costs 1 B, below 2^14 2 B, below 2^21 3 B, below 2^28 4 B. Ids are
// stored as the zigzag of their wrapping difference from the record
// before (the Bases), so ids that count up cost 1 B each.
//
//   batch record:   batch id, weight sum, width, rows, epoch, degraded,
//                   retries, failovers, device_ns, h2d_ns, d2h_ns,
//                   h2d_bytes, d2h_bytes, wordops
//   member record:  0, trace id, batches since the previous member's
//                   (0: the same batch), row weight, weight before it in
//                   its batch, queue_wait_ns, service_ns
//   cache hit:      1, trace id, epoch, queue_wait_ns, service_ns
//
// Everything else a member's RequestCost holds — its batch id, width,
// epoch, degraded flag, surcharges and the six shares — is its batch's,
// and is rebuilt from the batch record: a share is share_of() of the
// batch total, the same floors split_exact takes.

namespace {

using Log = std::deque<std::uint8_t>;

/// Room for the longest record: a batch record is at most 125 B (nine
/// 64-bit fields of 10 B, three 32-bit ones of 5 B, the degraded flag's
/// 1 B and a 128-bit weight sum's 19 B), a member's at most 70 B.
constexpr std::ptrdiff_t kMaxRecord = 128;

/// Records are encoded into, and decoded from, a window of at least 8 of
/// them, so a log is copied to or from a KiB at a time rather than a byte
/// at a time.
using Window = std::array<std::uint8_t, 8 * kMaxRecord>;

template <class U>
std::uint8_t* put(std::uint8_t* p, U value) {
  while (value >= 0x80U) {
    *p++ = static_cast<std::uint8_t>(value | 0x80U);
    value >>= 7U;
  }
  *p++ = static_cast<std::uint8_t>(value);
  return p;
}

template <class U>
U get(const std::uint8_t*& p) {
  U value = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = *p++;
    value |= static_cast<U>(byte & 0x7FU) << shift;
    if (byte < 0x80U) {
      return value;
    }
  }
}

/// Zigzag of the wrapping difference `now - before`: small for ids close
/// to each other in either direction.
std::uint64_t delta(std::uint64_t now, std::uint64_t before) {
  const std::uint64_t d = now - before;
  return (d << 1U) ^ (std::uint64_t{0} - (d >> 63U));
}

std::uint64_t undelta(std::uint64_t zigzag, std::uint64_t before) {
  return before + ((zigzag >> 1U) ^ (std::uint64_t{0} - (zigzag & 1U)));
}

/// A decoded batch record: the totals and its members' weight sum.
struct BatchRecord {
  BatchCostTotals totals;
  u128 weight_sum = 0;
};

std::uint8_t* put_batch(std::uint8_t* p, std::uint64_t& prev_id,
                        const BatchCostTotals& b, u128 weight_sum) {
  p = put(p, delta(b.batch_id, prev_id));
  prev_id = b.batch_id;
  p = put(p, weight_sum);
  p = put(p, b.width);
  p = put(p, b.rows);
  p = put(p, b.epoch);
  p = put(p, std::uint64_t{b.degraded});
  p = put(p, b.retries);
  p = put(p, b.failovers);
  for (const std::uint64_t axis : {b.device_ns, b.h2d_ns, b.d2h_ns,
                                   b.h2d_bytes, b.d2h_bytes, b.wordops}) {
    p = put(p, axis);
  }
  return p;
}

BatchRecord get_batch(const std::uint8_t*& p, std::uint64_t& prev_id) {
  BatchRecord r;
  BatchCostTotals& b = r.totals;
  b.batch_id = prev_id = undelta(get<std::uint64_t>(p), prev_id);
  r.weight_sum = get<u128>(p);
  b.width = get<std::uint32_t>(p);
  b.rows = get<std::uint64_t>(p);
  b.epoch = get<std::uint64_t>(p);
  b.degraded = get<std::uint64_t>(p) != 0;
  b.retries = get<std::uint32_t>(p);
  b.failovers = get<std::uint32_t>(p);
  for (std::uint64_t* axis : {&b.device_ns, &b.h2d_ns, &b.d2h_ns,
                              &b.h2d_bytes, &b.d2h_bytes, &b.wordops}) {
    *axis = get<std::uint64_t>(p);
  }
  return r;
}

/// A decoded request record: the fields it keeps, and for a member which
/// batch it rode and where in it, to rebuild the rest from.
struct RequestRecord {
  RequestCost cost;
  std::uint64_t ordinal = 0;
  u128 before = 0;
};

std::uint8_t* put_member(std::uint8_t* p, std::uint64_t& prev_trace,
                         std::uint64_t& prev_ordinal, const RequestCost& c,
                         std::uint64_t ordinal, u128 before) {
  *p++ = 0;
  p = put(p, delta(c.trace_id, prev_trace));
  prev_trace = c.trace_id;
  p = put(p, ordinal - prev_ordinal);
  prev_ordinal = ordinal;
  p = put(p, c.rows);
  p = put(p, before);
  p = put(p, c.queue_wait_ns);
  return put(p, c.service_ns);
}

std::uint8_t* put_hit(std::uint8_t* p, std::uint64_t& prev_trace,
                      const RequestCost& c) {
  *p++ = 1;
  p = put(p, delta(c.trace_id, prev_trace));
  prev_trace = c.trace_id;
  p = put(p, c.epoch);
  p = put(p, c.queue_wait_ns);
  return put(p, c.service_ns);
}

RequestRecord get_request(const std::uint8_t*& p, std::uint64_t& prev_trace,
                          std::uint64_t& prev_ordinal) {
  RequestRecord r;
  RequestCost& c = r.cost;
  c.cache_hit = *p++ != 0;
  c.trace_id = prev_trace = undelta(get<std::uint64_t>(p), prev_trace);
  if (c.cache_hit) {
    c.epoch = get<std::uint64_t>(p);
  } else {
    r.ordinal = prev_ordinal += get<std::uint64_t>(p);
    c.rows = get<std::uint64_t>(p);
    r.before = get<u128>(p);
  }
  c.queue_wait_ns = get<std::uint64_t>(p);
  c.service_ns = get<std::uint64_t>(p);
  return r;
}

/// Removes the `count` oldest records of `log`; `read` decodes each one,
/// advancing the bases it holds.
template <class Read>
void pop_front(Log& log, std::uint64_t count, Read read) {
  Window window{};
  while (count > 0) {
    const auto n = static_cast<std::ptrdiff_t>(
        std::min({window.size(), log.size(),
                  static_cast<std::size_t>(count * kMaxRecord)}));
    std::copy_n(log.begin(), n, window.begin());
    const bool whole_log = static_cast<std::size_t>(n) == log.size();
    const std::uint8_t* p = window.data();
    // Only records that cannot run past the copied bytes.
    for (; count > 0 && (whole_log || window.data() + n - p >= kMaxRecord);
         --count) {
      read(p);
    }
    log.erase(log.begin(), log.begin() + (p - window.data()));
  }
}

/// Fills in what a member's record leaves to its batch.
void rebuild_member(RequestCost& c, const BatchRecord& batch, u128 before) {
  const BatchCostTotals& b = batch.totals;
  c.batch_id = b.batch_id;
  c.batch_width = b.width;
  c.epoch = b.epoch;
  c.degraded = b.degraded;
  c.retries = b.retries;
  c.failovers = b.failovers;
  const auto share = [&](std::uint64_t total) {
    return share_of(total, before, c.rows, batch.weight_sum);
  };
  c.device_ns = share(b.device_ns);
  c.h2d_ns = share(b.h2d_ns);
  c.d2h_ns = share(b.d2h_ns);
  c.h2d_bytes = share(b.h2d_bytes);
  c.d2h_bytes = share(b.d2h_bytes);
  c.wordops = share(b.wordops);
}

}  // namespace

struct CostLedger::Reader {
  CostSnapshot totals;
  std::vector<std::uint8_t> batch_log;
  std::vector<std::uint8_t> request_log;
  Bases head;

  /// Calls `f` with every retained batch, oldest first.
  template <class F>
  void each_batch(F&& f) const {
    std::uint64_t prev_id = head.batch_id;
    const std::uint8_t* const end = batch_log.data() + batch_log.size();
    for (const std::uint8_t* p = batch_log.data(); p != end;) {
      f(get_batch(p, prev_id).totals);
    }
  }

  /// Calls `f` with every retained request, oldest first, each member
  /// rebuilt from its batch. Members come in the order of their batches,
  /// so one forward pass over the batch log finds every member's batch.
  template <class F>
  void each_request(F&& f) const {
    const std::uint8_t* batch_p = batch_log.data();
    const std::uint8_t* const batch_end = batch_p + batch_log.size();
    std::uint64_t batch_prev_id = head.batch_id;
    std::uint64_t batch_ordinal = totals.dropped_batches;
    BatchRecord batch;
    std::uint64_t prev_trace = head.trace_id;
    std::uint64_t prev_ordinal = head.ordinal;
    const std::uint8_t* const end = request_log.data() + request_log.size();
    for (const std::uint8_t* p = request_log.data(); p != end;) {
      RequestRecord r = get_request(p, prev_trace, prev_ordinal);
      if (!r.cost.cache_hit) {
        while (batch_ordinal < r.ordinal && batch_p != batch_end) {
          batch = get_batch(batch_p, batch_prev_id);
          ++batch_ordinal;
        }
        if (batch_ordinal == r.ordinal) {
          rebuild_member(r.cost, batch, r.before);
        }
      }
      f(r.cost);
    }
  }
};

CostLedger::Reader CostLedger::read() const {
  const std::lock_guard lock(mu_);
  return Reader{totals_,
                {batch_log_.begin(), batch_log_.end()},
                {request_log_.begin(), request_log_.end()},
                head_};
}

void CostLedger::evict_locked() {
  const std::uint64_t batches = totals_.total_batches - totals_.dropped_batches;
  if (batches > kMaxRequests) {
    pop_front(batch_log_, batches - kMaxRequests,
              [&](const std::uint8_t*& p) {
                (void)get_batch(p, head_.batch_id);
              });
    totals_.dropped_batches += batches - kMaxRequests;
  }
  const std::uint64_t requests =
      totals_.total_requests - totals_.dropped_requests;
  if (requests > kMaxRequests) {
    pop_front(request_log_, requests - kMaxRequests,
              [&](const std::uint8_t*& p) {
                (void)get_request(p, head_.trace_id, head_.ordinal);
              });
    totals_.dropped_requests += requests - kMaxRequests;
  }
}

void CostLedger::record_batch(const BatchCostTotals& batch,
                              std::span<const RequestCost> costs) {
  u128 weight_sum = 0;
  for (const RequestCost& c : costs) {
    weight_sum += c.rows;
  }
  Window window{};
  const std::lock_guard lock(mu_);
  batch_log_.insert(batch_log_.end(), window.data(),
                    put_batch(window.data(), tail_.batch_id, batch,
                              weight_sum));
  totals_.total_batches++;  // the batch's ordinal
  u128 before = 0;
  std::uint8_t* p = window.data();
  for (const RequestCost& c : costs) {
    if (window.data() + window.size() - p < kMaxRecord) {
      request_log_.insert(request_log_.end(), window.data(), p);
      p = window.data();
    }
    p = put_member(p, tail_.trace_id, tail_.ordinal, c, totals_.total_batches,
                   before);
    before += c.rows;
  }
  request_log_.insert(request_log_.end(), window.data(), p);
  totals_.total_requests += costs.size();
  evict_locked();
  totals_.device_ns += batch.device_ns;
  totals_.h2d_ns += batch.h2d_ns;
  totals_.d2h_ns += batch.d2h_ns;
  totals_.h2d_bytes += batch.h2d_bytes;
  totals_.d2h_bytes += batch.d2h_bytes;
  totals_.wordops += batch.wordops;
  totals_.retries += batch.retries;
  totals_.failovers += batch.failovers;
  if (batch.degraded) {
    totals_.degraded_batches++;
  }
}

void CostLedger::record_cache_hit(const RequestCost& cost) {
  std::array<std::uint8_t, kMaxRecord> record{};
  const std::lock_guard lock(mu_);
  request_log_.insert(request_log_.end(), record.data(),
                      put_hit(record.data(), tail_.trace_id, cost));
  totals_.total_requests++;
  totals_.cache_hits++;
  evict_locked();
}

CostSnapshot CostLedger::snapshot() const {
  const Reader reader = read();
  CostSnapshot snap = reader.totals;
  snap.batches.reserve(snap.total_batches - snap.dropped_batches);
  snap.requests.reserve(snap.total_requests - snap.dropped_requests);
  reader.each_batch(
      [&](const BatchCostTotals& b) { snap.batches.push_back(b); });
  reader.each_request(
      [&](const RequestCost& c) { snap.requests.push_back(c); });
  return snap;
}

CostSnapshot CostLedger::totals() const {
  const std::lock_guard lock(mu_);
  return totals_;
}

void CostLedger::clear() {
  const std::lock_guard lock(mu_);
  batch_log_.clear();
  request_log_.clear();
  head_ = {};
  tail_ = {};
  totals_ = CostSnapshot{};
}

void CostLedger::write_json(std::ostream& os) const {
  const Reader reader = read();
  const CostSnapshot& snap = reader.totals;
  os << "{\n  \"cost\": 1,\n  \"totals\": {"
     << "\"requests\": " << snap.total_requests
     << ", \"cache_hits\": " << snap.cache_hits
     << ", \"device_ns\": " << snap.device_ns
     << ", \"h2d_ns\": " << snap.h2d_ns << ", \"d2h_ns\": " << snap.d2h_ns
     << ", \"h2d_bytes\": " << snap.h2d_bytes
     << ", \"d2h_bytes\": " << snap.d2h_bytes
     << ", \"wordops\": " << snap.wordops
     << ", \"retries\": " << snap.retries
     << ", \"failovers\": " << snap.failovers
     << ", \"degraded_batches\": " << snap.degraded_batches
     << "},\n  \"dropped_requests\": " << snap.dropped_requests
     << ",\n  \"dropped_batches\": " << snap.dropped_batches
     << ",\n  \"batches\": [";
  bool first = true;
  reader.each_batch([&](const BatchCostTotals& b) {
    os << (first ? "\n" : ",\n") << "    {\"batch\": " << b.batch_id
       << ", \"width\": " << b.width << ", \"rows\": " << b.rows
       << ", \"epoch\": " << b.epoch
       << ", \"device_ns\": " << b.device_ns << ", \"h2d_ns\": " << b.h2d_ns
       << ", \"d2h_ns\": " << b.d2h_ns << ", \"h2d_bytes\": " << b.h2d_bytes
       << ", \"d2h_bytes\": " << b.d2h_bytes
       << ", \"wordops\": " << b.wordops << ", \"retries\": " << b.retries
       << ", \"failovers\": " << b.failovers
       << ", \"degraded\": " << (b.degraded ? "true" : "false") << "}";
    first = false;
  });
  os << "\n  ],\n  \"requests\": [";
  first = true;
  reader.each_request([&](const RequestCost& c) {
    // queue_wait_ns / service_ns are deliberately absent: measured wall
    // clock would break the byte-identical-replay contract.
    os << (first ? "\n" : ",\n") << "    {\"trace\": " << c.trace_id
       << ", \"batch\": " << c.batch_id << ", \"width\": " << c.batch_width
       << ", \"rows\": " << c.rows << ", \"epoch\": " << c.epoch
       << ", \"cache_hit\": " << (c.cache_hit ? "true" : "false")
       << ", \"degraded\": " << (c.degraded ? "true" : "false")
       << ", \"retries\": " << c.retries
       << ", \"failovers\": " << c.failovers
       << ", \"device_ns\": " << c.device_ns << ", \"h2d_ns\": " << c.h2d_ns
       << ", \"d2h_ns\": " << c.d2h_ns << ", \"h2d_bytes\": " << c.h2d_bytes
       << ", \"d2h_bytes\": " << c.d2h_bytes
       << ", \"wordops\": " << c.wordops << "}";
    first = false;
  });
  os << "\n  ]\n}\n";
}

}  // namespace snp::obs
