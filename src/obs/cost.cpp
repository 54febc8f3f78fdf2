#include "obs/cost.hpp"

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

std::vector<std::uint64_t> split_exact(
    std::uint64_t total, std::span<const std::uint64_t> weights) {
  std::vector<std::uint64_t> shares(weights.size(), 0);
  if (weights.empty()) {
    return shares;
  }
  // 128-bit products: total and the cumulative weights are both u64, so
  // total * cum cannot overflow unsigned __int128.
  using u128 = unsigned __int128;
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
  //
  // total*W fitting in 64 bits covers every realistic batch (ns totals
  // against row-count weights), and the hardware divide there is several
  // times cheaper than the library u128 divide — this runs once per
  // member per cost axis on the batch-completion path.
  constexpr std::uint64_t kU64Max =
      std::numeric_limits<std::uint64_t>::max();
  if (weight_sum <= kU64Max &&
      total <= kU64Max / static_cast<std::uint64_t>(weight_sum)) {
    const std::uint64_t w = static_cast<std::uint64_t>(weight_sum);
    std::uint64_t cum = 0;
    std::uint64_t prev_floor = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      cum += weights[i];
      const std::uint64_t next_floor = total * cum / w;
      shares[i] = next_floor - prev_floor;
      prev_floor = next_floor;
    }
    return shares;
  }
  u128 cum = 0;
  u128 prev_floor = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    const u128 next_floor = (static_cast<u128>(total) * cum) / weight_sum;
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

void CostLedger::record_batch(const BatchCostTotals& batch,
                              std::span<const RequestCost> costs) {
  const std::lock_guard lock(mu_);
  batches_.push_back(batch);
  if (batches_.size() > kMaxRequests) {
    batches_.pop_front();
    totals_.dropped_batches++;
  }
  for (const RequestCost& c : costs) {
    requests_.push_back(c);
  }
  while (requests_.size() > kMaxRequests) {
    requests_.pop_front();
    totals_.dropped_requests++;
  }
  totals_.total_batches++;
  totals_.total_requests += costs.size();
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
  const std::lock_guard lock(mu_);
  requests_.push_back(cost);
  while (requests_.size() > kMaxRequests) {
    requests_.pop_front();
    totals_.dropped_requests++;
  }
  totals_.total_requests++;
  totals_.cache_hits++;
}

CostSnapshot CostLedger::snapshot() const {
  const std::lock_guard lock(mu_);
  CostSnapshot snap = totals_;
  snap.batches.assign(batches_.begin(), batches_.end());
  snap.requests.assign(requests_.begin(), requests_.end());
  return snap;
}

void CostLedger::clear() {
  const std::lock_guard lock(mu_);
  batches_.clear();
  requests_.clear();
  totals_ = CostSnapshot{};
}

void CostLedger::write_json(std::ostream& os) const {
  const CostSnapshot snap = snapshot();
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
  for (const BatchCostTotals& b : snap.batches) {
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
  }
  os << "\n  ],\n  \"requests\": [";
  first = true;
  for (const RequestCost& c : snap.requests) {
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
  }
  os << "\n  ]\n}\n";
}

}  // namespace snp::obs
