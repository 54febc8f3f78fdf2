// Per-request cost ledger conformance (PR 8): the exactness contract —
// split_exact shares telescope bit-identically to the batch totals on
// every integer axis, for any weights — plus the service-level
// attribution sweep (device presets x ops x batch widths), the fault
// soak (recovery surcharges attributed without breaking the identity),
// the deterministic --cost-out JSON, an in-process Little's-law
// agreement check, and the offline pipeline analyzer behind
// `snpcmp report`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "io/datagen.hpp"
#include "obs/cost.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "rt/fault.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using obs::BatchCostTotals;
using obs::CostSnapshot;
using obs::RequestCost;
using svc::QueryResult;
using svc::ServiceConfig;
using svc::ServiceEngine;
__extension__ using u128 = unsigned __int128;

// ---- split_exact: the telescoping identity -----------------------------

TEST(SplitExact, EmptyWeightsReturnEmpty) {
  EXPECT_TRUE(obs::split_exact(42, {}).empty());
}

TEST(SplitExact, ZeroTotalGivesAllZeroShares) {
  const std::vector<std::uint64_t> weights{3, 0, 7};
  const auto shares = obs::split_exact(0, weights);
  EXPECT_EQ(shares, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(SplitExact, AllZeroWeightsWithPositiveTotalThrows) {
  const std::vector<std::uint64_t> weights{0, 0, 0};
  EXPECT_THROW((void)obs::split_exact(1, weights), std::invalid_argument);
  // ... but a zero total over zero weights is a well-defined no-op.
  EXPECT_EQ(obs::split_exact(0, weights),
            (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(SplitExact, ZeroWeightMembersReceiveNothing) {
  const std::vector<std::uint64_t> weights{0, 3, 0, 5};
  const auto shares = obs::split_exact(17, weights);
  EXPECT_EQ(shares[0], 0U);
  EXPECT_EQ(shares[2], 0U);
  EXPECT_EQ(shares[0] + shares[1] + shares[2] + shares[3], 17U);
}

/// 500 random (total, weights) cases: shares must sum to the total
/// bit-identically AND each share must be within one unit of the
/// real-valued proportional split — |share*W - total*w| < W.
TEST(SplitExact, SharesTelescopeToTotalAndStayProportional) {
  std::mt19937_64 rng(8801);
  std::uniform_int_distribution<std::uint64_t> total_dist(
      0, 1'000'000'000'000'000'000ULL);
  std::uniform_int_distribution<std::size_t> n_dist(1, 33);
  std::uniform_int_distribution<std::uint64_t> w_dist(0, 1'000'000);
  for (int rep = 0; rep < 500; ++rep) {
    const std::size_t n = n_dist(rng);
    std::vector<std::uint64_t> weights(n);
    for (auto& w : weights) {
      w = rng() % 4 == 0 ? 0 : w_dist(rng);  // sprinkle zero weights
    }
    weights[rng() % n] += 1;  // never all-zero
    const std::uint64_t total = total_dist(rng);

    const auto shares = obs::split_exact(total, weights);
    ASSERT_EQ(shares.size(), n);
    u128 sum = 0;
    u128 weight_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += shares[i];
      weight_sum += weights[i];
    }
    ASSERT_EQ(static_cast<std::uint64_t>(sum), total) << "rep=" << rep;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 scaled = static_cast<u128>(shares[i]) * weight_sum;
      const u128 exact = static_cast<u128>(total) * weights[i];
      const u128 diff = scaled > exact ? scaled - exact : exact - scaled;
      ASSERT_LT(diff, weight_sum) << "rep=" << rep << " i=" << i;
      if (weights[i] == 0) {
        ASSERT_EQ(shares[i], 0U) << "rep=" << rep << " i=" << i;
      }
    }
  }
}

TEST(SplitExact, HugeTotalsUseWideArithmetic) {
  // total * cumulative-weight overflows u64 by ~19 decimal digits; the
  // u128 telescoping must still land exactly.
  const std::uint64_t total = ~0ULL;
  const std::vector<std::uint64_t> weights{~0ULL / 2, ~0ULL / 3, 12345};
  const auto shares = obs::split_exact(total, weights);
  u128 sum = 0;
  for (const auto s : shares) {
    sum += s;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(sum), total);
}

/// floor(total * c / w) by binary long division of the 192-bit product,
/// built from 32-bit limbs: independent of split_exact's arithmetic.
u128 long_division_floor(std::uint64_t total, u128 c, u128 w) {
  constexpr std::uint64_t kMask = 0xffffffffULL;
  const std::uint64_t t[2] = {total & kMask, total >> 32};
  std::uint64_t cl[4];
  for (int j = 0; j < 4; ++j) {
    cl[j] = static_cast<std::uint64_t>(c >> (32 * j)) & kMask;
  }
  std::uint64_t prod[6] = {};  // total * c, least significant limb first
  for (int i = 0; i < 2; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t cur = prod[i + j] + t[i] * cl[j] + carry;
      prod[i + j] = cur & kMask;
      carry = cur >> 32;
    }
    prod[i + 4] += carry;
  }
  u128 q = 0;
  u128 rem = 0;
  for (int bit = 191; bit >= 0; --bit) {
    const bool carry_out = (rem >> 127) != 0;
    rem = (rem << 1) | ((prod[bit / 32] >> (bit % 32)) & 1U);
    q <<= 1;
    if (carry_out || rem >= w) {
      rem -= w;
      q |= 1;
    }
  }
  return q;
}

/// Checks every share against the long-division reference and their sum
/// against the total.
void expect_long_division_shares(std::uint64_t total,
                                 const std::vector<std::uint64_t>& weights) {
  const auto shares = obs::split_exact(total, weights);
  ASSERT_EQ(shares.size(), weights.size());
  u128 weight_sum = 0;
  for (const auto w : weights) {
    weight_sum += w;
  }
  u128 cum = 0;
  u128 prev = 0;
  u128 sum = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    const u128 next = long_division_floor(total, cum, weight_sum);
    ASSERT_EQ(static_cast<u128>(shares[i]), next - prev)
        << "share " << i << " of " << weights.size();
    prev = next;
    sum += shares[i];
  }
  EXPECT_TRUE(sum == total);
}

TEST(SplitExact, WeightSumsPast2To64MatchLongDivision) {
  // 2^64 - 1 is divisible by 3, so three equal weights split it evenly.
  const std::vector<std::uint64_t> equal(3, 1ULL << 63);
  EXPECT_EQ(obs::split_exact(~0ULL, equal),
            std::vector<std::uint64_t>(3, 6148914691236517205ULL));
  expect_long_division_shares(~0ULL, equal);

  std::mt19937_64 rng(8802);
  std::uniform_int_distribution<std::size_t> n_dist(2, 40);
  for (int rep = 0; rep < 300; ++rep) {
    std::vector<std::uint64_t> weights(n_dist(rng));
    for (auto& w : weights) {
      // Mostly top-heavy weights, with zeros and small ones between.
      const auto kind = rng() % 8;
      w = kind == 0 ? 0 : kind == 1 ? rng() % 1000 : rng() | (1ULL << 63);
    }
    weights[0] = ~0ULL;
    weights[1] = ~0ULL;  // the sum is past 2^64 whatever the others are
    const std::uint64_t total = rep % 3 == 0 ? ~0ULL - rng() % 1024 : rng();
    SCOPED_TRACE("rep=" + std::to_string(rep));
    expect_long_division_shares(total, weights);
  }
}

TEST(QuantizeCostNs, RoundsToNearestAndClampsJunk) {
  EXPECT_EQ(obs::quantize_cost_ns(1.0), 1'000'000'000ULL);
  EXPECT_EQ(obs::quantize_cost_ns(1.5e-9), 2ULL);  // round to nearest
  EXPECT_EQ(obs::quantize_cost_ns(0.25e-9), 0ULL);
  EXPECT_EQ(obs::quantize_cost_ns(0.0), 0ULL);
  EXPECT_EQ(obs::quantize_cost_ns(-3.0), 0ULL);
  EXPECT_EQ(obs::quantize_cost_ns(std::nan("")), 0ULL);
  EXPECT_EQ(obs::quantize_cost_ns(
                std::numeric_limits<double>::infinity()),
            0ULL);
}

// ---- attribute_batch ---------------------------------------------------

TEST(AttributeBatch, MetadataPropagatesAndAxesSumExactly) {
  BatchCostTotals batch;
  batch.batch_id = 7;
  batch.width = 3;
  batch.rows = 8;
  batch.epoch = 2;
  batch.degraded = true;
  batch.retries = 4;
  batch.failovers = 1;
  batch.device_ns = 1'000'003;
  batch.h2d_ns = 777;
  batch.d2h_ns = 13;
  batch.h2d_bytes = 4096;
  batch.d2h_bytes = 100;
  batch.wordops = 999'999'937;  // prime: no axis splits evenly
  const std::vector<std::uint64_t> traces{11, 22, 33};
  const std::vector<std::uint64_t> rows{1, 3, 4};

  const auto costs = obs::attribute_batch(batch, traces, rows);
  ASSERT_EQ(costs.size(), 3U);
  std::uint64_t device = 0, h2d = 0, d2h = 0, h2d_b = 0, d2h_b = 0, ops = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs[i].trace_id, traces[i]);
    EXPECT_EQ(costs[i].rows, rows[i]);
    EXPECT_EQ(costs[i].batch_id, 7U);
    EXPECT_EQ(costs[i].batch_width, 3U);
    EXPECT_EQ(costs[i].epoch, 2U);
    EXPECT_TRUE(costs[i].degraded);
    // Surcharges are batch-scoped incidents: carried whole, not split.
    EXPECT_EQ(costs[i].retries, 4U);
    EXPECT_EQ(costs[i].failovers, 1U);
    device += costs[i].device_ns;
    h2d += costs[i].h2d_ns;
    d2h += costs[i].d2h_ns;
    h2d_b += costs[i].h2d_bytes;
    d2h_b += costs[i].d2h_bytes;
    ops += costs[i].wordops;
  }
  EXPECT_EQ(device, batch.device_ns);
  EXPECT_EQ(h2d, batch.h2d_ns);
  EXPECT_EQ(d2h, batch.d2h_ns);
  EXPECT_EQ(h2d_b, batch.h2d_bytes);
  EXPECT_EQ(d2h_b, batch.d2h_bytes);
  EXPECT_EQ(ops, batch.wordops);
}

TEST(AttributeBatch, LengthMismatchThrows) {
  const BatchCostTotals batch;
  const std::vector<std::uint64_t> traces{1, 2};
  const std::vector<std::uint64_t> rows{1};
  EXPECT_THROW((void)obs::attribute_batch(batch, traces, rows),
               std::invalid_argument);
}

// ---- CostLedger store --------------------------------------------------

TEST(CostLedger, TotalsAccumulateAndClearResets) {
  obs::CostLedger ledger;
  BatchCostTotals b1;
  b1.batch_id = 1;
  b1.width = 2;
  b1.device_ns = 100;
  b1.h2d_bytes = 64;
  b1.retries = 1;
  b1.degraded = true;
  const std::vector<std::uint64_t> traces{5, 6};
  const std::vector<std::uint64_t> rows{1, 1};
  ledger.record_batch(b1, obs::attribute_batch(b1, traces, rows));
  RequestCost hit;
  hit.trace_id = 9;
  hit.cache_hit = true;
  ledger.record_cache_hit(hit);

  const CostSnapshot snap = ledger.snapshot();
  EXPECT_EQ(snap.batches.size(), 1U);
  EXPECT_EQ(snap.requests.size(), 3U);
  EXPECT_EQ(snap.total_requests, 3U);
  EXPECT_EQ(snap.cache_hits, 1U);
  EXPECT_EQ(snap.device_ns, 100U);
  EXPECT_EQ(snap.h2d_bytes, 64U);
  EXPECT_EQ(snap.retries, 1U);
  EXPECT_EQ(snap.degraded_batches, 1U);

  ledger.clear();
  const CostSnapshot empty = ledger.snapshot();
  EXPECT_TRUE(empty.batches.empty());
  EXPECT_TRUE(empty.requests.empty());
  EXPECT_EQ(empty.total_requests, 0U);
}

TEST(CostLedger, FifoEvictionCountsDroppedKeepsTotals) {
  obs::CostLedger ledger;
  constexpr std::uint64_t kOver = 5;
  for (std::uint64_t i = 0; i < obs::CostLedger::kMaxRequests + kOver; ++i) {
    RequestCost hit;
    hit.trace_id = i + 1;
    hit.cache_hit = true;
    ledger.record_cache_hit(hit);
  }
  const CostSnapshot snap = ledger.snapshot();
  EXPECT_EQ(snap.requests.size(), obs::CostLedger::kMaxRequests);
  EXPECT_EQ(snap.dropped_requests, kOver);
  EXPECT_EQ(snap.total_requests, obs::CostLedger::kMaxRequests + kOver);
  // FIFO: the oldest records went first.
  EXPECT_EQ(snap.requests.front().trace_id, kOver + 1);

  // Batch totals are capped the same way. Every batch holds at least one
  // request, so the oldest retained request's batch is still retained.
  obs::CostLedger batched;
  for (std::uint64_t i = 0; i < obs::CostLedger::kMaxRequests + kOver; ++i) {
    BatchCostTotals b;
    b.batch_id = i + 1;
    b.width = 1;
    b.rows = 1;
    b.wordops = 3;
    const std::vector<std::uint64_t> traces{i + 1};
    const std::vector<std::uint64_t> rows{1};
    batched.record_batch(b, obs::attribute_batch(b, traces, rows));
  }
  const CostSnapshot bs = batched.snapshot();
  EXPECT_EQ(bs.batches.size(), obs::CostLedger::kMaxRequests);
  EXPECT_EQ(bs.dropped_batches, kOver);
  EXPECT_EQ(bs.dropped_requests, kOver);
  EXPECT_EQ(bs.total_batches, obs::CostLedger::kMaxRequests + kOver);
  EXPECT_EQ(bs.wordops, 3 * (obs::CostLedger::kMaxRequests + kOver));
  EXPECT_EQ(bs.batches.front().batch_id, kOver + 1);
  EXPECT_EQ(bs.requests.front().batch_id, bs.batches.front().batch_id);
  std::ostringstream json;
  batched.write_json(json);
  EXPECT_NE(json.str().find("\"dropped_requests\": 5,\n  "
                            "\"dropped_batches\": 5,"),
            std::string::npos);
}

// ---- CostLedger round trip ---------------------------------------------

/// A seeded stream of batches, attributed by attribute_batch with the wall
/// fields filled in, and cache hits, recorded into a ledger. `sent` keeps
/// every record handed over, in order, and the totals they add up to.
struct CostStream {
  std::mt19937_64 rng;
  CostSnapshot sent;
  std::uint64_t next_id = 1;

  explicit CostStream(std::uint64_t seed) : rng(seed) {}

  bool chance(std::uint64_t one_in) { return rng() % one_in == 0; }

  /// Usually the next id up; now and then anywhere in 64 bits.
  std::uint64_t id() { return chance(64) ? rng() : next_id++; }

  /// Usually a few million; sometimes 0, sometimes within 2^10 of 2^64
  /// (so that split_exact takes its 128-bit path).
  std::uint64_t value() {
    switch (rng() % 8) {
      case 0:
        return 0;
      case 1:
        return ~0ULL - rng() % 1024;
      default:
        return rng() % 10'000'000;
    }
  }

  void batch(obs::CostLedger& ledger, std::size_t width) {
    BatchCostTotals b;
    b.batch_id = id();
    b.width = static_cast<std::uint32_t>(width);
    b.epoch = chance(32) ? rng() : rng() % 4;
    b.degraded = chance(4);
    b.retries = chance(4) ? static_cast<std::uint32_t>(rng() % 5) : 0;
    b.failovers = chance(4) ? static_cast<std::uint32_t>(rng() % 3) : 0;
    std::vector<std::uint64_t> traces(width);
    std::vector<std::uint64_t> weights(width);
    std::uint64_t weight_sum = 0;
    for (std::size_t i = 0; i < width; ++i) {
      traces[i] = id();
      weights[i] = chance(4)   ? 0
                   : chance(8) ? rng() % (1ULL << 40)
                               : 1 + rng() % 3;
      weight_sum += weights[i];
    }
    b.rows = chance(2) ? weight_sum : rng() % 64;
    // All-zero weights can split only zero totals.
    for (std::uint64_t* axis : {&b.device_ns, &b.h2d_ns, &b.d2h_ns,
                                &b.h2d_bytes, &b.d2h_bytes, &b.wordops}) {
      *axis = weight_sum == 0 ? 0 : value();
    }
    auto costs = obs::attribute_batch(b, traces, weights);
    for (RequestCost& c : costs) {
      c.queue_wait_ns = value();
      c.service_ns = value();
    }
    ledger.record_batch(b, costs);
    sent.batches.push_back(b);
    sent.requests.insert(sent.requests.end(), costs.begin(), costs.end());
    sent.total_batches++;
    sent.total_requests += width;
    sent.device_ns += b.device_ns;
    sent.h2d_ns += b.h2d_ns;
    sent.d2h_ns += b.d2h_ns;
    sent.h2d_bytes += b.h2d_bytes;
    sent.d2h_bytes += b.d2h_bytes;
    sent.wordops += b.wordops;
    sent.retries += b.retries;
    sent.failovers += b.failovers;
    sent.degraded_batches += b.degraded ? 1 : 0;
  }

  void cache_hit(obs::CostLedger& ledger) {
    RequestCost c;
    c.trace_id = id();
    c.epoch = chance(32) ? rng() : rng() % 4;
    c.cache_hit = true;
    c.queue_wait_ns = chance(2) ? 0 : value();
    c.service_ns = value();
    ledger.record_cache_hit(c);
    sent.requests.push_back(c);
    sent.total_requests++;
    sent.cache_hits++;
  }
};

void expect_same_batch(const BatchCostTotals& got, const BatchCostTotals& want,
                       std::size_t i) {
  EXPECT_EQ(got.batch_id, want.batch_id) << "batch " << i;
  EXPECT_EQ(got.width, want.width) << "batch " << i;
  EXPECT_EQ(got.rows, want.rows) << "batch " << i;
  EXPECT_EQ(got.epoch, want.epoch) << "batch " << i;
  EXPECT_EQ(got.degraded, want.degraded) << "batch " << i;
  EXPECT_EQ(got.retries, want.retries) << "batch " << i;
  EXPECT_EQ(got.failovers, want.failovers) << "batch " << i;
  EXPECT_EQ(got.device_ns, want.device_ns) << "batch " << i;
  EXPECT_EQ(got.h2d_ns, want.h2d_ns) << "batch " << i;
  EXPECT_EQ(got.d2h_ns, want.d2h_ns) << "batch " << i;
  EXPECT_EQ(got.h2d_bytes, want.h2d_bytes) << "batch " << i;
  EXPECT_EQ(got.d2h_bytes, want.d2h_bytes) << "batch " << i;
  EXPECT_EQ(got.wordops, want.wordops) << "batch " << i;
}

void expect_same_request(const RequestCost& got, const RequestCost& want,
                         std::size_t i) {
  EXPECT_EQ(got.trace_id, want.trace_id) << "request " << i;
  EXPECT_EQ(got.batch_id, want.batch_id) << "request " << i;
  EXPECT_EQ(got.batch_width, want.batch_width) << "request " << i;
  EXPECT_EQ(got.rows, want.rows) << "request " << i;
  EXPECT_EQ(got.epoch, want.epoch) << "request " << i;
  EXPECT_EQ(got.cache_hit, want.cache_hit) << "request " << i;
  EXPECT_EQ(got.degraded, want.degraded) << "request " << i;
  EXPECT_EQ(got.retries, want.retries) << "request " << i;
  EXPECT_EQ(got.failovers, want.failovers) << "request " << i;
  EXPECT_EQ(got.device_ns, want.device_ns) << "request " << i;
  EXPECT_EQ(got.h2d_ns, want.h2d_ns) << "request " << i;
  EXPECT_EQ(got.d2h_ns, want.d2h_ns) << "request " << i;
  EXPECT_EQ(got.h2d_bytes, want.h2d_bytes) << "request " << i;
  EXPECT_EQ(got.d2h_bytes, want.d2h_bytes) << "request " << i;
  EXPECT_EQ(got.wordops, want.wordops) << "request " << i;
  EXPECT_EQ(got.queue_wait_ns, want.queue_wait_ns) << "request " << i;
  EXPECT_EQ(got.service_ns, want.service_ns) << "request " << i;
}

/// The cost document rendered from plain records, as the ledger has
/// always written it.
std::string reference_json(const CostSnapshot& s) {
  std::ostringstream os;
  os << "{\n  \"cost\": 1,\n  \"totals\": {\"requests\": " << s.total_requests
     << ", \"cache_hits\": " << s.cache_hits
     << ", \"device_ns\": " << s.device_ns << ", \"h2d_ns\": " << s.h2d_ns
     << ", \"d2h_ns\": " << s.d2h_ns << ", \"h2d_bytes\": " << s.h2d_bytes
     << ", \"d2h_bytes\": " << s.d2h_bytes << ", \"wordops\": " << s.wordops
     << ", \"retries\": " << s.retries << ", \"failovers\": " << s.failovers
     << ", \"degraded_batches\": " << s.degraded_batches
     << "},\n  \"dropped_requests\": " << s.dropped_requests
     << ",\n  \"dropped_batches\": " << s.dropped_batches
     << ",\n  \"batches\": [";
  const char* sep = "\n";
  for (const BatchCostTotals& b : s.batches) {
    os << sep << "    {\"batch\": " << b.batch_id << ", \"width\": " << b.width
       << ", \"rows\": " << b.rows << ", \"epoch\": " << b.epoch
       << ", \"device_ns\": " << b.device_ns << ", \"h2d_ns\": " << b.h2d_ns
       << ", \"d2h_ns\": " << b.d2h_ns << ", \"h2d_bytes\": " << b.h2d_bytes
       << ", \"d2h_bytes\": " << b.d2h_bytes << ", \"wordops\": " << b.wordops
       << ", \"retries\": " << b.retries << ", \"failovers\": " << b.failovers
       << ", \"degraded\": " << (b.degraded ? "true" : "false") << "}";
    sep = ",\n";
  }
  os << "\n  ],\n  \"requests\": [";
  sep = "\n";
  for (const RequestCost& c : s.requests) {
    os << sep << "    {\"trace\": " << c.trace_id << ", \"batch\": "
       << c.batch_id << ", \"width\": " << c.batch_width
       << ", \"rows\": " << c.rows << ", \"epoch\": " << c.epoch
       << ", \"cache_hit\": " << (c.cache_hit ? "true" : "false")
       << ", \"degraded\": " << (c.degraded ? "true" : "false")
       << ", \"retries\": " << c.retries << ", \"failovers\": " << c.failovers
       << ", \"device_ns\": " << c.device_ns << ", \"h2d_ns\": " << c.h2d_ns
       << ", \"d2h_ns\": " << c.d2h_ns << ", \"h2d_bytes\": " << c.h2d_bytes
       << ", \"d2h_bytes\": " << c.d2h_bytes << ", \"wordops\": " << c.wordops
       << "}";
    sep = ",\n";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

/// Where two documents first differ, with some of each around it
/// (EXPECT_EQ would diff every line of a multi-MiB document).
std::string first_difference(const std::string& got, const std::string& want) {
  const auto at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const std::size_t from = at > 80 ? at - 80 : 0;
  return "first difference at byte " + std::to_string(at) + "\ngot:  " +
         got.substr(from, 160) + "\nwant: " + want.substr(from, 160);
}

/// The ledger must give back the last kMaxRequests batches and requests
/// it was sent, field by field, with the totals of everything sent, and
/// write the reference rendering of them.
void expect_ledger_holds(const obs::CostLedger& ledger,
                         const CostSnapshot& sent) {
  constexpr std::size_t kCap = obs::CostLedger::kMaxRequests;
  CostSnapshot want = sent;
  const auto keep_last = [](auto& records, std::uint64_t& dropped) {
    dropped = records.size() > kCap ? records.size() - kCap : 0;
    records.erase(records.begin(),
                  records.begin() + static_cast<std::ptrdiff_t>(dropped));
  };
  keep_last(want.batches, want.dropped_batches);
  keep_last(want.requests, want.dropped_requests);

  const CostSnapshot got = ledger.snapshot();
  EXPECT_EQ(got.dropped_batches, want.dropped_batches);
  EXPECT_EQ(got.dropped_requests, want.dropped_requests);
  EXPECT_EQ(got.total_batches, want.total_batches);
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.wordops, want.wordops);
  EXPECT_EQ(got.degraded_batches, want.degraded_batches);
  const CostSnapshot totals = ledger.totals();
  EXPECT_TRUE(totals.batches.empty());
  EXPECT_TRUE(totals.requests.empty());
  EXPECT_EQ(totals.total_requests, want.total_requests);
  EXPECT_EQ(totals.dropped_requests, want.dropped_requests);
  ASSERT_EQ(got.batches.size(), want.batches.size());
  ASSERT_EQ(got.requests.size(), want.requests.size());
  // Stop at the first wrong record: one is enough to see what broke.
  using ::testing::Test;
  for (std::size_t i = 0; i < want.batches.size() && !Test::HasFailure();
       ++i) {
    expect_same_batch(got.batches[i], want.batches[i], i);
  }
  for (std::size_t i = 0; i < want.requests.size() && !Test::HasFailure();
       ++i) {
    expect_same_request(got.requests[i], want.requests[i], i);
  }
  std::ostringstream json;
  ledger.write_json(json);
  const std::string want_json = reference_json(want);
  EXPECT_TRUE(json.str() == want_json)
      << first_difference(json.str(), want_json);
}

TEST(CostLedger, SnapshotAndJsonRebuildEveryRecordExactly) {
  obs::CostLedger ledger;
  CostStream stream(8861);
  for (int i = 0; i < 3000; ++i) {
    stream.batch(ledger, 1 + stream.rng() % 9);
    if (stream.chance(3)) {
      stream.cache_hit(ledger);
    }
  }
  expect_ledger_holds(ledger, stream.sent);
}

TEST(CostLedger, EvictionKeepsTheSharesOfABatchCutInTwo) {
  obs::CostLedger ledger;
  CostStream stream(8862);
  // Mostly width-1 batches, so that the batch records overflow the cap
  // too, not only the request records.
  while (stream.sent.total_batches <= obs::CostLedger::kMaxRequests + 64) {
    stream.batch(ledger, stream.chance(8) ? 2 + stream.rng() % 8 : 1);
    if (stream.chance(8)) {
      stream.cache_hit(ledger);
    }
  }
  // One wide batch evicts hundreds of records at once, more than the
  // ledger decodes from one copy of a log's front.
  stream.batch(ledger, 300);
  // One width-1 batch at a time moves the eviction point by one request,
  // until it cuts a batch after members that carry weight.
  const auto cut_after_weight = [&] {
    const auto& reqs = stream.sent.requests;
    const std::size_t front = reqs.size() - obs::CostLedger::kMaxRequests;
    std::uint64_t evicted_weight = 0;
    for (std::size_t i = front; i > 0 && !reqs[i].cache_hit &&
                                !reqs[i - 1].cache_hit &&
                                reqs[i - 1].batch_id == reqs[front].batch_id;
         --i) {
      evicted_weight += reqs[i - 1].rows;
    }
    return evicted_weight > 0;
  };
  while (!cut_after_weight()) {
    stream.batch(ledger, 1);
  }
  expect_ledger_holds(ledger, stream.sent);
}

// ---- service-level attribution -----------------------------------------

/// Groups a snapshot's request shares by batch and asserts every integer
/// axis sums bit-identically to the owning batch's totals.
void assert_shares_sum_to_batches(const CostSnapshot& snap,
                                  const std::string& what) {
  struct Axes {
    std::uint64_t device = 0, h2d = 0, d2h = 0;
    std::uint64_t h2d_b = 0, d2h_b = 0, ops = 0, rows = 0;
  };
  std::map<std::uint64_t, Axes> sums;
  for (const RequestCost& c : snap.requests) {
    if (c.cache_hit) {
      continue;
    }
    Axes& a = sums[c.batch_id];
    a.device += c.device_ns;
    a.h2d += c.h2d_ns;
    a.d2h += c.d2h_ns;
    a.h2d_b += c.h2d_bytes;
    a.d2h_b += c.d2h_bytes;
    a.ops += c.wordops;
    a.rows += c.rows;
  }
  ASSERT_EQ(sums.size(), snap.batches.size()) << what;
  for (const BatchCostTotals& b : snap.batches) {
    const auto it = sums.find(b.batch_id);
    ASSERT_NE(it, sums.end()) << what << " batch=" << b.batch_id;
    EXPECT_EQ(it->second.device, b.device_ns) << what;
    EXPECT_EQ(it->second.h2d, b.h2d_ns) << what;
    EXPECT_EQ(it->second.d2h, b.d2h_ns) << what;
    EXPECT_EQ(it->second.h2d_b, b.h2d_bytes) << what;
    EXPECT_EQ(it->second.d2h_b, b.d2h_bytes) << what;
    EXPECT_EQ(it->second.ops, b.wordops) << what;
    EXPECT_EQ(it->second.rows, b.rows) << what;
  }
}

ServiceConfig cost_config(const std::string& device, Comparison op,
                          std::size_t width) {
  ServiceConfig cfg;
  cfg.device = device;
  cfg.op = op;
  cfg.max_batch_rows = width;
  cfg.cache_capacity = 0;
  cfg.recovery.policy = rt::FailPolicy::kAbort;
  cfg.recovery.backoff_base_s = 0.0;
  cfg.start_paused = true;
  return cfg;
}

TEST(ServiceCost, SharesSumBitIdenticallyAcrossPresetsOpsAndWidths) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "cost attribution compiled out (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(31, 128, 0.5, 8811);
  const BitMatrix queries = io::random_bitmatrix(10, 128, 0.4, 8812);
  for (const std::string device : {"gtx980", "titanv", "vega64"}) {
    for (const Comparison op :
         {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
      for (const std::size_t width : {1UL, 8UL, 32UL}) {
        const std::string what = device + "/" + std::string(to_string(op)) +
                                 "/w" + std::to_string(width);
        ServiceEngine engine(db, cost_config(device, op, width));
        std::vector<std::future<QueryResult>> futs;
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
        }
        engine.resume();
        engine.drain();

        const CostSnapshot snap = engine.cost();
        ASSERT_EQ(snap.requests.size(), queries.rows()) << what;
        EXPECT_EQ(snap.total_requests, queries.rows()) << what;
        EXPECT_EQ(snap.dropped_requests, 0U) << what;
        assert_shares_sum_to_batches(snap, what);

        for (auto& f : futs) {
          const QueryResult r = f.get();
          // The result-side record is the ledger's record: same id,
          // same batch, real ownership, a measured service clock.
          EXPECT_EQ(r.cost.trace_id, r.trace_id) << what;
          EXPECT_EQ(r.cost.batch_id, r.batch_id) << what;
          EXPECT_EQ(r.cost.rows, 1U) << what;
          EXPECT_FALSE(r.cost.cache_hit) << what;
          EXPECT_GT(r.cost.service_ns, 0U) << what;
        }
      }
    }
  }
}

TEST(ServiceCost, CacheHitsRideNoBatchAndCostNoDeviceTime) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "cost attribution compiled out (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 8821);
  const BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 8822);
  ServiceConfig cfg = cost_config("titanv", Comparison::kXor, 4);
  cfg.cache_capacity = 16;
  ServiceEngine engine(db, cfg);
  // Two misses in one batch: the second copy's row is cached.
  auto miss = engine.submit(query);
  auto cached = engine.submit(query);
  engine.resume();
  engine.drain();
  const QueryResult miss_row = miss.get();
  EXPECT_EQ(cached.get().row, miss_row.row);
  auto hit_fut = engine.submit(query);
  engine.drain();
  const QueryResult hit = hit_fut.get();
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.row, miss_row.row);
  EXPECT_TRUE(hit.cost.cache_hit);
  EXPECT_EQ(hit.cost.batch_id, 0U);
  EXPECT_EQ(hit.cost.device_ns, 0U);
  EXPECT_EQ(hit.cost.h2d_bytes, 0U);
  const CostSnapshot snap = engine.cost();
  EXPECT_EQ(snap.cache_hits, 1U);
  EXPECT_EQ(snap.total_requests, 3U);
  assert_shares_sum_to_batches(snap, "cache-hit run");
}

/// 3 recovery policies x 50 seeds of launch+readback fault injection:
/// the attribution identity must survive retries, failovers and CPU
/// degradation, and the surcharges must land on the affected batches'
/// member requests.
TEST(ServiceCost, FaultSoakKeepsSharesExactAndAttributesSurcharges) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "cost attribution compiled out (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(29, 128, 0.5, 8831);
  const BitMatrix queries = io::random_bitmatrix(8, 128, 0.4, 8832);
  std::uint64_t surcharged_batches = 0;
  for (const auto policy :
       {rt::FailPolicy::kRetry, rt::FailPolicy::kFailover,
        rt::FailPolicy::kDegrade}) {
    for (int seed = 0; seed < 50; ++seed) {
      rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
          "launch:p=0.05:seed=" + std::to_string(seed) +
          ",readback:p=0.05:seed=" + std::to_string(seed + 2000)));
      ServiceConfig cfg = cost_config("titanv", Comparison::kXor, 4);
      cfg.recovery.policy = policy;
      ServiceEngine engine(db, cfg);
      std::vector<std::future<QueryResult>> futs;
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
      }
      engine.resume();
      engine.drain();

      const std::string what = std::string(rt::to_string(policy)) +
                               " seed=" + std::to_string(seed);
      const CostSnapshot snap = engine.cost();
      assert_shares_sum_to_batches(snap, what);

      std::map<std::uint64_t, const BatchCostTotals*> by_id;
      for (const BatchCostTotals& b : snap.batches) {
        by_id[b.batch_id] = &b;
        if (b.retries > 0 || b.failovers > 0 || b.degraded) {
          surcharged_batches++;
        }
      }
      for (const RequestCost& c : snap.requests) {
        const BatchCostTotals* b = by_id.at(c.batch_id);
        // Surcharges are batch-scoped: every member carries its batch's
        // full incident counts, nothing more, nothing less.
        EXPECT_EQ(c.retries, b->retries) << what;
        EXPECT_EQ(c.failovers, b->failovers) << what;
        EXPECT_EQ(c.degraded, b->degraded) << what;
      }
      for (auto& f : futs) {
        (void)f.get();  // exactly-once; rows already pinned by test_service
      }
    }
  }
  // p=0.05 over 2 sites x ~2 batches x 150 runs: some batch somewhere
  // must have paid a recovery surcharge, or the plumbing is dead.
  EXPECT_GT(surcharged_batches, 0U);
}

TEST(ServiceCost, JsonIsDeterministicUnderScriptedReplay) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "cost attribution compiled out (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(23, 128, 0.5, 8841);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 8842);
  const auto run = [&] {
    ServiceEngine engine(db, cost_config("titanv", Comparison::kXor, 4));
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
    engine.resume();
    engine.drain();
    for (auto& f : futs) {
      (void)f.get();
    }
    std::ostringstream os;
    engine.write_cost_json(os);
    return os.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_NE(a.find("\"cost\": 1"), std::string::npos);
  EXPECT_EQ(a.find("queue_wait"), std::string::npos)
      << "wall clock leaked into the deterministic document";
  // Trace ids come from a process-wide allocator, so two in-process runs
  // differ only there; normalize them and the documents must be
  // byte-identical (same batches, same shares, same order).
  const std::regex trace_re("\"trace\": \\d+");
  EXPECT_EQ(std::regex_replace(a, trace_re, "\"trace\": 0"),
            std::regex_replace(b, trace_re, "\"trace\": 0"));
}

/// In-process Little's-law agreement: the dispatcher's depth-time
/// integral (published as the svc.queue.depth_time_us gauge) and the
/// ledger's per-request queue waits integrate the same step function
/// with the same timestamps, so after a drain they agree to integer-µs
/// gauge rounding.
TEST(ServiceCost, WaitSumAgreesWithQueueDepthTimeIntegral) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "cost attribution compiled out (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(31, 128, 0.5, 8851);
  const BitMatrix queries = io::random_bitmatrix(12, 128, 0.4, 8852);
  ServiceEngine engine(db, cost_config("titanv", Comparison::kXor, 4));
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  engine.resume();
  engine.drain();
  for (auto& f : futs) {
    (void)f.get();
  }

  std::uint64_t wait_sum_ns = 0;
  for (const RequestCost& c : engine.cost().requests) {
    wait_sum_ns += c.queue_wait_ns;
  }
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.gauges.find("svc.queue.depth_time_us");
  ASSERT_NE(it, snap.gauges.end());
  const double integral_ns = static_cast<double>(it->second) * 1e3;
  const double wait_ns = static_cast<double>(wait_sum_ns);
  const double hi = std::max(wait_ns, integral_ns);
  ASSERT_GT(hi, 0.0);
  // Tolerance: 10% relative, floored at the µs-per-transition rounding
  // the gauge loses (2 transitions per request).
  const double slack =
      std::max(hi * 0.10, static_cast<double>(queries.rows()) * 2.0e3);
  EXPECT_NEAR(wait_ns, integral_ns, slack);
}

// ---- jsonlite + the offline analyzer -----------------------------------

TEST(Jsonlite, ParsesTheDialectWeEmit) {
  const auto v = obs::jsonlite::parse(
      R"({"a": [1, 2.5, "x\nA", true, null], "big": 18446744073709551615})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 5U);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].text, "x\nA");
  EXPECT_TRUE(a->items[3].boolean);
  EXPECT_EQ(a->items[4].kind, obs::jsonlite::Value::Kind::kNull);
  // u64 values above 2^53 survive via the raw token.
  EXPECT_EQ(v.u64_or("big", 0), 18446744073709551615ULL);
  EXPECT_EQ(v.num_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.str_or("missing", "d"), "d");
}

TEST(Jsonlite, MalformedInputThrowsWithOffset) {
  EXPECT_THROW((void)obs::jsonlite::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)obs::jsonlite::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW((void)obs::jsonlite::parse("{} trailing"),
               std::runtime_error);
  try {
    (void)obs::jsonlite::parse("[1, x]");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(Jsonlite, NestingBeyondTheCapThrows) {
  // Unbounded recursion would overflow the stack long before 100,000
  // levels; our own documents nest at most 4 deep, and 64 still parse.
  constexpr std::size_t kDeep = 100000;
  EXPECT_THROW(
      (void)obs::jsonlite::parse(std::string(kDeep, '[') +
                                 std::string(kDeep, ']')),
      std::runtime_error);
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) {
    objects += "{\"a\": ";
  }
  objects += "1" + std::string(kDeep, '}');
  EXPECT_THROW((void)obs::jsonlite::parse(objects), std::runtime_error);
  EXPECT_NO_THROW(
      (void)obs::jsonlite::parse(std::string(64, '[') + std::string(64, ']')));
}

TEST(Jsonlite, U64OrFallsBackWhereNoUint64Fits) {
  const auto v = obs::jsonlite::parse(
      R"({"huge": 1e300, "inf": 1e999, "neg": -2.5, "frac": 2.5,
          "big": 18446744073709551616})");
  EXPECT_EQ(v.u64_or("huge", 7), 7U);
  EXPECT_EQ(v.u64_or("inf", 7), 7U);
  EXPECT_EQ(v.u64_or("neg", 7), 7U);
  EXPECT_EQ(v.u64_or("big", 7), 7U);
  EXPECT_EQ(v.u64_or("frac", 7), 3U);
}

TEST(Jsonlite, ReportOverADeeplyNestedTraceExitsTwo) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/snpcmp_cost_deep_trace.json";
  const std::string metrics = dir + "/snpcmp_cost_deep_metrics.json";
  std::ofstream(trace) << std::string(200000, '[') << std::string(200000, ']');
  std::ofstream(metrics) << "{}";
  std::ostringstream out, err;
  EXPECT_EQ(cli::run({"report", "--trace", trace, "--metrics", metrics}, out,
                     err),
            2)
      << err.str();
  EXPECT_NE(err.str().find("nesting"), std::string::npos) << err.str();
}

/// Synthetic documents with hand-computable answers: two device engines
/// half-overlapped, 6 rows over 2 batches with max 4, a wait histogram
/// agreeing exactly with the depth-time gauge.
TEST(PipelineAnalyzer, ComputesOverlapCoalescingWaitShareAndLittles) {
  const auto trace = obs::jsonlite::parse(R"([
    {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
     "args": {"name": "h2d copy"}},
    {"ph": "M", "pid": 0, "tid": 2, "name": "thread_name",
     "args": {"name": "kernel"}},
    {"ph": "X", "pid": 0, "tid": 1, "ts": 0, "dur": 100, "name": "c0"},
    {"ph": "X", "pid": 0, "tid": 2, "ts": 50, "dur": 100, "name": "k0"}
  ])");
  const auto metrics = obs::jsonlite::parse(R"({
    "counters": {"svc.batches": 2, "svc.batch.rows": 6},
    "gauges": {"svc.config.max_batch_rows": 4,
               "svc.queue.depth_time_us": 3000},
    "histograms": {
      "svc.queue.wait_seconds": {"bounds": [0.001, 0.01],
        "counts": [3, 0, 0], "count": 3, "sum": 0.003},
      "svc.service.time_seconds": {"bounds": [0.001, 0.01],
        "counts": [0, 3, 0], "count": 3, "sum": 0.009}
    }
  })");
  const obs::PipelineReport rep = obs::analyze_pipeline(trace, metrics);

  EXPECT_EQ(rep.trace_events, 4U);
  EXPECT_DOUBLE_EQ(rep.span_us, 150.0);
  ASSERT_EQ(rep.tracks.size(), 2U);
  EXPECT_EQ(rep.tracks[0].name, "h2d copy");
  EXPECT_DOUBLE_EQ(rep.tracks[0].busy_us, 100.0);
  EXPECT_TRUE(rep.has_device_tracks);
  // serial 200, makespan 150, ideal 100: half the hideable time hidden.
  EXPECT_DOUBLE_EQ(rep.device_serial_us, 200.0);
  EXPECT_DOUBLE_EQ(rep.device_makespan_us, 150.0);
  EXPECT_DOUBLE_EQ(rep.device_ideal_us, 100.0);
  EXPECT_DOUBLE_EQ(rep.overlap_efficiency, 0.5);
  // 6 rows / 2 batches = mean 3 over max 4.
  EXPECT_EQ(rep.batches, 2U);
  EXPECT_DOUBLE_EQ(rep.mean_batch_rows, 3.0);
  EXPECT_DOUBLE_EQ(rep.coalescing_efficiency, 0.75);
  // wait 1 ms vs service 3 ms: a quarter of latency is queueing.
  EXPECT_EQ(rep.wait_count, 3U);
  EXPECT_DOUBLE_EQ(rep.mean_wait_s, 0.001);
  EXPECT_DOUBLE_EQ(rep.wait_share, 0.25);
  // 3000 µs gauge == 0.003 s wait sum: exact agreement.
  ASSERT_TRUE(rep.littles.evaluated);
  EXPECT_TRUE(rep.littles.pass);
  EXPECT_DOUBLE_EQ(rep.littles.wait_sum_s, 0.003);
  EXPECT_DOUBLE_EQ(rep.littles.depth_integral_s, 0.003);
  EXPECT_DOUBLE_EQ(rep.littles.rel_error, 0.0);

  std::ostringstream os;
  obs::write_pipeline_report(rep, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("pipeline report:"), std::string::npos);
  EXPECT_NE(text.find("-> PASS"), std::string::npos);
  EXPECT_NE(text.find("efficiency 50.0%"), std::string::npos);
  EXPECT_NE(text.find("efficiency 75.0%"), std::string::npos);
}

TEST(PipelineAnalyzer, LittlesFailsBeyondToleranceAndTopNIsStable) {
  const auto trace = obs::jsonlite::parse("[]");
  // The service histogram's counts array is shorter than its bounds
  // (untrusted input): the quantile walk must stop at the last count.
  const auto metrics = obs::jsonlite::parse(R"({
    "counters": {}, "gauges": {"svc.queue.depth_time_us": 2000},
    "histograms": {
      "svc.queue.wait_seconds": {"bounds": [0.01],
        "counts": [4, 0], "count": 4, "sum": 0.004},
      "svc.service.time_seconds": {"bounds": [0.001, 0.01, 0.1],
        "counts": [1], "count": 4, "sum": 0.008}
    }
  })");
  const auto cost = obs::jsonlite::parse(R"({
    "cost": 1, "dropped_requests": 2,
    "requests": [
      {"trace": 9, "batch": 1, "device_ns": 10, "h2d_ns": 0, "d2h_ns": 0},
      {"trace": 3, "batch": 1, "device_ns": 10, "h2d_ns": 0, "d2h_ns": 0},
      {"trace": 5, "batch": 2, "device_ns": 5, "h2d_ns": 0, "d2h_ns": 0}
    ]
  })");
  obs::ReportOptions opts;
  opts.top_n = 2;
  const obs::PipelineReport rep =
      obs::analyze_pipeline(trace, metrics, &cost, opts);
  // 0.004 s vs 0.002 s: 100% relative error, far over the 10% default.
  ASSERT_TRUE(rep.littles.evaluated);
  EXPECT_FALSE(rep.littles.pass);
  // The rank-4 observation lies past the one bucket the counts cover.
  EXPECT_DOUBLE_EQ(rep.mean_service_s, 0.002);
  EXPECT_TRUE(std::isinf(rep.p99_service_le_s));
  // Equal device time ranks by trace id ascending; truncation to top_n.
  ASSERT_TRUE(rep.has_cost);
  EXPECT_EQ(rep.cost_requests, 3U);
  EXPECT_EQ(rep.cost_dropped, 2U);
  ASSERT_EQ(rep.top_requests.size(), 2U);
  EXPECT_EQ(rep.top_requests[0].trace_id, 3U);
  EXPECT_EQ(rep.top_requests[1].trace_id, 9U);

  std::ostringstream os;
  obs::write_pipeline_report(rep, os);
  EXPECT_NE(os.str().find("-> FAIL"), std::string::npos);
}

TEST(PipelineAnalyzer, RejectsWrongDocumentShapes) {
  const auto obj = obs::jsonlite::parse("{}");
  const auto arr = obs::jsonlite::parse("[]");
  EXPECT_THROW((void)obs::analyze_pipeline(obj, obj), std::runtime_error);
  EXPECT_THROW((void)obs::analyze_pipeline(arr, arr), std::runtime_error);
}

}  // namespace
}  // namespace snp
