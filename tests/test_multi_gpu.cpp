// Multi-GPU extension (paper future work): sharding correctness, timing
// composition, gather model, estimate/compare agreement.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/datagen.hpp"
#include "multi/multi_gpu.hpp"
#include "rt/fault.hpp"

namespace snp::multi {
namespace {

using bits::Comparison;

TEST(MultiGpu, RejectsBadConstruction) {
  EXPECT_THROW(MultiGpuContext("titanv", 0), std::invalid_argument);
  EXPECT_THROW(MultiGpuContext("noDevice", 2), std::invalid_argument);
}

TEST(MultiGpu, SingleDeviceMatchesContext) {
  const auto a = io::random_bitmatrix(8, 256, 0.4, 950);
  const auto b = io::random_bitmatrix(300, 256, 0.5, 951);
  MultiGpuContext multi("vega64", 1);
  Context single = Context::gpu("vega64");
  const auto rm = multi.compare(a, b, Comparison::kXor);
  const auto rs = single.compare(a, b, Comparison::kXor);
  EXPECT_TRUE(rm.counts == rs.counts);
  EXPECT_NEAR(rm.timing.end_to_end_s, rs.timing.end_to_end_s, 1e-9);
  EXPECT_EQ(rm.timing.devices, 1);
}

TEST(MultiGpu, ShardedCountsAreBitIdentical) {
  const auto a = io::random_bitmatrix(8, 300, 0.4, 952);
  const auto b = io::random_bitmatrix(1001, 300, 0.5, 953);  // ragged
  Context single = Context::gpu("titanv");
  const auto expected = single.compare(a, b, Comparison::kAnd).counts;
  for (const int devices : {2, 3, 7}) {
    MultiGpuContext multi("titanv", devices);
    const auto r = multi.compare(a, b, Comparison::kAnd);
    EXPECT_TRUE(r.counts == expected) << devices << " devices";
    EXPECT_EQ(r.timing.devices, devices);
    EXPECT_EQ(r.timing.per_device_end_to_end_s.size(),
              static_cast<std::size_t>(devices));
  }
}

TEST(MultiGpu, ShardsLargerOperandOnEitherSide) {
  // A larger than B: sharding must happen on A rows.
  const auto a = io::random_bitmatrix(500, 128, 0.3, 954);
  const auto b = io::random_bitmatrix(4, 128, 0.6, 955);
  Context single = Context::gpu("gtx980");
  const auto expected =
      single.compare(a, b, Comparison::kAndNot).counts;
  MultiGpuContext multi("gtx980", 4);
  const auto r = multi.compare(a, b, Comparison::kAndNot);
  EXPECT_TRUE(r.counts == expected);
}

TEST(MultiGpu, MoreDevicesNeverSlower) {
  MultiGpuOptions opts;
  opts.per_device.functional = false;
  double prev = 1e9;
  for (const int devices : {1, 2, 4, 8, 16}) {
    MultiGpuContext multi("titanv", devices);
    const auto t =
        multi.estimate(32, 20'000'000, 1024, Comparison::kXor, opts);
    EXPECT_LE(t.end_to_end_s, prev + 1e-9) << devices;
    prev = t.end_to_end_s;
  }
}

TEST(MultiGpu, InitIsConcurrentNotSerial) {
  // End-to-end with N devices must be far below N * single-device time
  // (devices initialize and run concurrently).
  MultiGpuOptions opts;
  opts.per_device.functional = false;
  MultiGpuContext one("vega64", 1);
  MultiGpuContext eight("vega64", 8);
  const auto t1 =
      one.estimate(32, 20'000'000, 512, Comparison::kXor, opts);
  const auto t8 =
      eight.estimate(32, 20'000'000, 512, Comparison::kXor, opts);
  EXPECT_LT(t8.end_to_end_s, t1.end_to_end_s);
  EXPECT_GT(t8.end_to_end_s, t1.slowest_device.init_s);  // init is a floor
}

TEST(MultiGpu, GatherCostsAppearOnlyWhenRequested) {
  MultiGpuOptions plain;
  plain.per_device.functional = false;
  MultiGpuOptions gathered = plain;
  gathered.gather_on_device = true;
  MultiGpuContext multi("titanv", 4);
  const auto tp = multi.estimate(1000, 100000, 512, Comparison::kAnd,
                                 plain);
  const auto tg = multi.estimate(1000, 100000, 512, Comparison::kAnd,
                                 gathered);
  EXPECT_DOUBLE_EQ(tp.gather_s, 0.0);
  EXPECT_GT(tg.gather_s, 0.0);
  EXPECT_NEAR(tg.end_to_end_s - tp.end_to_end_s, tg.gather_s, 1e-9);
  // Ring all-gather: ~ (N-1)/N of the result over the link.
  const double bytes = 1000.0 * 100000.0 * 4.0;
  EXPECT_NEAR(tg.gather_s, bytes * 0.75 / 25e9 + 3 * 10e-6, 1e-6);
}

TEST(MultiGpu, EstimateTracksCompare) {
  const auto a = io::random_bitmatrix(8, 256, 0.4, 956);
  const auto b = io::random_bitmatrix(1200, 256, 0.5, 957);
  MultiGpuContext multi("gtx980", 3);
  MultiGpuOptions opts;
  opts.per_device.functional = false;
  opts.per_device.chunk_rows = 200;
  const auto measured = multi.compare(a, b, Comparison::kAnd, opts);
  const auto projected =
      multi.estimate(8, 1200, 256, Comparison::kAnd, opts);
  EXPECT_NEAR(projected.end_to_end_s, measured.timing.end_to_end_s,
              0.05 * measured.timing.end_to_end_s);
}

TEST(MultiGpu, MoreDevicesThanRowsDegradesGracefully) {
  const auto a = io::random_bitmatrix(2, 64, 0.5, 958);
  const auto b = io::random_bitmatrix(3, 64, 0.5, 959);
  MultiGpuContext multi("vega64", 8);
  const auto r = multi.compare(a, b, Comparison::kXor);
  EXPECT_EQ(r.timing.devices, 3);  // only 3 shards possible
  EXPECT_TRUE(r.counts == bits::compare_reference(a, b, Comparison::kXor));
}


TEST(MultiGpu, HeterogeneousBoxWeightsByThroughput) {
  // Titan V peak ~1862 G, GTX 980 ~700 G: shard split ~72.7 / 27.3.
  MultiGpuContext box(std::vector<std::string>{"titanv", "gtx980"});
  ASSERT_EQ(box.device_count(), 2);
  const auto& w = box.weights();
  EXPECT_NEAR(w[0], 1862.4 / (1862.4 + 699.9), 0.01);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
  EXPECT_THROW(MultiGpuContext(std::vector<std::string>{}),
               std::invalid_argument);
}

TEST(MultiGpu, HeterogeneousShardingBalancesFinishTimes) {
  MultiGpuOptions opts;
  opts.per_device.functional = false;
  opts.per_device.include_init = false;  // isolate the compute balance
  MultiGpuContext box(std::vector<std::string>{"titanv", "gtx980"});
  // Deep-K compute-bound shape (throughput weighting can only balance the
  // compute term; PCIe is identical per row on every device).
  const auto t = box.estimate(10000, 50000, 100000,
                              bits::Comparison::kAnd, opts);
  ASSERT_EQ(t.per_device_end_to_end_s.size(), 2u);
  const double a = t.per_device_end_to_end_s[0];
  const double b = t.per_device_end_to_end_s[1];
  EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.25);
  // Against a uniform split the same shape leaves the GTX 980 ~2x behind.
  MultiGpuContext uniform_box(
      std::vector<std::string>{"titanv", "titanv"});
  (void)uniform_box;  // weights are uniform only for identical devices
}

TEST(MultiGpu, HeterogeneousResultsBitIdentical) {
  const auto a = io::random_bitmatrix(6, 200, 0.4, 960);
  const auto b = io::random_bitmatrix(777, 200, 0.5, 961);
  MultiGpuContext box(
      std::vector<std::string>{"vega64", "gtx980", "titanv"});
  const auto r = box.compare(a, b, bits::Comparison::kXor);
  EXPECT_TRUE(r.counts ==
              bits::compare_reference(a, b, bits::Comparison::kXor));
  EXPECT_EQ(r.timing.devices, 3);
}

// --- shard failover conformance (docs/robustness.md) ---

MultiGpuOptions failover_opts(rt::FailPolicy policy) {
  MultiGpuOptions opts;
  opts.per_device.recovery.policy = policy;
  opts.per_device.recovery.backoff_base_s = 0.0;
  return opts;
}

TEST(MultiGpuFailover, KillingEachShardKeepsCountsBitIdentical) {
  const auto a = io::random_bitmatrix(5, 192, 0.4, 970);
  const auto b = io::random_bitmatrix(500, 192, 0.5, 971);
  Context single = Context::gpu("titanv");
  const auto expected = single.compare(a, b, Comparison::kXor).counts;
  for (int k = 0; k < 3; ++k) {
    rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
        "shard:at=" + std::to_string(k) + ":after=1"));
    MultiGpuContext box("titanv", 3);
    const auto r = box.compare(a, b, Comparison::kXor,
                               failover_opts(rt::FailPolicy::kFailover));
    EXPECT_TRUE(r.counts == expected) << "killed shard " << k;
    ASSERT_EQ(r.timing.lost_devices.size(), 1u) << "killed shard " << k;
    EXPECT_NE(r.timing.lost_devices[0].find(
                  "[" + std::to_string(k) + "]"),
              std::string::npos)
        << r.timing.lost_devices[0];
    EXPECT_FALSE(r.timing.fault_events.empty());
    EXPECT_FALSE(r.timing.degraded);  // survivors absorbed the rows
  }
}

TEST(MultiGpuFailover, WholeBoxLossFallsToTheHostRung) {
  const auto a = io::random_bitmatrix(4, 128, 0.4, 972);
  const auto b = io::random_bitmatrix(300, 128, 0.5, 973);
  Context single = Context::gpu("gtx980");
  const auto expected = single.compare(a, b, Comparison::kAnd).counts;
  rt::ScopedFaultPlan plan(
      rt::FaultPlan::parse("shard:p=1"));  // every shard attempt dies
  MultiGpuContext box("gtx980", 3);
  const auto r = box.compare(a, b, Comparison::kAnd,
                             failover_opts(rt::FailPolicy::kFailover));
  EXPECT_TRUE(r.counts == expected);
  EXPECT_EQ(r.timing.lost_devices.size(), 3u);
  EXPECT_TRUE(r.timing.degraded);
}

TEST(MultiGpuFailover, DegradePolicyRecomputesTheShardOnHost) {
  const auto a = io::random_bitmatrix(4, 128, 0.4, 974);
  const auto b = io::random_bitmatrix(256, 128, 0.5, 975);
  Context single = Context::gpu("vega64");
  const auto expected = single.compare(a, b, Comparison::kXor).counts;
  rt::ScopedFaultPlan plan(
      rt::FaultPlan::parse("shard:at=1:after=1"));
  MultiGpuContext box("vega64", 2);
  const auto r = box.compare(a, b, Comparison::kXor,
                             failover_opts(rt::FailPolicy::kDegrade));
  EXPECT_TRUE(r.counts == expected);
  EXPECT_TRUE(r.timing.degraded);
  EXPECT_TRUE(r.timing.lost_devices.empty());  // no failover happened
}

TEST(MultiGpuFailover, DegradedShardDeliversEachRowOnceAtAnyChunkRows) {
  // The lost shard starts at row 128, and chunk_rows is as large as a
  // size_t holds: the host loop still takes the shard's rows once, in one
  // window, with shard-relative offsets.
  const auto a = io::random_bitmatrix(4, 128, 0.4, 984);
  const auto b = io::random_bitmatrix(256, 128, 0.5, 985);
  Context single = Context::gpu("vega64");
  const auto expected = single.compare(a, b, Comparison::kXor).counts;
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("shard:at=1:after=1"));
  MultiGpuContext box("vega64", 2);
  MultiGpuOptions opts = failover_opts(rt::FailPolicy::kDegrade);
  opts.per_device.chunk_rows = std::numeric_limits<std::size_t>::max();
  opts.per_device.keep_counts = false;
  std::vector<int> seen(b.rows(), 0);
  std::size_t shard_base = 0;
  std::size_t delivered = 0;
  std::size_t wrong = 0;
  opts.per_device.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    ASSERT_TRUE(v.streamed_b);
    ASSERT_LT(v.row0, b.rows()) << "shard-relative offset " << v.row0;
    if (v.row0 == 0) {
      shard_base = delivered;  // shards drain in row order
    }
    for (std::size_t j = 0; j < v.part.cols(); ++j) {
      const std::size_t col = shard_base + v.row0 + j;
      ASSERT_LT(col, b.rows());
      ++seen[col];
      for (std::size_t i = 0; i < a.rows(); ++i) {
        if (v.part.at(i, j) != expected.at(i, col)) {
          ++wrong;
        }
      }
    }
    delivered += v.part.cols();
  };
  const auto r = box.compare(a, b, Comparison::kXor, opts);
  EXPECT_TRUE(r.timing.degraded);
  EXPECT_EQ(delivered, b.rows());
  EXPECT_EQ(wrong, 0u);
  for (std::size_t j = 0; j < b.rows(); ++j) {
    EXPECT_EQ(seen[j], 1) << "row " << j;
  }
}

TEST(MultiGpuFailover, StreamingConsumerGetsEmptyCountsLikeOneContext) {
  // With keep_counts off, the counts reach the consumer only through the
  // chunk callback, on healthy devices and on the host rung alike, and the
  // result's counts stay empty, as one Context's do.
  const auto a = io::random_bitmatrix(4, 128, 0.4, 986);
  const auto b = io::random_bitmatrix(300, 128, 0.5, 987);
  Context single = Context::gpu("titanv");
  const auto expected = single.compare(a, b, Comparison::kXor).counts;
  for (const char* spec : {"", "shard:p=1"}) {
    rt::ScopedFaultPlan plan(rt::FaultPlan::parse(spec));
    MultiGpuContext box("titanv", 3);
    MultiGpuOptions opts = failover_opts(rt::FailPolicy::kFailover);
    opts.per_device.keep_counts = false;
    opts.per_device.chunk_rows = 32;
    bits::CountMatrix seen(a.rows(), b.rows());
    std::size_t shard_base = 0;
    std::size_t delivered = 0;
    opts.per_device.chunk_callback =
        [&](const ComputeOptions::ChunkView& v) {
          if (v.row0 == 0) {
            shard_base = delivered;  // shards drain in row order
          }
          seen.put_block(v.part, 0, shard_base + v.row0);
          delivered += v.part.cols();
        };
    const auto r = box.compare(a, b, Comparison::kXor, opts);
    EXPECT_EQ(r.timing.degraded, *spec != '\0') << "'" << spec << "'";
    EXPECT_EQ(r.counts.rows(), 0u) << "'" << spec << "'";
    EXPECT_EQ(r.counts.cols(), 0u) << "'" << spec << "'";
    EXPECT_EQ(delivered, b.rows()) << "'" << spec << "'";
    EXPECT_TRUE(seen == expected) << "'" << spec << "'";
  }
}

TEST(MultiGpuFailover, AbortPolicyPropagatesShardLoss) {
  const auto a = io::random_bitmatrix(4, 128, 0.4, 976);
  const auto b = io::random_bitmatrix(200, 128, 0.5, 977);
  rt::ScopedFaultPlan plan(
      rt::FaultPlan::parse("shard:at=0:after=1"));
  MultiGpuContext box("titanv", 2);
  try {
    (void)box.compare(a, b, Comparison::kXor,
                      failover_opts(rt::FailPolicy::kAbort));
    FAIL() << "expected rt::Error";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kShardLost);
  }
}

TEST(MultiGpuFailover, FourDeviceFailoverMatchesSingleDevice) {
  const auto a = io::random_bitmatrix(5, 160, 0.4, 978);
  const auto b = io::random_bitmatrix(400, 160, 0.5, 979);
  Context single = Context::gpu("titanv");
  const auto expected = single.compare(a, b, Comparison::kXor).counts;
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("shard:at=2:after=1"));
  MultiGpuContext box("titanv", 4);
  const auto r = box.compare(a, b, Comparison::kXor,
                             failover_opts(rt::FailPolicy::kFailover));
  EXPECT_TRUE(r.counts == expected);
  EXPECT_EQ(r.timing.lost_devices.size(), 1u);
}

TEST(MultiGpuFailover, AbortRunsEveryShardThenRethrowsTheFirstError) {
  // Shard 1's device dies, and the consumer throws on shard 3's first
  // chunk. Shards 2 and 3 still run after shard 1 failed, and the error
  // rethrown is shard 1's, the first in shard order.
  const auto a = io::random_bitmatrix(4, 128, 0.4, 980);
  const auto b = io::random_bitmatrix(400, 128, 0.5, 981);
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("shard:at=1:after=1"));
  MultiGpuContext box("titanv", 4);
  MultiGpuOptions opts = failover_opts(rt::FailPolicy::kAbort);
  std::size_t shard_starts = 0;
  opts.per_device.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    if (v.row0 == 0 && ++shard_starts == 3) {
      throw std::logic_error("consumer rejected shard 3");
    }
  };
  try {
    (void)box.compare(a, b, Comparison::kXor, opts);
    FAIL() << "expected rt::Error";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kShardLost);
  }
  EXPECT_EQ(shard_starts, 3u) << "shards 0, 2 and 3 must all have run";
}

TEST(MultiGpu, ShardsRunInTurnOnTheCallingThread) {
  // A per-device chunk_callback sees one shard's chunks at a time, with
  // row0 relative to its shard, all on the calling thread.
  const auto a = io::random_bitmatrix(3, 192, 0.4, 982);
  const auto b = io::random_bitmatrix(300, 192, 0.5, 983);
  MultiGpuContext box("gtx980", 3);
  MultiGpuOptions opts;
  opts.per_device.chunk_rows = 32;
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> row0s;
  std::size_t delivered = 0;
  std::size_t foreign = 0;
  opts.per_device.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    if (std::this_thread::get_id() != caller) {
      ++foreign;
    }
    row0s.push_back(v.row0);
    delivered += v.part.cols();
  };
  const auto r = box.compare(a, b, Comparison::kXor, opts);
  Context single = Context::gpu("gtx980");
  EXPECT_TRUE(r.counts == single.compare(a, b, Comparison::kXor).counts);
  EXPECT_EQ(foreign, 0u);
  EXPECT_EQ(delivered, b.rows()) << "every row delivered exactly once";
  // Shard-relative offsets: each shard restarts at 0 and then climbs by
  // one chunk at a time, so the shards never interleave.
  std::size_t shards = 0;
  for (std::size_t i = 0; i < row0s.size(); ++i) {
    if (row0s[i] == 0) {
      ++shards;
    } else {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(row0s[i], row0s[i - 1] + 32) << "at delivery " << i;
    }
  }
  EXPECT_EQ(shards, 3u);
}

}  // namespace
}  // namespace snp::multi
