// Multi-GPU execution (paper Section VII, future work).
//
// "We believe that our framework can be extended to handle even larger
// problem sizes is to exploit multi-GPU systems such as the DGX-2...
// However, this comes at the cost of having to communicate between
// multi-GPUs, which would require an approach that is similar to
// distributed-memory computing."
//
// This module shards the streamed operand of a comparison across N
// simulated devices (each with its own context, queue, and PCIe link, as
// in a DGX-style box), runs the single-GPU pipeline per shard
// concurrently, and merges results on the host. The SNP comparisons are
// embarrassingly parallel across output columns/rows, so the only
// communication is the optional device-side all-gather of the result
// (modeled over an NVLink-like interconnect) for pipelines that consume
// gamma on-device.
#pragma once

#include <string>
#include <vector>

#include "core/snpcmp.hpp"

namespace snp::multi {

/// NVLink-class device-to-device interconnect model.
struct InterconnectSpec {
  double gbps = 25.0;
  double latency_us = 10.0;
};

struct MultiGpuOptions {
  /// Options of every shard's single-GPU pipeline. The shards run one
  /// after another on the calling thread, so a chunk_callback sees one
  /// shard's chunks at a time, with row0 relative to that shard.
  ComputeOptions per_device;
  /// Model an all-gather of the gamma matrix onto device 0 after the
  /// compute (for on-device downstream processing); off by default, in
  /// which case results are simply host-merged (free: each shard already
  /// read back its slice).
  bool gather_on_device = false;
};

struct MultiGpuReport {
  TimingReport slowest_device;  ///< critical-path shard
  double end_to_end_s = 0.0;    ///< max over shards (+ gather if enabled)
  double gather_s = 0.0;
  int devices = 0;
  std::vector<double> per_device_end_to_end_s;
  /// Devices that died mid-run and had their shards failed over
  /// ("titanv[2]" = third device of the box). Empty on clean runs.
  std::vector<std::string> lost_devices;
  /// Every fault observed across all shards (shard-level incidents plus
  /// each shard pipeline's own TimingReport::fault_events).
  std::vector<rt::FaultEvent> fault_events;
  /// True when any rows were recomputed on the CPU rung (either a shard
  /// pipeline degraded internally or no device survived for failover).
  bool degraded = false;
};

struct MultiCompareResult {
  bits::CountMatrix counts;  ///< empty when per_device.functional == false
  MultiGpuReport timing;
};

class MultiGpuContext {
 public:
  /// `count` identical devices of the named kind (a DGX-2-like box).
  MultiGpuContext(const std::string& device_name, int count,
                  InterconnectSpec link = {});

  /// Heterogeneous box: one device per name. Shards are sized
  /// proportionally to each device's peak comparison throughput, so a
  /// Titan V next to a GTX 980 gets ~2.7x the rows and the devices finish
  /// together (classic static load balancing for distributed memory).
  explicit MultiGpuContext(const std::vector<std::string>& device_names,
                           InterconnectSpec link = {});

  [[nodiscard]] int device_count() const {
    return static_cast<int>(contexts_.size());
  }
  [[nodiscard]] const model::GpuSpec& device_spec() const;

  /// Shards the larger operand row-wise across the devices; each shard
  /// runs the standard single-GPU pipeline (init happens concurrently on
  /// every device). Results are bit-identical to the single-device path.
  ///
  /// Fault tolerance follows per_device.recovery.policy
  /// (docs/robustness.md): under kFailover a shard whose device keeps
  /// failing is marked lost (MultiGpuReport::lost_devices) and its rows
  /// are re-sharded across the surviving devices by their throughput
  /// weights — with none left, the rows fall to the host engine. Under
  /// kDegrade each failed shard falls to the host directly. Merged counts
  /// are bit-identical to a clean run in every case; kAbort/kRetry
  /// propagate the structured rt::Error instead.
  [[nodiscard]] MultiCompareResult compare(const bits::BitMatrix& a,
                                           const bits::BitMatrix& b,
                                           bits::Comparison op,
                                           const MultiGpuOptions& options =
                                               {});

  /// Data-free projection of the same sharding (paper-scale sweeps).
  [[nodiscard]] MultiGpuReport estimate(std::size_t m, std::size_t n,
                                        std::size_t k_bits,
                                        bits::Comparison op,
                                        const MultiGpuOptions& options =
                                            {}) const;

  /// The sharding weights in use (normalized to sum 1).
  [[nodiscard]] const std::vector<double>& weights() const {
    return weights_;
  }

 private:
  [[nodiscard]] double gather_seconds(std::size_t result_bytes) const;
  void init_weights();

  std::vector<Context> contexts_;
  std::vector<double> weights_;
  InterconnectSpec link_;
};

}  // namespace snp::multi
