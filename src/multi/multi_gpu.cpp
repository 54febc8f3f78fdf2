#include "multi/multi_gpu.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpu/engine.hpp"
#include "model/peak.hpp"
#include "obs/obs.hpp"
#include "rt/fault.hpp"

namespace snp::multi {

using bits::BitMatrix;
using bits::Comparison;
using bits::CountMatrix;

MultiGpuContext::MultiGpuContext(const std::string& device_name, int count,
                                 InterconnectSpec link)
    : link_(link) {
  if (count <= 0) {
    throw std::invalid_argument("MultiGpuContext: count must be positive");
  }
  contexts_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    contexts_.push_back(Context::gpu(device_name));
  }
  init_weights();
}

MultiGpuContext::MultiGpuContext(
    const std::vector<std::string>& device_names, InterconnectSpec link)
    : link_(link) {
  if (device_names.empty()) {
    throw std::invalid_argument(
        "MultiGpuContext: need at least one device");
  }
  contexts_.reserve(device_names.size());
  for (const auto& name : device_names) {
    contexts_.push_back(Context::gpu(name));
  }
  init_weights();
}

void MultiGpuContext::init_weights() {
  weights_.resize(contexts_.size());
  double total = 0.0;
  for (std::size_t d = 0; d < contexts_.size(); ++d) {
    weights_[d] = model::peak_wordops_per_s(contexts_[d].gpu_spec(),
                                            bits::Comparison::kAnd);
    total += weights_[d];
  }
  for (auto& w : weights_) {
    w /= total;
  }
}

const model::GpuSpec& MultiGpuContext::device_spec() const {
  return contexts_.front().gpu_spec();
}

double MultiGpuContext::gather_seconds(std::size_t result_bytes) const {
  if (contexts_.size() < 2) {
    return 0.0;
  }
  // Ring all-gather onto device 0: (N-1)/N of the result crosses the
  // interconnect once; per-hop latency for each of the N-1 steps.
  const double frac = static_cast<double>(contexts_.size() - 1) /
                      static_cast<double>(contexts_.size());
  return static_cast<double>(result_bytes) * frac / (link_.gbps * 1e9) +
         static_cast<double>(contexts_.size() - 1) * link_.latency_us *
             1e-6;
}

namespace {

struct Shard {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t device = 0;
};

/// Splits rows proportionally to the devices' throughput weights
/// (uniform weights reduce to even sharding).
std::vector<Shard> make_shards(std::size_t rows,
                               const std::vector<double>& weights) {
  std::vector<Shard> shards;
  std::size_t at = 0;
  double cumulative = 0.0;
  for (std::size_t d = 0; d < weights.size() && at < rows; ++d) {
    cumulative += weights[d];
    const auto target = d + 1 == weights.size()
                            ? rows
                            : static_cast<std::size_t>(
                                  cumulative * static_cast<double>(rows) +
                                  0.5);
    const std::size_t end = std::min(std::max(target, at), rows);
    if (end > at) {
      shards.push_back({at, end, d});
      at = end;
    }
  }
  if (at < rows && !shards.empty()) {
    shards.back().end = rows;  // numerical-edge remainder
  }
  return shards;
}

/// Runs `task(d)` for every shard index in order on the calling thread,
/// then rethrows the first failure: every shard runs even when an earlier
/// one threw.
template <typename Fn>
void for_each_shard(std::size_t count, Fn&& task) {
  std::exception_ptr first_error;
  for (std::size_t d = 0; d < count; ++d) {
    try {
      task(d);
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

/// Host-engine fallback for one shard's row range — the final rung of the
/// recovery ladder when the shard's device (and, under failover, every
/// other device) is gone. Counts are bit-identical to the device path,
/// whose functional kernel is the same host engine.
CompareResult host_compare_shard(const BitMatrix& a, const BitMatrix& b,
                                 Comparison op, bool shard_b,
                                 const Shard& s,
                                 const ComputeOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  CompareResult r;
  if (opts.functional) {
    const BitMatrix part = shard_b ? b.row_slice(s.begin, s.end)
                                   : a.row_slice(s.begin, s.end);
    const BitMatrix& ca = shard_b ? a : part;
    const BitMatrix& cb = shard_b ? part : b;
    r.counts = cpu::compare_blocked(ca, cb, op);
    if (opts.chunk_callback) {
      // Same shard-relative offsets as the device pipeline's chunks.
      opts.chunk_callback(
          ComputeOptions::ChunkView{0, shard_b, r.counts});
    }
  }
  r.timing.device = "cpu (shard fallback)";
  r.timing.degraded = true;
  r.timing.chunks = 1;
  r.timing.end_to_end_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  r.timing.kernel_s = r.timing.end_to_end_s;
  return r;
}

}  // namespace

MultiCompareResult MultiGpuContext::compare(const BitMatrix& a,
                                            const BitMatrix& b,
                                            Comparison op,
                                            const MultiGpuOptions& options) {
  if (a.bit_cols() != b.bit_cols()) {
    throw std::invalid_argument(
        "MultiGpuContext::compare: operands must share the K dimension");
  }
  const bool shard_b = b.rows() >= a.rows();
  const std::size_t shard_rows = shard_b ? b.rows() : a.rows();
  const auto shards = make_shards(shard_rows, weights_);

  MultiCompareResult result;
  result.timing.devices = static_cast<int>(shards.size());
  if (options.per_device.functional) {
    result.counts = CountMatrix(a.rows(), b.rows());
  }

  const rt::FailPolicy policy = options.per_device.recovery.policy;
  // Under failover a shard's in-pipeline failure must surface *here* —
  // the single-device rung would otherwise absorb it by degrading that
  // shard to the host locally. The shard still gets the full retry rung
  // first; only retry exhaustion escalates to shard failover.
  ComputeOptions shard_opts = options.per_device;
  if (policy == rt::FailPolicy::kFailover) {
    shard_opts.recovery.policy = rt::FailPolicy::kRetry;
  }

  // Run each shard's single-GPU pipeline (each shard owns a distinct
  // device/context), then merge in row order.
  SNP_OBS_SPAN("multi.compare");
  SNP_OBS_COUNT("multi.shards", shards.size());

  struct Done {
    Shard shard;
    CompareResult res;
  };
  std::vector<Done> completed;
  completed.reserve(shards.size());
  rt::FaultLog fault_log;
  std::vector<bool> device_lost(contexts_.size(), false);

  // Failover runs in rounds: every round with a failure permanently loses
  // at least one device (work is only ever assigned to live devices), so
  // the loop ends after at most device_count() rounds — the last one on
  // the host rung if nothing survives.
  std::vector<Shard> work(shards.begin(), shards.end());
  while (!work.empty()) {
    const std::vector<Shard> batch = std::move(work);
    work.clear();
    std::vector<CompareResult> res(batch.size());
    std::vector<std::optional<rt::Status>> errs(batch.size());
    for_each_shard(batch.size(), [&](std::size_t d) {
      SNP_OBS_SPAN("multi.shard");
      const Shard s = batch[d];
      try {
        // Whole-device loss (node crash, hung driver) is modeled at the
        // shard site, keyed by device index for `shard:at=K` plans.
        rt::maybe_inject(rt::FaultSite::kShard,
                         static_cast<std::int64_t>(s.device));
        Context& ctx = contexts_[s.device];
        const BitMatrix part = shard_b ? b.row_slice(s.begin, s.end)
                                       : a.row_slice(s.begin, s.end);
        res[d] = shard_b ? ctx.compare(a, part, op, shard_opts)
                         : ctx.compare(part, b, op, shard_opts);
      } catch (const rt::Error& e) {
        if (policy == rt::FailPolicy::kFailover ||
            policy == rt::FailPolicy::kDegrade) {
          errs[d] = e.status();  // handled below, after every shard ran
          return;
        }
        throw;  // abort/retry: propagate the structured code intact
      }
    });

    std::vector<Shard> failed;
    for (std::size_t d = 0; d < batch.size(); ++d) {
      if (errs[d].has_value()) {
        failed.push_back(batch[d]);
        rt::FaultEvent ev;
        ev.site = "multi.shard";
        ev.code = errs[d]->code;
        ev.action = policy == rt::FailPolicy::kFailover ? "failover"
                                                        : "degrade";
        ev.chunk = static_cast<std::int64_t>(batch[d].device);
        ev.detail = errs[d]->to_string();
        fault_log.record(std::move(ev));
      } else {
        completed.push_back({batch[d], std::move(res[d])});
      }
    }
    if (failed.empty()) {
      continue;
    }

    if (policy == rt::FailPolicy::kDegrade) {
      // Each failed shard falls straight to the host rung.
      SNP_OBS_COUNT("rt.degrades", failed.size());
      for (const Shard& s : failed) {
        completed.push_back(
            {s, host_compare_shard(a, b, op, shard_b, s,
                                   options.per_device)});
      }
      result.timing.degraded = true;
      continue;
    }

    // kFailover: mark the shard's device lost and re-shard its rows
    // across the survivors by their throughput weights.
    for (const Shard& s : failed) {
      if (!device_lost[s.device]) {
        device_lost[s.device] = true;
        SNP_OBS_COUNT("rt.failovers", 1);
        result.timing.lost_devices.push_back(
            contexts_[s.device].device_name() + "[" +
            std::to_string(s.device) + "]");
      }
    }
    std::vector<std::size_t> survivors;
    std::vector<double> surv_weights;
    for (std::size_t d = 0; d < contexts_.size(); ++d) {
      if (!device_lost[d]) {
        survivors.push_back(d);
        surv_weights.push_back(weights_[d]);
      }
    }
    if (survivors.empty()) {
      // Whole box gone: final degradation rung.
      SNP_OBS_COUNT("rt.degrades", failed.size());
      for (const Shard& s : failed) {
        completed.push_back(
            {s, host_compare_shard(a, b, op, shard_b, s,
                                   options.per_device)});
      }
      result.timing.degraded = true;
      continue;
    }
    const double total = std::accumulate(surv_weights.begin(),
                                         surv_weights.end(), 0.0);
    for (auto& w : surv_weights) {
      w /= total;
    }
    for (const Shard& s : failed) {
      for (const Shard& sub :
           make_shards(s.end - s.begin, surv_weights)) {
        work.push_back({s.begin + sub.begin, s.begin + sub.end,
                        survivors[sub.device]});
      }
    }
  }

  // Merge in row order so counts, timing vectors, and the report are
  // deterministic regardless of which round produced each piece.
  std::sort(completed.begin(), completed.end(),
            [](const Done& x, const Done& y) {
              return x.shard.begin < y.shard.begin;
            });
  double worst = 0.0;
  for (const Done& done : completed) {
    const Shard& s = done.shard;
    const CompareResult& r = done.res;
    SNP_OBS_OBSERVE("multi.shard.end_to_end_seconds",
                    r.timing.end_to_end_s);
    result.timing.per_device_end_to_end_s.push_back(
        r.timing.end_to_end_s);
    result.timing.degraded =
        result.timing.degraded || r.timing.degraded;
    for (const rt::FaultEvent& ev : r.timing.fault_events) {
      result.timing.fault_events.push_back(ev);
    }
    if (r.timing.end_to_end_s > worst) {
      worst = r.timing.end_to_end_s;
      result.timing.slowest_device = r.timing;
    }
    if (options.per_device.functional) {
      result.counts.put_block(r.counts, shard_b ? 0 : s.begin,
                              shard_b ? s.begin : 0);
    }
  }
  for (rt::FaultEvent& ev : fault_log.snapshot()) {
    result.timing.fault_events.push_back(std::move(ev));
  }
  result.timing.gather_s =
      options.gather_on_device
          ? gather_seconds(a.rows() * b.rows() * sizeof(std::uint32_t))
          : 0.0;
  result.timing.end_to_end_s = worst + result.timing.gather_s;
  return result;
}

MultiGpuReport MultiGpuContext::estimate(std::size_t m, std::size_t n,
                                         std::size_t k_bits, Comparison op,
                                         const MultiGpuOptions& options)
    const {
  const bool shard_b = n >= m;
  const std::size_t shard_rows = shard_b ? n : m;
  const auto shards = make_shards(shard_rows, weights_);

  SNP_OBS_SPAN("multi.estimate");
  MultiGpuReport rep;
  rep.devices = static_cast<int>(shards.size());
  std::vector<TimingReport> shard_reports(shards.size());
  for_each_shard(shards.size(), [&](std::size_t d) {
    const std::size_t len = shards[d].end - shards[d].begin;
    const Context& ctx = contexts_[shards[d].device];
    shard_reports[d] =
        shard_b ? ctx.estimate(m, len, k_bits, op, options.per_device)
                : ctx.estimate(len, n, k_bits, op, options.per_device);
  });
  double worst = 0.0;
  for (std::size_t d = 0; d < shards.size(); ++d) {
    const TimingReport& t = shard_reports[d];
    rep.per_device_end_to_end_s.push_back(t.end_to_end_s);
    if (t.end_to_end_s > worst) {
      worst = t.end_to_end_s;
      rep.slowest_device = t;
    }
  }
  rep.gather_s = options.gather_on_device
                     ? gather_seconds(m * n * sizeof(std::uint32_t))
                     : 0.0;
  rep.end_to_end_s = worst + rep.gather_s;
  return rep;
}

}  // namespace snp::multi
