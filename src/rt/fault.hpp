// snp::rt — deterministic, seeded fault injection.
//
// Recovery code that only runs when hardware actually misbehaves is
// untested code. This header makes every failure path in the stack
// reachable on purpose and reproducibly: a FaultPlan (parsed from
// `--inject-faults` or the SNPCMP_FAULTS env var) arms named injection
// sites — clmini buffer alloc/write/launch/read, the exec pool bodies,
// the io readers, multi-GPU shards, and the retry watchdog — and each
// site asks the process-wide FaultInjector whether to synthesize a
// failure *before* mutating any state, so a retried operation replays
// bit-identically.
//
// Plan grammar (docs/robustness.md):
//   plan    := clause (',' clause)*
//   clause  := site (':' key '=' value)*
//   site    := alloc | h2d | launch | readback | pool | io | shard | timeout
//   key     := p      probability per check, in [0,1]   (default 0)
//            | seed   RNG seed for the p draw            (default 0)
//            | after  fire on exactly the Nth check (1-based; 0 = off)
//            | at     only consider checks whose index operand == at
//            | count  cap on total fires for this clause (0 = unlimited)
//
// Examples: "launch:p=0.01:seed=7", "h2d:after=3",
//           "shard:at=1:after=1" (kill device 1's first shard attempt).
//
// Determinism: the p draw hashes (seed, site, per-site check ordinal)
// through splitmix64 — no global RNG stream, so concurrent checks at
// different sites never perturb each other, and the same plan over the
// same workload fires at the same ordinals every run. (Check *ordinals*
// at one site can interleave differently across threads; soak tests
// therefore assert recovery invariants, not exact fire positions.)
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rt/status.hpp"

namespace snp::rt {

/// Named injection sites. Each maps to the ErrorCode a real failure at
/// that point would produce (site_code()).
enum class FaultSite : std::uint8_t {
  kAlloc = 0,  ///< cl::Context::create_buffer
  kH2d,        ///< cl::CommandQueue::enqueue_write
  kLaunch,     ///< cl::CommandQueue::enqueue_kernel
  kReadback,   ///< cl::CommandQueue::enqueue_read
  kPool,       ///< core chunk loop pack/execute/drain stage bodies
  kIo,         ///< io readers (formats / packed / plink / vcf)
  kShard,      ///< multi-GPU per-shard pipeline
  kTimeout,    ///< retry watchdog sampling point
};
inline constexpr int kFaultSiteCount = 8;

[[nodiscard]] std::string_view site_name(FaultSite site);
[[nodiscard]] ErrorCode site_code(FaultSite site);

/// One parsed clause of a fault plan.
struct FaultClause {
  FaultSite site = FaultSite::kLaunch;
  double p = 0.0;            ///< per-check fire probability
  std::uint64_t seed = 0;    ///< seed for the p draw
  std::uint64_t after = 0;   ///< fire on exactly the Nth check (1-based)
  std::int64_t at = -1;      ///< index filter (-1 = any)
  std::uint64_t count = 0;   ///< max fires (0 = unlimited)
};

/// A parsed `--inject-faults` / SNPCMP_FAULTS specification.
struct FaultPlan {
  std::vector<FaultClause> clauses;

  [[nodiscard]] bool empty() const { return clauses.empty(); }
  /// Parses the grammar above; throws rt::Error(kInternal) with a
  /// position-bearing message on malformed input.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);
};

/// Process-wide injection engine. Disarmed (default) checks are a single
/// relaxed atomic load — the happy path stays free. Arming installs a
/// plan; every check() walks the matching clauses under a small lock
/// (injection runs are diagnostic runs; clarity beats contention here).
class FaultInjector {
 public:
  /// The process-wide injector. First access arms it from SNPCMP_FAULTS
  /// if that env var is set (a malformed value warns on stderr and is
  /// ignored rather than poisoning the run).
  static FaultInjector& global();

  /// Installs `plan` (replacing any current one) and resets all per-site
  /// counters. An empty plan disarms.
  void arm(FaultPlan plan);
  void disarm() { arm(FaultPlan{}); }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Asks whether site should fail now. `index` is the site's operand
  /// identity (chunk index, device id, ...) for `at=` filtering.
  /// Returns the synthesized failure Status (with injected=true and the
  /// site's ErrorCode) or nullopt. Bumps rt.faults_injected on fire.
  [[nodiscard]] std::optional<Status> check(FaultSite site,
                                            std::int64_t index = -1);

  /// Total fires since the last arm()/reset (for tests and reports).
  [[nodiscard]] std::uint64_t fires() const;

 private:
  struct ClauseState {
    FaultClause clause;
    std::uint64_t checks = 0;
    std::uint64_t fires = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<ClauseState> state_;
  // Per-site check ordinals, shared across clauses so `after=` counts
  // real site activity, not clause bookkeeping.
  std::uint64_t site_checks_[kFaultSiteCount] = {};
};

/// Convenience: consults the global injector and throws rt::Error if the
/// site fires. Place at the very top of an operation, before any state
/// mutation, so a retry replays cleanly.
inline void maybe_inject(FaultSite site, std::int64_t index = -1) {
  auto& inj = FaultInjector::global();
  if (!inj.armed()) return;
  if (auto st = inj.check(site, index)) throw Error(std::move(*st));
}

/// RAII plan installation for tests and CLI commands: arms on
/// construction, restores the disarmed state on destruction so plans
/// never leak across sequentially-run commands in one process.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultInjector::global().arm(std::move(plan));
  }
  explicit ScopedFaultPlan(std::string_view spec)
      : ScopedFaultPlan(FaultPlan::parse(spec)) {}
  ~ScopedFaultPlan() { FaultInjector::global().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace snp::rt
