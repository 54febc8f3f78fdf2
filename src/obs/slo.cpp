#include "obs/slo.hpp"

#include <algorithm>

namespace snp::obs {

SloMonitor::SloMonitor(SloOptions options)
    : options_(options),
      bucket_width_s_(std::max(options.fast_window_s / 10.0, 1e-3)),
      hist_(Histogram::latency_bounds()),
      hist_exemplars_(hist_.bounds().size() + 1),
      epoch_(std::chrono::steady_clock::now()) {}

bool SloMonitor::record(double latency_s, std::uint64_t trace_id) {
  const double now_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    epoch_)
          .count();
  const std::lock_guard lock(mu_);

  hist_exemplars_[hist_.observe(latency_s)] =
      SloExemplar{latency_s, trace_id};

  if (options_.objective_s <= 0.0) {
    return false;
  }
  const bool breach = latency_s > options_.objective_s;
  breaches_ += breach ? 1 : 0;

  const auto index = static_cast<std::int64_t>(now_s / bucket_width_s_);
  if (window_.empty() || window_.back().index != index) {
    window_.push_back(Bucket{index, 0, 0});
  }
  ++window_.back().total;
  window_.back().breaches += breach ? 1 : 0;
  prune_locked(now_s);

  const double fast = burn_rate_locked(now_s, options_.fast_window_s);
  const double slow = burn_rate_locked(now_s, options_.slow_window_s);
  const bool over = fast >= options_.breach_burn_rate &&
                    slow >= options_.breach_burn_rate;
  if (over && armed_) {
    armed_ = false;
    ++trips_;
    return true;
  }
  if (!over) {
    armed_ = true;
  }
  return false;
}

double SloMonitor::burn_rate_locked(double now_s, double window_s) const {
  const auto first =
      static_cast<std::int64_t>((now_s - window_s) / bucket_width_s_);
  std::uint64_t total = 0;
  std::uint64_t breaches = 0;
  for (const Bucket& b : window_) {
    if (b.index >= first) {
      total += b.total;
      breaches += b.breaches;
    }
  }
  if (total == 0) {
    return 0.0;
  }
  const double fraction =
      static_cast<double>(breaches) / static_cast<double>(total);
  return fraction / options_.error_budget;
}

void SloMonitor::prune_locked(double now_s) {
  const auto first = static_cast<std::int64_t>(
      (now_s - options_.slow_window_s) / bucket_width_s_);
  while (!window_.empty() && window_.front().index < first) {
    window_.pop_front();
  }
}

SloSnapshot SloMonitor::snapshot() const {
  const double now_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    epoch_)
          .count();
  const std::lock_guard lock(mu_);
  SloSnapshot snap;
  snap.total = hist_.count();
  snap.breaches = breaches_;
  snap.burn_fast = burn_rate_locked(now_s, options_.fast_window_s);
  snap.burn_slow = burn_rate_locked(now_s, options_.slow_window_s);
  snap.trips = trips_;
  return snap;
}

std::vector<std::uint64_t> SloMonitor::bucket_counts() const {
  const std::lock_guard lock(mu_);
  return hist_.bucket_counts();
}

std::vector<std::optional<SloExemplar>> SloMonitor::exemplars() const {
  const std::lock_guard lock(mu_);
  return hist_exemplars_;
}

double SloMonitor::percentile_le(double q) const {
  const std::lock_guard lock(mu_);
  return obs::percentile_le(hist_.bounds(), hist_.bucket_counts(),
                            hist_.count(), q);
}

}  // namespace snp::obs
