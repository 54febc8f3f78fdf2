#include "rt/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/obs.hpp"

namespace snp::rt {
namespace {

// splitmix64: tiny, stateless, and excellent avalanche — each (seed,
// site, ordinal) triple maps to an independent uniform draw without any
// shared RNG stream to race on.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t seed, FaultSite site, std::uint64_t ordinal) {
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ (static_cast<std::uint64_t>(site) << 56)) ^ ordinal);
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::optional<FaultSite> site_from_name(std::string_view name) {
  if (name == "alloc") return FaultSite::kAlloc;
  if (name == "h2d") return FaultSite::kH2d;
  if (name == "launch") return FaultSite::kLaunch;
  if (name == "readback") return FaultSite::kReadback;
  if (name == "pool") return FaultSite::kPool;
  if (name == "io") return FaultSite::kIo;
  if (name == "shard") return FaultSite::kShard;
  if (name == "timeout") return FaultSite::kTimeout;
  return std::nullopt;
}

[[noreturn]] void parse_fail(std::string_view spec, std::string_view why) {
  throw Error(ErrorCode::kInternal,
              "bad fault plan '" + std::string(spec) + "': " +
                  std::string(why));
}

}  // namespace

std::string_view site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc:
      return "alloc";
    case FaultSite::kH2d:
      return "h2d";
    case FaultSite::kLaunch:
      return "launch";
    case FaultSite::kReadback:
      return "readback";
    case FaultSite::kPool:
      return "pool";
    case FaultSite::kIo:
      return "io";
    case FaultSite::kShard:
      return "shard";
    case FaultSite::kTimeout:
      return "timeout";
  }
  return "?";
}

ErrorCode site_code(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc:
      return ErrorCode::kAlloc;
    case FaultSite::kH2d:
      return ErrorCode::kH2d;
    case FaultSite::kLaunch:
      return ErrorCode::kLaunch;
    case FaultSite::kReadback:
      return ErrorCode::kReadback;
    case FaultSite::kPool:
      return ErrorCode::kPoolTask;
    case FaultSite::kIo:
      return ErrorCode::kIoCorrupt;
    case FaultSite::kShard:
      return ErrorCode::kShardLost;
    case FaultSite::kTimeout:
      return ErrorCode::kTimeout;
  }
  return ErrorCode::kInternal;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string_view clause_sv = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = (comma == std::string_view::npos) ? spec.size() + 1 : comma + 1;
    if (clause_sv.empty()) {
      if (spec.empty()) break;  // "" -> empty plan
      parse_fail(spec, "empty clause");
    }

    FaultClause clause;
    std::size_t cpos = 0;
    const std::size_t colon = clause_sv.find(':');
    const std::string_view name = clause_sv.substr(0, colon);
    const auto site = site_from_name(name);
    if (!site) parse_fail(spec, "unknown site '" + std::string(name) + "'");
    clause.site = *site;
    cpos = (colon == std::string_view::npos) ? clause_sv.size() : colon + 1;

    bool any_trigger = false;
    while (cpos < clause_sv.size()) {
      const std::size_t next = clause_sv.find(':', cpos);
      std::string_view kv = clause_sv.substr(
          cpos, next == std::string_view::npos ? std::string_view::npos
                                               : next - cpos);
      cpos = (next == std::string_view::npos) ? clause_sv.size() : next + 1;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 >= kv.size())
        parse_fail(spec, "expected key=value, got '" + std::string(kv) + "'");
      const std::string_view key = kv.substr(0, eq);
      const std::string value(kv.substr(eq + 1));
      char* end = nullptr;
      if (key == "p") {
        clause.p = std::strtod(value.c_str(), &end);
        if (end == nullptr || *end != '\0' ||
            !(clause.p >= 0.0 && clause.p <= 1.0))  // NaN fails both
          parse_fail(spec, "p must be a number in [0,1]");
        any_trigger = any_trigger || clause.p > 0.0;
      } else if (key == "seed") {
        clause.seed = std::strtoull(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') parse_fail(spec, "bad seed");
      } else if (key == "after") {
        clause.after = std::strtoull(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') parse_fail(spec, "bad after");
        any_trigger = any_trigger || clause.after > 0;
      } else if (key == "at") {
        clause.at = std::strtoll(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || clause.at < 0)
          parse_fail(spec, "at must be a non-negative integer");
      } else if (key == "count") {
        clause.count = std::strtoull(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') parse_fail(spec, "bad count");
      } else {
        parse_fail(spec, "unknown key '" + std::string(key) + "'");
      }
    }
    if (!any_trigger)
      parse_fail(spec, "clause '" + std::string(name) +
                           "' has no trigger (need p> 0 or after>0)");
    plan.clauses.push_back(clause);
  }
  return plan;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-once at first use;
    // nothing in the process ever calls setenv.
    if (const char* env = std::getenv("SNPCMP_FAULTS");
        env != nullptr && *env != '\0') {
      try {
        inj->arm(FaultPlan::parse(env));
      } catch (const Error& e) {
        std::fprintf(stderr, "snpcmp: ignoring SNPCMP_FAULTS: %s\n",
                     e.what());
      }
    }
    return inj;
  }();
  return *injector;
}

void FaultInjector::arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.clear();
  for (auto& clause : plan.clauses) state_.push_back(ClauseState{clause});
  for (auto& n : site_checks_) n = 0;
  armed_.store(!state_.empty(), std::memory_order_relaxed);
}

std::optional<Status> FaultInjector::check(FaultSite site,
                                           std::int64_t index) {
  if (!armed_.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.empty()) return std::nullopt;
  const std::uint64_t ordinal = ++site_checks_[static_cast<int>(site)];
  for (auto& cs : state_) {
    const FaultClause& c = cs.clause;
    if (c.site != site) continue;
    if (c.at >= 0 && index >= 0 && index != c.at) continue;
    ++cs.checks;
    if (c.count != 0 && cs.fires >= c.count) continue;
    const bool fire_after = c.after != 0 && cs.checks == c.after;
    const bool fire_p =
        c.p > 0.0 && uniform01(c.seed, site, ordinal) < c.p;
    if (!fire_after && !fire_p) continue;
    ++cs.fires;
    SNP_OBS_COUNT("rt.faults_injected", 1);
    Status st = Status::failure(
        site_code(site),
        "injected fault at site '" + std::string(site_name(site)) +
            "' (check #" + std::to_string(cs.checks) +
            (index >= 0 ? ", index " + std::to_string(index) : "") + ")");
    st.injected = true;
    return st;
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& cs : state_) total += cs.fires;
  return total;
}

}  // namespace snp::rt
