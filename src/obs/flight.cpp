#include "obs/flight.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace snp::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1U;
  }
  return p;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::size_t configured_capacity() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-once at ring setup;
  // nothing in the process ever calls setenv.
  const char* env = std::getenv("SNPCMP_FLIGHT_RING");
  if (env == nullptr) {
    return FlightRecorder::kDefaultCapacity;
  }
  if (const auto cap = parse_flight_ring(env)) {
    return *cap;
  }
  // Documented fallback: never throw over an env var — the recorder is
  // constructed lazily on a serving path's first record().
  std::fprintf(stderr,
               "snpcmp: ignoring invalid SNPCMP_FLIGHT_RING='%s' "
               "(expected an integer in [16, %zu]); using default %zu\n",
               env, FlightRecorder::kMaxCapacity,
               FlightRecorder::kDefaultCapacity);
  return FlightRecorder::kDefaultCapacity;
}

void emit_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) >= 0x20) {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kEnqueue:
      return "enqueue";
    case FlightKind::kCacheHit:
      return "cache-hit";
    case FlightKind::kShed:
      return "shed";
    case FlightKind::kBatch:
      return "batch";
    case FlightKind::kChunkPack:
      return "chunk-pack";
    case FlightKind::kChunkExec:
      return "chunk-exec";
    case FlightKind::kChunkDrain:
      return "chunk-drain";
    case FlightKind::kFault:
      return "fault";
    case FlightKind::kRetry:
      return "retry";
    case FlightKind::kResolve:
      return "resolve";
    case FlightKind::kEpoch:
      return "epoch";
    case FlightKind::kSloBreach:
      return "slo-breach";
    case FlightKind::kDeadlineShed:
      return "deadline-shed";
    case FlightKind::kBreaker:
      return "breaker";
    case FlightKind::kBrownout:
      return "brownout";
  }
  return "unknown";
}

/// Single-writer seqlock ring. Writer protocol per slot: seq -> odd,
/// store the five payload words, seq -> even; all accesses are atomic
/// (payload relaxed, seq release/acquire) so readers never race and a
/// torn slot is detected by an odd or changed sequence.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint64_t> w[5];
  };

  explicit Ring(std::uint32_t thread_index, std::size_t capacity)
      : thread(thread_index), mask(capacity - 1),
        slots(new Slot[capacity]) {}

  std::uint32_t thread;
  std::size_t mask;
  std::atomic<std::uint64_t> head{0};  ///< next write position
  std::unique_ptr<Slot[]> slots;
  /// Cleared when the owning thread exits (or moves to another
  /// recorder); the next thread that registers takes the ring over,
  /// records intact.
  std::atomic<bool> owned{true};
};

FlightRecorder::FlightRecorder() : FlightRecorder(configured_capacity()) {}

namespace {
std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : id_(next_recorder_id()),
      capacity_(round_up_pow2(std::max<std::size_t>(capacity, 16))),
      epoch_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  // Per-thread registration, keyed by the recorder's never-reused
  // instance id rather than its address, so a recorder allocated where a
  // destroyed one lived cannot alias it. The thread co-owns its ring, so
  // giving the ring up at thread exit never touches a recorder that was
  // destroyed first.
  struct Registration {
    std::uint64_t owner = 0;
    std::shared_ptr<Ring> ring;
    void release() {
      if (ring != nullptr) ring->owned.store(false, std::memory_order_release);
      ring.reset();
      owner = 0;
    }
    ~Registration() { release(); }
  };
  thread_local Registration t_reg;
  if (t_reg.owner == id_) {
    return t_reg.ring.get();
  }
  t_reg.release();  // a ring held in another recorder
  const std::lock_guard lock(mu_);
  for (const auto& ring : rings_) {
    if (!ring->owned.load(std::memory_order_acquire)) {
      ring->owned.store(true, std::memory_order_relaxed);
      t_reg.ring = ring;
      break;
    }
  }
  if (t_reg.ring == nullptr) {
    t_reg.ring = rings_.emplace_back(std::make_shared<Ring>(
        static_cast<std::uint32_t>(rings_.size()), capacity_));
  }
  t_reg.owner = id_;
  return t_reg.ring.get();
}

void FlightRecorder::record(FlightKind kind, std::uint64_t trace_id,
                            std::uint32_t code, std::int64_t a,
                            std::int64_t b) {
  if (!enabled()) {
    return;
  }
  Ring* ring = ring_for_this_thread();
  const auto ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  const std::uint64_t pos = ring->head.load(std::memory_order_relaxed);
  Ring::Slot& slot = ring->slots[pos & ring->mask];
  const std::uint32_t seq0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq0 + 1, std::memory_order_relaxed);  // odd: in progress
  // Release fence: any reader that observes one of the payload stores
  // below and then fences (snapshot's acquire fence) is guaranteed to
  // also observe the odd sequence, so mixed-generation reads are
  // rejected by the s1 != s2 check.
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(ts_ns, std::memory_order_relaxed);
  slot.w[1].store(trace_id, std::memory_order_relaxed);
  slot.w[2].store((static_cast<std::uint64_t>(kind) << 32U) | code,
                  std::memory_order_relaxed);
  slot.w[3].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
  slot.w[4].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
  slot.seq.store(seq0 + 2, std::memory_order_release);  // even: committed
  ring->head.store(pos + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  const std::lock_guard lock(mu_);
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->mask + 1;
    const std::uint64_t first = head > cap ? head - cap : 0;
    for (std::uint64_t pos = first; pos < head; ++pos) {
      const Ring::Slot& slot = ring->slots[pos & ring->mask];
      const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      if ((s1 & 1U) != 0) {
        continue;  // mid-write
      }
      FlightRecord rec;
      const std::uint64_t ts_ns = slot.w[0].load(std::memory_order_relaxed);
      rec.trace_id = slot.w[1].load(std::memory_order_relaxed);
      const std::uint64_t kc = slot.w[2].load(std::memory_order_relaxed);
      rec.a = static_cast<std::int64_t>(
          slot.w[3].load(std::memory_order_relaxed));
      rec.b = static_cast<std::int64_t>(
          slot.w[4].load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint32_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) {
        continue;  // overwritten while reading
      }
      rec.ts_us = static_cast<double>(ts_ns) * 1e-3;
      rec.thread = ring->thread;
      rec.kind = static_cast<FlightKind>(kc >> 32U);
      rec.code = static_cast<std::uint32_t>(kc & 0xffffffffULL);
      out.push_back(rec);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& x, const FlightRecord& y) {
                     return x.ts_us < y.ts_us;
                   });
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->mask + 1;
    total += head > cap ? head - cap : 0;
  }
  return total;
}

void FlightRecorder::set_code_namer(CodeNamer namer) {
  namer_.store(namer, std::memory_order_relaxed);
}

void FlightRecorder::set_dump_path(std::string path) {
  const std::lock_guard lock(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  const std::lock_guard lock(mu_);
  return dump_path_;
}

void FlightRecorder::dump_json(std::ostream& os,
                               std::string_view reason) const {
  const auto events = snapshot();
  const CodeNamer namer = namer_.load(std::memory_order_relaxed);
  os << "{\n  \"flight\": 1,\n  \"reason\": ";
  emit_json_string(os, reason);
  os << ",\n  \"ring_capacity\": " << capacity_
     << ",\n  \"dropped\": " << dropped() << ",\n  \"events\": [";
  bool first = true;
  for (const FlightRecord& ev : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"ts_us\": " << ev.ts_us << ", \"thread\": " << ev.thread
       << ", \"kind\": \"" << to_string(ev.kind) << "\", \"trace\": "
       << ev.trace_id;
    if (ev.code != 0) {
      os << ", \"code\": ";
      const std::string_view name =
          namer != nullptr ? namer(ev.code) : std::string_view{};
      if (!name.empty()) {
        emit_json_string(os, name);
      } else {
        os << ev.code;
      }
    }
    os << ", \"a\": " << ev.a << ", \"b\": " << ev.b << "}";
  }
  os << "\n  ]\n}\n";
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  dump_json(os, reason);
  return os.good();
}

std::string FlightRecorder::auto_dump(std::string_view reason) const {
  std::string path = dump_path();
  if (path.empty()) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env access;
    // nothing in the process ever calls setenv.
    if (const char* env = std::getenv("SNPCMP_FLIGHT_OUT")) {
      // Blank (empty or whitespace-only) values are treated as unset:
      // `SNPCMP_FLIGHT_OUT= snpcmp ...` and stray-space exports must not
      // produce a dump file named " ".
      path = std::string(trim(env));
    }
  }
  if (path.empty()) {
    return {};
  }
  return dump_to_file(path, reason) ? path : std::string{};
}

std::optional<std::size_t> parse_flight_ring(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) {
    return std::nullopt;
  }
  std::uint64_t n = 0;
  const char* begin = t.data();
  const char* end = begin + t.size();
  const auto [ptr, ec] = std::from_chars(begin, end, n, 10);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;  // non-digits, trailing garbage, sign, overflow
  }
  if (n < 16 || n > FlightRecorder::kMaxCapacity) {
    return std::nullopt;
  }
  return round_up_pow2(static_cast<std::size_t>(n));
}

void FlightRecorder::clear() {
  const std::lock_guard lock(mu_);
  for (auto& ring : rings_) {
    // Only safe while the owning thread is not appending; tests clear
    // between phases. Bump every slot's seq by 2 (stays even) after
    // zeroing head so concurrent snapshots drop stale reads.
    ring->head.store(0, std::memory_order_release);
    for (std::size_t i = 0; i <= ring->mask; ++i) {
      ring->slots[i].seq.fetch_add(2, std::memory_order_release);
    }
  }
}

}  // namespace snp::obs
