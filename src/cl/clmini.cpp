#include "cl/clmini.hpp"

#include <algorithm>
#include <stdexcept>

#include "rt/fault.hpp"
#include "rt/status.hpp"
#include "sim/memory.hpp"

namespace snp::cl {

std::vector<Device> Platform::devices() {
  std::vector<Device> out;
  for (auto& spec : model::all_gpus()) {
    out.emplace_back(std::move(spec));
  }
  return out;
}

Device Platform::device(const std::string& name) {
  return Device(model::gpu_by_name(name));
}

Context::Context(Device device) : device_(std::move(device)) {
  init_seconds_ = sim::init_seconds(device_.spec());
  queue_ = std::make_unique<CommandQueue>(*this);
}

Context::~Context() = default;

std::shared_ptr<Buffer> Context::create_buffer(std::size_t bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("create_buffer: zero-size buffer");
  }
  // Injection precedes the accounting mutation so a retried allocation
  // replays against unchanged state.
  rt::maybe_inject(rt::FaultSite::kAlloc);
  if (bytes > device_.max_alloc_bytes()) {
    throw rt::Error(
        rt::ErrorCode::kAlloc,
        "create_buffer: allocation exceeds CL_DEVICE_MAX_MEM_ALLOC_SIZE (" +
            std::to_string(device_.max_alloc_bytes()) + " bytes)");
  }
  if (allocated_bytes_ + bytes > device_.global_bytes()) {
    throw rt::Error(rt::ErrorCode::kAlloc,
                    "create_buffer: device global memory exhausted");
  }
  allocated_bytes_ += bytes;
  return std::shared_ptr<Buffer>(new Buffer(bytes));
}

void Context::release_buffer(const std::shared_ptr<Buffer>& buffer) {
  if (buffer) {
    allocated_bytes_ -= std::min(allocated_bytes_, buffer->size());
  }
}

CommandQueue& Context::queue() { return *queue_; }

CommandQueue::CommandQueue(Context& ctx) : ctx_(ctx) {
  // The virtual clock starts at context creation; nothing may start before
  // initialization completes.
  const double init = ctx_.init_seconds();
  h2d_free_ = compute_free_ = d2h_free_ = init;
  host_now_ = 0.0;
}

Event CommandQueue::enqueue_write(Buffer& dst,
                                  std::span<const std::byte> src) {
  if (src.size() > dst.size()) {
    throw std::out_of_range("enqueue_write: source larger than buffer");
  }
  // All injection sites sit before the first clock/buffer mutation: a
  // retried enqueue must observe bit-identical virtual-clock state.
  rt::maybe_inject(rt::FaultSite::kH2d);
  Event ev;
  ev.queued = host_now_;
  // A write may not begin until prior consumers of this buffer are done
  // (the double-buffering hazard).
  ev.submitted = std::max(h2d_free_, ev.queued);
  ev.start = std::max({ev.submitted, dst.ready_at_, dst.last_read_at_}) +
             sim::pcie_latency_seconds();
  ev.end = ev.start + sim::pcie_seconds(ctx_.device().spec(), src.size());
  h2d_free_ = ev.end;
  dst.ready_at_ = ev.end;
  last_end_ = std::max(last_end_, ev.end);
  return ev;
}

Event CommandQueue::enqueue_read(const Buffer& src, std::size_t bytes) {
  if (bytes > src.size()) {
    throw std::out_of_range("enqueue_read: read larger than buffer");
  }
  rt::maybe_inject(rt::FaultSite::kReadback);
  Event ev;
  ev.queued = host_now_;
  ev.submitted = std::max(d2h_free_, ev.queued);
  ev.start = std::max(ev.submitted, src.ready_at_) +
             sim::pcie_latency_seconds();
  ev.end = ev.start + sim::pcie_seconds(ctx_.device().spec(), bytes);
  d2h_free_ = ev.end;
  // Reading marks the buffer busy until the copy completes.
  const_cast<Buffer&>(src).last_read_at_ =
      std::max(src.last_read_at_, ev.end);
  last_end_ = std::max(last_end_, ev.end);
  return ev;
}

Event CommandQueue::enqueue_kernel(double simulated_seconds,
                                   std::span<Buffer* const> reads,
                                   std::span<Buffer* const> writes,
                                   const std::function<void()>& functional) {
  if (simulated_seconds < 0.0) {
    throw std::invalid_argument("enqueue_kernel: negative duration");
  }
  rt::maybe_inject(rt::FaultSite::kLaunch);
  Event ev;
  ev.queued = host_now_;
  ev.submitted = std::max(compute_free_, ev.queued);
  double deps = ev.submitted;
  for (const Buffer* b : reads) {
    deps = std::max(deps, b->ready_at_);
  }
  for (const Buffer* b : writes) {
    deps = std::max(deps, std::max(b->ready_at_, b->last_read_at_));
  }
  ev.start = deps + sim::launch_seconds(ctx_.device().spec());
  ev.end = ev.start + simulated_seconds;
  compute_free_ = ev.end;
  for (Buffer* b : const_cast<std::span<Buffer* const>&>(reads)) {
    b->last_read_at_ = std::max(b->last_read_at_, ev.end);
  }
  for (Buffer* b : const_cast<std::span<Buffer* const>&>(writes)) {
    b->ready_at_ = ev.end;
  }
  last_end_ = std::max(last_end_, ev.end);
  if (functional) {
    functional();
  }
  return ev;
}

double CommandQueue::finish() {
  host_now_ = std::max(host_now_, last_end_);
  return host_now_;
}

void CommandQueue::barrier() {
  h2d_free_ = std::max(h2d_free_, last_end_);
  compute_free_ = std::max(compute_free_, last_end_);
  d2h_free_ = std::max(d2h_free_, last_end_);
}

}  // namespace snp::cl
