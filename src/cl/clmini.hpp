// snp::cl — a miniature OpenCL-like host runtime over the model-GPU
// simulator.
//
// The paper's framework "standardizes the creation and initialization of
// the various supported OpenCL devices... writing data from host memory to
// device memory, compute kernels that operate on said data, and reading
// results from device memory to host memory are handled in a
// platform-independent manner" (Section V). This module reproduces that
// host-side surface: platforms, devices, contexts, buffers, in-order
// command queues, and events carrying the OpenCL profiling quadruple
// (queued / submitted / start / end) — except that "the device" is the
// simulator, and all timestamps advance on a virtual clock.
//
// Device memory is modeled, not mirrored: a buffer is a size charged
// against the device's limits plus the virtual times that carry its
// hazards, and transfers charge the clock for their bytes without copying
// any. A kernel's functional body computes from the host operands.
//
// Engine semantics match real discrete GPUs: one host-to-device copy
// engine, one compute engine, one device-to-host copy engine, each
// in-order, with cross-engine dependencies carried by buffers. Double
// buffering therefore emerges from enqueue order exactly as it does on
// hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/device.hpp"

namespace snp::cl {

class Device {
 public:
  explicit Device(model::GpuSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const model::GpuSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t max_alloc_bytes() const {
    return spec_.max_alloc_bytes;
  }
  [[nodiscard]] std::size_t global_bytes() const {
    return spec_.global_bytes;
  }

 private:
  model::GpuSpec spec_;
};

/// Enumerates the simulated platform's devices (the paper's three GPUs).
class Platform {
 public:
  [[nodiscard]] static std::vector<Device> devices();
  [[nodiscard]] static Device device(const std::string& name);
};

/// OpenCL-style profiling timestamps, in seconds of virtual device time
/// (t = 0 at context creation; initialization occupies [0, init_seconds]).
struct Event {
  double queued = 0.0;
  double submitted = 0.0;
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double duration() const { return end - start; }
};

class Context;

/// A device buffer: its size and the virtual times of its last write and
/// last read. It holds no bytes (see the module comment).
class Buffer {
 public:
  Buffer() = default;

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  friend class Context;
  friend class CommandQueue;
  explicit Buffer(std::size_t bytes) : size_(bytes) {}

  std::size_t size_ = 0;
  double ready_at_ = 0.0;      ///< end of the last operation writing it
  double last_read_at_ = 0.0;  ///< end of the last operation reading it
};

class CommandQueue;

class Context {
 public:
  explicit Context(Device device);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] const Device& device() const { return device_; }

  /// Allocates a device buffer; enforces the per-allocation and total
  /// global-memory limits of the device (Table I), throwing
  /// std::length_error on violation — the condition that forces the
  /// framework to tile large problems (Section VI-E-2).
  [[nodiscard]] std::shared_ptr<Buffer> create_buffer(std::size_t bytes);
  void release_buffer(const std::shared_ptr<Buffer>& buffer);

  [[nodiscard]] std::size_t allocated_bytes() const {
    return allocated_bytes_;
  }
  /// One-time initialization cost charged at context creation (seconds).
  [[nodiscard]] double init_seconds() const { return init_seconds_; }

  [[nodiscard]] CommandQueue& queue();

 private:
  Device device_;
  std::size_t allocated_bytes_ = 0;
  double init_seconds_ = 0.0;
  std::unique_ptr<CommandQueue> queue_;
};

/// In-order queue with profiling enabled. All operations complete
/// immediately in host (functional) terms; timestamps advance on the
/// device's virtual clock.
class CommandQueue {
 public:
  explicit CommandQueue(Context& ctx);

  /// Host -> device bulk copy (clEnqueueWriteBuffer) of `src`: charges
  /// the h2d engine for its bytes; nothing is copied.
  Event enqueue_write(Buffer& dst, std::span<const std::byte> src);

  /// Device -> host bulk copy (clEnqueueReadBuffer) of the first `bytes`
  /// of `src`: charges the d2h engine for them; nothing is copied.
  Event enqueue_read(const Buffer& src, std::size_t bytes);

  /// Kernel launch: `simulated_seconds` of device compute, with the given
  /// buffer dependencies; `functional` runs immediately on the host to
  /// produce the architectural result. Buffers written become ready at the
  /// kernel's end timestamp.
  Event enqueue_kernel(double simulated_seconds,
                       std::span<Buffer* const> reads,
                       std::span<Buffer* const> writes,
                       const std::function<void()>& functional = {});

  /// Blocks (virtually) until all enqueued work completes; returns the
  /// completion timestamp.
  double finish();

  /// Serializes the queue: nothing enqueued afterwards starts before
  /// everything already enqueued has completed (clEnqueueBarrier). Used to
  /// ablate transfer/compute overlap.
  void barrier();

  [[nodiscard]] double now() const { return host_now_; }
  [[nodiscard]] const Device& device() const { return ctx_.device(); }

 private:
  Context& ctx_;
  double host_now_ = 0.0;  ///< host-side enqueue clock
  double h2d_free_ = 0.0;
  double compute_free_ = 0.0;
  double d2h_free_ = 0.0;
  double last_end_ = 0.0;
};

}  // namespace snp::cl
