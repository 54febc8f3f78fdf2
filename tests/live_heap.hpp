// Live-heap accounting for tests that pin memory use.
//
// Including this header replaces the global operator new/delete of the
// test executable, so it must be included by exactly one translation unit
// of it (each such test is its own binary). glibc's mallinfo2 cannot do
// the counting: it misses mmapped blocks, which is where a large vector
// lives. Each allocation is charged malloc_usable_size(), the same figure
// its release takes back, and a high-water mark follows the live total.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace snp::live_heap {

inline std::atomic<std::int64_t> g_live_bytes{0};
inline std::atomic<std::int64_t> g_peak_bytes{0};

/// Bytes allocated through global operator new and not yet released.
inline std::int64_t live() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// Highest live() since the last reset_peak().
inline std::int64_t peak() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

/// Restarts the high-water mark at the current live bytes.
inline void reset_peak() {
  g_peak_bytes.store(live(), std::memory_order_relaxed);
}

inline void* allocate(std::size_t size, std::size_t align) {
  size = size == 0 ? 1 : size;
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t high = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > high && !g_peak_bytes.compare_exchange_weak(
                           high, now, std::memory_order_relaxed)) {
  }
  return p;
}

inline void release(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace snp::live_heap

// The standard library's array and nothrow forms forward to these, so
// every global allocation in the process is counted.
void* operator new(std::size_t size) {
  return snp::live_heap::allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return snp::live_heap::allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { snp::live_heap::release(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept {
  snp::live_heap::release(p);
}
void operator delete(void* p, std::align_val_t /*align*/) noexcept {
  snp::live_heap::release(p);
}
void operator delete(void* p, std::size_t /*size*/,
                     std::align_val_t /*align*/) noexcept {
  snp::live_heap::release(p);
}
