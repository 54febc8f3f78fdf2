// Status-returning loader adapter.
//
// The forensic use case (arXiv:1707.00516) makes silently-misread input
// the worst failure mode an ingest path can have: every reader in this
// module must detect truncation and bit-flips and say *where* parsing
// stopped. This header is the shared bridge between the historical
// throwing loaders and the rt::Status world: `checked_load` runs a loader
// body, samples the `io` fault-injection site first, and converts any
// failure into an rt::Status — kIoCorrupt carrying the byte offset at
// which the input stood when parsing gave up, unless the body already
// threw a classified rt::Error. A file read by offset rather than as a
// stream (io::load_bitmatrix of a path) tracks that offset itself.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <utility>

#include "rt/fault.hpp"
#include "rt/status.hpp"

namespace snp::io {

/// Byte offset the stream currently points at, clearing failbits first so
/// a truncated read still reports the position it stopped at (0 when the
/// stream cannot tell at all).
inline std::uint64_t stream_offset(std::istream& is) {
  is.clear();
  const auto pos = is.tellg();
  return pos == std::streampos(-1) ? 0 : static_cast<std::uint64_t>(pos);
}

/// Runs `body` (a throwing loader) and folds the outcome into a Status.
/// `offset()` says where the input stands: it stamps an injected fault,
/// drawn before the body runs, and an exception that carries no Status.
template <typename Offset, typename Fn>
[[nodiscard]] rt::Status checked_load_at(const Offset& offset, Fn&& body) {
  auto& injector = rt::FaultInjector::global();
  if (injector.armed()) {
    if (std::optional<rt::Status> st = injector.check(rt::FaultSite::kIo)) {
      st->offset = offset();
      return *st;
    }
  }
  try {
    body();
    return rt::Status::success();
  } catch (const rt::Error& e) {
    return e.status();
  } catch (const std::exception& e) {
    return rt::Status::failure(rt::ErrorCode::kIoCorrupt, e.what(),
                               offset());
  }
}

/// checked_load_at over a stream, at the offset the stream points at.
template <typename Fn>
[[nodiscard]] rt::Status checked_load(std::istream& is, Fn&& body) {
  return checked_load_at([&] { return stream_offset(is); },
                         std::forward<Fn>(body));
}

}  // namespace snp::io
