#pragma once

/// \file parallel/scan.hpp
/// \brief Blocked parallel prefix-sum primitives on the persistent thread
/// pool — the load-balancing workhorse of CSR advance.
///
/// Two entry points share one three-phase structure (per-chunk upsweep,
/// serial combine of the few chunk totals, parallel downsweep):
///
///  - `exclusive_scan(pool, in, n, out)` scans a materialized input array;
///  - `exclusive_scan_map(pool, n, f, out)` scans `f(0), f(1), …, f(n-1)`
///    without materializing them — the degree-scan shape: advance passes
///    `f(i) = out_degree(active[i])` and gets per-vertex work offsets
///    directly, paying one extra evaluation of `f` per element instead of
///    an O(n) staging array.
///
/// Both are deterministic for a fixed (n, pool size): chunk boundaries come
/// from the pool's documented `bulk_step` chunking contract, per-chunk sums
/// are combined serially in chunk order, and integer accumulation is exact —
/// so every steal order (flat or tiered, NUMA on or off) produces
/// bit-identical offsets.  Scan generation's compaction phase and the
/// edge-balanced/degree-class advance strategies both build on these.

#include <cstddef>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace essentials::parallel {

namespace detail {

/// Shared three-phase blocked scan over the virtual sequence `get(i)`.
/// `bulk_step` is the pool's chunking contract: passing the step back in as
/// the grain makes run_blocked reproduce exactly these chunk boundaries, so
/// `lo / step` is a stable, collision-free chunk index.
template <typename OutT, typename GetF>
OutT blocked_exclusive_scan(thread_pool& pool, std::size_t n, GetF&& get,
                            OutT* out) {
  if (n == 0)
    return OutT{0};
  std::size_t const step = pool.bulk_step(n, 1);

  std::vector<OutT> chunk_total((n + step - 1) / step, OutT{0});
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        OutT acc{0};
        for (std::size_t i = lo; i < hi; ++i)
          acc += static_cast<OutT>(get(i));
        chunk_total[lo / step] = acc;
      },
      step);

  OutT running{0};
  for (auto& t : chunk_total) {
    OutT const next = running + t;
    t = running;  // becomes the chunk's base offset
    running = next;
  }

  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        OutT acc = chunk_total[lo / step];
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = acc;
          acc += static_cast<OutT>(get(i));
        }
      },
      step);
  return running;
}

}  // namespace detail

/// Exclusive prefix sum of `in` into `out` (out[0] = 0); returns the grand
/// total.  Scanning out-degrees yields each lane's output offsets without
/// locks.
template <typename InT, typename OutT>
OutT exclusive_scan(thread_pool& pool, InT const* in, std::size_t n,
                    OutT* out) {
  return detail::blocked_exclusive_scan(
      pool, n, [in](std::size_t i) { return in[i]; }, out);
}

/// exclusive_scan on the default pool.
template <typename InT, typename OutT>
OutT exclusive_scan(InT const* in, std::size_t n, OutT* out) {
  return exclusive_scan(default_pool(), in, n, out);
}

/// Exclusive prefix sum of the virtual sequence `f(0) … f(n-1)` into `out`;
/// returns the grand total.  `f` must be pure (it is evaluated twice per
/// index, once per sweep) and cheap — the intended shape is an O(1) degree
/// lookup.
template <typename OutT, typename MapF>
OutT exclusive_scan_map(thread_pool& pool, std::size_t n, MapF&& f,
                        OutT* out) {
  return detail::blocked_exclusive_scan(pool, n, f, out);
}

/// exclusive_scan_map on the default pool.
template <typename OutT, typename MapF>
OutT exclusive_scan_map(std::size_t n, MapF&& f, OutT* out) {
  return exclusive_scan_map(default_pool(), n, std::forward<MapF>(f), out);
}

}  // namespace essentials::parallel
