#pragma once

/// \file residual/buckets.hpp
/// \brief Bucketed approximate priorities for the residual scheduler.
///
/// An exact priority queue over residual magnitudes would serialize every
/// relaxation on one heap; Maiter's SLF/LLL heuristics (SNIPPETS.md
/// Snippet 1) show approximate ordering converges just as fast.  We keep
/// both ideas, generalized from queue lengths to residual magnitudes:
///
///  - **SLF — schedule the largest first.**  Buckets are factor-of-two
///    magnitude bands (bucket index from the float exponent, larger
///    magnitude → lower index); a *wave* drains the lowest-index nonempty
///    bucket, so the biggest residuals — the ones whose application
///    retires the most downstream work — always go first.
///  - **LLL — don't process what shrank.**  At claim time the engine
///    re-reads the vertex's magnitude; if it fell below the wave's band
///    (a sum algebra's cancellation, or a bigger wave already absorbed
///    it), the vertex is demoted to its proper bucket unprocessed
///    (residual/state.hpp).
///
/// Staging is contention-free: each bucket has one cache-line-padded
/// vector per pool lane, indexed by `lane_id()`; producers without a lane
/// (unregistered externals, or every external slot claimed) fall back to
/// a spinlock-guarded overflow slot.  Wave extraction is
/// coordinator-only *between* `run_blocked` barriers, so it reads the lane
/// vectors without synchronization — the same two-phase discipline as
/// parallel/lane_buffers.hpp.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "parallel/lane_buffers.hpp"  // cache_line_size
#include "parallel/spinlock.hpp"
#include "parallel/thread_pool.hpp"

namespace essentials::residual {

/// Map a positive magnitude to its bucket: factor-of-two bands anchored at
/// exponent +31 (magnitudes >= 2^31 — including min-lattice "unreached"
/// sentinels — share bucket 0; everything below the last band shares the
/// final bucket).  Monotone: larger magnitude never gets a larger index.
inline std::size_t bucket_of(double magnitude, std::size_t num_buckets) {
  if (!(magnitude > 0.0))
    return num_buckets - 1;
  int exponent = 0;
  std::frexp(magnitude, &exponent);  // magnitude = m * 2^exponent, m in [.5, 1)
  constexpr int kTopExponent = 32;   // frexp exponent of 2^31 .. 2^32)
  long const band = static_cast<long>(kTopExponent) - exponent;
  if (band < 0)
    return 0;
  if (band >= static_cast<long>(num_buckets))
    return num_buckets - 1;
  return static_cast<std::size_t>(band);
}

/// Per-priority staging area.  V is the vertex id type.
template <typename V>
class residual_buckets {
 public:
  residual_buckets(std::size_t num_buckets, std::size_t max_lanes)
      : buckets_(num_buckets), mask_((num_buckets + 63) / 64) {
    for (auto& b : buckets_)
      b.lanes.resize(max_lanes);
  }

  std::size_t num_buckets() const noexcept { return buckets_.size(); }

  /// Stage `v` into bucket `bucket`.  `lane` is the producer's pool lane
  /// (its private slot — no synchronization) or `thread_pool::no_lane`,
  /// which routes through the locked overflow slot.
  void stage(std::size_t bucket, std::size_t lane, V v) {
    auto& b = buckets_[bucket];
    std::uint64_t slot_bit;
    if (lane < b.lanes.size()) {
      b.lanes[lane].items.push_back(v);
      // Lanes 63+ share the catch-all bit with the overflow slot.
      slot_bit = std::uint64_t{1} << (lane < 63 ? lane : 63);
    } else {
      std::lock_guard<parallel::spinlock> guard(b.overflow_lock);
      b.overflow.push_back(v);
      slot_bit = std::uint64_t{1} << 63;
    }
    // Publish after the push: take_wave clears both masks before draining,
    // so a bit set by any completed stage is never lost and a stale bit
    // over an already-drained slot is merely a wasted probe.  Skip the RMW
    // when the bit is already up — mask clears only happen in take_wave,
    // which is never concurrent with producers (the two-phase discipline
    // in the file comment), so an observed set bit stays set.
    if ((b.lane_mask.load(std::memory_order_relaxed) & slot_bit) == 0)
      b.lane_mask.fetch_or(slot_bit, std::memory_order_release);
    std::uint64_t const bucket_bit = std::uint64_t{1} << (bucket & 63);
    if ((mask_[bucket >> 6].load(std::memory_order_relaxed) & bucket_bit) == 0)
      mask_[bucket >> 6].fetch_or(bucket_bit, std::memory_order_release);
  }

  /// Drain the highest-priority (lowest-index) nonempty bucket into `out`
  /// and return its index, or npos when every bucket is empty.
  /// Coordinator-only, between waves.  The nonempty bitmask makes the
  /// steady-state probe O(1) — an empty scheduler answers from one cache
  /// line instead of walking every bucket's lane slots (the fixed cost
  /// that would otherwise dominate a standing query's microsecond absorb).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t take_wave(std::vector<V>& out) {
    out.clear();
    for (std::size_t w = 0; w < mask_.size(); ++w) {
      std::uint64_t bits = mask_[w].load(std::memory_order_acquire);
      while (bits != 0) {
        int const bit = std::countr_zero(bits);
        bits &= bits - 1;
        std::size_t const i = (w << 6) + static_cast<std::size_t>(bit);
        mask_[w].fetch_and(~(std::uint64_t{1} << bit),
                           std::memory_order_acq_rel);
        auto& b = buckets_[i];
        // Visit only the (padded, scattered) lane slots some producer
        // actually touched — a one-producer wave drains one cache line,
        // not max_lanes of them.
        std::uint64_t lm = b.lane_mask.exchange(0, std::memory_order_acq_rel);
        bool const catch_all = (lm >> 63) != 0;
        lm &= ~(std::uint64_t{1} << 63);
        while (lm != 0) {
          int const slot = std::countr_zero(lm);
          lm &= lm - 1;
          auto& lane = b.lanes[static_cast<std::size_t>(slot)];
          out.insert(out.end(), lane.items.begin(), lane.items.end());
          lane.items.clear();
        }
        if (catch_all) {
          for (std::size_t s = 63; s < b.lanes.size(); ++s) {
            out.insert(out.end(), b.lanes[s].items.begin(),
                       b.lanes[s].items.end());
            b.lanes[s].items.clear();
          }
          std::lock_guard<parallel::spinlock> guard(b.overflow_lock);
          out.insert(out.end(), b.overflow.begin(), b.overflow.end());
          b.overflow.clear();
        }
        if (!out.empty())
          return i;
      }
    }
    return npos;
  }

  /// Coordinator-only emptiness probe (between waves).
  bool empty() const {
    for (auto const& b : buckets_) {
      for (auto const& lane : b.lanes)
        if (!lane.items.empty())
          return false;
      if (!b.overflow.empty())
        return false;
    }
    return true;
  }

 private:
  struct alignas(parallel::cache_line_size) lane_slot {
    std::vector<V> items;
  };
  struct bucket_t {
    std::vector<lane_slot> lanes;
    std::vector<V> overflow;
    mutable parallel::spinlock overflow_lock;
    /// Bit s set => lane slot s (bit 63: overflow + lanes 63+) may be
    /// nonempty.  Same set-after-push / clear-before-drain protocol as the
    /// bucket-level mask.
    std::atomic<std::uint64_t> lane_mask{0};
  };
  std::vector<bucket_t> buckets_;
  /// Bit i set => bucket i may be nonempty (set-after-push by producers,
  /// cleared-before-drain by take_wave; stale set bits are benign).
  std::vector<std::atomic<std::uint64_t>> mask_;
};

}  // namespace essentials::residual
