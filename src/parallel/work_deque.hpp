#pragma once

/// \file parallel/work_deque.hpp
/// \brief Chase–Lev work-stealing deque: the per-worker task store of the
/// decentralized thread-pool substrate.
///
/// One deque per worker lane.  The owner treats it as a LIFO stack on the
/// *bottom* end (`push`/`pop`) — newest work first, which keeps fork-join
/// chunks cache-hot — while thieves remove the *oldest* entry from the
/// *top* end (`steal`), which is exactly the entry the owner is least
/// likely to touch soon.  Owner and thieves only ever contend on the
/// single boundary element, resolved by one CAS on `top`.
///
/// This is the Chase–Lev dynamic circular deque (SPAA'05) in the
/// standard-atomics formulation.  Two deliberate deviations from the
/// weakest-possible-fence version of Lê et al. (PPoPP'13):
///
///  - the `top`/`bottom` cross-thread races use `seq_cst` operations
///    instead of standalone `atomic_thread_fence`s.  ThreadSanitizer does
///    not model standalone fences (it would report false races on every
///    steal), and the store-buffer (Dekker) pattern between `push` and the
///    pool's sleep protocol needs seq_cst stores anyway.  On x86-64 this
///    costs one locked instruction per push — far below the mutex a
///    shared queue takes per operation.
///  - slots are `std::atomic<T>` rather than plain values: a thief may
///    read a slot that the owner is concurrently recycling after an index
///    wrap; the claim CAS on `top` then fails and the value is discarded,
///    but the read itself must not be a data race.
///
/// Growth: owner-only.  A full ring is replaced by one of twice the
/// capacity; the retired ring is kept alive (chained off the new one)
/// until the deque is destroyed, because a concurrent thief may still be
/// reading a slot of the old ring.  Rings are released in the destructor —
/// bounded by log2(peak size) retired arrays per deque lifetime.
///
/// `T` must be trivially copyable (the pool stores task pointers).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

namespace essentials::parallel {

template <typename T>
class work_deque {
  static_assert(std::is_trivially_copyable_v<T>,
                "work_deque slots are std::atomic<T>: T must be trivially "
                "copyable (store pointers to anything bigger)");

 public:
  /// `initial_capacity` is rounded up to a power of two (minimum 2).  Small
  /// capacities are legal and exercised by the growth torture tests.
  explicit work_deque(std::size_t initial_capacity = 64) {
    std::size_t cap = 2;
    while (cap < initial_capacity)
      cap *= 2;
    ring_chain_ = std::make_unique<ring>(cap);
    ring_.store(ring_chain_.get(), std::memory_order_relaxed);
  }

  work_deque(work_deque const&) = delete;
  work_deque& operator=(work_deque const&) = delete;

  /// Owner only: append `value` at the bottom.  Grows the ring when full.
  /// The publishing `bottom` store is seq_cst: it is one side of the
  /// store-buffer handshake with sleeping workers (see thread_pool.cpp) and
  /// the release edge thieves acquire the slot contents through.
  void push(T value) {
    std::int64_t const b = bottom_.load(std::memory_order_relaxed);
    std::int64_t const t = top_.load(std::memory_order_acquire);
    ring* a = ring_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->capacity))
      a = grow(a, t, b);
    a->put(b, value);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only: remove the newest entry (LIFO).  Returns nullopt when the
  /// deque is empty or a thief won the race for the last element.
  std::optional<T> pop() {
    std::int64_t const b = bottom_.load(std::memory_order_relaxed) - 1;
    ring* const a = ring_.load(std::memory_order_relaxed);
    // Publish the claim on slot b before inspecting top: a thief that
    // reads the old bottom afterwards targets an index we no longer own.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      T value = a->get(b);
      if (t == b) {
        // Exactly one element left: arbitrate with thieves via top.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          bottom_.store(b + 1, std::memory_order_relaxed);
          return std::nullopt;  // a thief took it first
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return value;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty; restore
    return std::nullopt;
  }

  /// Any thread: remove the oldest entry (FIFO from the top).  Returns
  /// nullopt when the deque looks empty *or* the claim CAS lost a race —
  /// callers treat both as "try another victim", so a failed steal never
  /// spins here.
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    std::int64_t const b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b)
      return std::nullopt;
    ring* const a = ring_.load(std::memory_order_acquire);
    T value = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return std::nullopt;  // lost to the owner's pop or another thief
    return value;
  }

  /// Approximate size (racy snapshot; monitoring and victim-selection
  /// heuristics only, never synchronization).
  std::size_t size() const noexcept {
    std::int64_t const b = bottom_.load(std::memory_order_relaxed);
    std::int64_t const t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty() const noexcept { return size() == 0; }

  /// Sequentially-consistent emptiness probe — the reader side of the
  /// store-buffer handshake between `push` (seq_cst bottom store) and a
  /// worker deciding to sleep.  A sleeper that incremented the pool's
  /// sleeper count (seq_cst) and then sees `true` here is guaranteed the
  /// pusher will observe that count and wake it.  Use `empty()` everywhere
  /// the answer is only a heuristic.
  bool empty_seq_cst() const noexcept {
    return bottom_.load(std::memory_order_seq_cst) <=
           top_.load(std::memory_order_seq_cst);
  }

  /// Current ring capacity (owner's view; tests of the growth path).
  std::size_t capacity() const noexcept {
    return ring_.load(std::memory_order_relaxed)->capacity;
  }

 private:
  struct ring {
    explicit ring(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<T>[]>(cap)) {}
    std::size_t const capacity;
    std::size_t const mask;
    std::unique_ptr<std::atomic<T>[]> slots;
    std::unique_ptr<ring> retired_predecessor;  // kept alive for thieves

    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
  };

  /// Owner only: double the capacity, copying the live range [t, b).  The
  /// old ring stays allocated (a thief may be mid-read); the release store
  /// of `ring_` publishes the copied slots to thieves that acquire it.
  ring* grow(ring* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<ring>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i)
      bigger->put(i, old->get(i));
    bigger->retired_predecessor = std::move(ring_chain_);
    ring_chain_ = std::move(bigger);
    ring* const fresh = ring_chain_.get();
    ring_.store(fresh, std::memory_order_release);
    return fresh;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<ring*> ring_{nullptr};
  std::unique_ptr<ring> ring_chain_;  // owner-managed: current + retired
};

}  // namespace essentials::parallel
