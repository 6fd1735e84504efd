#pragma once

/// \file core/frontier/sparse_frontier.hpp
/// \brief Sparse frontier: the active set as a flat vector of ids —
/// paper Listing 2, hardened for concurrent producers.
///
/// The shared-memory representation of choice when the active set is small
/// relative to |V|: iteration cost is O(|F|), membership is not O(1).
/// Concurrent `add` is supported two ways, both exercised by the operators:
///  - `add(v)`: lock-guarded push_back — literally Listing 3's
///    mutex-protected `output.add_vertex(n)`;
///  - `append_bulk(...)`: one lock per lane-local buffer, the optimization
///    operators use to keep the critical section short (CP.43).
/// The default parallel generation path avoids the lock entirely: operators
/// build the active vector out-of-band with lane buffers + prefix-sum
/// compaction (core/frontier/generate.hpp) and install it via
/// `active()` before any reader can observe the frontier.

#include <cstddef>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "parallel/spinlock.hpp"

namespace essentials::frontier {

template <typename T = vertex_t>
class sparse_frontier {
 public:
  using value_type = T;
  static constexpr frontier_kind kind = frontier_kind::vertex_frontier;

  sparse_frontier() = default;

  /// Build from an initial active set.
  explicit sparse_frontier(std::vector<T> active)
      : active_(std::move(active)) {}

  // Concurrency contract (audited; regression-tested under TSAN in
  // tests/test_frontier.cpp):
  //  - `add_vertex` / `append_bulk` may race with each other and with
  //    `clear()` and `swap()` — all four serialize on the spinlock, so a
  //    producer draining into a frontier the enactor is recycling cannot
  //    corrupt the vector.
  //  - Copying or moving a frontier while producers are appending remains a
  //    *caller bug*: copies/moves transfer the active vector without
  //    touching the source's lock (locking here would only hide the logic
  //    error — the copy would still contain an unpredictable prefix).  The
  //    enactor/operators only copy between supersteps.
  //  - Reads (`size`, `active()`, iteration) are unsynchronized by design:
  //    readers run after the superstep barrier, never beside producers.
  sparse_frontier(sparse_frontier const& other) : active_(other.active_) {}
  sparse_frontier(sparse_frontier&& other) noexcept
      : active_(std::move(other.active_)) {}
  sparse_frontier& operator=(sparse_frontier const& other) {
    active_ = other.active_;
    return *this;
  }
  sparse_frontier& operator=(sparse_frontier&& other) noexcept {
    active_ = std::move(other.active_);
    return *this;
  }

  // --- Listing 2 API ---------------------------------------------------------

  /// "Get the number of active vertices."
  std::size_t size() const noexcept { return active_.size(); }

  /// "Get the active vertex at a given index."
  T get_active_vertex(std::size_t i) const {
    expects(i < active_.size(), "sparse_frontier: index out of range");
    return active_[i];
  }

  /// "Add a vertex to the frontier." — thread-safe (Listing 3 wraps this in
  /// a lock; we keep the lock inside so call sites stay clean).
  void add_vertex(T v) {
    std::lock_guard<parallel::spinlock> guard(lock_);
    active_.push_back(v);
  }

  // --- framework extensions --------------------------------------------------

  bool empty() const noexcept { return active_.empty(); }

  /// Thread-safe versus concurrent add_vertex/append_bulk (a late
  /// `par_nosync` producer may still be draining while the caller recycles
  /// the frontier for the next superstep).
  void clear() noexcept {
    std::lock_guard<parallel::spinlock> guard(lock_);
    active_.clear();
  }

  void reserve(std::size_t n) { active_.reserve(n); }

  /// Append a whole lane-local buffer under one lock acquisition.
  void append_bulk(T const* data, std::size_t n) {
    if (n == 0)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    active_.insert(active_.end(), data, data + n);
  }

  /// Serial iteration over active elements.
  template <typename F>
  void for_each_active(F&& fn) const {
    for (T const& v : active_)
      fn(v);
  }

  /// O(|F|) membership test (tests/debugging; hot paths use dense frontiers
  /// when membership queries matter).
  bool contains(T v) const {
    for (T const& a : active_)
      if (a == v)
        return true;
    return false;
  }

  /// Direct access for parallel chunked iteration by the operators.
  std::vector<T> const& active() const noexcept { return active_; }
  std::vector<T>& active() noexcept { return active_; }

  /// Materialize the active set (already a vector; returns a copy).
  std::vector<T> to_vector() const { return active_; }

  /// Thread-safe versus concurrent appenders on either operand: both locks
  /// are taken (address-ordered, so two concurrent swaps cannot deadlock)
  /// before the storage exchange.
  friend void swap(sparse_frontier& a, sparse_frontier& b) noexcept {
    if (&a == &b)
      return;
    sparse_frontier* first = &a;
    sparse_frontier* second = &b;
    if (std::less<sparse_frontier*>{}(second, first))
      std::swap(first, second);
    std::lock_guard<parallel::spinlock> g1(first->lock_);
    std::lock_guard<parallel::spinlock> g2(second->lock_);
    std::swap(a.active_, b.active_);
  }

 private:
  std::vector<T> active_;
  parallel::spinlock lock_;
};

}  // namespace essentials::frontier
