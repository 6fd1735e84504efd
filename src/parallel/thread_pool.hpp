#pragma once

/// \file parallel/thread_pool.hpp
/// \brief A persistent worker pool: the execution substrate behind the
/// framework's `par` and `par_nosync` execution policies.
///
/// Design notes (following the C++ Core Guidelines concurrency rules):
///  - CP.41 "minimize thread creation and destruction": workers are created
///    once and reused for every operator invocation.
///  - CP.4  "think in terms of tasks": the public API is task submission and
///    bulk index-space execution, never raw threads.
///  - CP.42 "don't wait without a condition": all waits are predicated
///    condition-variable waits or futex parks.
///
/// The pool offers two completion models, which is exactly the distinction
/// the paper draws between bulk-synchronous and asynchronous timing:
///  - `run_blocked(n, fn)` partitions [0, n) into chunks, executes them on
///    the workers and *blocks the caller* until every chunk finished — a BSP
///    superstep with an implicit global barrier.
///  - `submit(fn)` enqueues fire-and-forget work; the caller may continue
///    and later call `wait_idle()` (or never), which is the `par_nosync`
///    behaviour of Listing 3's alternative overload.
///
/// ## Execution substrate
///
/// Every worker owns a Chase–Lev deque (parallel/work_deque.hpp);
/// `run_blocked` pushes its chunks onto the *caller's* lane (workers push
/// their own deque; external threads — engine runners, the main thread —
/// claim a stable external lane slot) and idle workers steal from
/// randomized victims, in the order `steal_order` names.  Completion uses
/// the striped `completion_latch` (parallel/barrier.hpp) instead of a flat
/// `std::latch`, and the caller drains its own deque while the barrier is
/// open, so a pool under load never strands a superstep.  External
/// fire-and-forget `submit`s go through a small injector queue (strict
/// FIFO).
///
/// Chunking is deterministic and exposed as `bulk_step()`: for fixed
/// (n, grain, size()) the partition is identical regardless of steal order
/// or which thread runs each chunk — the property the scan-compaction
/// frontier path (core/frontier/generate.hpp) builds its lane indexing
/// and its bit-identical differential tests on.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "parallel/topology.hpp"

namespace essentials::parallel {

/// How a stealing worker orders its victims.
enum class steal_order : unsigned char {
  flat,    ///< uniform-random sweep over all lanes (the PR 6 behaviour)
  tiered,  ///< same-core SMT siblings → same socket → remote sockets →
           ///< external lanes; randomized within each tier
};

/// The process-wide default steal order: `tiered` when `numa_enabled()`
/// (parallel/topology.hpp), `flat` otherwise.  On single-socket machines the
/// tiers degenerate — every victim lands in the same-socket tier — so the
/// default is safe everywhere; `ESSENTIALS_NUMA=off` restores the flat sweep
/// as a live differential baseline.
steal_order default_steal_order();

class thread_pool {
 public:
  /// Creates `num_threads` persistent workers.  `num_threads == 0` is
  /// normalized to 1 (a pool that still runs everything, just serially on
  /// one worker) so callers never divide by zero when chunking.
  /// Steal order defaults to `default_steal_order()`.
  explicit thread_pool(std::size_t num_threads);

  /// Explicit steal order.  Differential tests construct a `flat` and a
  /// `tiered` pool side by side — steal order only changes which victim a
  /// thief probes first, never the chunk map, so operator output must stay
  /// bit-identical.
  thread_pool(std::size_t num_threads, steal_order order);

  ~thread_pool();

  thread_pool(thread_pool const&) = delete;
  thread_pool& operator=(thread_pool const&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return num_workers_; }

  /// The victim-selection order stealing workers use.
  steal_order order() const noexcept { return order_; }

  /// The CPU each worker was assigned by the topology packing (index =
  /// worker lane id).  Advisory placement unless `ESSENTIALS_PIN` is set;
  /// exposed so callers (benchmarks, barrier layout) can reconstruct the
  /// locality map the steal tiers were derived from.
  std::vector<int> const& worker_cpus() const noexcept {
    return cpu_of_worker_;
  }

  /// Enqueue a fire-and-forget task (asynchronous model).  The task may run
  /// on any worker at any later time; use wait_idle() for a full barrier.
  /// A pool worker pushes onto its own deque (stolen by idle peers); any
  /// other thread goes through the FIFO injector.
  void submit(std::function<void()> task);

  /// Enqueue a task ahead of every normal-priority task (but behind other
  /// urgent tasks — urgency is a class, not a total order).  Used by layers
  /// that multiplex latency-sensitive work onto the shared pool: a
  /// deadline-critical job's operator chunks should not queue behind a
  /// backlog of batch work.  Starvation-safe by construction: `run_blocked`
  /// chunks of an already-running normal task were dequeued before the
  /// urgent submission, and the urgent class is expected to be sparse.
  /// Workers check the urgent class before their own deque and before any
  /// steal, so the priority survives stealing.
  void submit_urgent(std::function<void()> task);

  /// Shutdown drain: remove every *queued but not yet started* task (both
  /// priority classes, and every task still sitting in a worker or external
  /// lane deque) and return how many were
  /// discarded.  Running tasks are unaffected; their completion still
  /// releases pending slots.  Lets an owner tear down promptly without
  /// executing a backlog it no longer wants — the complement of the
  /// destructor, which runs the backlog to completion.  NOTE: never discard
  /// tasks whose completion someone waits on (run_blocked chunks count down
  /// a latch); this is for fire-and-forget backlogs only, which is why the
  /// engine scheduler keeps its *job* queue outside the pool and uses this
  /// only as a belt-and-braces drain.
  std::size_t discard_pending();

  /// Execute `fn(chunk_begin, chunk_end)` over a partition of [0, n) and
  /// block until all chunks completed (bulk-synchronous model).  The calling
  /// thread participates in the work, so a pool of size P uses P+1 lanes and
  /// `run_blocked` from a worker thread cannot deadlock the pool.
  ///
  /// `grain` is the minimum chunk size; chunk count never exceeds
  /// 4 * (size() + 1) to bound scheduling overhead.
  ///
  /// Chunking guarantee (relied upon by parallel/for_each.hpp's two-pass
  /// exclusive_scan and the frontier scan-compaction path): for fixed
  /// (n, grain) the partition is deterministic, identical across steal
  /// orders, every chunk's `begin` is a multiple of `bulk_step(n, grain)`,
  /// and callers that pass that step back in as `grain` observe chunk
  /// boundaries exactly at multiples of it.
  void run_blocked(std::size_t n,
                   std::function<void(std::size_t, std::size_t)> const& fn,
                   std::size_t grain = 1);

  /// The chunking contract, reified: the step `run_blocked(n, ..., grain)`
  /// partitions with — ceil(n / min(4*(size()+1), ceil(n/grain))).  The
  /// single source of truth for every caller that mirrors the partition
  /// (for_each.hpp, generate.hpp).  Independent of steal order by design:
  /// flat and tiered pools schedule the same chunks onto different
  /// threads, which is what keeps scan-compacted frontier output
  /// bit-identical across them.
  std::size_t bulk_step(std::size_t n, std::size_t grain = 1) const noexcept {
    if (n == 0)
      return 1;
    grain = grain == 0 ? 1 : grain;
    std::size_t const lanes = num_workers_ + 1;
    std::size_t const chunks =
        std::min<std::size_t>(4 * lanes, (n + grain - 1) / grain);
    return (n + chunks - 1) / chunks;
  }

  /// Block until the task queue is empty and every worker is idle — the
  /// explicit barrier an asynchronous phase may (or may not) choose to end
  /// with.  Covers stolen tasks: a task popped from any deque releases its
  /// pending slot only after its body returned *and* its captured state was
  /// destroyed, so "every deque empty" alone is never treated as idle.
  void wait_idle();

  /// Count of tasks submitted and not yet finished (approximate; intended
  /// for monitoring/termination heuristics, not synchronization).
  std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  // --- lane identity --------------------------------------------------------

  /// Sentinel for "the calling thread holds no lane in this pool".
  static constexpr std::size_t no_lane = static_cast<std::size_t>(-1);

  /// The calling thread's stable lane index in this pool: workers are lanes
  /// [0, size()); threads that ran `run_blocked` or called
  /// `register_external_lane` hold an external lane in [size(),
  /// max_lanes()).  Returns `no_lane` for unregistered threads.  Stable for
  /// the thread × pool lifetime — usable as
  /// an index into per-lane scratch (parallel/lane_buffers.hpp) without any
  /// shared counter.
  std::size_t lane_id() const;

  /// Upper bound (inclusive of unclaimed external slots) on lane indices
  /// `lane_id()` can return — the size for lane-indexed scratch arrays.
  std::size_t max_lanes() const noexcept;

  /// Claim (or re-fetch) a stable external lane for the calling thread —
  /// the lane `run_blocked` pushes its chunks to, stealable by workers.
  /// Long-lived coordinator threads (engine runners) call this once at
  /// startup so their first superstep already runs deque-distributed.
  /// Returns the lane index, or `no_lane` when all external slots are
  /// claimed (run_blocked then falls back to the injector — correct, just
  /// centralized).
  std::size_t register_external_lane();

  /// Instantaneous occupancy snapshot — the observability feed for the
  /// telemetry layer (core/telemetry.hpp).  All fields are approximate
  /// (relaxed reads): use for traces and dashboards, never synchronization.
  struct occupancy {
    std::size_t threads = 0;  ///< worker count (excludes the calling thread)
    std::size_t queued = 0;   ///< tasks submitted and not yet finished
    std::size_t busy = 0;     ///< workers currently executing a task
  };
  occupancy stats() const noexcept {
    return {num_workers_, pending_.load(std::memory_order_relaxed),
            busy_.load(std::memory_order_relaxed)};
  }

 private:
  struct lane;  // Chase–Lev deque + claim flag; defined in thread_pool.cpp

  void worker_loop(std::size_t id, std::optional<std::uint64_t> seed);
  std::optional<std::function<void()>> find_task(std::size_t self);
  std::optional<std::function<void()>> pop_injector(
      std::atomic<std::size_t>& size_mirror,
      std::deque<std::function<void()>>& q);
  void execute(std::function<void()>&& task);
  void finish_one();
  void notify_sleepers(bool all);
  bool visible_work() const;

  steal_order const order_;
  std::uint64_t const pool_id_;  ///< process-unique; keys thread-local lanes
  std::size_t num_workers_ = 0;  ///< set before workers start

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<lane>> lanes_;  // [0, P): workers; rest: external

  // Topology placement: worker→cpu packing and the
  // per-worker tiered victim lists derived from it.  Built once in the
  // constructor before any worker starts; read-only afterwards.
  std::vector<int> cpu_of_worker_;
  std::vector<steal_tiers> tiers_;  // [0, P), used when order_ == tiered

  // FIFO injector plus the urgent class.  The atomic size mirrors let
  // workers probe without the lock; their seq_cst ordering is one half of
  // the sleep handshake (the other half is the deque's seq_cst bottom
  // publication) — see worker_loop.
  std::deque<std::function<void()>> queue_;
  std::deque<std::function<void()>> urgent_queue_;
  std::atomic<std::size_t> queue_size_{0};
  std::atomic<std::size_t> urgent_size_{0};

  mutable std::mutex mutex_;
  std::condition_variable has_work_;
  std::condition_variable all_idle_;
  std::atomic<std::size_t> sleepers_{0};   // parked workers
  std::uint64_t wake_counter_ = 0;         // guarded by mutex_
  std::atomic<std::size_t> pending_{0};    // queued + running tasks
  std::atomic<std::size_t> busy_{0};       // lanes inside task()
  bool stopping_ = false;
};

/// The process-wide default pool used by execution policies that do not
/// carry an explicit pool reference.  Sized from the environment variable
/// `ESSENTIALS_NUM_THREADS` when set, otherwise from
/// `std::thread::hardware_concurrency()`, with a floor of 4 so that
/// parallel code paths (atomics, races, chunking) are genuinely exercised
/// even on single-core CI machines.
thread_pool& default_pool();

/// Number of lanes `run_blocked` on the default pool will use (workers plus
/// the calling thread).  Handy for sizing per-thread scratch buffers.
inline std::size_t default_lanes() {
  return default_pool().size() + 1;
}

}  // namespace essentials::parallel
