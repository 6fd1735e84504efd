// Torture tests for the work-stealing execution substrate: the Chase–Lev
// deque (steal-vs-pop races, growth under fire), the tree barrier and
// striped completion latch (reuse across thousands of generations), and the
// stealing thread pool (ops-conservation storms, re-entrancy, the
// "queue empty != pool idle" regression).  All suites here run under the
// CI TSAN matrix — every assertion doubles as a race detector payload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/barrier.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_deque.hpp"

namespace p = essentials::parallel;

// --- work_deque --------------------------------------------------------------

TEST(WorkDeque, OwnerIsLifoThiefIsFifo) {
  p::work_deque<int> dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  EXPECT_EQ(dq.size(), 3u);
  auto popped = dq.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 3);  // owner takes the newest
  auto stolen = dq.steal();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(*stolen, 1);  // thief takes the oldest
  popped = dq.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 2);
  EXPECT_TRUE(dq.empty());
}

TEST(WorkDeque, EmptyDequeYieldsNothingForBothEnds) {
  p::work_deque<int> dq;
  EXPECT_FALSE(dq.pop().has_value());
  EXPECT_FALSE(dq.steal().has_value());
  // The failed pop/steal must not corrupt the indices: the deque still works.
  dq.push(7);
  auto got = dq.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_FALSE(dq.steal().has_value());
}

TEST(WorkDeque, GrowthPreservesContentsAndOrder) {
  p::work_deque<int> dq(2);  // force growth immediately
  EXPECT_EQ(dq.capacity(), 2u);
  for (int i = 0; i < 10'000; ++i)
    dq.push(i);
  EXPECT_GE(dq.capacity(), 10'000u);
  EXPECT_EQ(dq.size(), 10'000u);
  for (int i = 9'999; i >= 0; --i) {
    auto got = dq.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);  // LIFO order survived every ring doubling
  }
  EXPECT_TRUE(dq.empty());
}

// The boundary race: owner and thief fight over a deque holding exactly one
// element, over and over.  The single element must go to exactly one of
// them, every round.
TEST(WorkDeque, StealVsPopRaceAtSizeOne) {
  p::work_deque<int> dq;
  constexpr int rounds = 20'000;
  std::atomic<int> round{-1};
  std::atomic<int> owner_wins{0};
  std::atomic<int> thief_wins{0};
  std::atomic<int> acks{0};

  std::thread thief([&] {
    int last_seen = -1;
    while (last_seen < rounds - 1) {
      int const r = round.load(std::memory_order_acquire);
      if (r == last_seen) {
        std::this_thread::yield();
        continue;
      }
      last_seen = r;
      if (dq.steal().has_value())
        thief_wins.fetch_add(1);
      acks.fetch_add(1, std::memory_order_release);
    }
  });

  for (int r = 0; r < rounds; ++r) {
    dq.push(r);
    round.store(r, std::memory_order_release);
    if (dq.pop().has_value())
      owner_wins.fetch_add(1);
    // Wait for the thief's attempt before mopping up, so a thief that lost
    // the CAS cannot poach the *next* round's element.
    while (acks.load(std::memory_order_acquire) != r + 1)
      std::this_thread::yield();
    // A failed pop means the thief claimed it; either way the element is
    // gone — except when both failed spuriously, which must not happen for
    // a one-element deque with one thief.
    while (auto leftover = dq.pop())
      owner_wins.fetch_add(1);
  }
  thief.join();
  EXPECT_EQ(owner_wins.load() + thief_wins.load(), rounds);
  EXPECT_TRUE(dq.empty());
}

// Ops-conservation storm: one owner interleaving push/pop, seven thieves.
// Every pushed value must be claimed by exactly one party.
TEST(WorkDeque, EightThreadStealStormConservesEveryTask) {
  constexpr int n = 20'000;
  constexpr int num_thieves = 7;
  p::work_deque<int> dq;
  std::vector<std::atomic<int>> claims(n);
  std::atomic<int> claimed_total{0};

  auto claim = [&](int v) {
    claims[static_cast<std::size_t>(v)].fetch_add(1);
    claimed_total.fetch_add(1);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < num_thieves; ++t)
    thieves.emplace_back([&] {
      while (claimed_total.load(std::memory_order_acquire) < n) {
        if (auto v = dq.steal())
          claim(*v);
        else
          std::this_thread::yield();
      }
    });

  for (int i = 0; i < n; ++i) {
    dq.push(i);
    if (i % 3 == 0)  // owner competes with the thieves at the other end
      if (auto v = dq.pop())
        claim(*v);
  }
  while (auto v = dq.pop())
    claim(*v);
  // Whatever the owner missed, the thieves are still draining.
  while (claimed_total.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
  for (auto& t : thieves)
    t.join();

  EXPECT_EQ(claimed_total.load(), n);
  for (int i = 0; i < n; ++i)
    ASSERT_EQ(claims[static_cast<std::size_t>(i)].load(), 1) << "value " << i;
}

// Growth under fire: a tiny initial ring doubles many times while thieves
// are mid-steal on the retired rings.  Conservation must still hold.
TEST(WorkDeque, GrowthUnderConcurrentStealsConservesTasks) {
  constexpr int n = 10'000;
  constexpr int num_thieves = 3;
  p::work_deque<int> dq(2);
  std::vector<std::atomic<int>> claims(n);
  std::atomic<int> claimed_total{0};

  auto claim = [&](int v) {
    claims[static_cast<std::size_t>(v)].fetch_add(1);
    claimed_total.fetch_add(1);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < num_thieves; ++t)
    thieves.emplace_back([&] {
      while (claimed_total.load(std::memory_order_acquire) < n) {
        if (auto v = dq.steal())
          claim(*v);
      }
    });

  for (int i = 0; i < n; ++i)
    dq.push(i);  // bursts straight through many ring doublings
  while (auto v = dq.pop())
    claim(*v);
  while (claimed_total.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
  for (auto& t : thieves)
    t.join();

  EXPECT_EQ(claimed_total.load(), n);
  for (int i = 0; i < n; ++i)
    ASSERT_EQ(claims[static_cast<std::size_t>(i)].load(), 1) << "value " << i;
}

// --- tree_barrier ------------------------------------------------------------

namespace {

// Drive `rounds` supersteps through one barrier with `participants` threads.
// Oracle per round: a shared counter incremented once per thread before the
// barrier must read exactly participants * (round + 1) after it; a second
// barrier keeps fast threads from incrementing ahead of the check.
void drive_barrier(std::size_t participants, int rounds,
                   bool slow_participant = false) {
  p::tree_barrier barrier(participants);
  std::atomic<long long> sum{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < participants; ++id)
    threads.emplace_back([&, id] {
      for (int r = 0; r < rounds; ++r) {
        if (slow_participant && id == 0 && r % 8 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        sum.fetch_add(1);
        barrier.arrive_and_wait(id);
        long long const expected =
            static_cast<long long>(participants) * (r + 1);
        if (sum.load() != expected)
          failures.fetch_add(1);
        barrier.arrive_and_wait(id);
      }
    });
  for (auto& t : threads)
    t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sum.load(),
            static_cast<long long>(participants) * rounds);
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(2 * rounds));
}

}  // namespace

TEST(TreeBarrier, ReusableAcrossTenThousandSupersteps) {
  drive_barrier(4, 10'000);
}

TEST(TreeBarrier, MixedFastAndSlowParticipantsFlipSenseCorrectly) {
  // The slow participant overruns every fast thread's spin budget, forcing
  // the futex-park path; the sum oracle proves no generation tears.
  drive_barrier(4, 256, /*slow_participant=*/true);
}

TEST(TreeBarrier, EveryParticipantCountAcrossFanInBoundaries) {
  // 1..9 participants crosses the fan-in-4 tree shapes: single node, one
  // full leaf, leaf+remainder, and a two-level tree.
  for (std::size_t participants = 1; participants <= 9; ++participants)
    drive_barrier(participants, 200);
}

TEST(TreeBarrier, SingleParticipantNeverBlocks) {
  p::tree_barrier barrier(1);
  for (int r = 0; r < 1000; ++r)
    barrier.arrive_and_wait(0);
  EXPECT_EQ(barrier.generation(), 1000u);
}

TEST(TreeBarrier, ZeroParticipantsNormalizedToOne) {
  p::tree_barrier barrier(0);
  EXPECT_EQ(barrier.participants(), 1u);
  barrier.arrive_and_wait(0);  // must not hang
  EXPECT_EQ(barrier.generation(), 1u);
}

// --- completion_latch --------------------------------------------------------

TEST(CompletionLatch, ZeroCountIsImmediatelyDone) {
  p::completion_latch latch(0);
  EXPECT_TRUE(latch.done());
  latch.wait();  // must not hang
}

TEST(CompletionLatch, OpensOnlyAfterEveryIndexRetired) {
  p::completion_latch latch(20);
  for (std::size_t i = 0; i < 19; ++i) {
    latch.count_down(i);
    EXPECT_FALSE(latch.done()) << "opened early at index " << i;
  }
  latch.count_down(19);
  EXPECT_TRUE(latch.done());
}

TEST(CompletionLatch, ReusableViaReset) {
  p::completion_latch latch;
  for (int round = 0; round < 100; ++round) {
    std::size_t const count = 1 + static_cast<std::size_t>(round) % 17;
    latch.reset(count);
    EXPECT_FALSE(latch.done());
    for (std::size_t i = 0; i < count; ++i)
      latch.count_down(i);
    EXPECT_TRUE(latch.done());
    latch.wait();
  }
}

TEST(CompletionLatch, MultithreadedCountdownReleasesWaiter) {
  constexpr std::size_t count = 64;
  constexpr int threads = 8;
  p::completion_latch latch(count);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      // Worker t retires indices congruent to t mod threads — chunk ids
      // land on arbitrary stripes, exactly like stolen chunks would.
      for (std::size_t i = static_cast<std::size_t>(t); i < count;
           i += threads) {
        std::this_thread::yield();
        latch.count_down(i);
      }
    });
  latch.wait();
  EXPECT_TRUE(latch.done());
  for (auto& w : workers)
    w.join();
}

// --- stealing thread pool ----------------------------------------------------

TEST(WorkStealing, ExternalLaneRegistrationIsStable) {
  p::thread_pool pool(2);
  std::size_t const lane = pool.register_external_lane();
  ASSERT_NE(lane, p::thread_pool::no_lane);
  EXPECT_GE(lane, pool.size());       // external slots live above the workers
  EXPECT_LT(lane, pool.max_lanes());
  EXPECT_EQ(pool.lane_id(), lane);
  EXPECT_EQ(pool.register_external_lane(), lane);  // idempotent per thread
  // A different thread claims a *different* slot.
  std::size_t other = p::thread_pool::no_lane;
  std::thread t([&] { other = pool.register_external_lane(); });
  t.join();
  ASSERT_NE(other, p::thread_pool::no_lane);
  EXPECT_NE(other, lane);
}

TEST(WorkStealing, ZeroThreadsNormalizedToOneInBothModes) {
  for (auto order : {p::steal_order::flat, p::steal_order::tiered}) {
    p::thread_pool pool(0, order);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> ran{0};
    pool.run_blocked(10, [&ran](std::size_t lo, std::size_t hi) {
      ran.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(ran.load(), 10);
  }
}

// Ops-conservation storm at the pool level: tasks submitted from outside
// (injector path) and from inside workers (own-deque path, stolen by
// peers).  Every task must run exactly once.
TEST(WorkStealing, SubmitStormConservesEveryTask) {
  constexpr int roots = 500;
  constexpr int children_per_root = 7;
  constexpr int total = roots * (1 + children_per_root);
  p::thread_pool pool(8);
  std::vector<std::atomic<int>> hits(total);
  for (int r = 0; r < roots; ++r)
    pool.submit([&, r] {
      hits[static_cast<std::size_t>(r)].fetch_add(1);
      for (int c = 0; c < children_per_root; ++c) {
        int const slot = roots + r * children_per_root + c;
        pool.submit([&hits, slot] {
          hits[static_cast<std::size_t>(slot)].fetch_add(1);
        });
      }
    });
  pool.wait_idle();
  for (int i = 0; i < total; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
}

TEST(WorkStealing, BurstSubmitFromSingleWorkerGrowsItsDeque) {
  // One worker burst-submits far past the deque's initial capacity from
  // inside a task, forcing the owner-side growth path while seven peers
  // steal from the same ring.
  p::thread_pool pool(8);
  constexpr int burst = 5'000;
  std::vector<std::atomic<int>> hits(burst);
  std::atomic<int> done{0};
  pool.submit([&] {
    for (int i = 0; i < burst; ++i)
      pool.submit([&hits, &done, i] {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
        done.fetch_add(1);
      });
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), burst);
  for (int i = 0; i < burst; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
}

TEST(WorkStealing, RunBlockedFromWorkerReentrancy) {
  // run_blocked nested two deep, launched from worker tasks: the inner
  // call must push to the worker's own lane and help drain it — a central
  // dependency of the enactor (operators call run_blocked from jobs).
  p::thread_pool pool(4);
  constexpr int jobs = 16;
  constexpr std::size_t n = 512;
  std::vector<std::atomic<int>> hits(jobs * n);
  std::atomic<int> jobs_done{0};
  for (int j = 0; j < jobs; ++j)
    pool.submit([&, j] {
      pool.run_blocked(n, [&, j](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          // Innermost level: another run_blocked from whatever thread runs
          // this chunk (owner or thief).
          if (i == lo)
            pool.run_blocked(4, [](std::size_t, std::size_t) {});
          hits[static_cast<std::size_t>(j) * n + i].fetch_add(1);
        }
      });
      jobs_done.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(jobs_done.load(), jobs);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkStealing, ConcurrentExternalRunBlockedCallers) {
  // Four external threads each claim a lane and drive supersteps on the
  // same pool concurrently — the engine-runner topology.
  p::thread_pool pool(4);
  constexpr int callers = 4;
  constexpr int rounds = 100;
  constexpr std::size_t n = 777;
  std::atomic<long long> grand_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t)
    threads.emplace_back([&] {
      pool.register_external_lane();
      for (int r = 0; r < rounds; ++r) {
        std::atomic<long long> local{0};
        pool.run_blocked(n, [&local](std::size_t lo, std::size_t hi) {
          local.fetch_add(static_cast<long long>(hi - lo));
        });
        ASSERT_EQ(local.load(), static_cast<long long>(n));
        grand_total.fetch_add(local.load());
      }
    });
  for (auto& t : threads)
    t.join();
  EXPECT_EQ(grand_total.load(),
            static_cast<long long>(callers) * rounds * n);
}

// The classic "queue empty != pool idle" regression: a task has been taken
// off every queue and is *running*; wait_idle must not return until it
// finished and its captured state was destroyed.
TEST(WorkStealing, WaitIdleCannotReturnWhileStolenTaskStillRuns) {
  p::thread_pool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> body_finished{false};
  std::atomic<bool> state_destroyed{false};

  struct canary {
    std::atomic<bool>* flag;
    ~canary() { flag->store(true); }
  };
  auto guard = std::make_shared<canary>(canary{&state_destroyed});
  pool.submit([&, guard] {
    started.store(true);
    while (!release.load())
      std::this_thread::yield();
    body_finished.store(true);
  });
  guard.reset();  // the task now holds the only reference

  while (!started.load())
    std::this_thread::yield();
  // Every queue and deque is empty now; the task is in flight.
  std::atomic<bool> wait_idle_ok{false};
  std::thread waiter([&] {
    pool.wait_idle();
    // Both must already be true from the waiter's point of view.
    wait_idle_ok.store(body_finished.load() && state_destroyed.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(wait_idle_ok.load());  // cannot have returned yet
  release.store(true);
  waiter.join();
  EXPECT_TRUE(wait_idle_ok.load());
}

TEST(WorkStealing, UrgentClassJumpsWorkerDequesAndInjector) {
  // Mirror of ThreadPool.UrgentTasksJumpTheQueue, pinned to the stealing
  // substrate: urgency must survive decentralized queues.
  p::thread_pool pool(1);
  std::mutex m;
  std::vector<int> order;
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load())
      std::this_thread::yield();
  });
  for (int i = 0; i < 3; ++i)
    pool.submit([&, i] {
      std::lock_guard<std::mutex> g(m);
      order.push_back(i);
    });
  pool.submit_urgent([&] {
    std::lock_guard<std::mutex> g(m);
    order.push_back(99);
  });
  release.store(true);
  pool.wait_idle();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 99);
  EXPECT_EQ((std::vector<int>{order[1], order[2], order[3]}),
            (std::vector<int>{0, 1, 2}));
}

TEST(WorkStealing, DiscardPendingDrainsWorkerDeques) {
  // Children submitted from inside the (single) worker sit in that
  // worker's own deque — discard_pending must reach in and drain them.
  p::thread_pool pool(1);
  std::atomic<bool> queued{false};
  std::atomic<bool> release{false};
  std::atomic<int> children_ran{0};
  pool.submit([&] {
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { children_ran.fetch_add(1); });
    queued.store(true);
    while (!release.load())
      std::this_thread::yield();
  });
  while (!queued.load())
    std::this_thread::yield();
  std::size_t const discarded = pool.discard_pending();
  release.store(true);
  pool.wait_idle();  // must not wedge: discarded slots were released
  EXPECT_EQ(discarded, 8u);
  EXPECT_EQ(children_ran.load(), 0);
}

TEST(WorkStealing, RunBlockedChunksAtBulkStepMultiples) {
  // The deterministic chunking contract scan compaction builds on: for
  // fixed (n, grain, size()) run_blocked cuts [0, n) into consecutive
  // chunks [k*step, min(n, (k+1)*step)) with step = bulk_step(n, grain),
  // at most 4 * (size() + 1) of them, whichever thread runs each chunk —
  // and passing step back in as the grain reproduces the same cut.
  for (auto order : {p::steal_order::flat, p::steal_order::tiered}) {
    p::thread_pool pool(3, order);
    for (std::size_t n : {1u, 7u, 100u, 1777u, 65536u}) {
      for (std::size_t grain : {1u, 16u, 256u}) {
        std::size_t const step = pool.bulk_step(n, grain);
        ASSERT_EQ(pool.bulk_step(n, step), step);
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        std::mutex m;
        pool.run_blocked(
            n,
            [&](std::size_t lo, std::size_t hi) {
              std::lock_guard<std::mutex> g(m);
              chunks.emplace_back(lo, hi);
            },
            grain);
        std::sort(chunks.begin(), chunks.end());
        std::size_t const expected = (n + step - 1) / step;
        ASSERT_EQ(chunks.size(), expected) << "n=" << n << " grain=" << grain;
        EXPECT_LE(chunks.size(), 4 * (pool.size() + 1));
        for (std::size_t k = 0; k < chunks.size(); ++k) {
          EXPECT_EQ(chunks[k].first, k * step) << "n=" << n << " k=" << k;
          EXPECT_EQ(chunks[k].second, std::min(n, (k + 1) * step));
        }
      }
    }
  }
}

// --- tiered (topology-aware) steal order -------------------------------------

// The conservation storm, pinned to the tiered sweep: same-core, then
// same-socket, then remote victims.  On flat hardware the tiers collapse,
// but the sweep code path is still the one exercised.
TEST(WorkStealing, TieredSubmitStormConservesEveryTask) {
  constexpr int roots = 500;
  constexpr int children_per_root = 7;
  constexpr int total = roots * (1 + children_per_root);
  p::thread_pool pool(8, p::steal_order::tiered);
  ASSERT_EQ(pool.order(), p::steal_order::tiered);
  std::vector<std::atomic<int>> hits(total);
  for (int r = 0; r < roots; ++r)
    pool.submit([&, r] {
      hits[static_cast<std::size_t>(r)].fetch_add(1);
      for (int c = 0; c < children_per_root; ++c) {
        int const slot = roots + r * children_per_root + c;
        pool.submit([&hits, slot] {
          hits[static_cast<std::size_t>(slot)].fetch_add(1);
        });
      }
    });
  pool.wait_idle();
  for (int i = 0; i < total; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
}

TEST(WorkStealing, TieredRunBlockedFromWorkerReentrancy) {
  p::thread_pool pool(4, p::steal_order::tiered);
  constexpr int jobs = 16;
  constexpr std::size_t n = 512;
  std::vector<std::atomic<int>> hits(jobs * n);
  std::atomic<int> jobs_done{0};
  for (int j = 0; j < jobs; ++j)
    pool.submit([&, j] {
      pool.run_blocked(n, [&, j](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (i == lo)
            pool.run_blocked(4, [](std::size_t, std::size_t) {});
          hits[static_cast<std::size_t>(j) * n + i].fetch_add(1);
        }
      });
      jobs_done.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(jobs_done.load(), jobs);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkStealing, TieredExternalLaneCallersDriveSuperstepsConcurrently) {
  p::thread_pool pool(4, p::steal_order::tiered);
  constexpr int callers = 4;
  constexpr int rounds = 100;
  constexpr std::size_t n = 777;
  std::atomic<long long> grand_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t)
    threads.emplace_back([&] {
      pool.register_external_lane();
      for (int r = 0; r < rounds; ++r) {
        std::atomic<long long> local{0};
        pool.run_blocked(n, [&local](std::size_t lo, std::size_t hi) {
          local.fetch_add(static_cast<long long>(hi - lo));
        });
        ASSERT_EQ(local.load(), static_cast<long long>(n));
        grand_total.fetch_add(local.load());
      }
    });
  for (auto& t : threads)
    t.join();
  EXPECT_EQ(grand_total.load(),
            static_cast<long long>(callers) * rounds * n);
}

TEST(WorkStealing, TieredChunkingMatchesFlatChunking) {
  // The deterministic chunking contract holds across steal orders too —
  // the basis of the NUMA-on == NUMA-off differential suite.
  p::thread_pool tiered(3, p::steal_order::tiered);
  p::thread_pool flat(3, p::steal_order::flat);
  for (std::size_t n : {1u, 7u, 100u, 1777u, 65536u}) {
    for (std::size_t grain : {1u, 16u, 256u}) {
      ASSERT_EQ(tiered.bulk_step(n, grain), flat.bulk_step(n, grain));
      auto collect = [n, grain](p::thread_pool& pool) {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        std::mutex m;
        pool.run_blocked(
            n,
            [&](std::size_t lo, std::size_t hi) {
              std::lock_guard<std::mutex> g(m);
              chunks.emplace_back(lo, hi);
            },
            grain);
        std::sort(chunks.begin(), chunks.end());
        return chunks;
      };
      ASSERT_EQ(collect(tiered), collect(flat))
          << "n=" << n << " grain=" << grain;
    }
  }
}

// --- steal-order seeding (ESSENTIALS_STEAL_SEED) -----------------------------

TEST(WorkStealing, StealSeedIsReadPerCall) {
  // Unset -> nullopt; set -> the parsed value; garbage -> nullopt.  Read
  // per call (not cached) so a test can set it right before building the
  // pool whose interleaving it wants to reproduce.
  unsetenv("ESSENTIALS_STEAL_SEED");
  EXPECT_FALSE(p::steal_seed().has_value());
  setenv("ESSENTIALS_STEAL_SEED", "12345", 1);
  ASSERT_TRUE(p::steal_seed().has_value());
  EXPECT_EQ(*p::steal_seed(), 12345u);
  setenv("ESSENTIALS_STEAL_SEED", "not-a-number", 1);
  EXPECT_FALSE(p::steal_seed().has_value());
  unsetenv("ESSENTIALS_STEAL_SEED");
}

TEST(WorkStealing, SeededPoolStillConservesTasks) {
  // A fixed seed reproduces the victim sweep; conservation and results are
  // unchanged — the knob only pins the interleaving.
  setenv("ESSENTIALS_STEAL_SEED", "42", 1);
  {
    p::thread_pool pool(4, p::steal_order::tiered);
    constexpr int total = 2000;
    std::vector<std::atomic<int>> hits(total);
    for (int i = 0; i < total; ++i)
      pool.submit([&hits, i] {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
    pool.wait_idle();
    for (int i = 0; i < total; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
  unsetenv("ESSENTIALS_STEAL_SEED");
}

TEST(WorkStealing, PoolChurnShutsDownCleanly) {
  // Create/destroy many pools with in-flight work: the destructor must run
  // the backlog to completion and never strand a heap task.
  for (int round = 0; round < 40; ++round) {
    p::thread_pool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
    pool.run_blocked(64, [](std::size_t, std::size_t) {});
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 32);
  }
}
