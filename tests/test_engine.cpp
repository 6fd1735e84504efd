// Tests for the concurrent analytics job engine: graph registry (epoch
// pinning), deadline-aware scheduler (cooperative cancellation, admission
// control), result cache (hit/invalidate protocol) and engine metrics —
// plus the snapshot-under-mutation stress the epoch publication contract
// rests on.  Every suite here is named Engine* so the CI TSAN matrix picks
// up the whole file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/sssp.hpp"
#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/stats.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "steal_pools.hpp"

namespace eng = essentials::engine;
namespace en = essentials::enactor;
namespace fr = essentials::frontier;
namespace gr = essentials::graph;
namespace alg = essentials::algorithms;
namespace exec = essentials::execution;
using essentials::vertex_t;
using essentials::weight_t;
using namespace std::chrono_literals;

using engine_t = eng::analytics_engine<gr::graph_csr>;
using sssp_res = alg::sssp_result<weight_t>;

namespace {

/// Weighted path 0 -> 1 -> ... -> n-1 with unit weights, plus an optional
/// shortcut edge 0 -> n-1 (changes the distance profile between epochs).
gr::graph_csr path_graph(vertex_t n, bool shortcut = false,
                         weight_t shortcut_w = 1.0f) {
  gr::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  for (vertex_t v = 0; v + 1 < n; ++v)
    coo.push_back(v, v + 1, 1.0f);
  if (shortcut)
    coo.push_back(0, n - 1, shortcut_w);
  return gr::from_coo<gr::graph_csr>(std::move(coo));
}

/// Typed SSSP job body for the engine: pins nothing itself — the engine
/// hands it the snapshot.
engine_t::typed_job_fn sssp_job(vertex_t src) {
  return [src](gr::graph_csr const& g,
               eng::job_context& /*ctx*/) -> std::shared_ptr<void const> {
    return std::make_shared<sssp_res const>(alg::sssp(exec::seq, g, src));
  };
}

eng::job_desc sssp_desc(std::string graph, vertex_t src) {
  eng::job_desc d;
  d.graph = std::move(graph);
  d.algorithm = "sssp";
  d.params = "src=" + std::to_string(src);
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(EngineRegistry, PublishLookupBumpsEpochs) {
  eng::graph_registry<gr::graph_csr> reg;
  EXPECT_FALSE(reg.lookup("g"));
  EXPECT_EQ(reg.epoch("g"), 0u);

  auto const p1 = reg.publish("g", path_graph(8));
  EXPECT_TRUE(p1);
  EXPECT_EQ(p1.epoch, 1u);
  auto const p2 = reg.publish("g", path_graph(9));
  EXPECT_EQ(p2.epoch, 2u);
  EXPECT_EQ(reg.epoch("g"), 2u);
  EXPECT_EQ(reg.lookup("g").graph->get_num_vertices(), 9);
}

TEST(EngineRegistry, PinnedSnapshotSurvivesLaterPublishes) {
  eng::graph_registry<gr::graph_csr> reg;
  reg.publish("g", path_graph(8));
  auto const pin = reg.lookup("g");  // pin epoch 1
  reg.publish("g", path_graph(20));
  // The pin still reads the epoch-1 graph; new lookups see epoch 2.
  EXPECT_EQ(pin.graph->get_num_vertices(), 8);
  EXPECT_EQ(pin.epoch, 1u);
  EXPECT_EQ(reg.lookup("g").graph->get_num_vertices(), 20);
}

TEST(EngineRegistry, SubscribersFirePerPublishWithNameAndEpoch) {
  eng::graph_registry<gr::graph_csr> reg;
  std::vector<std::pair<std::string, std::uint64_t>> events;
  reg.subscribe([&events](std::string const& name, std::uint64_t epoch) {
    events.emplace_back(name, epoch);
  });
  reg.publish("a", path_graph(4));
  reg.publish("b", path_graph(4));
  reg.publish("a", path_graph(5));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<std::string, std::uint64_t>{"a", 1}));
  EXPECT_EQ(events[1], (std::pair<std::string, std::uint64_t>{"b", 1}));
  EXPECT_EQ(events[2], (std::pair<std::string, std::uint64_t>{"a", 2}));
}

TEST(EngineRegistry, PublishFromDynamicGraph) {
  gr::dynamic_graph_t<> dyn(6);
  dyn.add_edge(0, 1, 1.0f);
  dyn.add_edge(1, 2, 1.0f);
  eng::graph_registry<gr::graph_csr> reg;
  auto const pin = reg.publish("ingest", dyn);
  EXPECT_EQ(pin.epoch, 1u);
  EXPECT_EQ(pin.graph->get_num_edges(), 2);
}

TEST(EngineRegistry, DynamicPublishEpochHookFires) {
  gr::dynamic_graph_t<> dyn(4);
  dyn.add_edge(0, 1, 1.0f);
  std::vector<std::uint64_t> published;
  dyn.on_publish([&published](std::uint64_t e) { published.push_back(e); });
  auto const [snap1, e1] = dyn.publish_epoch<gr::graph_csr>();
  dyn.add_edge(1, 2, 1.0f);
  auto const [snap2, e2] = dyn.publish_epoch<gr::graph_csr>();
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(dyn.epoch(), 2u);
  EXPECT_EQ(snap1->get_num_edges(), 1);
  EXPECT_EQ(snap2->get_num_edges(), 2);
  EXPECT_EQ(published, (std::vector<std::uint64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(EngineCache, LookupInsertAndLruEviction) {
  eng::engine_stats stats;
  eng::result_cache cache(2, &stats);
  auto const key = [](std::string g, std::uint64_t e, std::string p) {
    return eng::cache_key{std::move(g), e, "algo", std::move(p)};
  };
  auto v1 = std::make_shared<int const>(1);
  auto v2 = std::make_shared<int const>(2);
  auto v3 = std::make_shared<int const>(3);
  cache.insert(key("g", 1, "a"), v1);
  cache.insert(key("g", 1, "b"), v2);
  EXPECT_EQ(cache.lookup(key("g", 1, "a")), v1);  // promotes "a"
  cache.insert(key("g", 1, "c"), v3);             // evicts LRU == "b"
  EXPECT_EQ(cache.lookup(key("g", 1, "b")), nullptr);
  EXPECT_EQ(cache.lookup(key("g", 1, "a")), v1);
  EXPECT_EQ(cache.lookup(key("g", 1, "c")), v3);
  auto const s = stats.snapshot();
  EXPECT_EQ(s.cache_evictions, 1u);
  EXPECT_EQ(s.cache_hits, 3u);
  EXPECT_EQ(s.cache_misses, 1u);
}

TEST(EngineCache, EpochIsPartOfTheKey) {
  eng::result_cache cache(8);
  auto v = std::make_shared<int const>(42);
  cache.insert({"g", 1, "a", "p"}, v);
  EXPECT_EQ(cache.lookup({"g", 1, "a", "p"}), v);
  EXPECT_EQ(cache.lookup({"g", 2, "a", "p"}), nullptr);  // new epoch: miss
}

// PR 4 contract: invalidation *demotes* the newest entry per query
// identity to a warm-start seed (still exactly addressable under its
// old-epoch key) and evicts older duplicates; other graphs are untouched.
TEST(EngineCache, InvalidateGraphDemotesNewestAndDropsOlder) {
  eng::result_cache cache(8);
  cache.insert({"a", 1, "x", ""}, std::make_shared<int const>(1));
  cache.insert({"a", 2, "x", ""}, std::make_shared<int const>(2));
  cache.insert({"a", 1, "y", ""}, std::make_shared<int const>(3));
  cache.insert({"b", 1, "x", ""}, std::make_shared<int const>(4));
  auto const counts = cache.invalidate_graph("a");
  EXPECT_EQ(counts.evicted, 1u);  // ("a",1,"x"): older duplicate of identity x
  EXPECT_EQ(counts.demoted, 2u);  // ("a",2,"x") and ("a",1,"y")
  EXPECT_EQ(counts.total(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.warm_size(), 2u);
  EXPECT_EQ(cache.lookup({"a", 1, "x", ""}), nullptr);  // evicted
  EXPECT_NE(cache.lookup({"a", 2, "x", ""}), nullptr);  // demoted: exact hit
  EXPECT_NE(cache.lookup({"b", 1, "x", ""}), nullptr);  // other graph survives

  // A newer-epoch query discovers the demoted seed through lookup_warm...
  auto const seed = cache.lookup_warm({"a", 3, "x", ""});
  ASSERT_TRUE(seed);
  EXPECT_EQ(seed.epoch, 2u);
  // ...but a query at (or below) the seed's own epoch cannot warm from it.
  EXPECT_FALSE(cache.lookup_warm({"a", 2, "x", ""}));

  // A fresh insert at the new epoch supersedes the warm seed.
  cache.insert({"a", 3, "x", ""}, std::make_shared<int const>(5));
  EXPECT_EQ(cache.warm_size(), 1u);  // only identity y's seed remains
  EXPECT_FALSE(cache.lookup_warm({"a", 4, "x", ""}));
}

// ---------------------------------------------------------------------------
// Scheduler: deadlines, cancellation, priorities, admission control
// ---------------------------------------------------------------------------

// Acceptance (a): a job past its deadline stops *cooperatively*
// mid-enactment — through the composable convergence condition, not a
// killed thread — and reports deadline_expired.
TEST(EngineScheduler, DeadlineStopsJobMidEnactmentCooperatively) {
  eng::job_scheduler sched({/*num_runners=*/1, /*max_queued=*/4});
  std::atomic<std::size_t> supersteps{0};

  eng::job_desc d;
  d.algorithm = "spin";
  d.deadline = 50ms;
  auto j = sched.submit(d, [&supersteps](eng::job_context& ctx)
                               -> std::shared_ptr<void const> {
    // A BSP enactment that never converges on its own: the deadline
    // condition composed via any_of is the only way out.
    fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
    en::bsp_loop(
        std::move(f),
        [&supersteps](fr::sparse_frontier<vertex_t> in, std::size_t) {
          ++supersteps;
          std::this_thread::sleep_for(2ms);
          return in;
        },
        en::any_of{en::frontier_empty{}, ctx.stop_condition()});
    return std::make_shared<int const>(7);
  });

  EXPECT_EQ(j->wait(), eng::job_status::deadline_expired);
  EXPECT_GE(supersteps.load(), 1u);   // it really ran...
  EXPECT_LT(supersteps.load(), 500u); // ...and really stopped
  EXPECT_EQ(j->result(), nullptr);    // truncated enactments publish nothing
}

TEST(EngineScheduler, DeadlineElapsedWhileQueuedNeverEnacts) {
  eng::job_scheduler sched({1, 8});
  std::atomic<bool> release{false};
  eng::job_desc blocker;
  blocker.algorithm = "blocker";
  auto b = sched.submit(blocker, [&release](eng::job_context&)
                                     -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return nullptr;
  });

  eng::job_desc d;
  d.algorithm = "late";
  d.deadline = 20ms;
  std::atomic<bool> ran{false};
  auto j = sched.submit(d, [&ran](eng::job_context&)
                               -> std::shared_ptr<void const> {
    ran.store(true);
    return nullptr;
  });
  std::this_thread::sleep_for(60ms);  // let the deadline lapse in-queue
  release.store(true, std::memory_order_release);
  EXPECT_EQ(j->wait(), eng::job_status::deadline_expired);
  EXPECT_FALSE(ran.load());
  b->wait();
}

TEST(EngineScheduler, CancelStopsRunningJobAndDropsQueuedJob) {
  eng::job_scheduler sched({1, 8});
  std::atomic<bool> entered{false};
  eng::job_desc d;
  d.algorithm = "cancellable";
  auto running = sched.submit(d, [&entered](eng::job_context& ctx)
                                     -> std::shared_ptr<void const> {
    entered.store(true, std::memory_order_release);
    fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
    en::bsp_loop(
        std::move(f),
        [](fr::sparse_frontier<vertex_t> in, std::size_t) {
          std::this_thread::sleep_for(1ms);
          return in;
        },
        en::any_of{en::frontier_empty{}, ctx.stop_condition()});
    return std::make_shared<int const>(1);
  });
  std::atomic<bool> ran{false};
  auto queued = sched.submit(d, [&ran](eng::job_context&)
                                    -> std::shared_ptr<void const> {
    ran.store(true);
    return nullptr;
  });

  while (!entered.load(std::memory_order_acquire))
    std::this_thread::sleep_for(1ms);
  queued->cancel();   // still queued behind `running`
  running->cancel();  // mid-enactment
  EXPECT_EQ(running->wait(), eng::job_status::cancelled);
  EXPECT_EQ(queued->wait(), eng::job_status::cancelled);
  EXPECT_FALSE(ran.load());
}

// Substrate smoke: deadline and cancel must survive both steal orders.  The
// job body drives real run_blocked supersteps through an explicitly-pinned
// flat and tiered pool, so a cooperative stop has to land *between*
// supersteps while chunks are being stolen and helped across lanes.
TEST(EngineScheduler, DeadlineAndCancelSurviveBothQueueSubstrates) {
  essentials::testing::steal_pools pools(4);
  for (auto* pool_ptr : {pools.flat.get(), pools.tiered.get()}) {
    auto& pool = *pool_ptr;
    eng::job_scheduler sched({/*num_runners=*/1, /*max_queued=*/4});

    // Deadline: a never-converging BSP loop whose step is pool-parallel.
    std::atomic<std::size_t> supersteps{0};
    eng::job_desc d;
    d.algorithm = "spin";
    d.deadline = 50ms;
    auto timed = sched.submit(
        d, [&](eng::job_context& ctx) -> std::shared_ptr<void const> {
          fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
          en::bsp_loop(
              std::move(f),
              [&](fr::sparse_frontier<vertex_t> in, std::size_t) {
                ++supersteps;
                std::atomic<long long> sum{0};
                pool.run_blocked(4096, [&sum](std::size_t lo, std::size_t hi) {
                  sum.fetch_add(static_cast<long long>(hi - lo));
                });
                EXPECT_EQ(sum.load(), 4096);
                std::this_thread::sleep_for(1ms);
                return in;
              },
              en::any_of{en::frontier_empty{}, ctx.stop_condition()});
          return std::make_shared<int const>(7);
        });
    EXPECT_EQ(timed->wait(), eng::job_status::deadline_expired)
        << "steal order " << static_cast<int>(pool.order());
    EXPECT_GE(supersteps.load(), 1u);
    EXPECT_EQ(timed->result(), nullptr);

    // Cancel: same shape, stopped from outside mid-enactment.
    std::atomic<bool> entered{false};
    eng::job_desc c;
    c.algorithm = "cancellable";
    auto running = sched.submit(
        c, [&](eng::job_context& ctx) -> std::shared_ptr<void const> {
          entered.store(true, std::memory_order_release);
          fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
          en::bsp_loop(
              std::move(f),
              [&](fr::sparse_frontier<vertex_t> in, std::size_t) {
                pool.run_blocked(1024, [](std::size_t, std::size_t) {});
                std::this_thread::sleep_for(1ms);
                return in;
              },
              en::any_of{en::frontier_empty{}, ctx.stop_condition()});
          return std::make_shared<int const>(1);
        });
    while (!entered.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    running->cancel();
    EXPECT_EQ(running->wait(), eng::job_status::cancelled)
        << "steal order " << static_cast<int>(pool.order());
  }
}

TEST(EngineScheduler, HigherPriorityRunsFirst) {
  eng::job_scheduler sched({1, 8});
  std::atomic<bool> release{false};
  std::mutex order_mutex;
  std::vector<std::string> order;
  auto record = [&order_mutex, &order](std::string tag) {
    return [&order_mutex, &order,
            tag = std::move(tag)](eng::job_context&)
               -> std::shared_ptr<void const> {
      std::lock_guard<std::mutex> guard(order_mutex);
      order.push_back(tag);
      return nullptr;
    };
  };
  eng::job_desc blocker;
  blocker.algorithm = "blocker";
  auto b = sched.submit(blocker, [&release](eng::job_context&)
                                     -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return nullptr;
  });
  eng::job_desc low;
  low.algorithm = "low";
  low.priority = 0;
  eng::job_desc high;
  high.algorithm = "high";
  high.priority = 5;
  auto jl = sched.submit(low, record("low"));
  auto jh = sched.submit(high, record("high"));  // submitted later, runs first
  release.store(true, std::memory_order_release);
  jl->wait();
  jh->wait();
  b->wait();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
}

// Acceptance (d): admission control rejects beyond the bound instead of
// blocking or deadlocking; accepted jobs still complete.
TEST(EngineScheduler, AdmissionControlRejectsBeyondBound) {
  eng::engine_stats stats;
  eng::job_scheduler sched({/*num_runners=*/1, /*max_queued=*/2}, &stats);
  std::atomic<bool> release{false};
  std::atomic<int> completed_bodies{0};

  eng::job_desc blocker;
  blocker.algorithm = "blocker";
  auto b = sched.submit(blocker, [&release, &completed_bodies](
                                     eng::job_context&)
                                     -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    ++completed_bodies;
    return nullptr;
  });
  // The blocker may occupy the single runner or still sit in the queue;
  // either way at most max_queued jobs wait.  Saturate deterministically:
  std::vector<eng::job_ptr> accepted{b};
  std::vector<eng::job_ptr> rejected;
  eng::job_desc d;
  d.algorithm = "filler";
  for (int i = 0; i < 6; ++i) {
    auto j = sched.submit(d, [&completed_bodies](eng::job_context&)
                                 -> std::shared_ptr<void const> {
      ++completed_bodies;
      return nullptr;
    });
    if (j->status() == eng::job_status::rejected)
      rejected.push_back(j);
    else
      accepted.push_back(j);
  }
  EXPECT_GE(rejected.size(), 3u);  // 6 fillers, ≤ 2 queue slots (+1 maybe running)
  for (auto const& j : rejected) {
    EXPECT_EQ(j->status(), eng::job_status::rejected);
    EXPECT_NE(j->error().find("admission"), std::string::npos);
  }
  release.store(true, std::memory_order_release);
  for (auto const& j : accepted)
    EXPECT_NE(j->wait(), eng::job_status::rejected);
  EXPECT_EQ(completed_bodies.load(), static_cast<int>(accepted.size()));
  auto const s = stats.snapshot();
  EXPECT_EQ(s.rejected, rejected.size());
  EXPECT_EQ(s.submitted, accepted.size());
}

TEST(EngineScheduler, ShutdownRetiresQueuedJobsAsCancelled) {
  std::atomic<bool> release{false};
  eng::job_ptr queued;
  {
    eng::job_scheduler sched({1, 8});
    eng::job_desc blocker;
    blocker.algorithm = "blocker";
    auto b = sched.submit(blocker, [&release](eng::job_context&)
                                       -> std::shared_ptr<void const> {
      while (!release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(1ms);
      return nullptr;
    });
    eng::job_desc d;
    d.algorithm = "never-runs";
    queued = sched.submit(d, [](eng::job_context&)
                                 -> std::shared_ptr<void const> {
      return nullptr;
    });
    release.store(true, std::memory_order_release);
    sched.shutdown(/*run_queued=*/false);
    // Queued job retired as cancelled, not lost; submit-after-shutdown
    // rejects.
    EXPECT_EQ(queued->status(), eng::job_status::cancelled);
    auto late = sched.submit(d, [](eng::job_context&)
                                    -> std::shared_ptr<void const> {
      return nullptr;
    });
    EXPECT_EQ(late->status(), eng::job_status::rejected);
    b->wait();
  }
}

TEST(EngineScheduler, FailedJobReportsError) {
  eng::job_scheduler sched({1, 4});
  eng::job_desc d;
  d.algorithm = "thrower";
  auto j = sched.submit(d, [](eng::job_context&)
                               -> std::shared_ptr<void const> {
    throw std::runtime_error("boom");
  });
  EXPECT_EQ(j->wait(), eng::job_status::failed);
  EXPECT_EQ(j->error(), "boom");
}

// ---------------------------------------------------------------------------
// Engine facade: cache protocol, epoch invalidation, concurrency
// ---------------------------------------------------------------------------

// Acceptance (b): a repeated (graph, epoch, algo, params) query is served
// from the cache without re-enacting, bit-identical, and the engine
// counters prove no second enactment happened.
TEST(Engine, RepeatedQueryHitsCacheBitIdentical) {
  engine_t engine({/*num_runners=*/2, /*max_queued=*/16, /*cache=*/32});
  engine.registry().publish("path", path_graph(64));

  auto j1 = engine.run(sssp_desc("path", 0), sssp_job(0));
  ASSERT_EQ(j1->status(), eng::job_status::completed);
  auto j2 = engine.run(sssp_desc("path", 0), sssp_job(0));
  ASSERT_EQ(j2->status(), eng::job_status::cache_hit);

  auto const r1 = j1->result_as<sssp_res>();
  auto const r2 = j2->result_as<sssp_res>();
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r1.get(), r2.get());  // the same immutable object...
  EXPECT_EQ(r1->distances, r2->distances);  // ...hence bit-identical

  auto const s = engine.stats();
  EXPECT_EQ(s.jobs_enacted, 1u);  // the second query never enacted
  EXPECT_EQ(s.cache_hits, 1u);
  // Two counted misses for one enactment: the submit-time probe and the
  // dequeue-time duplicate-suppression re-check both missed for j1.
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.completed, 1u);

  // Different params = different cache line.
  auto j3 = engine.run(sssp_desc("path", 1), sssp_job(1));
  EXPECT_EQ(j3->status(), eng::job_status::completed);
  EXPECT_EQ(engine.stats().jobs_enacted, 2u);
}

// Acceptance (c): publishing a new epoch invalidates that graph's cache
// entries only; in-flight jobs pinned to the old epoch finish correctly.
TEST(Engine, EpochPublishInvalidatesOnlyThatGraph) {
  engine_t engine({2, 16, 32});
  engine.registry().publish("a", path_graph(16));
  engine.registry().publish("b", path_graph(16));

  auto a1 = engine.run(sssp_desc("a", 0), sssp_job(0));
  auto b1 = engine.run(sssp_desc("b", 0), sssp_job(0));
  ASSERT_EQ(a1->status(), eng::job_status::completed);
  ASSERT_EQ(b1->status(), eng::job_status::completed);
  EXPECT_EQ(a1->graph_epoch(), 1u);

  // New epoch of "a": shortcut edge 0 -> 15 makes dist(15) == 1.
  engine.registry().publish("a", path_graph(16, /*shortcut=*/true));

  auto b2 = engine.run(sssp_desc("b", 0), sssp_job(0));
  EXPECT_EQ(b2->status(), eng::job_status::cache_hit);  // untouched graph

  auto a2 = engine.run(sssp_desc("a", 0), sssp_job(0));
  EXPECT_EQ(a2->status(), eng::job_status::completed);  // re-enacted
  EXPECT_EQ(a2->graph_epoch(), 2u);
  auto const old_d = a1->result_as<sssp_res>();
  auto const new_d = a2->result_as<sssp_res>();
  EXPECT_EQ(old_d->distances[15], 15.0f);  // epoch-1 path distance
  EXPECT_EQ(new_d->distances[15], 1.0f);   // epoch-2 shortcut distance

  auto const s = engine.stats();
  EXPECT_GE(s.cache_invalidations, 1u);
}

TEST(Engine, InFlightJobOnOldEpochFinishesCorrectly) {
  engine_t engine({2, 16, 32});
  engine.registry().publish("g", path_graph(16));

  std::atomic<bool> started{false};
  std::atomic<bool> proceed{false};
  // A job that pins epoch 1, then parks until we publish epoch 2 under it.
  auto slow = engine.submit(
      sssp_desc("g", 0),
      [&started, &proceed](gr::graph_csr const& g, eng::job_context&)
          -> std::shared_ptr<void const> {
        started.store(true, std::memory_order_release);
        while (!proceed.load(std::memory_order_acquire))
          std::this_thread::sleep_for(1ms);
        return std::make_shared<sssp_res const>(alg::sssp(exec::seq, g, 0));
      });
  while (!started.load(std::memory_order_acquire))
    std::this_thread::sleep_for(1ms);

  engine.registry().publish("g", path_graph(16, /*shortcut=*/true));
  proceed.store(true, std::memory_order_release);

  ASSERT_EQ(slow->wait(), eng::job_status::completed);
  EXPECT_EQ(slow->graph_epoch(), 1u);
  // Ran against the *pinned* epoch-1 snapshot: no shortcut.
  EXPECT_EQ(slow->result_as<sssp_res>()->distances[15], 15.0f);

  // Its late cache insert carries epoch 1 in the key, so an epoch-2 query
  // cannot be served by it.
  auto fresh = engine.run(sssp_desc("g", 0), sssp_job(0));
  ASSERT_EQ(fresh->status(), eng::job_status::completed);
  EXPECT_EQ(fresh->result_as<sssp_res>()->distances[15], 1.0f);
}

TEST(Engine, UnknownGraphRejectsWithReason) {
  engine_t engine({1, 4, 8});
  auto j = engine.submit(sssp_desc("nope", 0), sssp_job(0));
  EXPECT_EQ(j->status(), eng::job_status::rejected);
  EXPECT_NE(j->error().find("unknown graph"), std::string::npos);
  EXPECT_EQ(engine.stats().rejected, 1u);
}

TEST(Engine, DeadlineTruncatedResultIsNeverCached) {
  engine_t engine({1, 4, 8});
  engine.registry().publish("g", path_graph(8));
  auto d = sssp_desc("g", 0);
  d.algorithm = "spin";
  d.deadline = 30ms;
  auto j = engine.run(d, [](gr::graph_csr const&, eng::job_context& ctx)
                             -> std::shared_ptr<void const> {
    fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
    en::bsp_loop(
        std::move(f),
        [](fr::sparse_frontier<vertex_t> in, std::size_t) {
          std::this_thread::sleep_for(2ms);
          return in;
        },
        en::any_of{en::frontier_empty{}, ctx.stop_condition()});
    return std::make_shared<int const>(1);  // partial answer
  });
  EXPECT_EQ(j->status(), eng::job_status::deadline_expired);
  EXPECT_EQ(engine.cache().size(), 0u);

  // The same key re-enacts (no stale partial result in the cache).
  auto again = engine.run(d, [](gr::graph_csr const&, eng::job_context&)
                                 -> std::shared_ptr<void const> {
    return std::make_shared<int const>(2);
  });
  EXPECT_EQ(again->status(), eng::job_status::completed);
}

TEST(Engine, ConcurrentMixedTrafficAllRetireDeterministically) {
  engine_t engine({4, 128, 64});
  engine.registry().publish("g", path_graph(128));
  gr::graph_csr const oracle_graph = path_graph(128);

  std::vector<eng::job_ptr> jobs;
  for (int round = 0; round < 3; ++round) {
    for (vertex_t src = 0; src < 16; ++src) {
      jobs.push_back(engine.submit(sssp_desc("g", src), sssp_job(src)));
      eng::job_desc bd = sssp_desc("g", src);
      bd.algorithm = "bfs";
      jobs.push_back(engine.submit(
          bd, [src](gr::graph_csr const& g, eng::job_context&)
                  -> std::shared_ptr<void const> {
            return std::make_shared<alg::bfs_result<vertex_t> const>(
                alg::bfs_serial(g, src));
          }));
    }
  }
  for (auto const& j : jobs) {
    auto const s = j->wait();
    ASSERT_TRUE(s == eng::job_status::completed ||
                s == eng::job_status::cache_hit)
        << eng::to_string(s);
  }
  // Spot-check determinism across cache/enactment paths.
  auto const d0 = jobs[0]->result_as<sssp_res>();
  auto const oracle = alg::dijkstra(oracle_graph, 0);
  EXPECT_EQ(d0->distances, oracle.distances);
  auto const s = engine.stats();
  // 32 distinct (algo, src) keys over 3 rounds: at most 32 enactments
  // (racing duplicates of round 1 may both enact; later rounds must hit).
  EXPECT_GE(s.cache_hits, 32u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(Engine, RecordTraceTagsJobScope) {
  engine_t engine({1, 4, 8});
  engine.registry().publish("g", path_graph(32));
  auto d = sssp_desc("g", 5);
  d.record_trace = true;
  d.use_cache = false;
  auto j = engine.run(d, [](gr::graph_csr const& g, eng::job_context&)
                             -> std::shared_ptr<void const> {
    return std::make_shared<sssp_res const>(
        alg::sssp(exec::seq, g, 5));
  });
  ASSERT_EQ(j->status(), eng::job_status::completed);
  if (essentials::telemetry::compiled_in) {
    EXPECT_EQ(j->trace().job_id, j->id());
    EXPECT_EQ(j->trace().job_tag, "sssp(src=5)");
    EXPECT_EQ(j->trace().graph_epoch, 1u);
    EXPECT_GT(j->trace().num_supersteps(), 0u);
    std::ostringstream os;
    essentials::telemetry::write_json(j->trace(), os);
    EXPECT_NE(os.str().find("\"job_id\":"), std::string::npos);
    EXPECT_NE(os.str().find("\"job_tag\":\"sssp(src=5)\""),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Engine metrics JSON
// ---------------------------------------------------------------------------

TEST(EngineStats, JsonExportContainsEveryCounter) {
  eng::engine_stats stats;
  stats.on_submitted();
  stats.on_completed();
  stats.on_cache_hit();
  stats.on_cache_miss();
  stats.add_queue_wait_ms(1.5);
  stats.add_run_ms(2.5);
  auto const s = stats.snapshot();
  EXPECT_EQ(s.retired(), 1u);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.5);
  std::ostringstream os;
  eng::write_json(s, os);
  auto const json = os.str();
  for (char const* field :
       {"\"engine_stats_version\":", "\"submitted\":1", "\"completed\":1",
        "\"cache_hits\":1", "\"cache_misses\":1", "\"hit_ratio\":0.5",
        "\"queue_ms_total\":", "\"run_ms_total\":", "\"rejected\":0",
        "\"deadline_expired\":0", "\"cancelled\":0"})
    EXPECT_NE(json.find(field), std::string::npos) << field;
}

// ---------------------------------------------------------------------------
// Snapshot under concurrent mutation (the epoch publication contract)
// ---------------------------------------------------------------------------

// Satellite: snapshot-while-inserting stress.  Writers insert edges whose
// weight encodes (src, dst); concurrent publishers snapshot epochs.  Every
// published epoch must be internally consistent: valid vertex ids, every
// edge's weight matching its endpoints (no torn bucket reads), epochs
// strictly increasing.  Runs under TSAN in CI.
TEST(EngineDynamicSnapshot, SnapshotWhileInsertingIsConsistent) {
  constexpr vertex_t kN = 128;
  constexpr int kWriters = 4;
  constexpr int kEdgesPerWriter = 600;
  gr::dynamic_graph_t<> dyn(kN);

  auto const encode = [](vertex_t s, vertex_t d) {
    return static_cast<weight_t>(s * kN + d);
  };

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&dyn, &encode, w] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (w + 1);
      for (int i = 0; i < kEdgesPerWriter; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        auto const s = static_cast<vertex_t>((state >> 33) % kN);
        auto const d = static_cast<vertex_t>((state >> 13) % kN);
        dyn.add_edge(s, d, encode(s, d));
      }
    });
  }

  std::vector<std::pair<std::shared_ptr<gr::graph_csr const>, std::uint64_t>>
      epochs;
  std::thread publisher([&dyn, &writers_done, &epochs] {
    // do-while: under a sanitizer's thread-start skew the writers can all
    // finish before this thread's first check — publish at least once so
    // the test always exercises a mid-ingest epoch.
    do {
      epochs.push_back(dyn.publish_epoch<gr::graph_csr>());
      std::this_thread::sleep_for(1ms);
    } while (!writers_done.load(std::memory_order_acquire));
  });

  for (auto& t : writers)
    t.join();
  writers_done.store(true, std::memory_order_release);
  publisher.join();
  epochs.push_back(dyn.publish_epoch<gr::graph_csr>());  // final epoch

  ASSERT_GE(epochs.size(), 2u);
  std::uint64_t last_epoch = 0;
  std::size_t last_edges = 0;
  for (auto const& [snap, epoch] : epochs) {
    EXPECT_GT(epoch, last_epoch);  // strictly increasing
    last_epoch = epoch;
    EXPECT_EQ(snap->get_num_vertices(), kN);
    // Internal consistency: every edge's weight encodes its endpoints —
    // a torn bucket read would break this.
    for (vertex_t v = 0; v < snap->get_num_vertices(); ++v) {
      for (auto const e : snap->get_edges(v)) {
        auto const dst = snap->get_dest_vertex(e);
        ASSERT_GE(dst, 0);
        ASSERT_LT(dst, kN);
        EXPECT_EQ(snap->get_edge_weight(e), encode(v, dst));
      }
    }
    last_edges = static_cast<std::size_t>(snap->get_num_edges());
  }
  // The final (quiescent) epoch holds exactly the surviving edge set.
  EXPECT_EQ(last_edges, dyn.num_edges());
}

// The engine end-to-end under churn: ingest publishes epochs through the
// registry while query traffic runs — the "serving counterpart" scenario.
TEST(EngineDynamicSnapshot, QueriesDuringIngestAlwaysSeeConsistentEpochs) {
  constexpr vertex_t kN = 64;
  engine_t engine({2, 64, 16});
  gr::dynamic_graph_t<> dyn(kN);
  for (vertex_t v = 0; v + 1 < kN; ++v)
    dyn.add_edge(v, v + 1, 1.0f);
  engine.registry().publish("stream", dyn);

  std::atomic<bool> stop{false};
  std::thread ingest([&dyn, &engine, &stop] {
    std::uint64_t state = 42;
    while (!stop.load(std::memory_order_acquire)) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      auto const s = static_cast<vertex_t>((state >> 33) % kN);
      auto const d = static_cast<vertex_t>((state >> 13) % kN);
      dyn.add_edge(s, d, 1.0f);
      engine.registry().publish("stream", dyn);
      std::this_thread::sleep_for(2ms);
    }
  });

  std::vector<eng::job_ptr> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(
        engine.submit(sssp_desc("stream", 0), sssp_job(0)));
    std::this_thread::sleep_for(1ms);
  }
  for (auto const& j : jobs) {
    auto const s = j->wait();
    ASSERT_TRUE(s == eng::job_status::completed ||
                s == eng::job_status::cache_hit)
        << eng::to_string(s);
    // The path spine guarantees reachability in every epoch.
    EXPECT_EQ(j->result_as<sssp_res>()->distances[kN - 1] <= kN - 1, true);
  }
  stop.store(true, std::memory_order_release);
  ingest.join();
  EXPECT_EQ(engine.stats().failed, 0u);
}

// ---------------------------------------------------------------------------
// Engine-stats JSON schema golden test
// ---------------------------------------------------------------------------

// Pins every key of the engine_stats export, in order.  The export is a
// monitoring contract (docs/API.md "Engine metrics"): adding a field means
// bumping engine_stats_version AND updating this list deliberately —
// accidental schema drift fails here first.
TEST(EngineStatsSchema, GoldenKeyListAndVersion) {
  eng::engine_stats stats;
  std::ostringstream os;
  eng::write_json(stats.snapshot(), os);
  std::string const json = os.str();

  char const* const expected[] = {
      // v1-v2 core lifecycle + cache:
      "engine_stats_version", "submitted", "rejected", "completed", "failed",
      "cancelled", "deadline_expired", "cache_hits", "cache_misses",
      "cache_evictions", "cache_invalidations", "cache_demotions",
      "warm_start_hits", "delta_fallbacks", "jobs_enacted",
      // v3 batching:
      "batches", "batched_jobs", "edge_passes_saved",
      // v4 residual engine:
      "standing_queries", "residual_injections", "residual_reconverges",
      "residual_fallbacks", "residual_edges_touched",
      "residual_edges_cold_estimate",
      // v5 storage tier:
      "tier_demotions", "tier_promotions", "tier_resident_bytes",
      "tier_spilled_bytes",
      "residual_pass_ratio",
      // derived + totals:
      "avg_batch_size", "hit_ratio", "warm_ratio", "queue_ms_total",
      "run_ms_total",
  };
  std::size_t pos = 0;
  for (char const* key : expected) {
    auto const at = json.find("\"" + std::string(key) + "\":", pos);
    ASSERT_NE(at, std::string::npos) << "missing or out-of-order key: " << key;
    pos = at + 1;
  }
  EXPECT_NE(json.find("\"engine_stats_version\":5"), std::string::npos);

  // Exactly the pinned keys — a new field must join the golden list.
  std::size_t keys = 0;
  for (std::size_t i = json.find("\":", 0); i != std::string::npos;
       i = json.find("\":", i + 1))
    ++keys;
  EXPECT_EQ(keys, sizeof(expected) / sizeof(expected[0]));
}

TEST(EngineStatsSchema, ResidualCountersRollUp) {
  eng::engine_stats stats;
  stats.on_standing_query();
  stats.on_residual_injection(3);
  stats.on_residual_injection(2);
  stats.on_residual_reconverge(/*edges_touched=*/10, /*edges_cold=*/1000);
  stats.on_residual_fallback();
  auto const s = stats.snapshot();
  EXPECT_EQ(s.standing_queries, 1u);
  EXPECT_EQ(s.residual_injections, 5u);
  EXPECT_EQ(s.residual_reconverges, 1u);
  EXPECT_EQ(s.residual_fallbacks, 1u);
  EXPECT_EQ(s.residual_edges_touched, 10u);
  EXPECT_EQ(s.residual_edges_cold_estimate, 1000u);
  EXPECT_DOUBLE_EQ(s.residual_pass_ratio(), 0.01);
}
