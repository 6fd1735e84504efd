// bench_frontiers — experiment A2 (paper §III-B): the same frontier
// interface over different underlying representations, swept over active
// set sizes.
//
// Measured: (a) build + iterate cost of sparse (vector) vs dense (bitmap)
// vs async-queue frontiers at |F| from 2^6 to 2^20 over a 2^20 universe;
// (b) one shared-memory advance step vs one message-passing exchange of
// the same active set.
//
// Expected shape: sparse wins while |F| << universe (cost ∝ |F|); the
// bitmap's O(universe/64) scan makes it competitive only once the frontier
// is a sizable fraction of the universe — and its O(1) membership is what
// pull traversal buys with it.  The queue pays per-element synchronization,
// and message passing pays per-superstep message assembly on top.
//
// The frontier-publication contention sweep (BM_FrontierGeneration/*)
// additionally quantifies what scan compaction buys over per-element
// locking (Listing 3), at 1..8 threads.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/frontier/frontier.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace fr = e::frontier;

namespace {

constexpr std::size_t kUniverse = 1u << 20;

std::vector<e::vertex_t> make_active(std::size_t count) {
  // Spread evenly over the universe so bitmap word occupancy is realistic.
  std::vector<e::vertex_t> v;
  v.reserve(count);
  std::size_t const stride = kUniverse / count;
  for (std::size_t i = 0; i < count; ++i)
    v.push_back(static_cast<e::vertex_t>(i * stride));
  return v;
}

void BM_SparseFrontierBuildIterate(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::sparse_frontier<e::vertex_t> f;
    f.reserve(active.size());
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    f.for_each_active([&sum](e::vertex_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_DenseFrontierBuildIterate(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::dense_frontier<e::vertex_t> f(kUniverse);
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    f.for_each_active([&sum](e::vertex_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_QueueFrontierProduceConsume(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::async_queue_frontier<e::vertex_t> f;
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    e::vertex_t v;
    while (f.pop_vertex(v)) {
      sum += v;
      f.finish_vertex();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_DenseMembershipQueries(benchmark::State& state) {
  // The query pull traversals hammer — dense O(1) vs sparse O(|F|).
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  fr::dense_frontier<e::vertex_t> f(kUniverse);
  for (auto const v : active)
    f.add_vertex(v);
  for (auto _ : state) {
    long long hits = 0;
    for (e::vertex_t q = 0; q < 4096; ++q)
      hits += f.contains(q * 128);
    benchmark::DoNotOptimize(hits);
  }
}

void BM_SharedMemoryFrontierHandoff(benchmark::State& state) {
  // Shared memory: the "communication" between supersteps is a pointer
  // swap of the frontier storage.
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::sparse_frontier<e::vertex_t> current(active), next;
    swap(current, next);
    benchmark::DoNotOptimize(next.size());
  }
}

void BM_MessagePassingFrontierExchange(benchmark::State& state) {
  // Message passing: the same active set crosses a superstep boundary as
  // mailbox messages between 4 ranks (one exchange per iteration).
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    e::mpsim::communicator::run(4, [&active](e::mpsim::communicator& comm,
                                             int rank) {
      fr::distributed_frontier<e::vertex_t> f(
          comm, rank, [](e::vertex_t v) { return static_cast<int>(v % 4); });
      // Rank r contributes its quarter of the active set.
      for (std::size_t i = static_cast<std::size_t>(rank);
           i < active.size(); i += 4)
        f.add_vertex(active[i]);
      benchmark::DoNotOptimize(f.exchange(0));
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

// --- frontier-publication contention sweep ----------------------------------
//
// Experiment for the communication pillar's scan-compaction claim: one
// full-frontier advance over a uniform random graph (2^16 vertices, 2^20
// edges) whose condition accepts every edge, so every inspected edge is
// one emission, at 1..8 worker threads.  The body does little besides
// emit, so this isolates publication cost:
//  - listing3 (`neighbors_expand_listing3`, per-element spinlock) should
//    *degrade* as threads are added (the lock serializes and coherence
//    traffic grows);
//  - scan (`advance_push(par)`, lane buffers + prefix-sum compaction)
//    should scale with threads, since the output path takes no locks or
//    atomics at all.
// Throughput is items (emissions)/sec — read the scan/listing3 ratio at
// each thread count.

e::parallel::thread_pool& pool_with(std::size_t threads) {
  // Pool of `threads` lanes total: the coordinating thread plus
  // (threads - 1) workers, cached across benchmark iterations.
  static std::vector<std::unique_ptr<e::parallel::thread_pool>> pools(9);
  auto& slot = pools.at(threads);
  if (!slot)
    slot = std::make_unique<e::parallel::thread_pool>(threads - 1);
  return *slot;
}

e::graph::graph_csr const& emit_graph() {
  static auto const g = e::graph::from_coo<e::graph::graph_csr>(
      e::generators::erdos_renyi(/*n=*/1 << 16, /*m=*/1u << 20, {}, 7));
  return g;
}

template <bool Listing3>
void BM_FrontierGeneration(benchmark::State& state) {
  auto const& g = emit_graph();
  std::size_t const threads = static_cast<std::size_t>(state.range(0));
  e::execution::parallel_policy const policy(pool_with(threads));
  std::vector<e::vertex_t> all(static_cast<std::size_t>(g.get_num_vertices()));
  for (std::size_t v = 0; v < all.size(); ++v)
    all[v] = static_cast<e::vertex_t>(v);
  fr::sparse_frontier<e::vertex_t> const in(std::move(all));
  auto const always = [](e::vertex_t, e::vertex_t, e::edge_t, e::weight_t) {
    return true;
  };
  std::size_t emitted = 0;
  for (auto _ : state) {
    auto const out =
        Listing3
            ? e::operators::neighbors_expand_listing3(policy, g, in, always)
            : e::operators::advance_push(policy, g, in, always);
    emitted = out.size();
    benchmark::DoNotOptimize(emitted);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(emitted));
}

void BM_FrontierGenerationScanDedup(benchmark::State& state) {
  // Scan with the claim-bitmap filter on a 50%-duplicate stream: measures
  // what dedup costs on top of lock-free publication.
  std::size_t const n = 1u << 20;
  std::size_t const threads = static_cast<std::size_t>(state.range(0));
  auto& pool = pool_with(threads);
  fr::sparse_frontier<e::vertex_t> out;
  for (auto _ : state) {
    fr::generate_scan(
        pool, n, e::execution::default_grain, out,
        [n](std::size_t lo, std::size_t hi, auto&& emit) {
          for (std::size_t i = lo; i < hi; ++i)
            emit(static_cast<e::vertex_t>(i % (n / 2)));
        },
        &fr::dedup_scratch(n));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n));
}

BENCHMARK(BM_FrontierGeneration<true>)
    ->Name("BM_FrontierGeneration/listing3")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FrontierGeneration<false>)
    ->Name("BM_FrontierGeneration/scan")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FrontierGenerationScanDedup)->Arg(1)->Arg(4)->Arg(8);

BENCHMARK(BM_SparseFrontierBuildIterate)->RangeMultiplier(16)->Range(64, 1 << 20);
BENCHMARK(BM_DenseFrontierBuildIterate)->RangeMultiplier(16)->Range(64, 1 << 20);
BENCHMARK(BM_QueueFrontierProduceConsume)->RangeMultiplier(16)->Range(64, 1 << 16);
BENCHMARK(BM_DenseMembershipQueries)->Arg(1 << 12)->Arg(1 << 18);
BENCHMARK(BM_SharedMemoryFrontierHandoff)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_MessagePassingFrontierExchange)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
