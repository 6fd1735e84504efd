// bench_scaling — experiment A7: strong scaling of the framework's
// operators across thread-pool sizes.  Execution policies carry their pool,
// so the sweep is a one-line policy change per configuration — itself a
// demonstration of the §III-A abstraction.
//
// Expected shape: near-linear until the pool exceeds physical cores.  On a
// 1-core container the curve is flat-to-worse beyond 1 thread (the
// hardware, not the abstraction — DESIGN.md caveat); the bench exists so
// the same binary shows the real curve on real hardware.
//
// The custom main (replacing BENCHMARK_MAIN) writes BENCH_scaling.json for
// CI: best-of-N advance latency on rmat-12 at 1/2/4/8 threads.  One bar is
// enforced like the existing frontier/engine/delta bars:
//  - scaling-efficiency floor: >= 3.5x speedup at 8 threads over 1, gated
//    on hardware_concurrency() >= 8 (a 1-core container cannot scale);
//    ESSENTIALS_SCALING_FLOOR overrides the floor (0 disables).
// The process exits nonzero when an enforced bar fails (this one or the
// steal-order bar below).
//
// It also writes BENCH_numa.json: the discovered machine topology, a
// per-socket scaling curve on the tiered-stealing substrate (degenerate
// single-socket curve on one-package hardware), tiered-vs-flat steal-order
// parity at 8 threads (>= 0.85x, gated on hw >= 4 — the "topology layer is
// a measured no-op on flat hardware" acceptance bar), and first-touch vs
// constructor-touch fill bandwidth for a CSR-build-sized array.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "essentials.hpp"
#include "parallel/first_touch.hpp"
#include "parallel/topology.hpp"

namespace e = essentials;
namespace op = essentials::operators;

namespace {

e::graph::graph_full const& graph() {
  static auto const g = [] {
    e::generators::rmat_options opt;
    opt.scale = 13;
    opt.edge_factor = 16;
    opt.weights = {1.0f, 4.0f};
    auto coo = e::generators::rmat(opt);
    e::graph::remove_self_loops(coo);
    return e::graph::from_coo<e::graph::graph_full>(
        std::move(coo), e::graph::duplicate_policy::keep_min);
  }();
  return g;
}

/// rmat-12 graph for the JSON artifact (matches the bench_operators scale
/// the CI bars are calibrated on).
e::graph::graph_full const& artifact_graph() {
  static auto const g = [] {
    e::generators::rmat_options opt;
    opt.scale = 12;
    opt.edge_factor = 16;
    opt.weights = {1.0f, 4.0f};
    auto coo = e::generators::rmat(opt);
    e::graph::remove_self_loops(coo);
    return e::graph::from_coo<e::graph::graph_full>(
        std::move(coo), e::graph::duplicate_policy::keep_min);
  }();
  return g;
}

void BM_SsspStrongScaling(benchmark::State& state) {
  e::parallel::thread_pool pool(static_cast<std::size_t>(state.range(0)));
  e::execution::parallel_policy policy(pool);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::sssp(policy, graph(), 0).distances.data());
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}

void BM_PagerankStrongScaling(benchmark::State& state) {
  e::parallel::thread_pool pool(static_cast<std::size_t>(state.range(0)));
  e::execution::parallel_policy policy(pool);
  e::algorithms::pagerank_options opt;
  opt.max_iterations = 10;
  opt.tolerance = 0.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::pagerank(policy, graph(), opt).ranks.data());
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}

void BM_AsyncSsspWorkerScaling(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::sssp_async(graph(), 0,
                                  static_cast<std::size_t>(state.range(0)))
            .distances.data());
  state.SetLabel("workers=" + std::to_string(state.range(0)));
}

BENCHMARK(BM_SsspStrongScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_PagerankStrongScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_AsyncSsspWorkerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

auto const always = [](e::vertex_t, e::vertex_t, e::edge_t, e::weight_t) {
  return true;
};

/// Best-of-samples wall time (seconds) for `iters` rmat-12 advances on the
/// given pool.  Best-of absorbs scheduler noise; the first sample doubles
/// as warm-up (page faults, lane scratch, frontier capacity).
double measure_advance(e::parallel::thread_pool& pool,
                       e::frontier::sparse_frontier<e::vertex_t> const& in,
                       int iters = 6, int samples = 5) {
  e::execution::parallel_policy const policy(pool);
  double best = 1e300;
  for (int s = 0; s < samples; ++s) {
    auto const t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
      benchmark::DoNotOptimize(
          op::advance_push(policy, artifact_graph(), in, always).size());
    double const dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (dt < best)
      best = dt;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // --- BENCH_scaling.json: advance strong scaling -------------------------
  std::size_t const hw = std::thread::hardware_concurrency();

  std::vector<e::vertex_t> seeds;
  for (e::vertex_t v = 0; v < (1 << 12); ++v)
    seeds.push_back(v);
  e::frontier::sparse_frontier<e::vertex_t> const in(std::move(seeds));

  struct point {
    std::size_t threads;
    double best_sec;
    double speedup;  // vs the 1-thread pool
  };
  std::vector<point> curve;
  for (std::size_t t : {1u, 2u, 4u, 8u}) {
    e::parallel::thread_pool pool(t);
    curve.push_back({t, measure_advance(pool, in), 0.0});
  }
  for (auto& p : curve)
    p.speedup = p.best_sec > 0 ? curve.front().best_sec / p.best_sec : 0.0;

  double floor = 3.5;
  bool floor_enforced = hw >= 8;
  if (char const* env = std::getenv("ESSENTIALS_SCALING_FLOOR")) {
    floor = std::atof(env);
    floor_enforced = floor > 0.0;
  }

  char const* const path = "BENCH_scaling.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"scaling\",\n"
                 "  \"workload\": \"advance_push rmat-12, frontier 4096\",\n"
                 "  \"graph\": {\"kind\": \"rmat\", \"scale\": 12, "
                 "\"edge_factor\": 16, \"vertices\": %lld, \"edges\": %lld},\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"floor_speedup_8t\": %.2f,\n"
                 "  \"floor_enforced\": %s,\n  \"threads\": [\n",
                 static_cast<long long>(artifact_graph().get_num_vertices()),
                 static_cast<long long>(artifact_graph().get_num_edges()), hw,
                 floor, floor_enforced ? "true" : "false");
    for (std::size_t i = 0; i < curve.size(); ++i) {
      auto const& p = curve[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"best_ms\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   p.threads, p.best_sec * 1e3, p.speedup,
                   i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("bench: wrote %s\n", path);
  for (auto const& p : curve)
    std::printf("  %zu threads: %8.3f ms  (%.2fx)\n", p.threads,
                p.best_sec * 1e3, p.speedup);

  // --- BENCH_numa.json: topology, per-socket curve, steal-order parity,
  // first-touch bandwidth ---------------------------------------------------
  auto const& topo = e::parallel::system_topology();
  std::size_t const sockets =
      std::max<std::size_t>(topo.num_packages, 1);
  std::size_t const cores_per_socket =
      std::max<std::size_t>(topo.num_cores / sockets, 1);

  // Per-socket strong scaling: s sockets' worth of cores on the tiered
  // substrate.  One package => one point (the degenerate curve).
  struct socket_point {
    std::size_t sockets;
    std::size_t threads;
    double best_sec;
    double speedup;  // vs the 1-socket pool
  };
  std::vector<socket_point> socket_curve;
  for (std::size_t s = 1; s <= sockets; ++s) {
    std::size_t const t = s * cores_per_socket;
    e::parallel::thread_pool pool(t, e::parallel::steal_order::tiered);
    socket_curve.push_back({s, t, measure_advance(pool, in), 0.0});
  }
  for (auto& p : socket_curve)
    p.speedup =
        p.best_sec > 0 ? socket_curve.front().best_sec / p.best_sec : 0.0;

  // Tiered vs flat steal order at 8 threads.  On single-socket hardware the
  // tiers collapse to one, so this measures the overhead of the tier walk
  // itself — the bar enforces "topology awareness costs nothing when there
  // is no topology".
  double tiered_sec, flat_sec;
  {
    e::parallel::thread_pool pool(8, e::parallel::steal_order::tiered);
    tiered_sec = measure_advance(pool, in);
  }
  {
    e::parallel::thread_pool pool(8, e::parallel::steal_order::flat);
    flat_sec = measure_advance(pool, in);
  }
  double const steal_parity =
      tiered_sec > 0 ? flat_sec / tiered_sec : 0.0;  // >1: tiered wins
  bool const steal_parity_enforced = hw >= 4;
  constexpr double steal_parity_bar = 0.85;

  // First-touch (page-parallel on the pool) vs constructor-touch (serial
  // value-init, what std::vector always did) fill bandwidth over a
  // CSR-build-sized array.  Best-of-3; first sample doubles as warm-up.
  std::size_t const fill_n = std::size_t{1} << 23;  // 64 MiB of doubles
  double ft_sec = 1e300, ct_sec = 1e300;
  {
    e::parallel::thread_pool pool(8, e::parallel::steal_order::tiered);
    for (int s = 0; s < 3; ++s) {
      auto const t0 = std::chrono::steady_clock::now();
      auto v = e::parallel::first_touch_vector<double>(pool, fill_n, 0.0,
                                                       /*numa=*/true);
      benchmark::DoNotOptimize(v.data());
      double const dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      ft_sec = std::min(ft_sec, dt);
    }
  }
  for (int s = 0; s < 3; ++s) {
    auto const t0 = std::chrono::steady_clock::now();
    std::vector<double> v(fill_n, 0.0);
    benchmark::DoNotOptimize(v.data());
    double const dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ct_sec = std::min(ct_sec, dt);
  }
  double const fill_gb =
      static_cast<double>(fill_n * sizeof(double)) / 1e9;
  double const ft_gbps = ft_sec > 0 ? fill_gb / ft_sec : 0.0;
  double const ct_gbps = ct_sec > 0 ? fill_gb / ct_sec : 0.0;

  char const* const numa_path = "BENCH_numa.json";
  if (std::FILE* f = std::fopen(numa_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"numa\",\n"
                 "  \"workload\": \"advance_push rmat-12, frontier 4096\",\n"
                 "  \"numa_enabled\": %s,\n"
                 "  \"topology\": {\"cpus\": %zu, \"cores\": %zu, "
                 "\"packages\": %zu, \"nodes\": %zu, \"smt\": %s, "
                 "\"discovered\": %s},\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"steal_parity_bar\": %.2f,\n"
                 "  \"steal_parity_enforced\": %s,\n"
                 "  \"sockets\": [\n",
                 e::parallel::numa_enabled() ? "true" : "false",
                 topo.num_cpus(), topo.num_cores, topo.num_packages,
                 topo.num_nodes, topo.smt ? "true" : "false",
                 topo.discovered ? "true" : "false", hw, steal_parity_bar,
                 steal_parity_enforced ? "true" : "false");
    for (std::size_t i = 0; i < socket_curve.size(); ++i) {
      auto const& p = socket_curve[i];
      std::fprintf(f,
                   "    {\"sockets\": %zu, \"threads\": %zu, "
                   "\"best_ms\": %.3f, \"speedup\": %.3f}%s\n",
                   p.sockets, p.threads, p.best_sec * 1e3, p.speedup,
                   i + 1 < socket_curve.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"steal_order_8t\": {\"tiered_ms\": %.3f, "
                 "\"flat_ms\": %.3f, \"flat_over_tiered\": %.3f},\n"
                 "  \"first_touch\": {\"bytes\": %zu, "
                 "\"first_touch_gbps\": %.2f, \"constructor_touch_gbps\": "
                 "%.2f}\n}\n",
                 tiered_sec * 1e3, flat_sec * 1e3, steal_parity,
                 fill_n * sizeof(double), ft_gbps, ct_gbps);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "failed to write %s\n", numa_path);
    return 1;
  }
  std::printf("bench: wrote %s\n", numa_path);
  for (auto const& p : socket_curve)
    std::printf("  %zu socket(s) / %zu threads: %8.3f ms  (%.2fx)\n",
                p.sockets, p.threads, p.best_sec * 1e3, p.speedup);
  std::printf("  8t steal order: tiered %.3f ms, flat %.3f ms (%.2fx)\n",
              tiered_sec * 1e3, flat_sec * 1e3, steal_parity);
  std::printf("  fill %zu MiB: first-touch %.2f GB/s, constructor %.2f GB/s\n",
              fill_n * sizeof(double) >> 20, ft_gbps, ct_gbps);

  int failures = 0;
  if (floor_enforced && curve.back().speedup < floor) {
    std::fprintf(stderr,
                 "FAIL: 8-thread speedup %.2fx below the %.2fx floor\n",
                 curve.back().speedup, floor);
    ++failures;
  }
  if (steal_parity_enforced && steal_parity < steal_parity_bar) {
    std::fprintf(stderr,
                 "FAIL: tiered steal order at %.2fx of flat throughput "
                 "(bar %.2fx)\n",
                 steal_parity, steal_parity_bar);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
