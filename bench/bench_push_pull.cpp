// bench_push_pull — experiment A3 (paper §III-C): push (CSR out-edge)
// versus pull (CSC in-edge) traversal as a function of frontier density,
// plus whole-algorithm push-only / pull-only / direction-optimizing BFS.
//
// Expected shape: one push advance costs O(edges out of F) — cheap when F
// is sparse, while one pull advance costs O(all in-edges scanned) — flat in
// |F| but with early-exit it wins when nearly every vertex is active
// (scan-until-first-active-parent beats touching every frontier out-edge).
// The crossover is why `bfs` picks its direction per level, and the BFS
// suite below shows it beating either fixed direction on the skewed graph.
// The fixed directions are ablations kept here, not library switches:
// push-only is `bfs` over a CSR-only copy of the graph (no CSC view, so
// no pull level), pull-only is `bfs_pull`.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace fr = e::frontier;
namespace op = e::operators;

namespace {

e::graph::coo_t<> rmat_coo() {
  e::generators::rmat_options opt;
  opt.scale = 13;
  opt.edge_factor = 16;
  opt.seed = 5;
  auto coo = e::generators::rmat(opt);
  e::graph::remove_self_loops(coo);
  return coo;
}

e::graph::graph_push_pull const& rmat_graph() {
  static auto const g =
      e::graph::from_coo<e::graph::graph_push_pull>(rmat_coo());
  return g;
}

/// The same graph without its CSC view: `bfs` over it pushes every level.
e::graph::graph_csr const& rmat_graph_csr_only() {
  static auto const g = e::graph::from_coo<e::graph::graph_csr>(rmat_coo());
  return g;
}

/// Activate the given permille of vertices, evenly spread.
template <typename F>
void activate(F& f, e::vertex_t n, int permille) {
  long long const want = static_cast<long long>(n) * permille / 1000;
  if (want == 0)
    return;
  long long const stride = std::max<long long>(1, n / want);
  for (long long v = 0; v < n; v += stride)
    f.add_vertex(static_cast<e::vertex_t>(v));
}

auto const always = [](e::vertex_t, e::vertex_t, e::edge_t, e::weight_t) {
  return true;
};

void BM_AdvancePushAtDensity(benchmark::State& state) {
  auto const& g = rmat_graph();
  fr::sparse_frontier<e::vertex_t> in;
  activate(in, g.get_num_vertices(), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = op::advance_push(e::execution::par, g, in, always);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel("density=" + std::to_string(state.range(0)) + "/1000");
}

void BM_AdvancePullAtDensity(benchmark::State& state) {
  auto const& g = rmat_graph();
  fr::dense_frontier<e::vertex_t> in(
      static_cast<std::size_t>(g.get_num_vertices()));
  activate(in, g.get_num_vertices(), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = op::advance_pull<true>(e::execution::par, g, in, always);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel("density=" + std::to_string(state.range(0)) + "/1000");
}

void BM_BfsPush(benchmark::State& state) {
  auto const& g = rmat_graph_csr_only();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::bfs(e::execution::par, g, 0).depths.data());
}

void BM_BfsPull(benchmark::State& state) {
  auto const& g = rmat_graph();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::bfs_pull(e::execution::par, g, 0).depths.data());
}

void BM_Bfs(benchmark::State& state) {
  auto const& g = rmat_graph();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::bfs(e::execution::par, g, 0).depths.data());
}

void BM_PagerankPull(benchmark::State& state) {
  auto const& g = rmat_graph();
  e::algorithms::pagerank_options opt;
  opt.max_iterations = 10;
  opt.tolerance = 0.0;  // fixed sweep count for comparability
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::pagerank(e::execution::par, g, opt).ranks.data());
}

void BM_PagerankPush(benchmark::State& state) {
  auto const& g = rmat_graph();
  e::algorithms::pagerank_options opt;
  opt.max_iterations = 10;
  opt.tolerance = 0.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::algorithms::pagerank_push(e::execution::par, g, opt).ranks.data());
}

// Density sweep in permille of |V|: 1 (very sparse) ... 1000 (all active).
BENCHMARK(BM_AdvancePushAtDensity)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvancePullAtDensity)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BfsPush)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BfsPull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Bfs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PagerankPull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PagerankPush)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (replaces BENCHMARK_MAIN): after the timing run, capture one
// telemetry trace per headline workload — push/pull advance at a sparse and
// a dense operating point, plus whole-algorithm BFS and PageRank — and
// write them next to the timing output.  The traces carry exactly what the
// timings cannot: edges inspected per direction and BFS's per-level
// direction decisions.  CI uploads the JSON as an artifact.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  auto const& g = rmat_graph();
  std::vector<e::telemetry::trace> traces;
  auto const record = [&traces](std::string const& name, auto&& run) {
    traces.emplace_back();
    e::telemetry::scoped_recording rec(traces.back(), name);
    run();
  };
  for (int const permille : {10, 500}) {
    fr::sparse_frontier<e::vertex_t> sp;
    activate(sp, g.get_num_vertices(), permille);
    fr::dense_frontier<e::vertex_t> dn(
        static_cast<std::size_t>(g.get_num_vertices()));
    activate(dn, g.get_num_vertices(), permille);
    record("advance_push@" + std::to_string(permille) + "permille",
           [&] { op::advance_push(e::execution::par, g, sp, always); });
    record("advance_pull@" + std::to_string(permille) + "permille",
           [&] { op::advance_pull<true>(e::execution::par, g, dn, always); });
  }
  record("bfs", [&] { e::algorithms::bfs(e::execution::par, g, 0); });
  record("pagerank.pull", [&] {
    e::algorithms::pagerank_options opt;
    opt.max_iterations = 5;
    opt.tolerance = 0.0;
    e::algorithms::pagerank(e::execution::par, g, opt);
  });

  char const* const path = "bench_push_pull.telemetry.json";
  if (!e::telemetry::write_json(traces, path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("telemetry: wrote %s (%zu traces)\n", path, traces.size());
  return 0;
}
