// Tests for the wider algorithm suite: PageRank, HITS, connected
// components, triangle counting, k-core, coloring, betweenness, SpMV —
// each parallel variant against its serial oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/betweenness.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/hits.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/spmv.hpp"
#include "algorithms/triangle_counting.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/build.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "steal_pools.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::vertex_t;

namespace {

/// Symmetrized, deduplicated, loop-free graph — what the undirected
/// algorithms require.
g::graph_full undirected(g::coo_t<> coo) {
  g::remove_self_loops(coo);
  g::symmetrize(coo);
  return g::from_coo<g::graph_full>(std::move(coo));
}

g::graph_full directed(g::coo_t<> coo) {
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_full>(std::move(coo));
}

}  // namespace

// --- PageRank --------------------------------------------------------------

TEST(PageRank, RanksSumToOne) {
  auto const graph = directed(gen::erdos_renyi(300, 2400, {}, 3));
  auto const r = alg::pagerank(ex::par, graph);
  double const sum =
      std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRank, ParMatchesSerial) {
  auto const graph = directed(gen::erdos_renyi(200, 1500, {}, 7));
  auto const serial = alg::pagerank_serial(graph);
  auto const par = alg::pagerank(ex::par, graph);
  ASSERT_EQ(serial.ranks.size(), par.ranks.size());
  for (std::size_t v = 0; v < par.ranks.size(); ++v)
    EXPECT_NEAR(par.ranks[v], serial.ranks[v], 1e-9) << v;
}

TEST(PageRank, PushMatchesPull) {
  gen::rmat_options opt;
  opt.scale = 7;
  opt.edge_factor = 6;
  auto const graph = directed(gen::rmat(opt));
  auto const pull = alg::pagerank(ex::par, graph);
  auto const push = alg::pagerank_push(ex::par, graph);
  for (std::size_t v = 0; v < pull.ranks.size(); ++v)
    EXPECT_NEAR(push.ranks[v], pull.ranks[v], 1e-7) << v;
}

TEST(PageRank, StarHubDominates) {
  auto const graph = undirected(gen::star(50));
  auto const r = alg::pagerank(ex::par, graph);
  for (std::size_t v = 1; v < r.ranks.size(); ++v)
    EXPECT_GT(r.ranks[0], r.ranks[v]);
}

TEST(PageRank, DanglingMassConserved) {
  // A graph where every edge points at vertex 0, which has no out-edges.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  for (vertex_t v = 1; v < 5; ++v)
    coo.push_back(v, 0, 1.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  auto const r = alg::pagerank(ex::par, graph);
  double const sum = std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(r.ranks[0], r.ranks[1]);
}

TEST(PageRank, ConvergesWithinIterationCap) {
  auto const graph = directed(gen::erdos_renyi(100, 600, {}, 2));
  alg::pagerank_options opt;
  opt.tolerance = 1e-8;
  auto const r = alg::pagerank(ex::par, graph, opt);
  EXPECT_LT(r.iterations, opt.max_iterations);
  EXPECT_LT(r.final_delta, opt.tolerance);
}

// --- HITS --------------------------------------------------------------------

TEST(Hits, HubAndAuthoritySeparation) {
  // Bipartite-ish: 0,1 point at 8,9 — hubs {0,1}, authorities {8,9}.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 10;
  for (vertex_t h : {0, 1})
    for (vertex_t a : {8, 9})
      coo.push_back(h, a, 1.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  auto const r = alg::hits(ex::par, graph);
  EXPECT_GT(r.hubs[0], r.hubs[8]);
  EXPECT_GT(r.authorities[8], r.authorities[0]);
}

TEST(Hits, SeqMatchesPar) {
  auto const graph = directed(gen::erdos_renyi(150, 900, {}, 11));
  auto const s = alg::hits(ex::seq, graph);
  auto const p = alg::hits(ex::par, graph);
  for (std::size_t v = 0; v < s.hubs.size(); ++v) {
    EXPECT_NEAR(s.hubs[v], p.hubs[v], 1e-9);
    EXPECT_NEAR(s.authorities[v], p.authorities[v], 1e-9);
  }
}

// --- connected components -------------------------------------------------------

TEST(ConnectedComponents, AfforestMatchesUnionFind) {
  auto const graph = undirected(gen::erdos_renyi(300, 500, {}, 5));
  auto const oracle = alg::connected_components_serial(graph);
  auto const cc = alg::connected_components(ex::par, graph);
  EXPECT_EQ(cc.num_components, oracle.num_components);
  // Both canonicalize to the component minimum, so labels agree exactly.
  EXPECT_EQ(cc.labels, oracle.labels);
}

TEST(ConnectedComponents, LinkClimbsDeepTreesAndCompressReachesRoots) {
  // Two chains deeper than one c[v] = c[c[v]] step reaches:
  // 3 -> 2 -> 1 -> 0 and 6 -> 5 -> 4.
  std::vector<vertex_t> c{0, 0, 1, 2, 4, 4, 5};
  vertex_t* const p = c.data();
  // The parents of 3 and 6 are not roots, so link climbs to their
  // grandparents (1 and 4) and hooks root 4 under 1.
  EXPECT_TRUE(alg::detail::cc_link(p, vertex_t{3}, vertex_t{6}));
  EXPECT_EQ(c[4], 1);
  EXPECT_FALSE(alg::detail::cc_link(p, vertex_t{6}, vertex_t{0}));
  // Deepest first, so no vertex finds its parent already flattened.
  for (vertex_t v = 6; v >= 0; --v)
    alg::detail::cc_compress(p, v);
  EXPECT_EQ(c, std::vector<vertex_t>(7, 0));
}

TEST(ConnectedComponents, CountsIslandsAndClusters) {
  // Three known components: a triangle, an edge, an isolated vertex.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 6;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 0, 1.f);
  coo.push_back(3, 4, 1.f);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::connected_components(ex::par, graph);
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.labels[0], r.labels[2]);
  EXPECT_EQ(r.labels[3], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[3]);
  EXPECT_EQ(r.labels[5], 5);
}

namespace {

/// The ConnectedComponentsAllVariants families, all symmetric: a giant
/// component plus isolated vertices (R-MAT), a mesh, many small components
/// (sparse Erdos-Renyi), a path whose ids descend along it (every sampled
/// link extends one chain), a star whose hub has the highest id, and the
/// degenerate graphs, where sampling must not index into an empty array.
g::coo_t<> cc_family(std::string const& family) {
  g::coo_t<> coo;
  if (family == "rmat") {
    gen::rmat_options opt;
    opt.scale = 10;
    opt.edge_factor = 8;
    opt.seed = 3;
    coo = gen::rmat(opt);
  } else if (family == "grid") {
    coo = gen::grid_2d(32, 32, {}, 1);
  } else if (family == "er_sparse") {
    coo = gen::erdos_renyi(1000, 400, {}, 7);
  } else if (family == "path_desc") {
    coo.num_rows = coo.num_cols = 2000;
    for (vertex_t v = 1999; v > 0; --v)
      coo.push_back(v, v - 1, 1.f);
  } else if (family == "star_hub_high") {
    coo.num_rows = coo.num_cols = 500;
    for (vertex_t v = 0; v < 499; ++v)
      coo.push_back(499, v, 1.f);
  } else {
    coo.num_rows = coo.num_cols =
        family == "empty" ? 0 : family == "single" ? 1 : 50;
  }
  g::remove_self_loops(coo);
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  return coo;
}

std::size_t distinct_labels(std::vector<vertex_t> labels) {
  std::sort(labels.begin(), labels.end());
  return static_cast<std::size_t>(
      std::unique(labels.begin(), labels.end()) - labels.begin());
}

}  // namespace

class ConnectedComponentsAllVariants
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ConnectedComponentsAllVariants, EveryVariantMatchesUnionFind) {
  std::string const family = GetParam();
  auto const coo = cc_family(family);
  auto const csr = g::from_coo<g::graph_csr>(coo);
  auto const push_pull = g::from_coo<g::graph_push_pull>(coo);
  g::compressed_graph<> const compressed(g::build_csr(coo));
  auto const oracle = alg::connected_components_serial(csr);
  std::size_t const components = distinct_labels(oracle.labels);
  EXPECT_EQ(oracle.num_components, components) << family;

  essentials::testing::steal_pools pools(4);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);
  auto const check = [&](auto policy, auto const& graph,
                         std::string const& what) {
    auto const r = alg::connected_components(policy, graph);
    EXPECT_EQ(r.labels, oracle.labels) << family << "/" << what;
    EXPECT_EQ(r.num_components, components) << family << "/" << what;
    EXPECT_EQ(r.iterations, alg::cc_sampling_rounds + 1)
        << family << "/" << what;
  };
  check(ex::seq, csr, "csr/seq");
  check(on_flat, csr, "csr/flat");
  check(on_tiered, csr, "csr/tiered");
  check(ex::seq, push_pull, "push-pull/seq");
  check(on_flat, push_pull, "push-pull/flat");
  check(on_tiered, push_pull, "push-pull/tiered");
  check(ex::seq, compressed, "compressed/seq");
  check(on_flat, compressed, "compressed/flat");
  check(on_tiered, compressed, "compressed/tiered");

  // One superstep per phase, each with its `cc_link` sweep; the sweeps
  // link no more edges than the graph has, and every successful hook
  // retires one of the n initial roots, so the hooks add up to
  // n - components.
  if (tel::compiled_in) {
    tel::trace t;
    {
      tel::scoped_recording rec(t, "cc");
      alg::connected_components(on_flat, push_pull);
    }
    ASSERT_EQ(t.supersteps.size(), alg::cc_sampling_rounds + 1) << family;
    std::size_t linked = 0, hooked = 0;
    for (auto const& step : t.supersteps) {
      ASSERT_EQ(step.ops.size(), 1u) << family;
      EXPECT_EQ(step.ops[0].name, "cc_link") << family;
      linked += step.ops[0].edges_inspected;
      hooked += step.ops[0].edges_relaxed;
    }
    EXPECT_LE(linked, static_cast<std::size_t>(push_pull.get_num_edges()))
        << family;
    EXPECT_EQ(hooked, oracle.labels.size() - components) << family;
  }

  // Lost hooks show up only under some interleavings: repeat the parallel
  // run on the family with the most contended roots.
  if (family == "rmat") {
    for (int rep = 0; rep < 50; ++rep)
      ASSERT_EQ(alg::connected_components(on_flat, push_pull).labels,
                oracle.labels)
          << "repeat " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ConnectedComponentsAllVariants,
                         ::testing::Values("rmat", "grid", "er_sparse",
                                           "path_desc", "star_hub_high",
                                           "empty", "single", "isolated"),
                         [](auto const& info) { return info.param; });

// --- triangle counting ------------------------------------------------------------

TEST(TriangleCounting, KnownCounts) {
  // A 4-clique has C(4,3) = 4 triangles.
  auto const clique = undirected(gen::complete(4));
  EXPECT_EQ(alg::triangle_count(ex::par, clique), 4u);
  // A 4-cycle has none.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 3, 1.f);
  coo.push_back(3, 0, 1.f);
  auto const cycle = undirected(std::move(coo));
  EXPECT_EQ(alg::triangle_count(ex::par, cycle), 0u);
}

TEST(TriangleCounting, ParMatchesSerialOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto const graph = undirected(gen::erdos_renyi(120, 1200, {}, seed));
    EXPECT_EQ(alg::triangle_count(ex::par, graph),
              alg::triangle_count_serial(graph))
        << "seed " << seed;
  }
}

TEST(TriangleCounting, CompleteGraphFormula) {
  auto const graph = undirected(gen::complete(10));
  // C(10,3) = 120
  EXPECT_EQ(alg::triangle_count(ex::par, graph), 120u);
}

// --- k-core ------------------------------------------------------------------------

TEST(KCore, CliqueCoreness) {
  auto const graph = undirected(gen::complete(6));
  auto const r = alg::kcore(ex::par, graph);
  for (auto const c : r.coreness)
    EXPECT_EQ(c, 5);
  EXPECT_EQ(r.max_core, 5);
}

TEST(KCore, ChainCorenessIsOne) {
  auto coo = gen::chain(20);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::kcore(ex::par, graph);
  for (auto const c : r.coreness)
    EXPECT_EQ(c, 1);
}

TEST(KCore, ParMatchesSerial) {
  for (std::uint64_t seed : {4u, 9u}) {
    auto const graph = undirected(gen::erdos_renyi(200, 1600, {}, seed));
    auto const par = alg::kcore(ex::par, graph);
    auto const ser = alg::kcore_serial(graph);
    EXPECT_EQ(par.coreness, ser.coreness) << "seed " << seed;
    EXPECT_EQ(par.max_core, ser.max_core);
  }
}

// --- coloring -----------------------------------------------------------------------

TEST(Coloring, JonesPlassmannProducesValidColoring) {
  for (std::uint64_t seed : {1u, 5u}) {
    auto const graph = undirected(gen::erdos_renyi(250, 2000, {}, seed));
    auto const r = alg::color_jones_plassmann(ex::par, graph, seed);
    EXPECT_TRUE(alg::is_valid_coloring(graph, r.colors)) << "seed " << seed;
    EXPECT_GE(r.num_colors, 1);
  }
}

TEST(Coloring, SerialFirstFitValid) {
  auto const graph = undirected(gen::watts_strogatz(150, 3, 0.3, {}, 2));
  auto const r = alg::color_serial(graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, r.colors));
}

TEST(Coloring, BipartiteNeedsTwoColors) {
  // Star graphs are bipartite: hub one color, spokes another.
  auto const graph = undirected(gen::star(40));
  auto const jp = alg::color_jones_plassmann(ex::par, graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, jp.colors));
  EXPECT_LE(jp.num_colors, 2);
}

TEST(Coloring, CliqueNeedsNColors) {
  auto const graph = undirected(gen::complete(7));
  auto const jp = alg::color_jones_plassmann(ex::par, graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, jp.colors));
  EXPECT_EQ(jp.num_colors, 7);
}

// --- betweenness ---------------------------------------------------------------------

TEST(Betweenness, ParallelMatchesBrandesOracle) {
  auto const graph = undirected(gen::erdos_renyi(80, 500, {}, 8));
  auto const oracle = alg::betweenness_serial(graph);
  auto const par = alg::betweenness(ex::par, graph);
  ASSERT_EQ(par.centrality.size(), oracle.centrality.size());
  for (std::size_t v = 0; v < oracle.centrality.size(); ++v)
    EXPECT_NEAR(par.centrality[v], oracle.centrality[v], 1e-6) << v;
}

TEST(Betweenness, PathCenterHasHighestCentrality) {
  auto coo = gen::chain(9);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::betweenness(ex::par, graph);
  // Middle of a path mediates the most shortest paths.
  for (std::size_t v = 0; v < 9; ++v) {
    if (v != 4) {
      EXPECT_GE(r.centrality[4], r.centrality[v]);
    }
  }
  EXPECT_DOUBLE_EQ(r.centrality[0], 0.0);
}

TEST(Betweenness, StarHubTakesAll) {
  auto const graph = undirected(gen::star(10));
  auto const r = alg::betweenness(ex::par, graph);
  // Every spoke-to-spoke shortest path routes through the hub: 9*8 ordered
  // pairs.
  EXPECT_NEAR(r.centrality[0], 72.0, 1e-9);
  for (std::size_t v = 1; v < 10; ++v)
    EXPECT_NEAR(r.centrality[v], 0.0, 1e-12);
}

TEST(Betweenness, SampledSourcesSubsetOfExact) {
  auto const graph = undirected(gen::erdos_renyi(60, 400, {}, 4));
  auto const sampled = alg::betweenness(ex::par, graph, 10);
  auto const oracle = alg::betweenness_serial(graph, 10);
  for (std::size_t v = 0; v < oracle.centrality.size(); ++v)
    EXPECT_NEAR(sampled.centrality[v], oracle.centrality[v], 1e-6);
}

// --- SpMV ---------------------------------------------------------------------------

TEST(Spmv, MatchesManualComputation) {
  // 2x2: A = [[0, 2], [3, 0]] as a graph: 0->1 w2, 1->0 w3.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 2.f);
  coo.push_back(1, 0, 3.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  std::vector<double> x{10.0, 100.0};
  auto const y = alg::spmv(ex::par, graph, x);
  EXPECT_DOUBLE_EQ(y[0], 200.0);  // 2 * x[1]
  EXPECT_DOUBLE_EQ(y[1], 30.0);   // 3 * x[0]
}

TEST(Spmv, TransposeMatchesTransposedGraph) {
  auto coo = gen::erdos_renyi(100, 900, {0.1f, 2.0f}, 6);
  g::sort_and_deduplicate(coo);
  auto const graph = g::from_coo<g::graph_full>(coo);
  g::transpose(coo);
  auto const graph_t = g::from_coo<g::graph_full>(std::move(coo));

  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i % 13) * 0.5;

  auto const scatter = alg::spmv_transpose(ex::par, graph, x);
  auto const gather = alg::spmv(ex::par, graph_t, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(scatter[i], gather[i], 1e-9) << i;
}

TEST(Spmv, ParMatchesSerial) {
  auto const graph = directed(gen::erdos_renyi(200, 2000, {0.5f, 1.5f}, 9));
  std::vector<double> x(200, 1.0);
  auto const s = alg::spmv_serial(graph, x);
  auto const p = alg::spmv(ex::par, graph, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s[i], p[i], 1e-12);
}

TEST(Spmv, DimensionMismatchThrows) {
  auto const graph = directed(gen::chain(5));
  std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(alg::spmv(ex::par, graph, wrong), essentials::graph_error);
}
