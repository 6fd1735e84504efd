// BFS property suite: the direction-optimizing `bfs` (on push-pull and
// CSR-only graphs, under seq and on both steal-order pools), pull, async
// and message-passing variants against the serial oracle; parent-tree
// validity; the push -> pull -> push direction sequence in telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/build.hpp"
#include "graph/graph.hpp"
#include "steal_pools.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::direction_t;
using essentials::vertex_t;

namespace {

g::coo_t<> rmat_coo(std::uint64_t seed) {
  gen::rmat_options opt;
  opt.scale = 10;
  opt.edge_factor = 8;
  opt.seed = seed;
  return gen::rmat(opt);
}

/// "rmat" is symmetrized like the benchmark graph; "rmat_directed" keeps
/// R-MAT's directed edges, so CSR != CSC and a pull level must walk real
/// in-edges.
g::coo_t<> make_coo(std::string const& family, std::uint64_t seed) {
  g::coo_t<> coo;
  if (family == "rmat" || family == "rmat_directed") {
    coo = rmat_coo(seed);
  } else if (family == "er") {
    coo = gen::erdos_renyi(500, 4000, {}, seed);
  } else if (family == "grid") {
    coo = gen::grid_2d(20, 20, {}, seed);
  } else {
    coo = gen::star(300, {}, seed);
  }
  g::remove_self_loops(coo);
  if (family == "rmat")
    g::symmetrize(coo);
  return coo;
}

g::graph_push_pull make_graph(std::string const& family, std::uint64_t seed) {
  return g::from_coo<g::graph_push_pull>(make_coo(family, seed));
}

/// A parent tree is valid iff every reached non-source vertex has a reached
/// parent exactly one level shallower, connected by a real edge.
template <typename G>
void expect_valid_parents(G const& graph, alg::bfs_result<> const& r,
                          vertex_t source) {
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v) {
    if (v == source || r.depths[static_cast<std::size_t>(v)] == -1)
      continue;
    vertex_t const p = r.parents[static_cast<std::size_t>(v)];
    ASSERT_NE(p, -1) << "reached vertex " << v << " has no parent";
    EXPECT_EQ(r.depths[static_cast<std::size_t>(p)] + 1,
              r.depths[static_cast<std::size_t>(v)]);
    bool edge_exists = false;
    for (auto const e : graph.get_edges(p))
      edge_exists |= (graph.get_dest_vertex(e) == v);
    EXPECT_TRUE(edge_exists) << "no edge " << p << " -> " << v;
  }
}

/// The direction of every superstep of a traced `bfs` run.
template <typename P, typename G>
std::vector<direction_t> traced_directions(P policy, G const& graph,
                                           vertex_t source) {
  tel::trace t;
  {
    tel::scoped_recording rec(t, "bfs");
    alg::bfs(policy, graph, source);
  }
  std::vector<direction_t> dirs;
  for (auto const& step : t.supersteps)
    dirs.push_back(step.direction);
  return dirs;
}

}  // namespace

using BfsParam = std::tuple<std::string, std::uint64_t>;
class BfsAllVariants : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsAllVariants, EveryVariantMatchesSerialDepths) {
  auto const& [family, seed] = GetParam();
  auto coo = make_coo(family, seed);
  auto const csr_only = g::from_coo<g::graph_csr>(coo);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  vertex_t const source = 0;
  auto const oracle = alg::bfs_serial(graph, source);

  essentials::testing::steal_pools pools(4);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);
  auto const check = [&](auto const& g, alg::bfs_result<> const& r,
                         std::string const& what) {
    EXPECT_EQ(r.depths, oracle.depths) << family << "/" << what;
    // One superstep per level plus the draining one.
    EXPECT_EQ(r.iterations, oracle.iterations + 1) << family << "/" << what;
    expect_valid_parents(g, r, source);
  };
  check(graph, alg::bfs(ex::seq, graph, source), "push-pull/seq");
  check(graph, alg::bfs(on_flat, graph, source), "push-pull/flat");
  check(graph, alg::bfs(on_tiered, graph, source), "push-pull/tiered");
  check(csr_only, alg::bfs(ex::seq, csr_only, source), "csr/seq");
  check(csr_only, alg::bfs(on_flat, csr_only, source), "csr/flat");
  check(csr_only, alg::bfs(on_tiered, csr_only, source), "csr/tiered");
  check(graph, alg::bfs_pull(ex::par, graph, source), "pull");

  auto const async = alg::bfs_async(graph, source, 4);
  EXPECT_EQ(async.depths, oracle.depths) << family << "/async";

  // On R-MAT the direction rule must actually pull, so the in-edge path
  // above was exercised, not only the push one.
  if (family.rfind("rmat", 0) == 0 && tel::compiled_in) {
    auto const dirs = traced_directions(on_flat, graph, source);
    EXPECT_NE(std::find(dirs.begin(), dirs.end(), direction_t::pull),
              dirs.end())
        << family << ": no pull level";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BfsAllVariants,
    ::testing::Combine(::testing::Values("rmat", "rmat_directed", "er",
                                         "grid", "star"),
                       ::testing::Values(1u, 13u)),
    [](auto const& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Bfs, MessagePassingMatchesSerial) {
  for (auto const family : {"er", "grid"}) {
    auto const graph = make_graph(family, 3);
    auto const oracle = alg::bfs_serial(graph, 0);
    for (int ranks : {1, 2, 4}) {
      auto const mp = alg::bfs_message_passing(graph, 0, ranks);
      EXPECT_EQ(mp.depths, oracle.depths)
          << family << " ranks=" << ranks;
    }
  }
}

TEST(Bfs, DisconnectedComponentUnreached) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(3, 4, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::bfs(ex::par, graph, 0);
  EXPECT_EQ(r.depths[2], 2);
  EXPECT_EQ(r.depths[3], -1);
  EXPECT_EQ(r.depths[4], -1);
}

TEST(Bfs, IterationCountEqualsEccentricity) {
  auto coo = gen::chain(64);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::bfs(ex::par, graph, 0);
  EXPECT_EQ(r.depths[63], 63);
  EXPECT_EQ(r.iterations, 64u);  // 63 productive + 1 draining superstep
}

TEST(Bfs, DirectionOptimizingSwitchesOnDenseGraph) {
  // A complete graph saturates in one hop: the second level's out-edges
  // are all the unexplored edges, so it pulls, and stays exact.
  auto coo = gen::complete(100);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const oracle = alg::bfs_serial(graph, 0);
  auto const r = alg::bfs(ex::par, graph, 0);
  EXPECT_EQ(r.depths, oracle.depths);
  expect_valid_parents(graph, r, 0);
  if (tel::compiled_in) {
    auto const dirs = traced_directions(ex::par, graph, 0);
    EXPECT_EQ(dirs, (std::vector<direction_t>{direction_t::push,
                                              direction_t::pull}));
  }
}

// On the symmetrized R-MAT the frontier grows past the push -> pull
// threshold and then thins below |V| / 24: the levels run push, then pull,
// then push again, and each level is one superstep that says so.
TEST(Bfs, SymmetrizedRmatRecordsPushPullPush) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "telemetry compiled out";
  auto const graph = make_graph("rmat", 1);
  tel::trace t;
  {
    tel::scoped_recording rec(t, "bfs");
    alg::bfs(ex::par, graph, 0);
  }
  std::vector<direction_t> runs;  // direction runs, consecutive merged
  for (auto const& step : t.supersteps) {
    bool const changed = runs.empty() || runs.back() != step.direction;
    EXPECT_EQ(step.switched_direction, changed && !runs.empty())
        << "superstep " << step.index;
    EXPECT_GT(step.frontier_density, 0.0);
    if (changed)
      runs.push_back(step.direction);
  }
  ASSERT_GE(runs.size(), 3u);
  EXPECT_EQ(runs[0], direction_t::push);
  EXPECT_EQ(runs[1], direction_t::pull);
  EXPECT_EQ(runs[2], direction_t::push);
}

TEST(Bfs, SelfSourceDepthZero) {
  auto const graph = make_graph("er", 9);
  auto const r = alg::bfs(ex::par, graph, 42);
  EXPECT_EQ(r.depths[42], 0);
  EXPECT_EQ(r.parents[42], -1);
}

TEST(Bfs, InvalidSourceThrows) {
  auto const graph = make_graph("grid", 1);
  EXPECT_THROW(alg::bfs(ex::par, graph, -1), essentials::graph_error);
  EXPECT_THROW(alg::bfs_pull(ex::par, graph, 100000),
               essentials::graph_error);
}
