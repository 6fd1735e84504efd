// Unit tests for graph formats, builders/transformations, the variadic
// graph_t views, and structural property checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "generators/generators.hpp"
#include "generators/random.hpp"
#include "graph/build.hpp"
#include "graph/dynamic.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "parallel/thread_pool.hpp"
#include "steal_pools.hpp"

namespace g = essentials::graph;
using essentials::vertex_t;
using essentials::edge_t;
using essentials::weight_t;

namespace {

g::coo_t<> diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (weights = dst for checking)
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 2, 2.0f);
  coo.push_back(1, 3, 3.0f);
  coo.push_back(2, 3, 3.0f);
  return coo;
}

}  // namespace

// --- builders ----------------------------------------------------------------

TEST(Build, CsrFromCooHasCorrectStructure) {
  auto const csr = g::build_csr(diamond());
  EXPECT_TRUE(g::is_valid_csr(csr));
  EXPECT_EQ(csr.num_rows, 4);
  EXPECT_EQ(csr.num_edges(), 4);
  EXPECT_EQ(std::vector<edge_t>(csr.row_offsets.begin(),
                                csr.row_offsets.end()),
            (std::vector<edge_t>{0, 2, 3, 4, 4}));
  EXPECT_EQ(std::vector<vertex_t>(csr.column_indices.begin(),
                                  csr.column_indices.end()),
            (std::vector<vertex_t>{1, 2, 3, 3}));
}

TEST(Build, CsrRejectsOutOfRangeIndices) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 5, 1.0f);
  EXPECT_THROW(g::build_csr(coo), essentials::graph_error);
}

TEST(Build, CscMirrorsInEdges) {
  auto const csc = g::transpose_to_csc(g::build_csr(diamond()));
  // Vertex 3 has two in-edges (from 1 and 2); vertex 0 has none.
  EXPECT_EQ(csc.column_offsets[4] - csc.column_offsets[3], 2);
  EXPECT_EQ(csc.column_offsets[1] - csc.column_offsets[0], 0);
}

TEST(Build, SortAndDeduplicateKeepFirst) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 5.0f);
  coo.push_back(0, 1, 3.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_first);
  ASSERT_EQ(coo.num_edges(), 1);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
}

TEST(Build, SortAndDeduplicateKeepMin) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 5.0f);
  coo.push_back(0, 1, 3.0f);
  coo.push_back(0, 1, 9.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  ASSERT_EQ(coo.num_edges(), 1);
  EXPECT_FLOAT_EQ(coo.values[0], 3.0f);
}

TEST(Build, SortAndDeduplicateSum) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(1, 0, 1.0f);
  coo.push_back(1, 0, 2.0f);
  coo.push_back(0, 1, 4.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::sum);
  ASSERT_EQ(coo.num_edges(), 2);
  EXPECT_FLOAT_EQ(coo.values[0], 4.0f);  // (0,1)
  EXPECT_FLOAT_EQ(coo.values[1], 3.0f);  // (1,0) summed
}

TEST(Build, RemoveSelfLoops) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 0, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(2, 2, 1.0f);
  g::remove_self_loops(coo);
  EXPECT_EQ(coo.num_edges(), 1);
  EXPECT_EQ(coo.row_indices[0], 0);
  EXPECT_EQ(coo.column_indices[0], 1);
}

TEST(Build, SymmetrizeMakesSymmetric) {
  auto coo = diamond();
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  EXPECT_TRUE(g::is_symmetric(csr));
}

TEST(Build, TransposeSwapsEndpoints) {
  auto coo = diamond();
  g::transpose(coo);
  EXPECT_EQ(coo.row_indices[0], 1);
  EXPECT_EQ(coo.column_indices[0], 0);
}

TEST(Build, AdjacencyListRoundTrip) {
  auto coo = diamond();
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const adj = g::to_adjacency_list(csr);
  EXPECT_EQ(adj.num_vertices(), 4);
  EXPECT_EQ(adj.num_edges(), 4u);
  auto coo2 = g::to_coo(adj);
  g::sort_and_deduplicate(coo2);
  auto const csr2 = g::build_csr(coo2);
  EXPECT_EQ(csr.row_offsets, csr2.row_offsets);
  EXPECT_EQ(csr.column_indices, csr2.column_indices);
  EXPECT_EQ(csr.values, csr2.values);
}

// --- graph_t ------------------------------------------------------------------

TEST(GraphT, CsrViewAnswersListing1Queries) {
  auto const graph = g::from_coo<g::graph_csr>(diamond());
  EXPECT_EQ(graph.get_num_vertices(), 4);
  EXPECT_EQ(graph.get_num_edges(), 4);
  EXPECT_EQ(graph.get_out_degree(0), 2);
  EXPECT_EQ(graph.get_out_degree(3), 0);

  std::vector<vertex_t> dsts;
  for (auto const e : graph.get_edges(0))
    dsts.push_back(graph.get_dest_vertex(e));
  EXPECT_EQ(dsts, (std::vector<vertex_t>{1, 2}));
  EXPECT_FLOAT_EQ(graph.get_edge_weight(0), 1.0f);
}

TEST(GraphT, SourceVertexBinarySearch) {
  auto const graph = g::from_coo<g::graph_csr>(diamond());
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v)
    for (auto const e : graph.get_edges(v))
      EXPECT_EQ(graph.get_source_vertex(e), v) << "edge " << e;
}

TEST(GraphT, PushPullViewsAgreeOnEdgeMultiset) {
  auto const graph = g::from_coo<g::graph_push_pull>(diamond());
  // Every out-edge (u, v) must appear as an in-edge of v from u.
  std::vector<std::pair<vertex_t, vertex_t>> push, pull;
  for (vertex_t u = 0; u < graph.get_num_vertices(); ++u)
    for (auto const e : graph.get_edges(u))
      push.emplace_back(u, graph.get_dest_vertex(e));
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v)
    for (auto const e : graph.get_in_edges(v))
      pull.emplace_back(graph.get_in_source_vertex(e), v);
  std::sort(push.begin(), push.end());
  std::sort(pull.begin(), pull.end());
  EXPECT_EQ(push, pull);
}

TEST(GraphT, InDegreeMatchesTransposedOutDegree) {
  auto const graph = g::from_coo<g::graph_push_pull>(diamond());
  EXPECT_EQ(graph.get_in_degree(3), 2);
  EXPECT_EQ(graph.get_in_degree(0), 0);
  EXPECT_FLOAT_EQ(graph.get_in_edge_weight(*graph.get_in_edges(3).begin()),
                  3.0f);
}

TEST(GraphT, CooViewKeepsRawEdges) {
  auto const graph = g::from_coo<g::graph_full>(diamond());
  EXPECT_EQ(graph.coo_num_edges(), 4);
  EXPECT_EQ(graph.coo_source(0), 0);
  EXPECT_EQ(graph.coo_dest(0), 1);
}

TEST(GraphT, IdRangeIterationAndSize) {
  g::id_range<edge_t> r(3, 7);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_FALSE(r.empty());
  edge_t expect = 3;
  for (auto const e : r)
    EXPECT_EQ(e, expect++);
  EXPECT_EQ(expect, 7);
  g::id_range<edge_t> empty(5, 5);
  EXPECT_TRUE(empty.empty());
}

// --- properties ----------------------------------------------------------------

TEST(Properties, DegreeStats) {
  auto const csr = g::build_csr(diamond());
  auto const s = g::out_degree_stats(csr);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.0);
  EXPECT_EQ(s.isolated_vertices, 1u);  // vertex 3
}

TEST(Properties, SymmetryDetection) {
  auto const directed = g::build_csr(diamond());
  EXPECT_FALSE(g::is_symmetric(directed));
  auto coo = diamond();
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  EXPECT_TRUE(g::is_symmetric(g::build_csr(coo)));
}

TEST(Properties, DuplicateAndSelfLoopChecks) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(1, 1, 1.0f);
  auto const dirty = g::build_csr(coo);
  EXPECT_FALSE(g::has_no_duplicate_edges(dirty));
  EXPECT_FALSE(g::has_no_self_loops(dirty));

  g::sort_and_deduplicate(coo);
  g::remove_self_loops(coo);
  auto const clean = g::build_csr(coo);
  EXPECT_TRUE(g::has_no_duplicate_edges(clean));
  EXPECT_TRUE(g::has_no_self_loops(clean));
}

TEST(Properties, ReachabilityOracle) {
  auto const csr = g::build_csr(diamond());
  auto const seen = g::reachable_from(csr, 0);
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
  auto const from3 = g::reachable_from(csr, 3);
  EXPECT_TRUE(from3[3]);
  EXPECT_FALSE(from3[0] || from3[1] || from3[2]);
}

TEST(Properties, EmptyGraphIsValid) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 0;
  auto const csr = g::build_csr(coo);
  EXPECT_TRUE(g::is_valid_csr(csr));
  EXPECT_EQ(csr.num_edges(), 0);
}

TEST(Properties, IsolatedVerticesOnlyGraph) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  auto const graph = g::from_coo<g::graph_csr>(std::move(coo));
  EXPECT_EQ(graph.get_num_vertices(), 5);
  EXPECT_EQ(graph.get_num_edges(), 0);
  for (vertex_t v = 0; v < 5; ++v)
    EXPECT_TRUE(graph.get_edges(v).empty());
}

// --- linear-time build vs. the global stable sort ------------------------------
//
// The oracle is the stable-sort canonicalisation the linear-time build
// replaced: sort an index permutation by (row, column), fold duplicates in
// that order, then build_csr; CSC by transposing the sorted COO and counting
// sort.  Every array the builders produce must match it bit for bit.

namespace {

namespace oracle {

template <typename V, typename E, typename W>
void sort_and_deduplicate(g::coo_t<V, E, W>& coo, g::duplicate_policy policy) {
  std::size_t const m = coo.row_indices.size();
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (coo.row_indices[a] != coo.row_indices[b])
      return coo.row_indices[a] < coo.row_indices[b];
    return coo.column_indices[a] < coo.column_indices[b];
  });
  g::coo_t<V, E, W> out;
  out.num_rows = coo.num_rows;
  out.num_cols = coo.num_cols;
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t const i = order[k];
    V const r = coo.row_indices[i];
    V const c = coo.column_indices[i];
    W const w = coo.values[i];
    if (!out.row_indices.empty() && out.row_indices.back() == r &&
        out.column_indices.back() == c) {
      if (policy == g::duplicate_policy::keep_min)
        out.values.back() = std::min(out.values.back(), w);
      else if (policy == g::duplicate_policy::sum)
        out.values.back() += w;
    } else {
      out.push_back(r, c, w);
    }
  }
  coo = std::move(out);
}

template <typename V, typename E, typename W>
g::csc_t<V, E, W> build_csc(g::coo_t<V, E, W> const& sorted) {
  auto t = sorted;
  g::transpose(t);
  auto csr = g::build_csr(t);
  g::csc_t<V, E, W> csc;
  csc.num_rows = sorted.num_rows;
  csc.num_cols = sorted.num_cols;
  csc.column_offsets = std::move(csr.row_offsets);
  csc.row_indices = std::move(csr.column_indices);
  csc.values = std::move(csr.values);
  return csc;
}

}  // namespace oracle

/// Element-wise bit equality, so -0.0f vs 0.0f or a reordered float sum
/// cannot pass as equal.
template <typename A, typename B>
::testing::AssertionResult same_bits(A const& a, B const& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(a[i])) != 0)
      return ::testing::AssertionFailure()
             << "first difference at " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

void expect_same_csr(g::csr_t<> const& got, g::csr_t<> const& want,
                     std::string const& what) {
  EXPECT_EQ(got.num_rows, want.num_rows) << what;
  EXPECT_EQ(got.num_cols, want.num_cols) << what;
  EXPECT_TRUE(same_bits(got.row_offsets, want.row_offsets)) << what;
  EXPECT_TRUE(same_bits(got.column_indices, want.column_indices)) << what;
  EXPECT_TRUE(same_bits(got.values, want.values)) << what;
}

void expect_same_coo(g::coo_t<> const& got, g::coo_t<> const& want,
                     std::string const& what) {
  EXPECT_EQ(got.num_rows, want.num_rows) << what;
  EXPECT_EQ(got.num_cols, want.num_cols) << what;
  EXPECT_TRUE(same_bits(got.row_indices, want.row_indices)) << what;
  EXPECT_TRUE(same_bits(got.column_indices, want.column_indices)) << what;
  EXPECT_TRUE(same_bits(got.values, want.values)) << what;
}

/// Every view of `got` against the oracle build of `sorted`.
template <typename G>
void expect_graph_matches(G const& got, g::coo_t<> const& sorted,
                          std::string const& what) {
  if constexpr (G::has_csr)
    expect_same_csr(got.csr(), g::build_csr(sorted), what + " csr");
  if constexpr (G::has_csc) {
    auto const want = oracle::build_csc(sorted);
    auto const& csc = got.csc();
    EXPECT_EQ(csc.num_rows, want.num_rows) << what;
    EXPECT_EQ(csc.num_cols, want.num_cols) << what;
    EXPECT_TRUE(same_bits(csc.column_offsets, want.column_offsets)) << what;
    EXPECT_TRUE(same_bits(csc.row_indices, want.row_indices)) << what;
    EXPECT_TRUE(same_bits(csc.values, want.values)) << what;
  }
  if constexpr (G::has_coo)
    expect_same_coo(got.coo(), sorted, what + " coo");
}

struct build_input {
  std::string name;
  g::coo_t<> coo;
};

std::vector<build_input> build_inputs() {
  namespace gen = essentials::generators;
  gen::weight_options const w{1.0f, 8.0f};
  std::vector<build_input> in;

  auto raw = gen::rmat({10, 16, 0.57, 0.19, 0.19, w, 5});
  in.push_back({"rmat10-raw", raw});
  g::remove_self_loops(raw);
  g::symmetrize(raw);
  in.push_back({"rmat10-sym", std::move(raw)});
  in.push_back({"grid32", gen::grid_2d(32, 32, w, 3)});
  // 64 vertices, 40k edges: rows of ≈600 entries over 64 columns.
  in.push_back({"er-dense", gen::erdos_renyi(64, 40000, w, 7)});

  gen::rng_t rng(11);
  g::coo_t<> hub;
  hub.num_rows = hub.num_cols = 600;
  for (int i = 0; i < 10000; ++i)
    hub.push_back(0, static_cast<vertex_t>(rng.next_below(500)),
                  rng.next_float(1.0f, 8.0f));
  for (int i = 0; i < 3000; ++i)
    hub.push_back(static_cast<vertex_t>(1 + rng.next_below(599)),
                  static_cast<vertex_t>(rng.next_below(600)),
                  rng.next_float(1.0f, 8.0f));
  in.push_back({"hub-10k", std::move(hub)});

  g::coo_t<> rect;
  rect.num_rows = 50;
  rect.num_cols = 300;
  for (int i = 0; i < 20000; ++i)
    rect.push_back(static_cast<vertex_t>(rng.next_below(50)),
                   static_cast<vertex_t>(rng.next_below(300)),
                   rng.next_float(1.0f, 8.0f));
  in.push_back({"non-square", std::move(rect)});

  in.push_back({"empty", g::coo_t<>{}});
  g::coo_t<> single;
  single.num_rows = single.num_cols = 1;
  single.push_back(0, 0, 2.5f);
  single.push_back(0, 0, 1.25f);
  single.push_back(0, 0, 4.0f);
  in.push_back({"single", std::move(single)});
  return in;
}

constexpr g::duplicate_policy all_policies[] = {
    g::duplicate_policy::keep_first, g::duplicate_policy::keep_min,
    g::duplicate_policy::sum};

std::string label(build_input const& in, g::duplicate_policy p) {
  return in.name + "/policy" + std::to_string(static_cast<int>(p));
}

}  // namespace

TEST(BuildDifferential, FromCooMatchesStableSortOnEveryView) {
  for (auto const& in : build_inputs()) {
    for (auto const policy : all_policies) {
      auto sorted = in.coo;
      oracle::sort_and_deduplicate(sorted, policy);
      std::string const what = label(in, policy);
      expect_graph_matches(g::from_coo<g::graph_csr>(in.coo, policy), sorted,
                           what);
      expect_graph_matches(g::from_coo<g::graph_push_pull>(in.coo, policy),
                           sorted, what);
      expect_graph_matches(g::from_coo<g::graph_full>(in.coo, policy), sorted,
                           what);
    }
  }
}

TEST(BuildDifferential, SortAndDeduplicateMatchesStableSort) {
  for (auto const& in : build_inputs()) {
    for (auto const policy : all_policies) {
      auto want = in.coo;
      oracle::sort_and_deduplicate(want, policy);
      auto got = in.coo;
      g::sort_and_deduplicate(got, policy);
      expect_same_coo(got, want, label(in, policy));
    }
  }
}

TEST(BuildDifferential, RowPassIsIndependentOfThePool) {
  essentials::testing::steal_pools pools(4);
  essentials::parallel::thread_pool one(1);
  for (auto const& in : build_inputs()) {
    for (auto const policy : all_policies) {
      auto sorted = in.coo;
      oracle::sort_and_deduplicate(sorted, policy);
      auto const want = g::build_csr(sorted);
      for (auto* pool : {pools.flat.get(), pools.tiered.get(), &one}) {
        auto got = g::build_csr(in.coo);
        g::detail::canonicalize_rows(*pool, got, policy);
        expect_same_csr(got, want,
                        label(in, policy) + " pool of " +
                            std::to_string(pool->size()));
      }
    }
  }
}

TEST(BuildDifferential, SnapshotMatchesFromCooOverTheSameEdgeSet) {
  essentials::generators::rng_t rng(29);
  vertex_t const n = 200;
  g::dynamic_graph_t<> dyn(n);
  std::map<std::pair<vertex_t, vertex_t>, weight_t> model;
  auto const random_vertex = [&] {
    return static_cast<vertex_t>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  for (int round = 0; round < 4; ++round) {
    for (int op = 0; op < 5000; ++op) {
      double const pick = rng.next_double();
      if (pick < 0.6 || model.empty()) {
        // Vertex 0 is a hub, so its row takes the long-row sort.
        vertex_t const u = rng.next_bool(0.1) ? 0 : random_vertex();
        vertex_t const v = random_vertex();
        weight_t const w = rng.next_float(1.0f, 8.0f);
        dyn.add_edge(u, v, w);
        model[{u, v}] = w;
      } else {
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(
                             static_cast<std::uint64_t>(model.size()))));
        if (pick < 0.8) {
          EXPECT_TRUE(dyn.remove_edge(it->first.first, it->first.second));
          model.erase(it);
        } else {
          weight_t const w = rng.next_float(1.0f, 8.0f);
          dyn.add_edge(it->first.first, it->first.second, w);
          it->second = w;
        }
      }
    }

    // The model's edge set in a scrambled order, canonicalised by the oracle.
    g::coo_t<> edges;
    edges.num_rows = edges.num_cols = n;
    for (auto const& [uv, w] : model)
      edges.push_back(uv.first, uv.second, w);
    for (std::size_t i = edges.row_indices.size(); i > 1; --i) {
      auto const j = static_cast<std::size_t>(rng.next_below(i));
      std::swap(edges.row_indices[i - 1], edges.row_indices[j]);
      std::swap(edges.column_indices[i - 1], edges.column_indices[j]);
      std::swap(edges.values[i - 1], edges.values[j]);
    }
    auto sorted = edges;
    oracle::sort_and_deduplicate(sorted, g::duplicate_policy::keep_first);

    std::string const what = "round " + std::to_string(round);
    expect_graph_matches(dyn.snapshot<g::graph_full>(), sorted, what);
    expect_graph_matches(g::from_coo<g::graph_full>(edges), sorted, what);
    expect_same_coo(dyn.to_coo(), sorted, what + " to_coo");
  }
}

TEST(BuildDifferential, SnapshotRacingWritersIsCanonical) {
  // Writers churn the edge set while snapshots are taken: every snapshot
  // must still have sorted, duplicate-free rows whose CSC and COO views are
  // the CSR's transpose and expansion.
  vertex_t const n = 256;
  g::dynamic_graph_t<> dyn(n);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < 2; ++t) {
    writers.emplace_back([&dyn, &stop, t, n] {
      essentials::generators::rng_t rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto const u = static_cast<vertex_t>(rng.next_below(n));
        auto const v = static_cast<vertex_t>(rng.next_below(n));
        if (rng.next_bool(0.7))
          dyn.add_edge(u, v, rng.next_float(1.0f, 8.0f));
        else
          dyn.remove_edge(u, v);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    auto const snap = dyn.snapshot<g::graph_full>();
    auto const& csr = snap.csr();
    ASSERT_TRUE(g::is_valid_csr(csr));
    for (vertex_t v = 0; v < n; ++v)
      for (auto e = csr.row_offsets[static_cast<std::size_t>(v)] + 1;
           e < csr.row_offsets[static_cast<std::size_t>(v) + 1]; ++e)
        ASSERT_LT(csr.column_indices[static_cast<std::size_t>(e) - 1],
                  csr.column_indices[static_cast<std::size_t>(e)]);
    auto const csc = g::transpose_to_csc(csr);
    EXPECT_TRUE(same_bits(snap.csc().column_offsets, csc.column_offsets));
    EXPECT_TRUE(same_bits(snap.csc().row_indices, csc.row_indices));
    EXPECT_TRUE(same_bits(snap.csc().values, csc.values));
    expect_same_coo(snap.coo(), g::to_coo(csr), "snapshot " + std::to_string(i));
  }
  stop = true;
  for (auto& w : writers)
    w.join();
}

TEST(BuildDifferential, OutOfRangeIndexStillThrows) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(2, 3, 1.0f);
  EXPECT_THROW(g::from_coo<g::graph_csr>(coo), essentials::graph_error);
  EXPECT_THROW(g::from_coo<g::graph_full>(coo, g::duplicate_policy::sum),
               essentials::graph_error);
  coo.column_indices[1] = 0;
  coo.row_indices[1] = -1;
  EXPECT_THROW(g::from_coo<g::graph_push_pull>(coo), essentials::graph_error);
  EXPECT_THROW(g::sort_and_deduplicate(coo), essentials::graph_error);
}
