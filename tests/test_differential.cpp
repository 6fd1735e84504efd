// Differential equivalence suite for the operator matrix (paper §III-C):
// every overload of advance — push seq/par/par_nosync, the Listing 3
// baseline, sparse->dense push, and pull — must compute the same function
// on the same input, across seeded random graphs and the pathological
// shapes (star, chain, self loops, isolated vertices) that historically
// expose frontier-invariant bugs.
//
// Beyond output equality, the suite cross-checks the telemetry layer:
// edges_inspected / edges_relaxed must agree across execution policies of
// one direction, and — for a pure condition without early exit — across
// *directions*, which is the comparability contract core/telemetry.hpp
// documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/advance_balanced.hpp"
#include "core/operators/filter.hpp"
#include "core/operators/neighbor_reduce.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "steal_pools.hpp"

namespace ex = essentials::execution;
namespace op = essentials::operators;
namespace fr = essentials::frontier;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::edge_t;
using essentials::weight_t;

namespace {

std::vector<vertex_t> sorted(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<vertex_t> deduped(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// --- the graph family -------------------------------------------------------

g::graph_push_pull random_graph(std::uint64_t seed) {
  auto coo = gen::erdos_renyi(/*n=*/200, /*m=*/1500, {}, seed);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

g::graph_push_pull star_graph() {
  return g::from_coo<g::graph_push_pull>(gen::star(64));
}

g::graph_push_pull chain_graph() {
  return g::from_coo<g::graph_push_pull>(gen::chain(32));
}

/// Self loops on every vertex plus a cycle — push must emit the loop
/// endpoint, pull must see the loop edge as an active in-edge.
g::graph_push_pull self_loop_graph() {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 6;
  for (vertex_t v = 0; v < 6; ++v) {
    coo.push_back(v, v, 1.f);                          // self loop
    coo.push_back(v, static_cast<vertex_t>((v + 1) % 6), 1.f);  // cycle
  }
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

/// Vertices 8..11 have no edges at all; the frontier may still contain
/// them (push expands nothing, pull never activates them).
g::graph_push_pull isolated_graph() {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 12;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 3, 1.f);
  coo.push_back(3, 0, 1.f);
  coo.push_back(1, 3, 1.f);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

// --- conditions -------------------------------------------------------------

auto const always = [](vertex_t, vertex_t, edge_t, weight_t) { return true; };

/// Pure (side-effect-free, deterministic in the edge endpoints) condition
/// that accepts roughly two thirds of the edges — the shape for which push
/// and pull must agree edge-for-edge.
auto const pure_mod = [](vertex_t s, vertex_t d, edge_t, weight_t) {
  return (static_cast<std::size_t>(s) * 7 + static_cast<std::size_t>(d) * 13) %
             3 !=
         0;
};

// --- the differential harness -----------------------------------------------

/// Run every advance variant on (graph, seeds, cond); assert the outputs
/// agree (as multisets where the representation preserves duplicates, as
/// sets where it deduplicates) and the recorded edge counts match.
template <typename Cond>
void expect_variants_agree(g::graph_push_pull const& graph,
                           std::vector<vertex_t> seeds, Cond cond) {
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  tel::trace t_seq, t_par, t_nosync, t_l3, t_balanced, t_dense, t_pull;
  tel::trace t_dedup;

  // Sequential push: the reference semantics.
  std::vector<vertex_t> ref_multiset;
  {
    tel::scoped_recording rec(t_seq, "advance.seq");
    ref_multiset = sorted(op::advance_push(ex::seq, graph, in, cond).to_vector());
  }
  std::vector<vertex_t> const ref_set = deduped(ref_multiset);

  {
    tel::scoped_recording rec(t_par, "advance.par");
    auto const out = op::advance_push(ex::par, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  {
    tel::scoped_recording rec(t_nosync, "advance.par_nosync");
    fr::sparse_frontier<vertex_t> out;
    op::advance_push(ex::par_nosync, graph, in, cond, out);
    ex::par_nosync.pool().wait_idle();  // scope outlives the barrier
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  {
    tel::scoped_recording rec(t_l3, "listing3");
    auto const out = op::neighbors_expand_listing3(ex::par, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  // Dedup turns the sparse multiset into a set (when the input frontier is
  // itself duplicate-free, which every caller of this harness guarantees).
  {
    tel::scoped_recording rec(t_dedup, "advance.par.dedup");
    auto const out = op::advance_push(ex::par.with_dedup(), graph, in, cond);
    EXPECT_EQ(deduped(out.to_vector()), ref_set);
    EXPECT_EQ(out.size(), ref_set.size());  // already a set: dedup worked
  }
  {
    // The per-element-lock publication path honors dedup too.
    auto const o2 =
        op::neighbors_expand_listing3(ex::par.with_dedup(), graph, in, cond);
    EXPECT_EQ(o2.size(), ref_set.size());
    EXPECT_EQ(deduped(o2.to_vector()), ref_set);
  }
  // The scan path's output order is deterministic for a fixed pool and
  // grain: two identical runs must produce bit-identical vectors (the
  // locked paths promise only multiset equality).
  {
    auto const a = op::advance_push(ex::par, graph, in, cond);
    auto const b = op::advance_push(ex::par, graph, in, cond);
    EXPECT_EQ(a.to_vector(), b.to_vector());
  }
  {
    tel::scoped_recording rec(t_balanced, "advance.balanced");
    auto const out = op::advance_push_edge_balanced(ex::par, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  {
    tel::scoped_recording rec(t_dense, "advance.to_dense");
    auto const out = op::advance_push_to_dense(ex::par, graph, in, cond);
    EXPECT_EQ(out.to_vector(), ref_set);  // bitmap deduplicates
  }
  {
    tel::scoped_recording rec(t_pull, "advance.pull");
    auto const din = fr::to_dense(in, n);
    auto const out = op::advance_pull<false>(ex::par, graph, din, cond);
    EXPECT_EQ(out.to_vector(), ref_set);
  }

  if (tel::compiled_in) {
    // Work counts are invariant across execution policies of one direction…
    auto const insp = t_seq.total_edges_inspected();
    auto const relx = t_seq.total_edges_relaxed();
    EXPECT_EQ(relx, ref_multiset.size());
    EXPECT_EQ(t_par.total_edges_inspected(), insp);
    EXPECT_EQ(t_par.total_edges_relaxed(), relx);
    EXPECT_EQ(t_nosync.total_edges_inspected(), insp);
    EXPECT_EQ(t_nosync.total_edges_relaxed(), relx);
    EXPECT_EQ(t_l3.total_edges_inspected(), insp);
    EXPECT_EQ(t_l3.total_edges_relaxed(), relx);
    EXPECT_EQ(t_balanced.total_edges_inspected(), insp);
    EXPECT_EQ(t_balanced.total_edges_relaxed(), relx);
    EXPECT_EQ(t_dense.total_edges_inspected(), insp);
    EXPECT_EQ(t_dense.total_edges_relaxed(), relx);
    // …and across *directions* for a pure condition without early exit
    // (the input frontier holds unique ids, so CSR-side and CSC-side
    // traversals see the same edge set).
    EXPECT_EQ(t_pull.total_edges_inspected(), insp);
    EXPECT_EQ(t_pull.total_edges_relaxed(), relx);

    // Emit accounting: scan publishes lock-free, par_nosync and Listing 3
    // publish under locks, and every relaxation is exactly one emit (no
    // dedup).
    EXPECT_EQ(t_par.total_emits_scan(), relx);
    EXPECT_EQ(t_par.total_emits_lock(), 0u);
    EXPECT_EQ(t_nosync.total_emits_lock(), relx);
    EXPECT_EQ(t_nosync.total_emits_scan(), 0u);
    EXPECT_EQ(t_l3.total_emits_lock(), relx);
    EXPECT_EQ(t_l3.total_emits_scan(), 0u);
    EXPECT_EQ(t_par.total_dedup_hits(), 0u);
    // With dedup on, emitted + suppressed == relaxed.
    EXPECT_EQ(t_dedup.total_emits_scan() + t_dedup.total_dedup_hits(), relx);
    EXPECT_EQ(t_dedup.total_emits_scan(), ref_set.size());
  }
}

}  // namespace

// --- seeded random graphs ---------------------------------------------------

TEST(Differential, RandomGraphsAllVariantsAgree) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    auto const graph = random_graph(seed);
    std::vector<vertex_t> seeds;
    for (vertex_t v = 0; v < 50; v += 3)
      seeds.push_back(v);
    expect_variants_agree(graph, seeds, always);
    expect_variants_agree(graph, seeds, pure_mod);
  }
}

TEST(Differential, FullFrontierOnRandomGraph) {
  auto const graph = random_graph(99);
  std::vector<vertex_t> seeds(static_cast<std::size_t>(graph.get_num_vertices()));
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = static_cast<vertex_t>(i);
  expect_variants_agree(graph, seeds, pure_mod);
}

// --- pathological shapes ----------------------------------------------------

TEST(Differential, StarHubFrontier) {
  auto const graph = star_graph();
  expect_variants_agree(graph, {0}, always);       // hub: 63-way fan-out
  expect_variants_agree(graph, {0}, pure_mod);
}

TEST(Differential, StarSpokeFrontier) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);  // all spokes point at the hub: max duplication
  expect_variants_agree(graph, spokes, always);
  expect_variants_agree(graph, spokes, pure_mod);
}

TEST(Differential, ChainSingleAndMulti) {
  auto const graph = chain_graph();
  expect_variants_agree(graph, {0}, always);
  expect_variants_agree(graph, {0, 5, 10, 31}, pure_mod);  // 31 has no out-edge
}

TEST(Differential, SelfLoops) {
  auto const graph = self_loop_graph();
  expect_variants_agree(graph, {0, 2, 4}, always);
  expect_variants_agree(graph, {0, 1, 2, 3, 4, 5}, pure_mod);
}

TEST(Differential, IsolatedVerticesInFrontier) {
  auto const graph = isolated_graph();
  expect_variants_agree(graph, {0, 8, 10, 11}, always);  // 8/10/11 are isolated
  expect_variants_agree(graph, {1, 9}, pure_mod);
}

// --- frontier-invariant regressions ----------------------------------------

// A vertex with several relaxing in-edges joins the pull output exactly
// once, while the condition is still evaluated (and counted) for every
// active in-edge when early_exit is false.
TEST(Differential, PullActivatesSharedNeighborOnce) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(0, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));

  auto const in =
      fr::to_dense(fr::sparse_frontier<vertex_t>(std::vector<vertex_t>{0, 1}), 4);

  std::atomic<std::size_t> evaluated{0};
  auto const counting = [&evaluated](vertex_t, vertex_t, edge_t, weight_t) {
    evaluated.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  tel::trace t;
  {
    tel::scoped_recording rec(t, "pull.shared");
    auto const out = op::advance_pull<false>(ex::seq, graph, in, counting);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{2, 3}));
    EXPECT_EQ(out.size(), 2u);
  }
  // Both in-edges of 2 and the single in-edge of 3 were evaluated — no
  // early-out just because the vertex was already activated.
  EXPECT_EQ(evaluated.load(), 3u);
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_inspected(), 3u);
    EXPECT_EQ(t.total_edges_relaxed(), 3u);
  }
}

// early_exit=true is the BFS-shaped "any parent" query: scanning stops at
// the first relaxing in-edge, so at most one relaxation per output vertex
// is recorded.
TEST(Differential, PullEarlyExitStopsAtFirstHit) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(0, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));

  auto const in =
      fr::to_dense(fr::sparse_frontier<vertex_t>(std::vector<vertex_t>{0, 1}), 4);

  tel::trace t;
  {
    tel::scoped_recording rec(t, "pull.early_exit");
    auto const out = op::advance_pull<true>(ex::seq, graph, in, always);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{2, 3}));
  }
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_relaxed(), 2u);      // one hit per output vertex
    EXPECT_LE(t.total_edges_inspected(), 3u);    // 2's scan stopped early
    EXPECT_GE(t.total_edges_inspected(), 2u);
  }
}

// The Listing 3 baseline must preserve duplicates exactly like the
// sequential reference: its per-element serialization now routes through
// sparse_frontier::add_vertex (the public API), not a raw push_back into
// the active vector.
TEST(Differential, Listing3PreservesDuplicateMultiset) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(spokes));

  auto const s = op::advance_push(ex::seq, graph, in, always);
  auto const l3 = op::neighbors_expand_listing3(ex::par, graph, in, always);
  EXPECT_EQ(sorted(l3.to_vector()), sorted(s.to_vector()));
  EXPECT_EQ(l3.size(), 63u);  // every spoke contributes the hub once
}

// Dense push output deduplicates by construction; its telemetry still
// reports every relaxation.
TEST(Differential, DensePushCountsAllRelaxationsDespiteDedup) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(spokes));

  tel::trace t;
  {
    tel::scoped_recording rec(t, "to_dense.star");
    auto const out = op::advance_push_to_dense(ex::par, graph, in, always);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{0}));  // just the hub
  }
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_relaxed(), 63u);
    EXPECT_EQ(t.total_edges_inspected(), 63u);
  }
}

// --- scan generation across the rest of the wired matrix -------------------

// The edge-balanced advance publishes through the same scan path as the
// plain push: with and without dedup it agrees with the sequential
// reference on a skewed frontier.
TEST(Differential, EdgeBalancedHonorsGenerationStrategies) {
  auto const graph = random_graph(17);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 2)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const ref =
      sorted(op::advance_push(ex::seq, graph, in, pure_mod).to_vector());
  auto const ref_set = deduped(ref);

  auto const out = op::advance_push_edge_balanced(ex::par, graph, in, pure_mod);
  EXPECT_EQ(sorted(out.to_vector()), ref);
  auto const dd =
      op::advance_push_edge_balanced(ex::par.with_dedup(), graph, in, pure_mod);
  EXPECT_EQ(dd.size(), ref_set.size());
  EXPECT_EQ(deduped(dd.to_vector()), ref_set);
}

// The edge-centric pipeline (expand_to_edges -> advance_edges) matches the
// vertex-centric push, and its scan output is bit-identical across steal
// orders.
TEST(Differential, EdgeCentricPipelineHonorsGenerationStrategies) {
  auto const graph = random_graph(23);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 5)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const ref =
      sorted(op::advance_push(ex::seq, graph, in, pure_mod).to_vector());

  essentials::testing::steal_pools pools(8);
  std::vector<std::vector<vertex_t>> outs;
  for (auto* pool : {pools.flat.get(), pools.tiered.get()}) {
    ex::parallel_policy const policy(*pool);
    auto const edges = op::expand_to_edges(policy, graph, in);
    auto const out = op::advance_edges(policy, graph, edges, pure_mod);
    EXPECT_EQ(sorted(out.to_vector()), ref);
    outs.push_back(out.to_vector());
  }
  EXPECT_EQ(outs[0], outs[1]);
}

// The parallel filter produces the sequential result exactly: scan
// compaction is deterministic and preserves input order.
TEST(Differential, FilterStrategiesAgree) {
  std::vector<vertex_t> ids;
  for (vertex_t v = 0; v < 10000; ++v)
    ids.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(ids));
  auto const pred = [](vertex_t v) { return v % 3 == 0; };

  auto const ref = op::filter(ex::seq, in, pred).to_vector();  // input order
  auto const scan_out = op::filter(ex::par, in, pred);
  EXPECT_EQ(scan_out.to_vector(), ref);  // deterministic AND order-preserving
}

// uniquify's claim bitmap rides the generation path's dedup hook: the
// parallel survivors match the sequential sort+unique, and every
// suppressed duplicate is counted.
TEST(Differential, UniquifyStrategiesProduceTheSameSet) {
  std::vector<vertex_t> dups;
  for (vertex_t v = 0; v < 512; ++v) {
    dups.push_back(v % 97);
    dups.push_back(v % 31);
  }
  auto const ref = deduped(dups);

  fr::sparse_frontier<vertex_t> f_seq{dups};
  op::uniquify(ex::seq, f_seq);
  EXPECT_EQ(f_seq.to_vector(), ref);

  fr::sparse_frontier<vertex_t> f{dups};
  tel::trace t;
  {
    tel::scoped_recording rec(t, "uniquify");
    op::uniquify(ex::par, f, /*universe=*/97);
  }
  EXPECT_EQ(deduped(f.to_vector()), ref);
  EXPECT_EQ(f.size(), ref.size());
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_dedup_hits(), dups.size() - ref.size());
    EXPECT_EQ(t.total_emits_scan(), ref.size());
    EXPECT_EQ(t.total_emits_lock(), 0u);
  }
}

// --- cross-substrate matrix: flat vs tiered stealing pools ---------------

// Pin one pool to each steal order, each with its own victim stream
// (tests/steal_pools.hpp), and assert the operator matrix computes the
// same function with *bit-identical* scan output: the output order is a
// function of the deterministic chunking contract, which both pools share,
// never of which thread ran which chunk.  Each parallel result also
// matches the sequential oracle.  The tiered pool is the NUMA-on steal
// order and the flat pool the NUMA-off one (`ESSENTIALS_NUMA=off`), so
// these tests are also the NUMA-on == NUMA-off acceptance bar.
TEST(Differential, AdvanceMatrixAgreesAcrossQueueSubstrates) {
  essentials::testing::steal_pools pools(8);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);

  for (std::uint64_t seed : {3u, 11u}) {
    auto const graph = random_graph(seed);
    std::vector<vertex_t> seeds;
    for (vertex_t v = 0; v < 200; v += 2)
      seeds.push_back(v);
    fr::sparse_frontier<vertex_t> const in(std::move(seeds));

    auto const ref =
        sorted(op::advance_push(ex::seq, graph, in, pure_mod).to_vector());
    auto const a = op::advance_push(on_flat, graph, in, pure_mod);
    auto const b = op::advance_push(on_tiered, graph, in, pure_mod);
    EXPECT_EQ(a.to_vector(), b.to_vector()) << "scan must be bit-identical";
    EXPECT_EQ(sorted(a.to_vector()), ref);
  }
}

TEST(Differential, FilterMatrixAgreesAcrossQueueSubstrates) {
  essentials::testing::steal_pools pools(8);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);

  std::vector<vertex_t> ids;
  for (vertex_t v = 0; v < 10'000; ++v)
    ids.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(ids));
  auto const pred = [](vertex_t v) { return v % 7 != 2; };

  auto const ref = op::filter(ex::seq, in, pred).to_vector();
  EXPECT_EQ(op::filter(on_flat, in, pred).to_vector(), ref);
  EXPECT_EQ(op::filter(on_tiered, in, pred).to_vector(), ref);
}

TEST(Differential, NeighborReduceMatrixAgreesAcrossQueueSubstrates) {
  essentials::testing::steal_pools pools(8);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);

  auto const graph = random_graph(31);
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 3)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const map_w = [](vertex_t, vertex_t d, edge_t, weight_t w) {
    return static_cast<double>(w) + static_cast<double>(d);
  };
  auto const combine = [](double a, double b) { return a + b; };
  auto const activate = [](vertex_t, double acc) { return acc > 8.0; };

  std::vector<double> out_ref(n, -1.0), out_a(n, -1.0), out_b(n, -1.0);
  auto const fr_ref = op::neighbor_reduce_activate(
      ex::seq, graph, in, 0.0, map_w, combine, activate, out_ref.data());
  auto const fa = op::neighbor_reduce_activate(
      on_flat, graph, in, 0.0, map_w, combine, activate, out_a.data());
  auto const fb = op::neighbor_reduce_activate(
      on_tiered, graph, in, 0.0, map_w, combine, activate, out_b.data());
  // out[v] is written once per active v, folded in edge order by one lane:
  // exact equality holds on both pools and against the sequential fold.
  EXPECT_EQ(out_a, out_ref);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(fa.to_vector(), fb.to_vector());
  EXPECT_EQ(fa.to_vector(), fr_ref.to_vector());  // scan keeps input order
}

// Dense->dense push agrees with the sparse->dense path on the same input
// set.
TEST(Differential, DenseToDenseMatchesSparseToDense) {
  auto const graph = random_graph(5);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 7)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const din = fr::to_dense(in, 200);

  auto const a = op::advance_push_to_dense(ex::par, graph, in, pure_mod);
  auto const b = op::advance_push(ex::par, graph, din, pure_mod);
  EXPECT_EQ(a.to_vector(), b.to_vector());

  auto const a_seq = op::advance_push_to_dense(ex::seq, graph, in, pure_mod);
  auto const b_seq = op::advance_push(ex::seq, graph, din, pure_mod);
  EXPECT_EQ(a_seq.to_vector(), a.to_vector());
  EXPECT_EQ(b_seq.to_vector(), b.to_vector());
}

// --- load-balance strategy matrix (execution::load_balance) ----------------

// Every work-decomposition strategy — thread_mapped, edge_balanced,
// degree_class, and auto_select resolving among them — computes the same
// function as the sequential reference, with and without dedup, on skewed
// (star, celebrity hub, rmat) and uniform (Erdos-Renyi) graphs.  Only the
// decomposition changes; the multiset of discovered neighbors must not.

namespace {

std::vector<ex::load_balance> const all_strategies{
    ex::load_balance::thread_mapped, ex::load_balance::edge_balanced,
    ex::load_balance::degree_class, ex::load_balance::auto_select};

g::graph_push_pull skewed_rmat_graph(std::uint64_t seed = 5) {
  gen::rmat_options opt;
  opt.scale = 9;
  opt.edge_factor = 8;
  opt.seed = seed;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo),
                                         g::duplicate_policy::keep_min);
}

/// A hub crossing the degree-class *huge* cutoff (4096): star(5000)'s
/// center has out-degree 4999, so degree_class takes the cooperative
/// expansion path, not just the medium bucket.
g::graph_push_pull celebrity_graph() {
  return g::from_coo<g::graph_push_pull>(gen::star(5000));
}

template <typename Cond>
void expect_strategies_agree(g::graph_push_pull const& graph,
                             std::vector<vertex_t> seeds, Cond cond) {
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const ref =
      sorted(op::advance_push(ex::seq, graph, in, cond).to_vector());
  auto const ref_set = deduped(ref);

  for (auto const lb : all_strategies) {
    auto const policy = ex::par.with_load_balance(lb);
    auto const out = op::advance_balanced(policy, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref) << "strategy=" << ex::to_string(lb);
    auto const dd = op::advance_balanced(policy.with_dedup(), graph, in, cond);
    EXPECT_EQ(dd.size(), ref_set.size()) << "strategy=" << ex::to_string(lb);
    EXPECT_EQ(deduped(dd.to_vector()), ref_set);
    // Sequential policies take the reference path regardless of strategy
    // (the balance axis lives on parallel_policy only).
    auto const s = op::advance_balanced(ex::seq, graph, in, cond);
    EXPECT_EQ(sorted(s.to_vector()), ref);
  }
}

}  // namespace

TEST(LoadBalanceDifferential, StarHubAndSpokes) {
  auto const graph = star_graph();
  expect_strategies_agree(graph, {0}, always);  // hub fan-out (medium class)
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);
  expect_strategies_agree(graph, spokes, pure_mod);  // max duplication
}

TEST(LoadBalanceDifferential, CelebrityHubCrossesHugeCutoff) {
  auto const graph = celebrity_graph();
  expect_strategies_agree(graph, {0}, always);  // 4999-way cooperative expand
  expect_strategies_agree(graph, {0}, pure_mod);
}

TEST(LoadBalanceDifferential, SkewedRmatFrontiers) {
  auto const graph = skewed_rmat_graph();
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 512; v += 3)
    seeds.push_back(v);
  expect_strategies_agree(graph, seeds, pure_mod);
  // Full frontier: every degree class is populated at once.
  std::vector<vertex_t> all(512);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<vertex_t>(i);
  expect_strategies_agree(graph, all, always);
}

TEST(LoadBalanceDifferential, UniformRandomFrontiers) {
  auto const graph = random_graph(13);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 2)
    seeds.push_back(v);
  expect_strategies_agree(graph, seeds, always);
  expect_strategies_agree(graph, seeds, pure_mod);
}

// Without dedup each strategy's output order is a deterministic function
// of the chunking contract, which flat and tiered pools share: the two
// steal orders (with different victim streams) must be *bit-identical*,
// and two runs on one pool must reproduce the same vector.
TEST(LoadBalanceDifferential, BitIdenticalAcrossSubstratesPerStrategy) {
  essentials::testing::steal_pools pools(8);
  ex::parallel_policy const on_flat(*pools.flat);
  ex::parallel_policy const on_tiered(*pools.tiered);

  for (auto const& graph : {skewed_rmat_graph(7), celebrity_graph()}) {
    std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
    std::vector<vertex_t> seeds;
    for (std::size_t v = 0; v < n; v += 2)
      seeds.push_back(static_cast<vertex_t>(v));
    fr::sparse_frontier<vertex_t> const in(std::move(seeds));

    for (auto const lb : all_strategies) {
      auto const a = op::advance_balanced(on_flat.with_load_balance(lb),
                                          graph, in, pure_mod);
      auto const b = op::advance_balanced(on_tiered.with_load_balance(lb),
                                          graph, in, pure_mod);
      EXPECT_EQ(a.to_vector(), b.to_vector())
          << "strategy=" << ex::to_string(lb) << " must be bit-identical";
      auto const a2 = op::advance_balanced(on_flat.with_load_balance(lb),
                                           graph, in, pure_mod);
      EXPECT_EQ(a.to_vector(), a2.to_vector()) << "two-run determinism";
    }
  }
}

// auto_select records its per-superstep decision in telemetry (schema v7):
// the advance_balanced op record carries the resolved strategy name and
// lb_auto == true; fixed strategies record lb_auto == false.
TEST(LoadBalanceDifferential, AutoDecisionLandsInTelemetry) {
  auto const graph = skewed_rmat_graph(3);
  std::vector<vertex_t> seeds(256);
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = static_cast<vertex_t>(i * 2);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  tel::trace t_auto, t_fixed;
  {
    tel::scoped_recording rec(t_auto, "auto");
    op::advance_balanced(ex::par.with_load_balance(ex::load_balance::auto_select),
                         graph, in, always);
  }
  {
    tel::scoped_recording rec(t_fixed, "fixed");
    op::advance_balanced(
        ex::par.with_load_balance(ex::load_balance::edge_balanced), graph, in,
        always);
  }
  if (tel::compiled_in) {
    bool saw_auto = false, saw_fixed = false;
    for (auto const& s : t_auto.supersteps)
      for (auto const& o : s.ops)
        if (o.name == "advance_balanced" && !o.load_balance.empty()) {
          saw_auto = true;
          EXPECT_TRUE(o.lb_auto);
          EXPECT_NE(o.load_balance, "auto_select");  // resolved, not echoed
        }
    for (auto const& s : t_fixed.supersteps)
      for (auto const& o : s.ops)
        if (o.name == "advance_balanced" && !o.load_balance.empty()) {
          saw_fixed = true;
          EXPECT_FALSE(o.lb_auto);
          EXPECT_EQ(o.load_balance, "edge_balanced");
        }
    EXPECT_TRUE(saw_auto);
    EXPECT_TRUE(saw_fixed);
  }
}

// The strategy matrix holds on compressed (block-coded) adjacency too:
// same multiset as flat CSR, bit-identical between flat and compressed
// under scan (both decode edges in CSR order).
TEST(LoadBalanceDifferential, CompressedGraphStrategiesAgree) {
  gen::rmat_options opt;
  opt.scale = 9;
  opt.edge_factor = 8;
  opt.seed = 29;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  auto const csr = g::build_csr(coo);
  g::graph_csr flat;
  flat.set_csr(csr);
  g::compressed_graph<> cg(csr);

  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 512; v += 2)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const ref =
      sorted(op::advance_push(ex::seq, flat, in, pure_mod).to_vector());
  for (auto const lb : all_strategies) {
    auto const a = op::advance_balanced(ex::par.with_load_balance(lb), flat,
                                        in, pure_mod);
    auto const b = op::advance_balanced(ex::par.with_load_balance(lb), cg, in,
                                        pure_mod);
    EXPECT_EQ(sorted(a.to_vector()), ref) << ex::to_string(lb);
    EXPECT_EQ(a.to_vector(), b.to_vector())
        << "flat vs compressed, strategy=" << ex::to_string(lb);
  }
}

// neighbor_reduce_activate under degree_class folds hub neighborhoods
// cooperatively; with an integer-valued map/combine the folded values and
// the surviving frontier must match the thread-mapped path exactly.
TEST(LoadBalanceDifferential, NeighborReduceDegreeClassMatchesThreadMapped) {
  auto const graph = celebrity_graph();
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  std::vector<vertex_t> seeds{0};  // the hub
  for (vertex_t v = 1; v < 100; v += 2)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const map_i = [](vertex_t, vertex_t d, edge_t, weight_t) {
    return static_cast<double>(d % 17);  // integer-valued: exact under any
  };                                     // association
  auto const combine = [](double a, double b) { return a + b; };
  auto const activate = [](vertex_t, double acc) { return acc > 4.0; };

  std::vector<double> out_tm(n, -1.0), out_dc(n, -1.0), out_auto(n, -1.0);
  auto const f_tm = op::neighbor_reduce_activate(
      ex::par, graph, in, 0.0, map_i, combine, activate, out_tm.data());
  auto const f_dc = op::neighbor_reduce_activate(
      ex::par.with_load_balance(ex::load_balance::degree_class), graph, in,
      0.0, map_i, combine, activate, out_dc.data());
  auto const f_auto = op::neighbor_reduce_activate(
      ex::par.with_load_balance(ex::load_balance::auto_select), graph, in,
      0.0, map_i, combine, activate, out_auto.data());

  EXPECT_EQ(out_tm, out_dc);
  EXPECT_EQ(out_tm, out_auto);
  EXPECT_EQ(sorted(f_tm.to_vector()), sorted(f_dc.to_vector()));
  EXPECT_EQ(sorted(f_tm.to_vector()), sorted(f_auto.to_vector()));

  // Determinism of the cooperative path itself.
  std::vector<double> out_dc2(n, -1.0);
  auto const f_dc2 = op::neighbor_reduce_activate(
      ex::par.with_load_balance(ex::load_balance::degree_class), graph, in,
      0.0, map_i, combine, activate, out_dc2.data());
  EXPECT_EQ(out_dc, out_dc2);
  EXPECT_EQ(f_dc.to_vector(), f_dc2.to_vector());
}
