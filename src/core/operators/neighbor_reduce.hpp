#pragma once

/// \file core/operators/neighbor_reduce.hpp
/// \brief Neighborhood reduction operator: for each vertex of a frontier
/// (or of the whole graph), fold a value over its incident edges — the
/// gather half of gather-apply-scatter, as a first-class operator.
///
/// `neighbor_reduce` folds over *out*-edges (CSR); `in_neighbor_reduce`
/// folds over *in*-edges (CSC) — the pull-side gather PageRank/HITS-style
/// fixed points are built from.  The map lambda sees the full
/// {src, dst, edge, weight} tuple (paper §III-C); results land in a
/// caller-provided output array indexed by vertex, so no atomics are
/// needed: each vertex's fold is owned by one lane.
///
/// `neighbor_reduce_activate` closes the GAS loop: gather, then feed each
/// vertex's folded value to an *activate* predicate; survivors form the
/// next sparse frontier, published by lock-free scan compaction
/// (core/frontier/generate.hpp).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/advance_balanced.hpp"
#include "core/operators/compute.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomic_bitset.hpp"

namespace essentials::operators {

/// out[v] = fold of map(v, dst, e, w) over v's out-edges, for every vertex
/// v in the graph.
template <typename P, typename G, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csr)
void neighbor_reduce(P policy, G const& g, R identity, MapF map,
                     CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute_vertices(policy, g, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_edges(v))
      acc = combine(acc, map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// out[v] = fold of map(src, v, e, w) over v's in-edges (pull gather).
template <typename P, typename G, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csc)
void in_neighbor_reduce(P policy, G const& g, R identity, MapF map,
                        CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute_vertices(policy, g, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_in_edges(v))
      acc = combine(acc, map(g.get_in_source_vertex(e), v, e,
                             g.get_in_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// Frontier-restricted variant: only active vertices fold; inactive
/// entries of `out` are untouched.
template <typename P, typename G, typename T, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csr)
void neighbor_reduce(P policy, G const& g,
                     frontier::sparse_frontier<T> const& f, R identity,
                     MapF map, CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute(policy, f, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_edges(v))
      acc = combine(acc, map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// Gather-and-activate: fold each active vertex's out-neighborhood like the
/// frontier-restricted `neighbor_reduce` (results land in `out[v]`), then
/// keep the vertex in the returned frontier iff `activate(v, acc)` is true.
/// This is the operator shape iterative gather algorithms (delta-PageRank,
/// label propagation) use to shrink their active set each round.
///
/// The output frontier is produced by the policy's generation strategy and
/// honors `policy.dedup` (a no-op when the input frontier is already a
/// set, but it keeps repeated activations out when the caller's input
/// carries duplicates).  The per-index body does O(out-degree) work, so
/// the parallel branch uses `policy.edge_grain`.
///
/// Load balancing (`policy.balance`): a fold's output slot is owned by its
/// vertex, so the edge-balanced decomposition (which splits a vertex's fold
/// across lanes mid-stream) does not apply and resolves to thread-mapped.
/// `degree_class` (and `auto_select` resolving to it) *does* apply: hub
/// vertices with out-degree >= the huge cutoff are folded cooperatively —
/// every lane folds a block of the hub's edges into a private partial and
/// the partials are combined in block order.  This changes the combine
/// *association* (not the operand order), so it is bit-identical for
/// integer folds and exact for any associative combine; floating-point
/// combines may see reassociation-level differences on hubs, same as any
/// blocked reduction.  The decision lands in telemetry (schema v7).
template <typename P, typename G, typename T, typename R, typename MapF,
          typename CombineF, typename ActivateF>
  requires execution::synchronous_policy<P> && (G::has_csr)
frontier::sparse_frontier<T> neighbor_reduce_activate(
    P policy, G const& g, frontier::sparse_frontier<T> const& f, R identity,
    MapF map, CombineF combine, ActivateF activate, R* out) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("neighbor_reduce_activate", policy, f.size());
  frontier::sparse_frontier<T> next;
  auto const& active = f.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t folded = 0, activated = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      V const v = active[i];
      R acc = identity;
      for (auto const e : g.get_edges(v)) {
        acc = combine(acc,
                      map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
        ++folded;
      }
      out[static_cast<std::size_t>(v)] = acc;
      if (activate(v, acc)) {
        ++activated;
        emit(v);
      }
    }
    probe.add_edges(folded, activated);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    using E = typename G::edge_type;
    using lb = execution::load_balance;
    auto& pool = policy.pool();
    lb strategy = policy.balance;
    bool const autod = strategy == lb::auto_select;
    if (autod) {
      strategy = detail::auto_select_strategy(
          active.size(), graph::cached_out_degree_stats(g), pool.size() + 1,
          policy.edge_grain_floor);
    }
    // Vertex-aligned output: edge_balanced cannot split a fold, so only
    // the degree-class hub treatment applies (see the doc comment).
    bool coop = strategy == lb::degree_class;
    std::vector<std::size_t> huge_idx;  // indices into active[], in order
    if (coop) {
      for (std::size_t i = 0; i < active.size(); ++i)
        if (static_cast<std::size_t>(g.get_out_degree(active[i])) >=
            detail::degree_class_huge_cutoff)
          huge_idx.push_back(i);
      coop = !huge_idx.empty();
    }
    parallel::atomic_bitset* const dedup = detail::dedup_filter(
        policy, static_cast<std::size_t>(g.get_num_vertices()));
    frontier::generate_stats stats;
    if (!coop) {
      stats = frontier::generate_scan(pool, active.size(), policy.edge_grain,
                                      next, chunk, dedup);
      if (policy.balance != lb::thread_mapped)
        probe.set_load_balance("thread_mapped", autod);
    } else {
      // Main phase: thread-mapped fold over everything but the hubs (same
      // chunk boundaries as the plain path — hubs are skipped in place, so
      // the survivor order is a subsequence of the plain path's).
      auto const chunk_skip = [&](std::size_t lo, std::size_t hi,
                                  auto&& emit) {
        std::size_t folded = 0, activated = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          V const v = active[i];
          if (static_cast<std::size_t>(g.get_out_degree(v)) >=
              detail::degree_class_huge_cutoff)
            continue;
          R acc = identity;
          for (auto const e : g.get_edges(v)) {
            acc = combine(
                acc, map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
            ++folded;
          }
          out[static_cast<std::size_t>(v)] = acc;
          if (activate(v, acc)) {
            ++activated;
            emit(v);
          }
        }
        probe.add_edges(folded, activated);
      };
      stats = frontier::generate_scan(pool, active.size(), policy.edge_grain,
                                      next, chunk_skip, dedup);

      // Hub phase: every lane folds a block of the hub's edge range into a
      // private partial (chunk `lo / step` owns its slot); partials are
      // combined serially in block order.  Activations append after the
      // main phase, in frontier order.
      for (std::size_t const i : huge_idx) {
        V const v = active[i];
        auto const edges = g.get_edges(v);
        E const base = *edges.begin();
        std::size_t const deg =
            static_cast<std::size_t>(g.get_out_degree(v));
        std::size_t const step = frontier::detail::chunk_step(
            pool, deg,
            std::max<std::size_t>(policy.grain, policy.edge_grain_floor));
        std::size_t const blocks = (deg + step - 1) / step;
        std::vector<R> partials(blocks, identity);
        pool.run_blocked(
            deg,
            [&](std::size_t lo, std::size_t hi) {
              R acc = identity;
              for (std::size_t k = lo; k < hi; ++k) {
                E const e = static_cast<E>(base + static_cast<E>(k));
                acc = combine(acc, map(v, g.get_dest_vertex(e), e,
                                       g.get_edge_weight(e)));
              }
              partials[lo / step] = acc;
            },
            step);
        R acc = identity;
        for (std::size_t b = 0; b < blocks; ++b)
          acc = combine(acc, partials[b]);
        out[static_cast<std::size_t>(v)] = acc;
        bool const act = activate(v, acc);
        probe.add_edges(deg, act ? 1 : 0);
        if (act) {
          if (dedup != nullptr &&
              !dedup->test_and_set(static_cast<std::size_t>(v))) {
            ++stats.dedup_hits;
          } else {
            next.active().push_back(v);
            ++stats.emitted;
          }
        }
      }
      probe.set_load_balance("degree_class", autod);
    }
    detail::flush_generate_stats(probe, stats);
  } else {
    auto emit = [&next](T v) { next.active().push_back(v); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(next.size());
  return next;
}

}  // namespace essentials::operators
