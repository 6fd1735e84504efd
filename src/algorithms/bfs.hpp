#pragma once

/// \file algorithms/bfs.hpp
/// \brief Breadth-first search: direction-optimizing BSP, pull, async
/// queue, and message-passing variants, plus the serial oracle.
///
/// BFS is the paper's cleanest showcase for the push-vs-pull pillar
/// (§III-C): push scans out-edges of the frontier (work ∝ frontier edges),
/// pull scans in-edges of *unvisited* vertices (work ∝ unvisited edges).
/// `bfs` picks between them per level with Beamer et al.'s rule whenever
/// the graph carries a CSC view — switching the frontier representation
/// (sparse ↔ dense) at the same time, which is exactly the "multiple
/// underlying representations behind one interface" claim.

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/advance_balanced.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "mpsim/communicator.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

/// BFS result: hop distances (-1 == unreached) and parents (-1 == none).
template <typename V = vertex_t>
struct bfs_result {
  std::vector<V> depths;
  std::vector<V> parents;
  std::size_t iterations = 0;
};

/// Beamer's push -> pull rule: a push level turns into a pull level when
/// the frontier's out-edges exceed the unexplored edges divided by this.
inline constexpr std::size_t bfs_push_to_pull_divisor = 14;

/// Beamer's pull -> push rule: a pull level turns back into a push level
/// when the frontier holds fewer than |V| divided by this vertices.
inline constexpr std::size_t bfs_pull_to_push_divisor = 24;

namespace detail {

template <typename G>
bfs_result<typename G::vertex_type> make_bfs_state(
    G const& g, typename G::vertex_type source, char const* who) {
  using V = typename G::vertex_type;
  expects(source >= 0 && source < g.get_num_vertices(), who);
  bfs_result<V> r;
  r.depths.assign(static_cast<std::size_t>(g.get_num_vertices()), V{-1});
  r.parents.assign(static_cast<std::size_t>(g.get_num_vertices()), V{-1});
  r.depths[static_cast<std::size_t>(source)] = V{0};
  return r;
}

/// Sum of the out-degrees of a sparse frontier — the edges a push level
/// over it would inspect.  Serial: one degree lookup per vertex is a small
/// fraction of the push level it decides, and far cheaper than a pool
/// dispatch on the many-level, small-frontier traversals of meshes.
template <typename G>
std::size_t frontier_out_edges(
    G const& g, frontier::sparse_frontier<typename G::vertex_type> const& f) {
  std::size_t total = 0;
  for (auto const v : f.active())
    total += static_cast<std::size_t>(g.get_out_degree(v));
  return total;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Direction-optimizing BSP
// ---------------------------------------------------------------------------

/// BFS.  Without a CSC view every level is a push: advance the sparse
/// frontier along out-edges, where the condition is a claim ("first
/// visitor wins") on a visited bitmap that deduplicates the output frontier
/// as a side effect.
///
/// With a CSC view the direction is chosen per level (Beamer et al.):
///  - a push level whose frontier has more out-edges than the unexplored
///    edges / `bfs_push_to_pull_divisor` converts the frontier to a bitmap
///    and pulls instead;
///  - a pull level whose frontier has fewer than |V| /
///    `bfs_pull_to_push_divisor` vertices converts back and pushes.
/// "Unexplored" starts at |E| and loses each push level's frontier
/// out-edges.  A pull level visits only unvisited vertices (the advance's
/// destination predicate) and stops at the first in-edge from the
/// frontier.  Each level is one telemetry superstep carrying the direction,
/// whether it switched, and the frontier density.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
bfs_result<typename G::vertex_type> bfs(P policy, G const& g,
                                        typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result = detail::make_bfs_state(g, source, "bfs: source out of range");
  V* const depths = result.depths.data();
  V* const parents = result.parents.data();

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  parallel::atomic_bitset visited(n);
  visited.set(static_cast<std::size_t>(source));

  frontier::sparse_frontier<V> sparse;
  sparse.add_vertex(source);
  frontier::dense_frontier<V> dense;
  bool pulling = false;
  std::size_t unexplored = static_cast<std::size_t>(g.get_num_edges());
  telemetry::recorder* const rec = telemetry::current();
  std::size_t frontier_size = 1;
  std::size_t level = 0;
  for (; frontier_size != 0; ++level) {
    V const next_depth = static_cast<V>(level + 1);
    bool switched = false;
    if constexpr (G::has_csc) {
      if (!pulling) {
        std::size_t const scout = detail::frontier_out_edges(g, sparse);
        if (scout > unexplored / bfs_push_to_pull_divisor) {
          dense = frontier::to_dense(sparse, n);
          pulling = switched = true;
        } else {
          unexplored -= scout;
        }
      } else if (frontier_size < n / bfs_pull_to_push_divisor) {
        sparse = frontier::to_sparse(dense);
        pulling = false;
        switched = true;
      }
    }

    direction_t const dir = pulling ? direction_t::pull : direction_t::push;
    if (rec) {
      rec->begin_superstep(frontier_size, dir);
      rec->set_direction(
          dir, switched,
          static_cast<double>(frontier_size) / static_cast<double>(n));
    }
    if (!pulling) {
      sparse = operators::advance_balanced(
          policy, g, sparse,
          [&visited, depths, parents, next_depth](V const src, V const dst,
                                                  E const, W const) {
            if (!visited.test_and_set(static_cast<std::size_t>(dst)))
              return false;  // someone else claimed dst
            depths[dst] = next_depth;
            parents[dst] = src;
            return true;
          });
      frontier_size = sparse.size();
    } else if constexpr (G::has_csc) {
      // Each destination belongs to one lane, so the depth/parent stores
      // need no atomics; `visited` stays coherent for a return to push.
      dense = operators::advance_pull<true>(
          policy, g, dense,
          [&visited](V const v) {
            return !visited.test(static_cast<std::size_t>(v));
          },
          [&visited, depths, parents, next_depth](V const src, V const dst,
                                                  E const, W const) {
            visited.set(static_cast<std::size_t>(dst));
            depths[dst] = next_depth;
            parents[dst] = src;
            return true;
          });
      frontier_size = dense.size();
    }
    if (rec)
      rec->end_superstep(frontier_size);
  }
  result.iterations = level;
  return result;
}

// ---------------------------------------------------------------------------
// Pull BSP
// ---------------------------------------------------------------------------

/// Pull BFS: every level is a pull over a dense frontier — each unvisited
/// vertex scans its in-edges for a parent in the frontier and stops at the
/// first hit.  Requires the CSC view.  `bfs` is faster; this is the pure
/// pull baseline it is measured against.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csc)
bfs_result<typename G::vertex_type> bfs_pull(P policy, G const& g,
                                             typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_pull: source out of range");
  V* const depths = result.depths.data();
  V* const parents = result.parents.data();

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  frontier::dense_frontier<V> f(n);
  f.add_vertex(source);

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::dense_frontier<V> in, std::size_t iteration) {
        V const next_depth = static_cast<V>(iteration + 1);
        if (auto* const rec = telemetry::current())
          rec->set_direction(direction_t::pull, false, frontier::density(in));
        // Each destination belongs to one lane, so the depth/parent stores
        // need no atomics; the "unvisited" destination predicate skips
        // settled vertices before their in-edges are read.
        return operators::advance_pull<true>(
            policy, g, in,
            [depths](V const v) { return depths[v] == V{-1}; },
            [depths, parents, next_depth](V const src, V const dst,
                                          E const /*e*/, W const /*w*/) {
              depths[dst] = next_depth;
              parents[dst] = src;
              return true;
            });
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Asynchronous (queue frontier)
// ---------------------------------------------------------------------------

/// Asynchronous BFS: consumers pop vertices and claim their neighbors with
/// an atomic-min on the depth array.  Without supersteps, "depth" loses its
/// strict level meaning during the run, but the atomic-min relaxation makes
/// the fixed point identical to BSP BFS depths on termination (it is SSSP
/// with unit weights over an integer lattice).
template <typename G>
bfs_result<typename G::vertex_type> bfs_async(G const& g,
                                              typename G::vertex_type source,
                                              std::size_t workers = 4) {
  using V = typename G::vertex_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_async: source out of range");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  // Use max() as "unreached" so atomic::min works monotonically.
  std::vector<V> depth(n, std::numeric_limits<V>::max());
  depth[static_cast<std::size_t>(source)] = V{0};
  V* const d = depth.data();

  frontier::async_queue_frontier<V> f;
  f.add_vertex(source);
  enactor::async_loop(f, workers, [&g, d, &f](V const v) {
    V const d_v = atomic::load(&d[v]);
    if (d_v == std::numeric_limits<V>::max())
      return;
    for (auto const e : g.get_edges(v)) {
      V const nb = g.get_dest_vertex(e);
      V const nd = static_cast<V>(d_v + 1);
      if (nd < atomic::min(&d[nb], nd))
        f.add_vertex(nb);
    }
  });

  for (std::size_t v = 0; v < n; ++v)
    result.depths[v] =
        depth[v] == std::numeric_limits<V>::max() ? V{-1} : depth[v];
  // Parents are not tracked in the async variant (would need a second CAS);
  // depths are the contract.
  return result;
}

// ---------------------------------------------------------------------------
// Message passing (distributed frontier)
// ---------------------------------------------------------------------------

/// Message-passing BFS built directly on the distributed frontier: each
/// rank owns vertices by `owner` (default v mod P), expands its local
/// slice, and lets `exchange()` route discovered vertices to their owners.
/// Demonstrates that the Listing 4 loop shape survives the communication
/// model swap: seed, expand, exchange, test global emptiness.
template <typename G>
bfs_result<typename G::vertex_type> bfs_message_passing(
    G const& g, typename G::vertex_type source, int num_ranks = 4,
    std::function<int(typename G::vertex_type)> owner = {}) {
  using V = typename G::vertex_type;
  expects(source >= 0 && source < g.get_num_vertices(),
          "bfs_message_passing: source out of range");
  if (!owner)
    owner = [num_ranks](V v) { return static_cast<int>(v % num_ranks); };

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  bfs_result<V> result;
  result.depths.assign(n, V{-1});
  result.parents.assign(n, V{-1});
  std::size_t iterations = 0;

  constexpr int kTagGather = 1 << 20;

  mpsim::communicator::run(num_ranks, [&](mpsim::communicator& comm, int rank) {
    std::vector<V> depth(n, V{-1});
    frontier::distributed_frontier<V> f(comm, rank, owner);
    if (owner(source) == rank)
      depth[static_cast<std::size_t>(source)] = V{0};
    f.add_vertex(source);  // remote adds are buffered; owner keeps it local

    int superstep = 0;
    V level = 0;  // BFS level of the current local set (each level costs two
                  // exchanges: expansion + owner-side dedupe)
    // Promote the seed into the current set (superstep tag 0).
    std::size_t global = f.exchange(superstep++);
    while (global != 0) {
      for (V const v : f.local()) {
        if (depth[static_cast<std::size_t>(v)] == V{-1})
          depth[static_cast<std::size_t>(v)] = level;
      }
      for (V const v : f.local()) {
        for (auto const e : g.get_edges(v)) {
          V const nb = g.get_dest_vertex(e);
          // Only the owner knows nb's visited state; optimistically forward
          // and let the owner drop revisits next superstep.
          if (owner(nb) != rank || depth[static_cast<std::size_t>(nb)] == V{-1})
            f.add_vertex(nb);
        }
      }
      global = f.exchange(superstep++);
      // Drop already-visited vertices from the received set (dedupe at the
      // owner — the message-passing analogue of the visited bitmap).
      if (global != 0) {
        std::vector<V> fresh;
        for (V const v : f.local())
          if (depth[static_cast<std::size_t>(v)] == V{-1})
            fresh.push_back(v);
        std::sort(fresh.begin(), fresh.end());
        fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
        // Replace the local set with the deduplicated fresh vertices and
        // re-reduce the global count so every rank agrees on emptiness.
        f.clear();
        for (V const v : fresh)
          f.add_vertex(v);
        global = f.exchange(superstep++);
      }
      ++level;
    }

    // Gather depths at rank 0.
    std::vector<std::uint64_t> mine;
    for (std::size_t v = 0; v < n; ++v)
      if (owner(static_cast<V>(v)) == rank && depth[v] != V{-1})
        mine.push_back((static_cast<std::uint64_t>(v) << 32) |
                       static_cast<std::uint32_t>(depth[v]));
    if (rank == 0) {
      for (std::uint64_t const w : mine)
        result.depths[static_cast<std::size_t>(w >> 32)] =
            static_cast<V>(static_cast<std::uint32_t>(w));
      for (int i = 0; i < comm.size() - 1; ++i) {
        mpsim::message_t msg;
        if (!comm.recv(0, kTagGather, msg))
          return;
        for (std::uint64_t const w : msg.payload)
          result.depths[static_cast<std::size_t>(w >> 32)] =
              static_cast<V>(static_cast<std::uint32_t>(w));
      }
      iterations = static_cast<std::size_t>(level);
    } else {
      comm.send(rank, 0, kTagGather, std::move(mine));
    }
  });

  result.iterations = iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Serial oracle
// ---------------------------------------------------------------------------

/// Textbook queue BFS (CLRS) — the exact oracle for depths and parent
/// validity.
template <typename G>
bfs_result<typename G::vertex_type> bfs_serial(
    G const& g, typename G::vertex_type source) {
  using V = typename G::vertex_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_serial: source out of range");
  std::deque<V> queue{source};
  while (!queue.empty()) {
    V const v = queue.front();
    queue.pop_front();
    for (auto const e : g.get_edges(v)) {
      V const nb = g.get_dest_vertex(e);
      if (result.depths[static_cast<std::size_t>(nb)] == V{-1}) {
        result.depths[static_cast<std::size_t>(nb)] =
            result.depths[static_cast<std::size_t>(v)] + 1;
        result.parents[static_cast<std::size_t>(nb)] = v;
        queue.push_back(nb);
        result.iterations =
            std::max(result.iterations,
                     static_cast<std::size_t>(
                         result.depths[static_cast<std::size_t>(nb)]));
      }
    }
  }
  return result;
}

}  // namespace essentials::algorithms
