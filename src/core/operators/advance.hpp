#pragma once

/// \file core/operators/advance.hpp
/// \brief The advance (neighbor-expand) operator family — paper Listing 3
/// generalized across traversal directions, frontier representations, and
/// execution policies.
///
/// An advance maps an input frontier to an output frontier by visiting the
/// edges incident to the input's elements and applying a user *condition*
/// lambda on the tuple {source vertex, destination vertex, edge, weight}
/// (paper §III-C).  An edge whose condition returns true contributes its
/// far endpoint to the output frontier.
///
/// Overload matrix (all share one semantic, per the paper's requirement
/// that "the operator's functionality [be] identical, even as its
/// underlying execution changes"):
///  - policy: `seq` (invoking thread) / `par` (pool + implicit barrier) /
///    `par_nosync` (pool, no barrier — caller owns synchronization).
///  - direction: `advance_push` walks out-edges via CSR;
///    `advance_pull` walks in-edges via CSC, asking whether any *active*
///    predecessor satisfies the condition.
///  - representation: sparse -> sparse, sparse -> dense, dense -> dense.
///
/// Synchronous parallel overloads generate sparse outputs with lane buffers
/// + prefix-sum compaction (`frontier::generate_scan`,
/// core/frontier/generate.hpp): zero locks and zero atomics on the
/// output path, deterministic output order.  `par_nosync` has no barrier
/// to compact behind, so it publishes each task's local buffer with one
/// short lock (CP.43).  The paper's per-element-lock formulation survives
/// as one named example, `neighbors_expand_listing3`.  `policy.dedup`
/// additionally suppresses duplicate output vertices with an atomic claim
/// bitmap (output becomes a set; condition side effects still run for
/// every relaxing edge).
///
/// Telemetry: every overload opens a `telemetry::op_probe` and counts
/// *edges inspected* (condition evaluated) and *edges relaxed* (condition
/// returned true) in lane-local registers, flushed per chunk; sparse
/// generation additionally reports lock-free vs locked emit counts, dedup
/// hits, and lane-scratch reuse.  With no recording scope active this
/// costs one thread-local pointer test per call; with telemetry compiled
/// out it costs nothing (the counters become dead stores).  The counts are
/// defined so push and pull agree on a pure condition without early exit —
/// the cross-direction invariant the differential suite
/// (tests/test_differential.cpp) asserts.

#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/for_each.hpp"

namespace essentials::operators {

/// Concept for the user condition: callable on (src, dst, edge, weight).
template <typename F, typename G>
concept advance_condition =
    std::invocable<F, typename G::vertex_type, typename G::vertex_type,
                   typename G::edge_type, typename G::weight_type>;

namespace detail {

/// The dedup claim bitmap for a parallel policy, or nullptr when dedup is
/// off (thread-local scratch; cleared per call).
inline parallel::atomic_bitset* dedup_filter(
    execution::parallel_policy const& policy, std::size_t universe) {
  return policy.dedup ? &frontier::dedup_scratch(policy.pool(), universe)
                      : nullptr;
}

/// Flush a scan-generation round's stats into the operator probe.
inline void flush_generate_stats(telemetry::op_probe const& probe,
                                 frontier::generate_stats const& stats) {
  probe.add_emits(stats.emitted, 0, stats.dedup_hits);
  probe.set_scratch_reused(stats.scratch_reused);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Push advance: sparse -> sparse
// ---------------------------------------------------------------------------

/// Sequential push advance — the reference semantics.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push(
    execution::sequenced_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push.seq", policy, in.size());
  frontier::sparse_frontier<V> out;
  std::size_t inspected = 0, relaxed = 0;
  for (V const v : in.active()) {
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      ++inspected;
      if (cond(v, n, e, w)) {
        ++relaxed;
        out.add_vertex(n);
      }
    }
  }
  probe.add_edges(inspected, relaxed);
  probe.set_items_out(out.size());
  return out;
}

/// Parallel synchronous push advance (one BSP superstep).  The sparse
/// output is generated by lock-free scan compaction, with optional
/// claim-bitmap dedup (`policy.dedup`).
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push(
    execution::parallel_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push.par", policy, in.size());
  frontier::sparse_frontier<V> out;
  auto const& active = in.active();
  parallel::atomic_bitset* const dedup = detail::dedup_filter(
      policy, static_cast<std::size_t>(g.get_num_vertices()));
  auto const stats = frontier::generate_scan(
      policy.pool(), active.size(), policy.edge_grain, out,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        std::size_t inspected = 0, relaxed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          V const v = active[i];
          for (auto const e : g.get_edges(v)) {
            V const n = g.get_dest_vertex(e);
            auto const w = g.get_edge_weight(e);
            ++inspected;
            if (cond(v, n, e, w)) {
              ++relaxed;
              emit(n);
            }
          }
        }
        probe.add_edges(inspected, relaxed);
      },
      dedup);
  detail::flush_generate_stats(probe, stats);
  probe.set_items_out(out.size());
  return out;
}

/// Parallel asynchronous push advance: chunks are launched and the call
/// returns immediately; the caller synchronizes via
/// `policy.pool().wait_idle()` (or not at all).  Output is appended to the
/// caller-owned `out` frontier.  There is no barrier behind which to run a
/// compaction phase, so each task buffers locally and publishes with one
/// locked `append_bulk`.  The telemetry record retires when the last chunk
/// finishes (items_out is not sampled — the output is still owned by the
/// caller); keep any recording scope alive across the eventual
/// `wait_idle()`.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
void advance_push(execution::parallel_nosync_policy policy, G const& g,
                  frontier::sparse_frontier<typename G::vertex_type> const& in,
                  Cond cond,
                  frontier::sparse_frontier<typename G::vertex_type>& out) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe("advance_push.par_nosync", policy,
                                           in.size(), /*async=*/true);
  auto const state = probe.share();  // null when not recording
  auto const& active = in.active();
  parallel::parallel_for_nowait(
      policy.pool(), std::size_t{0}, active.size(),
      [&g, &active, &out, cond, state](std::size_t i) {
        V const v = active[i];
        std::vector<V> local;
        std::size_t inspected = 0, relaxed = 0;
        for (auto const e : g.get_edges(v)) {
          V const n = g.get_dest_vertex(e);
          auto const w = g.get_edge_weight(e);
          ++inspected;
          if (cond(v, n, e, w)) {
            ++relaxed;
            local.push_back(n);
          }
        }
        out.append_bulk(local.data(), local.size());
        telemetry::flush_edges(state, inspected, relaxed);
        telemetry::flush_emits(state, 0, relaxed);
      },
      policy.edge_grain);
}

/// Paper Listing 3, verbatim semantics: parallel push advance whose output
/// appends are serialized *per discovered neighbor* — the lock is the one
/// inside `sparse_frontier::add_vertex` (Listing 3's mutex-protected
/// `output.add_vertex(n)`), so the example exercises the public frontier
/// API rather than poking `active()` directly.  Same output multiset as
/// `advance_push(par, ...)`, in racy order; bench_operators and
/// bench_frontiers measure it against scan compaction.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> neighbors_expand_listing3(
    execution::parallel_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("neighbors_expand_listing3.par", policy, in.size());
  frontier::sparse_frontier<V> out;
  auto const& active = in.active();
  parallel::atomic_bitset* const dedup = detail::dedup_filter(
      policy, static_cast<std::size_t>(g.get_num_vertices()));
  policy.pool().run_blocked(
      active.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::size_t inspected = 0, relaxed = 0, emitted = 0, hits = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          V const v = active[i];
          for (auto const e : g.get_edges(v)) {
            V const n = g.get_dest_vertex(e);
            auto const w = g.get_edge_weight(e);
            ++inspected;
            if (!cond(v, n, e, w))
              continue;
            ++relaxed;
            if (dedup != nullptr &&
                !dedup->test_and_set(static_cast<std::size_t>(n))) {
              ++hits;
              continue;
            }
            out.add_vertex(n);  // per-element lock inside the frontier
            ++emitted;
          }
        }
        probe.add_edges(inspected, relaxed);
        probe.add_emits(0, emitted, hits);
      },
      policy.edge_grain);
  probe.set_items_out(out.size());
  return out;
}

/// The paper's name for push advance.  `neighbors_expand(policy, g, f,
/// cond)` reads exactly like Listing 3/4.
template <typename P, typename G, typename Cond>
auto neighbors_expand(P&& policy, G const& g,
                      frontier::sparse_frontier<typename G::vertex_type> const& in,
                      Cond cond) {
  return advance_push(std::forward<P>(policy), g, in, cond);
}

// ---------------------------------------------------------------------------
// Push advance: sparse -> dense and dense -> dense
// ---------------------------------------------------------------------------

/// Push advance producing a dense (bitmap) output frontier: discovered
/// neighbors are recorded with atomic bit-sets, which deduplicates the
/// output for free.  Works for both seq and par policies.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::dense_frontier<typename G::vertex_type> advance_push_to_dense(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push_to_dense", policy, in.size());
  frontier::dense_frontier<V> out(
      static_cast<std::size_t>(g.get_num_vertices()));
  auto const& active = in.active();
  auto const body = [&](std::size_t i) {
    V const v = active[i];
    std::size_t inspected = 0, relaxed = 0;
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      ++inspected;
      if (cond(v, n, e, w)) {
        ++relaxed;
        out.add_vertex(n);
      }
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::parallel_for(policy.pool(), std::size_t{0}, active.size(), body,
                           policy.edge_grain);
  } else {
    for (std::size_t i = 0; i < active.size(); ++i)
      body(i);
  }
  if (probe)
    probe.set_items_out(out.size());  // popcount: only pay when recording
  return out;
}

/// Dense -> dense push advance: iterate set bits of the input bitmap.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::dense_frontier<typename G::vertex_type> advance_push(
    P policy, G const& g,
    frontier::dense_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe(
      "advance_push.dense", policy, telemetry::probe_items(in));
  frontier::dense_frontier<V> out(in.universe());
  auto const& bits = in.bits();
  auto const word_body = [&](std::size_t wi) {
    std::uint64_t word = bits.load_word(wi);
    std::size_t inspected = 0, relaxed = 0;
    while (word != 0) {
      unsigned const b = static_cast<unsigned>(__builtin_ctzll(word));
      word &= word - 1;
      V const v = static_cast<V>(wi * 64 + b);
      for (auto const e : g.get_edges(v)) {
        V const n = g.get_dest_vertex(e);
        auto const w = g.get_edge_weight(e);
        ++inspected;
        if (cond(v, n, e, w)) {
          ++relaxed;
          out.add_vertex(n);
        }
      }
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    // One word covers 64 vertices, so the per-word grain divides the
    // (already edge-weighted) advance grain by 64, floored at 1.
    parallel::parallel_for(policy.pool(), std::size_t{0}, bits.num_words(),
                           word_body,
                           std::max<std::size_t>(policy.edge_grain / 64, 1));
  } else {
    for (std::size_t wi = 0; wi < bits.num_words(); ++wi)
      word_body(wi);
  }
  if (probe)
    probe.set_items_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Pull advance (CSC)
// ---------------------------------------------------------------------------

/// Pull advance: every vertex of the graph scans its *in*-edges and asks
/// whether an active predecessor satisfies the condition; if so the vertex
/// joins the output frontier.  The input must support O(1) membership
/// (dense frontier).  `early_exit` stops scanning a vertex's in-edges at
/// the first hit — correct for BFS-like "any parent" programs; keep false
/// for programs that must see every incident active edge (e.g. pull SSSP
/// relaxations).
///
/// Output invariant: a vertex is activated through the public frontier API
/// exactly once, no matter how many of its in-edges relax — the condition
/// is still evaluated for *every* active in-edge when `early_exit` is
/// false (relaxation side effects must all run), but repeat hits no longer
/// re-activate the output.  Telemetry `edges_inspected` counts only edges
/// whose source is active (the membership probe is not an inspection), so
/// the count is comparable with the push direction.
template <bool early_exit = false, typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G> &&
           (G::has_csc)
frontier::dense_frontier<typename G::vertex_type> advance_pull(
    P policy, G const& g,
    frontier::dense_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  auto const probe =
      telemetry::make_probe("advance_pull", policy, telemetry::probe_items(in));
  frontier::dense_frontier<V> out(n);
  auto const body = [&](std::size_t vi) {
    V const v = static_cast<V>(vi);
    std::size_t inspected = 0, relaxed = 0;
    bool added = false;
    for (auto const e : g.get_in_edges(v)) {
      V const u = g.get_in_source_vertex(e);
      if (!in.contains(u))
        continue;
      auto const w = g.get_in_edge_weight(e);
      ++inspected;
      if (cond(u, v, e, w)) {
        ++relaxed;
        if (!added) {
          out.add_vertex(v);
          added = true;
        }
        if constexpr (early_exit)
          break;
      }
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::parallel_for(policy.pool(), std::size_t{0}, n, body,
                           policy.edge_grain);
  } else {
    for (std::size_t vi = 0; vi < n; ++vi)
      body(vi);
  }
  if (probe)
    probe.set_items_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Edge-centric advance
// ---------------------------------------------------------------------------

/// Expand a vertex frontier into the frontier of its incident out-edge ids
/// (vertex-centric -> edge-centric handoff, paper §III-C's edge frontier).
/// Parallel policies generate through scan compaction (edge ids are unique
/// by construction, so dedup never applies).
template <typename P, typename G>
  requires execution::synchronous_policy<P>
frontier::sparse_frontier<typename G::edge_type> expand_to_edges(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in) {
  using E = typename G::edge_type;
  auto const probe = telemetry::make_probe("expand_to_edges", policy, in.size());
  frontier::sparse_frontier<E> out;
  auto const& active = in.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (auto const e : g.get_edges(active[i])) {
        emit(e);
        ++count;
      }
    probe.add_edges(count, count);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    auto const stats = frontier::generate_scan(
        policy.pool(), active.size(), policy.edge_grain, out, chunk);
    detail::flush_generate_stats(probe, stats);
  } else {
    auto emit = [&out](E e) { out.active().push_back(e); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(out.size());
  return out;
}

/// Edge-centric advance: the input frontier holds CSR edge ids; the
/// condition sees the usual {src, dst, edge, weight} tuple and a true
/// return contributes the edge's destination vertex to the output.
/// Parallel policies generate through scan compaction and honor
/// `policy.dedup`.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_edges(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::edge_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe("advance_edges", policy, in.size());
  frontier::sparse_frontier<V> out;
  auto const& active = in.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t relaxed = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      auto const e = active[i];
      V const src = g.get_source_vertex(e);
      V const dst = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      if (cond(src, dst, e, w)) {
        emit(dst);
        ++relaxed;
      }
    }
    probe.add_edges(hi - lo, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::atomic_bitset* const dedup = detail::dedup_filter(
        policy, static_cast<std::size_t>(g.get_num_vertices()));
    // Edge-centric bodies do O(1) work per index: use the element grain.
    auto const stats = frontier::generate_scan(
        policy.pool(), active.size(), policy.grain, out, chunk, dedup);
    detail::flush_generate_stats(probe, stats);
  } else {
    auto emit = [&out](V v) { out.active().push_back(v); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(out.size());
  return out;
}

}  // namespace essentials::operators
