#pragma once

/// \file algorithms/incremental.hpp
/// \brief Incremental (delta-seeded, warm-start) enactors for the monotone
/// algorithms: SSSP, BFS and connected components.
///
/// The observation (GraphLab; McCune et al.'s TLAV survey; Maiter's
/// delta-accumulation): for *monotone* label-correcting vertex programs, a
/// previous epoch's converged result remains a valid set of upper bounds
/// after edges are **inserted** (or weights decreased), because more edges
/// can only improve distances/depths/labels.  Re-enacting Listing 4 from a
/// full source frontier re-derives everything; seeding the frontier from
/// the delta's source endpoints instead re-derives only the cone the new
/// edges actually improve — usually a few supersteps over a few vertices.
///
/// Correctness argument (the reason warm results are bit-identical to
/// cold): seed the frontier with every delta-record source endpoint whose
/// previous label is finite, then run the *unchanged* relaxation against
/// the *new* snapshot.  At convergence no edge out of any improved-or-
/// seeded vertex improves anything; edges out of never-improved vertices
/// were stable in the old graph, and new edges out of unreached vertices
/// cannot relax (their source becomes finite only by improving — which
/// puts it on the frontier, where all its out-edges, including the new
/// ones, get relaxed).  Stability plus valid upper bounds pins the unique
/// fixed point — the same one the cold enactment reaches, including
/// float-for-float for SSSP (both runs minimize over the same set of
/// left-folded path sums).
///
/// Spurious delta records (superset semantics, graph/delta.hpp) only seed
/// extra vertices whose relaxations fail — wasted work, never wrong
/// results.  Record weights are advisory and deliberately *unused* here:
/// relaxation always reads the snapshot's authoritative weights.
///
/// Connected components instead link the delta's edges into the previous
/// labels and compress (see `connected_components_incremental`).
///
/// Deletions, in-place weight increases and truncated logs break the
/// upper-bound property; each enactor detects this (`insert_only()` /
/// `complete`) and transparently falls back to the cold algorithm.  The
/// `incremental_outcome` out-param reports which path ran, so the engine
/// can count warm-start hits vs delta fallbacks (telemetry schema v4).
///
/// Note on `iterations` and BFS parents: a warm-started result converges
/// in fewer supersteps, so the result's `iterations` field differs from a
/// cold run's — "bit-identical" covers the *payload* (distances / depths /
/// labels).  Warm BFS maintains (depth, parent) in one packed 64-bit CAS,
/// yielding exact depths and *a* valid BFS tree (the same contract as the
/// cold parallel claim-based BFS, whose parents are also run-dependent).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/sssp.hpp"
#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/compute.hpp"
#include "core/operators/filter.hpp"
#include "core/types.hpp"
#include "graph/delta.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

/// How an incremental enactment went: which path ran and what it saved.
struct incremental_outcome {
  bool warm_started = false;  ///< false ⇒ fell back to the cold algorithm
  std::size_t delta_edges = 0;       ///< compacted delta records consumed
  std::size_t supersteps = 0;        ///< supersteps the chosen path took
  std::size_t supersteps_saved = 0;  ///< prev cold supersteps minus ours
};

namespace detail {

/// Deduplicated seed frontier from delta-record source endpoints that pass
/// `viable` (typically "previous label is finite").
template <typename V, typename W, typename ViableF>
std::vector<V> delta_seeds(graph::edge_delta_t<V, W> const& delta,
                           std::size_t n, ViableF viable) {
  std::vector<V> seeds;
  seeds.reserve(delta.records.size());
  for (auto const& r : delta.records)
    if (r.src >= 0 && static_cast<std::size_t>(r.src) < n && viable(r.src))
      seeds.push_back(r.src);
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

inline void note_outcome(incremental_outcome* out, bool warm,
                         std::size_t delta_edges, std::size_t supersteps,
                         std::size_t prev_supersteps) {
  if (!out)
    return;
  out->warm_started = warm;
  out->delta_edges = delta_edges;
  out->supersteps = supersteps;
  out->supersteps_saved =
      warm && prev_supersteps > supersteps ? prev_supersteps - supersteps : 0;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// Incremental SSSP: previous epoch's converged distances + the edge delta
/// leading to this snapshot ⇒ the new epoch's distances, bit-identical to
/// `sssp(policy, g, source)` from scratch.  Falls back to the cold
/// enactment on deletions / weight increases / truncated logs.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
sssp_result<typename G::weight_type> sssp_incremental(
    P policy, G const& g, typename G::vertex_type source,
    sssp_result<typename G::weight_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool const warmable =
      delta.complete && delta.insert_only() && prev.distances.size() == n &&
      source >= 0 && static_cast<std::size_t>(source) < n &&
      prev.distances[static_cast<std::size_t>(source)] == W{0};
  if (!warmable) {
    auto cold = sssp(policy, g, source);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  sssp_result<W> result;
  result.distances = prev.distances;  // valid upper bounds after inserts
  W* const dist = result.distances.data();

  frontier::sparse_frontier<V> f(detail::delta_seeds(
      delta, n, [dist](V v) { return dist[v] != infinity_v<W>; }));

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::sparse_frontier<V> in, std::size_t /*iteration*/) {
        // Listing 4's relaxation, unchanged — only the seed differs.  The
        // source read goes through atomic::load because this suite runs in
        // the TSAN matrix: dist[src] may be concurrently improved by a
        // relaxation racing on the same word (a stale read only costs a
        // re-relaxation, never correctness).
        auto out = operators::neighbors_expand(
            policy, g, in,
            [dist](V const src, V const dst, E const /*edge*/,
                   W const weight) {
              W const new_d = atomic::load(&dist[src]) + weight;
              W const curr_d = atomic::min(&dist[dst], new_d);
              return new_d < curr_d;
            });
        if constexpr (std::decay_t<P>::is_parallel)
          operators::uniquify(policy, out, n);
        else
          operators::uniquify(policy, out);
        return out;
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  detail::note_outcome(outcome, true, delta.size(), stats.iterations,
                       prev.iterations);
  return result;
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

/// Incremental BFS (unit-weight SSSP on the hop lattice).  Depths are
/// bit-identical to a cold `bfs`; parents form a valid BFS tree (kept
/// consistent with depths through a packed 64-bit depth|parent CAS, so a
/// parent's converged depth is always exactly one less than its child's).
template <typename P, typename G>
  requires execution::synchronous_policy<P>
bfs_result<typename G::vertex_type> bfs_incremental(
    P policy, G const& g, typename G::vertex_type source,
    bfs_result<typename G::vertex_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  static_assert(sizeof(V) <= sizeof(std::uint32_t),
                "bfs_incremental packs (depth, parent) into one u64 word");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool const warmable =
      delta.complete && delta.insert_only() && prev.depths.size() == n &&
      prev.parents.size() == n && source >= 0 &&
      static_cast<std::size_t>(source) < n &&
      prev.depths[static_cast<std::size_t>(source)] == V{0};
  if (!warmable) {
    auto cold = bfs(policy, g, source);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  constexpr std::uint32_t kUnset = 0xffffffffu;  // depth/parent sentinel
  auto const pack = [](std::uint32_t depth, std::uint32_t parent) {
    return (static_cast<std::uint64_t>(depth) << 32) | parent;
  };
  auto const depth_of = [](std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> 32);
  };

  std::vector<std::uint64_t> words(n);
  for (std::size_t v = 0; v < n; ++v) {
    V const d = prev.depths[v];
    V const p = prev.parents[v];
    words[v] = pack(d == V{-1} ? kUnset : static_cast<std::uint32_t>(d),
                    p == V{-1} ? kUnset : static_cast<std::uint32_t>(p));
  }
  std::uint64_t* const w = words.data();

  frontier::sparse_frontier<V> f(detail::delta_seeds(
      delta, n, [&prev](V v) {
        return prev.depths[static_cast<std::size_t>(v)] != V{-1};
      }));

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::sparse_frontier<V> in, std::size_t /*iteration*/) {
        auto out = operators::neighbors_expand(
            policy, g, in,
            [w, depth_of, pack](V const src, V const dst, E const /*e*/,
                                W const /*weight*/) {
              std::uint32_t const ds = depth_of(atomic::load(&w[src]));
              if (ds == kUnset)
                return false;
              std::uint32_t const nd = ds + 1;
              std::uint64_t cur = atomic::load(&w[dst]);
              while (nd < depth_of(cur)) {
                std::uint64_t const observed = atomic::cas(
                    &w[dst], cur,
                    pack(nd, static_cast<std::uint32_t>(src)));
                if (observed == cur)
                  return true;  // we improved (depth, parent) atomically
                cur = observed;
              }
              return false;
            });
        if constexpr (std::decay_t<P>::is_parallel)
          operators::uniquify(policy, out, n);
        else
          operators::uniquify(policy, out);
        return out;
      },
      enactor::frontier_empty{});

  bfs_result<V> result;
  result.depths.resize(n);
  result.parents.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint32_t const d = depth_of(words[v]);
    std::uint32_t const p = static_cast<std::uint32_t>(words[v]);
    result.depths[v] = d == kUnset ? V{-1} : static_cast<V>(d);
    result.parents[v] = p == kUnset ? V{-1} : static_cast<V>(p);
  }
  result.iterations = stats.iterations;
  detail::note_outcome(outcome, true, delta.size(), stats.iterations,
                       prev.iterations);
  return result;
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

/// Incremental CC (undirected semantics, like the cold kernel).  Inserts
/// only merge components, and the previous labels are the cold kernel's
/// forest (no parent above its child), so the warm path copies them, links
/// both endpoints of every inserted edge in one serial sweep (a delta holds
/// far fewer records than the graph has vertices) and compresses once;
/// roots only decrease, so the labels equal a cold run.  Deletions (and
/// weight changes, which the log marks as removals) can split components,
/// and labels that are not such a forest would index out of range: both
/// fall back to the cold kernel.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csr)
cc_result<typename G::vertex_type> connected_components_incremental(
    P policy, G const& g,
    cc_result<typename G::vertex_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool warmable =
      delta.complete && delta.insert_only() && prev.labels.size() == n;
  for (std::size_t v = 0; warmable && v < n; ++v)
    warmable = prev.labels[v] >= V{0} &&
               static_cast<std::size_t>(prev.labels[v]) <= v;
  if (!warmable) {
    auto cold = connected_components(policy, g);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  cc_result<V> result;
  result.labels = prev.labels;
  V* const c = result.labels.data();
  for (auto const& r : delta.records)
    if (std::min(r.src, r.dst) >= 0 &&
        static_cast<std::size_t>(std::max(r.src, r.dst)) < n)
      detail::cc_link(c, r.src, r.dst);
  operators::compute_vertices(policy, g,
                              [c](V v) { detail::cc_compress(c, v); });

  result.iterations = 1;  // the one link sweep
  result.num_components = detail::count_components(result.labels);
  detail::note_outcome(outcome, true, delta.size(), result.iterations,
                       prev.iterations);
  return result;
}

}  // namespace essentials::algorithms
