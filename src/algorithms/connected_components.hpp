#pragma once

/// \file algorithms/connected_components.hpp
/// \brief Connected components (undirected semantics: run on a symmetrized
/// graph) — Afforest (Sutton, Ben-Nun & Barak, IPDPS 2018) written as
/// compute-operator sweeps over every vertex, and serial union-find as the
/// oracle.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "core/execution.hpp"
#include "core/operators/compute.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "generators/random.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

template <typename V = vertex_t>
struct cc_result {
  std::vector<V> labels;  ///< labels[v] == labels[u] iff same component
  std::size_t num_components = 0;
  std::size_t iterations = 0;  ///< phases (one telemetry superstep each)
};

/// Afforest's sampling rounds: round r links every vertex to its r-th
/// out-neighbour before the largest component is estimated.
inline constexpr std::size_t cc_sampling_rounds = 2;

/// Entries of the component array sampled to estimate the largest
/// component, whose vertices then skip the final link sweep.
inline constexpr std::size_t cc_root_samples = 1024;

namespace detail {

/// Join the trees of `u` and `v` in the parent array `c`: the higher root
/// is hooked under the lower one with a CAS, and a lost CAS retries from
/// the grandparent.  Parents never exceed their child, so every root is
/// the minimum id of its tree.  Returns true when this call hooked a root.
template <typename V>
bool cc_link(V* c, V u, V v) {
  V p1 = atomic::load(&c[u]);
  V p2 = atomic::load(&c[v]);
  while (p1 != p2) {
    V const high = std::max(p1, p2);
    V const low = std::min(p1, p2);
    V const p_high = atomic::load(&c[high]);
    if (p_high == low)
      return false;  // already hooked there
    if (p_high == high && atomic::cas(&c[high], high, low) == high)
      return true;
    p1 = atomic::load(&c[atomic::load(&c[high])]);
    p2 = atomic::load(&c[low]);
  }
  return false;
}

/// Point `v` at its root: c[v] = c[c[v]] until the value stops changing.
template <typename V>
void cc_compress(V* c, V v) {
  V p = atomic::load(&c[v]);
  for (V gp = atomic::load(&c[p]); p != gp; gp = atomic::load(&c[p])) {
    atomic::store(&c[v], gp);
    p = gp;
  }
}

/// Components of a canonical labelling (every label is its component's
/// root): the number of vertices that are their own label.
template <typename V>
std::size_t count_components(std::vector<V> const& labels) {
  std::size_t roots = 0;
  for (std::size_t v = 0; v < labels.size(); ++v)
    roots += static_cast<std::size_t>(labels[v]) == v;
  return roots;
}

}  // namespace detail

/// Afforest.  The graph must be symmetric: skipping the largest component
/// in the final sweep relies on every edge into it also leaving it.
///  1. `cc_sampling_rounds` phases: round r links each vertex to its r-th
///     out-neighbour, then compresses every vertex to its root.
///  2. `cc_root_samples` fixed-seed samples of the component array name
///     the most frequent root.
///  3. Every vertex outside that root's component links its remaining
///     out-edges; one final compress flattens the forest.
/// Each phase is one telemetry superstep whose link sweep is a `cc_link`
/// op (edges linked as inspected, successful hooks as relaxed).  Roots
/// only decrease, so labels[v] is the minimum vertex id of v's component —
/// the same labels `connected_components_serial` returns.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csr)
cc_result<typename G::vertex_type> connected_components(P policy,
                                                        G const& g) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), V{0});
  V* const c = result.labels.data();
  telemetry::recorder* const rec = telemetry::current();
  // While recording, each vertex notes the edges it linked and the roots
  // it hooked in two slots only it writes; the probe gets their sums.
  std::vector<E> tally(rec && rec->active() ? 2 * n : 0);
  E* const t = tally.empty() ? nullptr : tally.data();

  // One phase: every vertex that `skip` lets through links its out-edges
  // numbered [first, last) in its list; then every vertex compresses.
  auto const phase = [&](auto skip, std::size_t first, std::size_t last) {
    if (rec)
      rec->begin_superstep(n);
    {
      auto const probe = telemetry::make_probe("cc_link", policy, n);
      operators::compute_vertices(policy, g, [&g, c, t, skip, first,
                                              last](V v) {
        std::size_t const degree = static_cast<std::size_t>(
            skip(v) ? E{0} : g.get_out_degree(v));
        std::size_t const end = std::max(first, std::min(last, degree));
        E hooked = 0;
        if (first < end) {
          E const e0 = *g.get_edges(v).begin();
          for (std::size_t i = first; i < end; ++i)
            hooked += detail::cc_link(
                c, v, g.get_dest_vertex(e0 + static_cast<E>(i)));
        }
        if (t) {
          t[2 * v] = static_cast<E>(end - first);
          t[2 * v + 1] = hooked;
        }
      });
      std::size_t sums[2] = {0, 0};  // linked, hooked
      for (std::size_t i = 0; i < tally.size(); ++i)
        sums[i % 2] += static_cast<std::size_t>(t[i]);
      probe.add_edges(sums[0], sums[1]);
    }
    operators::compute_vertices(policy, g,
                                [c](V v) { detail::cc_compress(c, v); });
    if (rec)
      rec->end_superstep(n);
  };

  for (std::size_t r = 0; r < cc_sampling_rounds; ++r)
    phase([](V) { return false; }, r, r + 1);
  // The most frequent root among `cc_root_samples` fixed-seed samples
  // (ties go to the lower id; vertex 0 on an empty graph) names the
  // component the last phase skips.
  generators::rng_t rng;
  std::map<V, std::size_t> hits{{V{0}, 0}};
  for (std::size_t i = 0; n != 0 && i < cc_root_samples; ++i)
    ++hits[c[rng.next_below(n)]];
  auto const fewer = [](auto const& a, auto const& b) {
    return a.second < b.second;
  };
  V const giant = std::max_element(hits.begin(), hits.end(), fewer)->first;
  phase([c, giant](V v) { return atomic::load(&c[v]) == giant; },
        cc_sampling_rounds, std::numeric_limits<std::size_t>::max());

  result.iterations = cc_sampling_rounds + 1;
  result.num_components = detail::count_components(result.labels);
  return result;
}

/// Serial union-find (path halving + union by label minimum) — the oracle.
template <typename G>
cc_result<typename G::vertex_type> connected_components_serial(G const& g) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  std::vector<V> parent(n);
  std::iota(parent.begin(), parent.end(), V{0});

  auto const find = [&parent](V x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };

  for (V u = 0; u < g.get_num_vertices(); ++u) {
    for (auto const e : g.get_edges(u)) {
      V const v = g.get_dest_vertex(e);
      V const ru = find(u);
      V const rv = find(v);
      if (ru != rv) {
        // Union by minimum label so results are canonical.
        if (ru < rv)
          parent[static_cast<std::size_t>(rv)] = ru;
        else
          parent[static_cast<std::size_t>(ru)] = rv;
      }
    }
  }
  result.labels.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    result.labels[v] = find(static_cast<V>(v));
  result.num_components = detail::count_components(result.labels);
  return result;
}

}  // namespace essentials::algorithms
