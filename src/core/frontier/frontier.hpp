#pragma once

/// \file core/frontier/frontier.hpp
/// \brief Umbrella header and compile-time interface for the frontier
/// family, plus conversions between representations.
///
/// The paper's key claim for the communication pillar is that *multiple
/// underlying representations can sit behind one interface*.  The
/// `frontier_like` concept is that interface, checked at compile time for
/// every representation we ship; the conversion helpers let an algorithm
/// switch representation mid-run (e.g. direction-optimizing BFS moving
/// between sparse (push) and dense (pull) as density changes).

#include <concepts>
#include <cstddef>

#include "core/frontier/async_queue_frontier.hpp"
#include "core/frontier/dense_frontier.hpp"
#include "core/frontier/distributed_frontier.hpp"
#include "core/frontier/generate.hpp"
#include "core/frontier/sparse_frontier.hpp"
#include "core/types.hpp"

namespace essentials::frontier {

/// The representation-independent top-level interface (Listing 2's
/// spelling): every frontier can report a size, be queried for emptiness,
/// and accept an activation.
template <typename F>
concept frontier_like = requires(F f, F const cf, typename F::value_type v) {
  typename F::value_type;
  { cf.size() } -> std::convertible_to<std::size_t>;
  { cf.empty() } -> std::convertible_to<bool>;
  { f.add_vertex(v) };
};

/// Representations that support random access over a materialized active
/// set (sparse) — what BSP operators iterate in parallel.
template <typename F>
concept indexable_frontier = frontier_like<F> && requires(F const cf) {
  { cf.active() };
  { cf.get_active_vertex(std::size_t{0}) } -> std::convertible_to<typename F::value_type>;
};

/// Representations with O(1) membership (dense) — what pull traversals
/// query.
template <typename F>
concept queryable_frontier = frontier_like<F> && requires(F const cf, typename F::value_type v) {
  { cf.contains(v) } -> std::convertible_to<bool>;
};

static_assert(frontier_like<sparse_frontier<vertex_t>>);
static_assert(frontier_like<dense_frontier<vertex_t>>);
static_assert(frontier_like<async_queue_frontier<vertex_t>>);
static_assert(indexable_frontier<sparse_frontier<vertex_t>>);
static_assert(queryable_frontier<dense_frontier<vertex_t>>);

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Sparse -> dense over a given universe.
template <typename T>
dense_frontier<T> to_dense(sparse_frontier<T> const& in, std::size_t universe) {
  dense_frontier<T> out(universe);
  in.for_each_active([&out](T v) { out.add_vertex(v); });
  return out;
}

/// Dense -> sparse (active ids in increasing order).
template <typename T>
sparse_frontier<T> to_sparse(dense_frontier<T> const& in) {
  return sparse_frontier<T>(in.to_vector());
}

/// Sparse -> async queue (seeds an asynchronous phase from a BSP frontier).
template <typename T>
void seed_queue(sparse_frontier<T> const& in, async_queue_frontier<T>& out) {
  in.for_each_active([&out](T v) { out.add_vertex(v); });
}

/// Frontier density: |F| / universe — the direction-optimizing signal.
template <typename T>
double density(dense_frontier<T> const& f) {
  return f.universe() == 0
             ? 0.0
             : static_cast<double>(f.size()) / static_cast<double>(f.universe());
}

template <typename T>
double density(sparse_frontier<T> const& f, std::size_t universe) {
  return universe == 0
             ? 0.0
             : static_cast<double>(f.size()) / static_cast<double>(universe);
}

}  // namespace essentials::frontier
