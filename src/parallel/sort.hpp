#pragma once

/// \file parallel/sort.hpp
/// \brief Parallel merge sort on the thread pool — the comparison sort
/// behind degree reordering (graph/reorder.hpp).
///
/// Straightforward blocked design: sort P' chunks in parallel with
/// std::sort, then merge pairwise in parallel rounds.  O(n log n) work,
/// O(log chunks) merge rounds, one auxiliary buffer.  Stability is NOT
/// guaranteed (chunk-local std::sort is unstable), so comparators must be
/// total orders.  Graph construction does not use it: the canonical edge
/// order comes from a counting sort by row plus a per-row sort
/// (graph/build.hpp).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace essentials::parallel {

/// Parallel unstable sort of [first, last) by `less`.
template <typename T, typename Less = std::less<T>>
void sort(thread_pool& pool, std::vector<T>& data, Less less = {}) {
  std::size_t const n = data.size();
  std::size_t const lanes = pool.size() + 1;
  if (n < 4096 || lanes == 1) {
    std::sort(data.begin(), data.end(), less);
    return;
  }

  // Chunk boundaries.
  std::size_t const chunks_pow2 = [&] {
    std::size_t c = 1;
    while (c < 2 * lanes)
      c <<= 1;
    return c;
  }();
  std::size_t const step = (n + chunks_pow2 - 1) / chunks_pow2;
  std::vector<std::size_t> bounds;
  for (std::size_t b = 0; b <= n; b += step)
    bounds.push_back(b);
  if (bounds.back() != n)
    bounds.push_back(n);

  // Sort each chunk in parallel.
  pool.run_blocked(
      bounds.size() - 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c)
          std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
                    data.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]),
                    less);
      },
      1);

  // Pairwise merge rounds, ping-ponging between data and aux.
  std::vector<T> aux(n);
  std::vector<T>* src = &data;
  std::vector<T>* dst = &aux;
  while (bounds.size() > 2) {
    std::vector<std::size_t> next_bounds;
    std::size_t const pairs = (bounds.size() - 1 + 1) / 2;
    pool.run_blocked(
        pairs,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t p = lo; p < hi; ++p) {
            std::size_t const a = bounds[2 * p];
            std::size_t const b = bounds[2 * p + 1];
            std::size_t const c =
                2 * p + 2 < bounds.size() ? bounds[2 * p + 2] : b;
            std::merge(src->begin() + static_cast<std::ptrdiff_t>(a),
                       src->begin() + static_cast<std::ptrdiff_t>(b),
                       src->begin() + static_cast<std::ptrdiff_t>(b),
                       src->begin() + static_cast<std::ptrdiff_t>(c),
                       dst->begin() + static_cast<std::ptrdiff_t>(a), less);
          }
        },
        1);
    for (std::size_t p = 0; 2 * p < bounds.size(); ++p)
      next_bounds.push_back(bounds[2 * p]);
    if (next_bounds.back() != n)
      next_bounds.push_back(n);
    bounds = std::move(next_bounds);
    std::swap(src, dst);
  }
  if (src != &data)
    data = std::move(aux);
}

/// Parallel sort on the default pool.
template <typename T, typename Less = std::less<T>>
void sort(std::vector<T>& data, Less less = {}) {
  sort(default_pool(), data, less);
}

}  // namespace essentials::parallel
