#pragma once

/// \file graph/build.hpp
/// \brief Builders and transformations between graph representations.
///
/// Loaders and generators emit COO, and the cleanup passes (self-loop
/// removal, symmetrization) operate on COO.  The canonical graph is a CSR
/// built in linear time: `build_csr` is a stable counting sort by row, then
/// one parallel pass over rows stable-sorts each row by column and collapses
/// repeated columns by `duplicate_policy` (`detail::canonicalize_rows`).
/// Every other view derives from that CSR: CSC by `transpose_to_csc`, which
/// is exactly how the pull structure relates to the push structure, and COO
/// by expanding the row offsets (`to_coo`).  graph/graph.hpp's `from_csr`
/// assembles them into a graph_t.
///
/// NUMA first-touch: the CSR/CSC arrays are `numa_vector`s, so sizing them
/// leaves physical page placement undecided.  When `parallel::numa_enabled()`
/// the builders pre-touch the edge arrays page-parallel on the default pool
/// (the same chunk map the operators stream with), distributing the graph
/// across the sockets that will read it; with the knob off nothing is
/// pre-touched and the serial scatter performs the single first write —
/// strictly fewer writes than a value-initializing std::vector ever did.
/// Either way every element is written before the builder returns, so the
/// resulting bytes are identical.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/formats.hpp"
#include "parallel/first_touch.hpp"
#include "parallel/scan.hpp"

namespace essentials::graph {

/// Policy for edges that appear multiple times in the input.
enum class duplicate_policy {
  keep_first,  ///< keep the first occurrence's weight
  keep_min,    ///< keep the smallest weight (natural for shortest paths)
  sum          ///< sum the weights (natural for linear algebra)
};

}  // namespace essentials::graph

namespace essentials::graph::detail {

/// Pre-touch a sized-but-unplaced array page-parallel so its pages land on
/// the workers' nodes; the caller's subsequent serial scatter then writes
/// in-place without migrating anything.  A no-op when NUMA placement is off
/// (the scatter's first write is placement enough) or T is not trivially
/// fillable.
template <typename T>
void place_for_streaming(T* data, std::size_t n) {
  if constexpr (std::is_trivially_copyable_v<T> &&
                std::is_default_constructible_v<T>) {
    if (parallel::numa_enabled())
      parallel::first_touch_fill(parallel::default_pool(), data, n, T{});
  }
}

/// Rows of at most this many edges are insertion-sorted in place; longer
/// rows sort (column, position) keys in their chunk's scratch buffer.
inline constexpr std::size_t row_sort_insertion_max = 32;

/// Fewest edges per chunk of the row pass: smaller graphs sort on the
/// calling thread, where a fork-join would cost more than the sort.
inline constexpr std::size_t row_pass_edge_grain = 4096;

/// Per-chunk scratch for rows too long for insertion sort.
template <typename V, typename W>
struct row_sort_scratch {
  std::vector<std::pair<V, std::size_t>> keys;
  std::vector<W> values;
};

/// Stable-sort one row by column, then collapse equal columns in place by
/// `policy`, folding weights in input order.  Returns the kept length.
template <typename V, typename W>
std::size_t canonicalize_row(V* cols, W* vals, std::size_t len,
                             duplicate_policy policy,
                             row_sort_scratch<V, W>& scratch) {
  if (len <= row_sort_insertion_max) {
    for (std::size_t i = 1; i < len; ++i) {
      V const c = cols[i];
      W const w = vals[i];
      std::size_t j = i;
      for (; j > 0 && cols[j - 1] > c; --j) {
        cols[j] = cols[j - 1];
        vals[j] = vals[j - 1];
      }
      cols[j] = c;
      vals[j] = w;
    }
  } else if (!std::is_sorted(cols, cols + len)) {
    // Positions make every key unique, so an unstable sort of the keys
    // yields the stable order.
    auto& keys = scratch.keys;
    keys.resize(len);
    for (std::size_t i = 0; i < len; ++i)
      keys[i] = {cols[i], i};
    std::sort(keys.begin(), keys.end());
    scratch.values.assign(vals, vals + len);
    for (std::size_t i = 0; i < len; ++i) {
      cols[i] = keys[i].first;
      vals[i] = scratch.values[keys[i].second];
    }
  }

  std::size_t kept = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (kept > 0 && cols[kept - 1] == cols[i]) {
      switch (policy) {
        case duplicate_policy::keep_first:
          break;
        case duplicate_policy::keep_min:
          vals[kept - 1] = std::min(vals[kept - 1], vals[i]);
          break;
        case duplicate_policy::sum:
          vals[kept - 1] += vals[i];
          break;
      }
      continue;
    }
    cols[kept] = cols[i];
    vals[kept] = vals[i];
    ++kept;
  }
  return kept;
}

/// Turn a row-grouped CSR (each row in input order, as `build_csr` leaves
/// it) into the canonical one: every row sorted by column with repeated
/// columns collapsed by `policy`.  Chunks split the edge range, so a hub row
/// does not drag its neighbours onto one lane; a chunk owns the rows that
/// start inside it.  Rows are independent, so the result does not depend on
/// the pool.  When rows lose edges, a prefix sum of the kept counts places
/// each row in fresh arrays.
template <typename V, typename E, typename W>
void canonicalize_rows(parallel::thread_pool& pool, csr_t<V, E, W>& csr,
                       duplicate_policy policy) {
  std::size_t const n = static_cast<std::size_t>(csr.num_rows);
  std::size_t const m = csr.column_indices.size();
  if (m == 0)
    return;
  auto const& offsets = csr.row_offsets;
  auto const first_row = [&](std::size_t e) {
    if (e >= m)
      return n;
    return static_cast<std::size_t>(
        std::lower_bound(offsets.begin(),
                         offsets.begin() + static_cast<std::ptrdiff_t>(n),
                         static_cast<E>(e)) -
        offsets.begin());
  };
  auto const for_rows = [&](auto&& body) {
    pool.run_blocked(
        m,
        [&](std::size_t lo, std::size_t hi) {
          body(first_row(lo), first_row(hi));
        },
        row_pass_edge_grain);
  };

  parallel::numa_vector<E> kept;
  kept.resize(n);
  for_rows([&](std::size_t r_lo, std::size_t r_hi) {
    row_sort_scratch<V, W> scratch;
    for (std::size_t r = r_lo; r < r_hi; ++r) {
      auto const begin = static_cast<std::size_t>(offsets[r]);
      kept[r] = static_cast<E>(canonicalize_row(
          csr.column_indices.data() + begin, csr.values.data() + begin,
          static_cast<std::size_t>(offsets[r + 1]) - begin, policy, scratch));
    }
  });

  parallel::numa_vector<E> new_offsets;
  new_offsets.resize(n + 1);
  E const total =
      parallel::exclusive_scan(pool, kept.data(), n, new_offsets.data());
  if (static_cast<std::size_t>(total) == m)
    return;  // nothing dropped: every row keeps its place
  new_offsets[n] = total;
  parallel::numa_vector<V> cols;
  parallel::numa_vector<W> vals;
  cols.resize(static_cast<std::size_t>(total));
  vals.resize(static_cast<std::size_t>(total));
  place_for_streaming(cols.data(), cols.size());
  place_for_streaming(vals.data(), vals.size());
  for_rows([&](std::size_t r_lo, std::size_t r_hi) {
    for (std::size_t r = r_lo; r < r_hi; ++r) {
      auto const from = static_cast<std::size_t>(offsets[r]);
      auto const to = static_cast<std::size_t>(new_offsets[r]);
      auto const k = static_cast<std::size_t>(kept[r]);
      std::copy_n(csr.column_indices.data() + from, k, cols.data() + to);
      std::copy_n(csr.values.data() + from, k, vals.data() + to);
    }
  });
  csr.row_offsets = std::move(new_offsets);
  csr.column_indices = std::move(cols);
  csr.values = std::move(vals);
}

}  // namespace essentials::graph::detail

namespace essentials::graph {

/// Drop edges whose endpoints coincide.
template <typename V, typename E, typename W>
void remove_self_loops(coo_t<V, E, W>& coo) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < coo.row_indices.size(); ++i) {
    if (coo.row_indices[i] == coo.column_indices[i])
      continue;
    coo.row_indices[kept] = coo.row_indices[i];
    coo.column_indices[kept] = coo.column_indices[i];
    coo.values[kept] = coo.values[i];
    ++kept;
  }
  coo.row_indices.resize(kept);
  coo.column_indices.resize(kept);
  coo.values.resize(kept);
}

/// Add the reverse of every edge (making the edge set symmetric).  Combine
/// with sort_and_deduplicate to obtain a canonical undirected graph.
template <typename V, typename E, typename W>
void symmetrize(coo_t<V, E, W>& coo) {
  std::size_t const m = coo.row_indices.size();
  coo.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i)
    coo.push_back(coo.column_indices[i], coo.row_indices[i], coo.values[i]);
}

/// Swap the roles of rows and columns (reverse every edge) in place.
template <typename V, typename E, typename W>
void transpose(coo_t<V, E, W>& coo) {
  std::swap(coo.num_rows, coo.num_cols);
  std::swap(coo.row_indices, coo.column_indices);
}

/// Counting-sort conversion COO -> CSR.  Input order is preserved within a
/// row (stable), so edge ids in the CSR follow the COO's column order when
/// the COO is sorted; `detail::canonicalize_rows` makes any other input
/// canonical.  Throws graph_error on an index out of range.
template <typename V, typename E, typename W>
csr_t<V, E, W> build_csr(coo_t<V, E, W> const& coo) {
  expects(coo.num_rows >= 0 && coo.num_cols >= 0,
          "build_csr: negative dimensions");
  csr_t<V, E, W> csr;
  csr.num_rows = coo.num_rows;
  csr.num_cols = coo.num_cols;
  std::size_t const n = static_cast<std::size_t>(coo.num_rows);
  std::size_t const m = coo.row_indices.size();
  // The counting sort needs zeroed offsets anyway; zero them through the
  // first-touch path so the pages land on the pool's workers.  The edge
  // arrays only need *placement* (the scatter below writes every slot), so
  // they are pre-touched solely when NUMA placement is on.
  csr.row_offsets.resize(n + 1);
  parallel::first_touch_fill(parallel::default_pool(), csr.row_offsets.data(),
                             n + 1, E{0});
  csr.column_indices.resize(m);
  csr.values.resize(m);
  detail::place_for_streaming(csr.column_indices.data(), m);
  detail::place_for_streaming(csr.values.data(), m);

  for (std::size_t i = 0; i < m; ++i) {
    V const r = coo.row_indices[i];
    expects(r >= 0 && static_cast<std::size_t>(r) < n,
            "build_csr: row index out of range");
    V const c = coo.column_indices[i];
    expects(c >= 0 && c < coo.num_cols, "build_csr: column index out of range");
    ++csr.row_offsets[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t v = 0; v < n; ++v)
    csr.row_offsets[v + 1] += csr.row_offsets[v];

  std::vector<E> cursor(csr.row_offsets.begin(), csr.row_offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t const r = static_cast<std::size_t>(coo.row_indices[i]);
    E const slot = cursor[r]++;
    csr.column_indices[static_cast<std::size_t>(slot)] = coo.column_indices[i];
    csr.values[static_cast<std::size_t>(slot)] = coo.values[i];
  }
  return csr;
}

/// CSR -> CSC without materializing a COO (transpose of the sparse
/// structure): the pull representation of a push representation.  Rows are
/// visited in ascending order, so each column of a canonical CSR lists its
/// sources in ascending order and the CSC is canonical too.
template <typename V, typename E, typename W>
csc_t<V, E, W> transpose_to_csc(csr_t<V, E, W> const& csr) {
  csc_t<V, E, W> csc;
  csc.num_rows = csr.num_rows;
  csc.num_cols = csr.num_cols;
  std::size_t const cols = static_cast<std::size_t>(csr.num_cols);
  std::size_t const m = csr.column_indices.size();
  // Same first-touch scheme as build_csr.
  csc.column_offsets.resize(cols + 1);
  parallel::first_touch_fill(parallel::default_pool(),
                             csc.column_offsets.data(), cols + 1, E{0});
  csc.row_indices.resize(m);
  csc.values.resize(m);
  detail::place_for_streaming(csc.row_indices.data(), m);
  detail::place_for_streaming(csc.values.data(), m);

  for (std::size_t i = 0; i < m; ++i)
    ++csc.column_offsets[static_cast<std::size_t>(csr.column_indices[i]) + 1];
  for (std::size_t c = 0; c < cols; ++c)
    csc.column_offsets[c + 1] += csc.column_offsets[c];

  std::vector<E> cursor(csc.column_offsets.begin(),
                        csc.column_offsets.end() - 1);
  for (std::size_t r = 0; r < static_cast<std::size_t>(csr.num_rows); ++r) {
    for (E e = csr.row_offsets[r]; e < csr.row_offsets[r + 1]; ++e) {
      std::size_t const c =
          static_cast<std::size_t>(csr.column_indices[static_cast<std::size_t>(e)]);
      E const slot = cursor[c]++;
      csc.row_indices[static_cast<std::size_t>(slot)] = static_cast<V>(r);
      csc.values[static_cast<std::size_t>(slot)] =
          csr.values[static_cast<std::size_t>(e)];
    }
  }
  return csc;
}

/// CSR -> COO by expanding the row offsets: edge k of the COO is CSR edge k.
template <typename V, typename E, typename W>
coo_t<V, E, W> to_coo(csr_t<V, E, W> const& csr) {
  coo_t<V, E, W> coo;
  coo.num_rows = csr.num_rows;
  coo.num_cols = csr.num_cols;
  coo.row_indices.resize(csr.column_indices.size());
  coo.column_indices.assign(csr.column_indices.begin(),
                            csr.column_indices.end());
  coo.values.assign(csr.values.begin(), csr.values.end());
  for (std::size_t v = 0; v < static_cast<std::size_t>(csr.num_rows); ++v)
    std::fill(coo.row_indices.begin() + csr.row_offsets[v],
              coo.row_indices.begin() + csr.row_offsets[v + 1],
              static_cast<V>(v));
  return coo;
}

/// Sort edges by (row, column) and collapse duplicates according to
/// `policy`, folding weights in input order (so keep_first keeps the first
/// occurrence).  Builds the canonical CSR and expands it back.
template <typename V, typename E, typename W>
void sort_and_deduplicate(coo_t<V, E, W>& coo,
                          duplicate_policy policy = duplicate_policy::keep_first) {
  auto csr = build_csr(coo);
  detail::canonicalize_rows(parallel::default_pool(), csr, policy);
  coo = to_coo(csr);
}

/// CSR -> adjacency list.
template <typename V, typename E, typename W>
adjacency_list_t<V, W> to_adjacency_list(csr_t<V, E, W> const& csr) {
  adjacency_list_t<V, W> adj;
  adj.resize(csr.num_rows);
  for (V v = 0; v < csr.num_rows; ++v)
    for (E e = csr.row_offsets[static_cast<std::size_t>(v)];
         e < csr.row_offsets[static_cast<std::size_t>(v) + 1]; ++e)
      adj.add_edge(v, csr.column_indices[static_cast<std::size_t>(e)],
                   csr.values[static_cast<std::size_t>(e)]);
  return adj;
}

/// Adjacency list -> COO (for round-tripping into CSR/CSC).
template <typename V, typename W>
coo_t<V, edge_t, W> to_coo(adjacency_list_t<V, W> const& adj) {
  coo_t<V, edge_t, W> coo;
  coo.num_rows = adj.num_vertices();
  coo.num_cols = adj.num_vertices();
  coo.reserve(adj.num_edges());
  for (V v = 0; v < adj.num_vertices(); ++v)
    for (auto const& nb : adj.neighbors[static_cast<std::size_t>(v)])
      coo.push_back(v, nb.vertex, nb.weight);
  return coo;
}

}  // namespace essentials::graph
