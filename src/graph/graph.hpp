#pragma once

/// \file graph/graph.hpp
/// \brief The native-graph data structure: `graph_t`, a variadic-inheritance
/// composition of representation *views* queried through one graph-focused
/// API.
///
/// Paper Listing 1: "In our framework, we rely on variadic inheritance to
/// support multiple underlying data structures."  A `graph_t<csr_view<>>`
/// is a push-only graph; a `graph_t<csr_view<>, csc_view<>>` retains both
/// the original and the transposed structure, enabling push *and* pull
/// traversals (paper §III-C) at the cost of memory space.  Member functions
/// are constrained (`requires`) on which views are present, so asking a
/// push-only graph for in-edges is a compile-time error, not a runtime one.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/types.hpp"
#include "graph/build.hpp"
#include "graph/formats.hpp"

namespace essentials::graph {

/// A half-open range of integer ids (edge or vertex) usable in range-for:
/// `for (auto e : g.get_edges(v))` — the paper's traversal idiom.
template <typename T>
class id_range {
 public:
  class iterator {
   public:
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = T;
    using iterator_category = std::forward_iterator_tag;
    iterator() = default;
    explicit iterator(T value) : value_(value) {}
    T operator*() const { return value_; }
    iterator& operator++() {
      ++value_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++value_;
      return copy;
    }
    friend bool operator==(iterator const&, iterator const&) = default;

   private:
    T value_{};
  };

  id_range(T begin, T end) : begin_(begin), end_(end) {}
  iterator begin() const { return iterator(begin_); }
  iterator end() const { return iterator(end_); }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }

 private:
  T begin_;
  T end_;
};

// ---------------------------------------------------------------------------
// Representation views
// ---------------------------------------------------------------------------

struct csr_view_tag {};
struct csc_view_tag {};
struct coo_view_tag {};

/// CSR view: owns a csr_t and answers push-side (out-edge) queries.
template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class csr_view : public csr_view_tag {
 public:
  using vertex_type = V;
  using edge_type = E;
  using weight_type = W;

  void set_csr(csr_t<V, E, W> csr) { csr_ = std::move(csr); }
  csr_t<V, E, W> const& csr() const { return csr_; }

  V csr_num_vertices() const { return csr_.num_rows; }
  E csr_num_edges() const { return csr_.num_edges(); }

  E csr_out_degree(V v) const {
    return csr_.row_offsets[static_cast<std::size_t>(v) + 1] -
           csr_.row_offsets[static_cast<std::size_t>(v)];
  }
  id_range<E> csr_out_edges(V v) const {
    return {csr_.row_offsets[static_cast<std::size_t>(v)],
            csr_.row_offsets[static_cast<std::size_t>(v) + 1]};
  }
  V csr_dest(E e) const {
    return csr_.column_indices[static_cast<std::size_t>(e)];
  }
  W csr_weight(E e) const { return csr_.values[static_cast<std::size_t>(e)]; }

  /// Source of a CSR edge id: binary search over row_offsets.  O(log V),
  /// used by edge-centric frontiers that carry only edge ids.
  V csr_source(E e) const {
    auto const it = std::upper_bound(csr_.row_offsets.begin(),
                                     csr_.row_offsets.end(), e);
    return static_cast<V>((it - csr_.row_offsets.begin()) - 1);
  }

 protected:
  csr_t<V, E, W> csr_;
};

/// CSC view: owns a csc_t and answers pull-side (in-edge) queries.  Edge ids
/// handed out by this view index the CSC arrays and are distinct from CSR
/// edge ids of the same logical edge.
template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class csc_view : public csc_view_tag {
 public:
  using vertex_type = V;
  using edge_type = E;
  using weight_type = W;

  void set_csc(csc_t<V, E, W> csc) { csc_ = std::move(csc); }
  csc_t<V, E, W> const& csc() const { return csc_; }

  V csc_num_vertices() const { return csc_.num_cols; }
  E csc_num_edges() const { return csc_.num_edges(); }

  E csc_in_degree(V v) const {
    return csc_.column_offsets[static_cast<std::size_t>(v) + 1] -
           csc_.column_offsets[static_cast<std::size_t>(v)];
  }
  id_range<E> csc_in_edges(V v) const {
    return {csc_.column_offsets[static_cast<std::size_t>(v)],
            csc_.column_offsets[static_cast<std::size_t>(v) + 1]};
  }
  V csc_source(E e) const {
    return csc_.row_indices[static_cast<std::size_t>(e)];
  }
  W csc_weight(E e) const { return csc_.values[static_cast<std::size_t>(e)]; }

 protected:
  csc_t<V, E, W> csc_;
};

/// COO view: keeps the raw edge list around, e.g. for edge-centric programs
/// that iterate all edges regardless of endpoint, or for re-partitioning.
template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class coo_view : public coo_view_tag {
 public:
  using vertex_type = V;
  using edge_type = E;
  using weight_type = W;

  void set_coo(coo_t<V, E, W> coo) { coo_ = std::move(coo); }
  coo_t<V, E, W> const& coo() const { return coo_; }

  E coo_num_edges() const { return coo_.num_edges(); }
  V coo_source(E e) const {
    return coo_.row_indices[static_cast<std::size_t>(e)];
  }
  V coo_dest(E e) const {
    return coo_.column_indices[static_cast<std::size_t>(e)];
  }
  W coo_weight(E e) const { return coo_.values[static_cast<std::size_t>(e)]; }

 protected:
  coo_t<V, E, W> coo_;
};

// ---------------------------------------------------------------------------
// graph_t
// ---------------------------------------------------------------------------

/// The native graph: inherits every requested view and exposes one
/// graph-focused API on top.  Out-edge queries route to the CSR view,
/// in-edge queries to the CSC view; where both exist, generic queries
/// (vertex/edge counts) prefer CSR.
template <typename... Views>
class graph_t : public Views... {
  using first_view = std::tuple_element_t<0, std::tuple<Views...>>;

 public:
  using vertex_type = typename first_view::vertex_type;
  using edge_type = typename first_view::edge_type;
  using weight_type = typename first_view::weight_type;

  static constexpr bool has_csr =
      (std::is_base_of_v<csr_view_tag, Views> || ...);
  static constexpr bool has_csc =
      (std::is_base_of_v<csc_view_tag, Views> || ...);
  static constexpr bool has_coo =
      (std::is_base_of_v<coo_view_tag, Views> || ...);

  // --- whole-graph queries --------------------------------------------------

  vertex_type get_num_vertices() const {
    if constexpr (has_csr)
      return this->csr_num_vertices();
    else
      return this->csc_num_vertices();
  }

  edge_type get_num_edges() const {
    if constexpr (has_csr)
      return this->csr_num_edges();
    else
      return this->csc_num_edges();
  }

  // --- push-side (out-edge) queries, Listing 1/3 API ------------------------

  edge_type get_out_degree(vertex_type v) const
    requires has_csr
  {
    return this->csr_out_degree(v);
  }

  /// Out-edge ids of v (CSR edge-id space): `for (auto e : g.get_edges(v))`.
  id_range<edge_type> get_edges(vertex_type v) const
    requires has_csr
  {
    return this->csr_out_edges(v);
  }

  vertex_type get_dest_vertex(edge_type e) const
    requires has_csr
  {
    return this->csr_dest(e);
  }

  vertex_type get_source_vertex(edge_type e) const
    requires has_csr
  {
    return this->csr_source(e);
  }

  /// "Get edge weight for a given edge." — Listing 1.
  weight_type get_edge_weight(edge_type e) const
    requires has_csr
  {
    return this->csr_weight(e);
  }

  // --- pull-side (in-edge) queries -------------------------------------------

  edge_type get_in_degree(vertex_type v) const
    requires has_csc
  {
    return this->csc_in_degree(v);
  }

  /// In-edge ids of v (CSC edge-id space).
  id_range<edge_type> get_in_edges(vertex_type v) const
    requires has_csc
  {
    return this->csc_in_edges(v);
  }

  vertex_type get_in_source_vertex(edge_type e) const
    requires has_csc
  {
    return this->csc_source(e);
  }

  weight_type get_in_edge_weight(edge_type e) const
    requires has_csc
  {
    return this->csc_weight(e);
  }

  /// Vertex-id range [0, V) for compute operators over all vertices.
  id_range<vertex_type> get_vertices() const {
    return {vertex_type{0}, get_num_vertices()};
  }
};

/// Push-only graph (CSR).
using graph_csr = graph_t<csr_view<>>;
/// Pull-only graph (CSC).
using graph_csc = graph_t<csc_view<>>;
/// Push + pull graph (CSR + CSC), required by direction-optimizing traversal.
using graph_push_pull = graph_t<csr_view<>, csc_view<>>;
/// Everything retained, including the raw edge list.
using graph_full = graph_t<csr_view<>, csc_view<>, coo_view<>>;

/// Assemble a graph_t from a canonical CSR (rows sorted by column, no
/// repeated columns), populating exactly the views the chosen GraphT
/// inherits: CSC by transposition, COO by expanding the row offsets.  All
/// views list the edges in the same canonical order.
template <typename GraphT, typename V, typename E, typename W>
GraphT from_csr(csr_t<V, E, W>&& csr) {
  GraphT g;
  if constexpr (GraphT::has_csc)
    g.set_csc(transpose_to_csc(csr));
  if constexpr (GraphT::has_coo)
    g.set_coo(to_coo(csr));
  if constexpr (GraphT::has_csr)
    g.set_csr(std::move(csr));
  return g;
}

/// Build a graph_t from an edge list in linear time: a counting sort by row
/// (`build_csr`), then a parallel pass that sorts each row by column and
/// collapses duplicates by `policy`.  The result is the CSR of the edge list
/// sorted by (row, column), whatever the input order.
template <typename GraphT, typename V, typename E, typename W>
GraphT from_coo(coo_t<V, E, W> coo,
                duplicate_policy policy = duplicate_policy::keep_first) {
  auto csr = build_csr(coo);
  coo = {};  // release the edge list before the row pass
  detail::canonicalize_rows(parallel::default_pool(), csr, policy);
  return from_csr<GraphT>(std::move(csr));
}

}  // namespace essentials::graph
