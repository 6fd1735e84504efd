#pragma once

// Serial references the benchmark checks every output against: queue BFS,
// binary-heap Dijkstra, union-find connected components, power-iteration
// PageRank, and power-iteration personalized PageRank with the error bound
// forward push guarantees against it.  They are written from the textbook
// definitions and share no code with the library (not even its serial
// oracles), so a defect in the library's graph build or kernels shows up as
// a mismatch here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

using vid = std::int32_t;

/// Directed edge triples exactly as a generator produced them.
struct edge_list {
  vid n = 0;
  std::vector<vid> src, dst;
  std::vector<float> w;
};

/// Plain CSR owned by the benchmark (targets sorted within each row).
struct adjacency {
  vid n = 0;
  std::vector<std::int64_t> offsets;
  std::vector<vid> targets;
  std::vector<float> weights;

  vid size() const { return n; }
  std::int64_t begin(vid v) const { return offsets[static_cast<std::size_t>(v)]; }
  std::int64_t end(vid v) const { return offsets[static_cast<std::size_t>(v) + 1]; }
  vid target(std::int64_t e) const { return targets[static_cast<std::size_t>(e)]; }
  float weight(std::int64_t e) const { return weights[static_cast<std::size_t>(e)]; }

  bool has_edge(vid u, vid v) const {
    auto const first = targets.begin() + begin(u);
    auto const last = targets.begin() + end(u);
    return std::binary_search(first, last, v);
  }
};

/// Read-only view of a library CSR (used to check engine results against
/// the snapshot of the epoch they ran on).
template <typename Csr>
struct csr_view_of {
  Csr const* csr;
  vid size() const { return static_cast<vid>(csr->num_rows); }
  std::int64_t begin(vid v) const {
    return csr->row_offsets[static_cast<std::size_t>(v)];
  }
  std::int64_t end(vid v) const {
    return csr->row_offsets[static_cast<std::size_t>(v) + 1];
  }
  vid target(std::int64_t e) const {
    return csr->column_indices[static_cast<std::size_t>(e)];
  }
  float weight(std::int64_t e) const {
    return csr->values[static_cast<std::size_t>(e)];
  }
};

/// The undirected graph the library is asked to build: self loops dropped,
/// every edge added in both directions, and of repeated (u, v) pairs the
/// first occurrence in that order kept (original edges before reversed
/// ones, each in generation order).
inline adjacency canonical_undirected(edge_list const& in) {
  struct rec {
    vid u, v;
    std::uint32_t order;
    float w;
  };
  std::vector<rec> all;
  all.reserve(2 * in.src.size());
  std::uint32_t order = 0;
  for (std::size_t i = 0; i < in.src.size(); ++i)
    if (in.src[i] != in.dst[i])
      all.push_back({in.src[i], in.dst[i], order++, in.w[i]});
  std::size_t const kept = all.size();
  for (std::size_t i = 0; i < kept; ++i)
    all.push_back({all[i].v, all[i].u, order++, all[i].w});
  std::sort(all.begin(), all.end(), [](rec const& a, rec const& b) {
    if (a.u != b.u)
      return a.u < b.u;
    if (a.v != b.v)
      return a.v < b.v;
    return a.order < b.order;
  });

  adjacency g;
  g.n = in.n;
  g.offsets.assign(static_cast<std::size_t>(in.n) + 1, 0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && all[i].u == all[i - 1].u && all[i].v == all[i - 1].v)
      continue;
    g.targets.push_back(all[i].v);
    g.weights.push_back(all[i].w);
    ++g.offsets[static_cast<std::size_t>(all[i].u) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(in.n); ++v)
    g.offsets[v + 1] += g.offsets[v];
  return g;
}

// --- kernels -----------------------------------------------------------------

template <typename G>
std::vector<vid> ref_bfs(G const& g, vid source) {
  std::vector<vid> depth(static_cast<std::size_t>(g.size()), -1);
  std::vector<vid> queue;
  queue.reserve(static_cast<std::size_t>(g.size()));
  depth[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    vid const u = queue[head];
    vid const next = depth[static_cast<std::size_t>(u)] + 1;
    for (auto e = g.begin(u); e < g.end(u); ++e) {
      vid const v = g.target(e);
      if (depth[static_cast<std::size_t>(v)] < 0) {
        depth[static_cast<std::size_t>(v)] = next;
        queue.push_back(v);
      }
    }
  }
  return depth;
}

template <typename G>
std::vector<float> ref_dijkstra(G const& g, vid source) {
  float const inf = std::numeric_limits<float>::max();
  std::vector<float> dist(static_cast<std::size_t>(g.size()), inf);
  using item = std::pair<float, vid>;
  std::priority_queue<item, std::vector<item>, std::greater<item>> heap;
  dist[static_cast<std::size_t>(source)] = 0.0f;
  heap.push({0.0f, source});
  while (!heap.empty()) {
    auto const [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)])
      continue;  // stale entry
    for (auto e = g.begin(u); e < g.end(u); ++e) {
      vid const v = g.target(e);
      float const cand = d + g.weight(e);
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        heap.push({cand, v});
      }
    }
  }
  return dist;
}

/// Component id per vertex: the smallest vertex of its component.
template <typename G>
std::vector<vid> ref_components(G const& g) {
  std::size_t const n = static_cast<std::size_t>(g.size());
  std::vector<vid> parent(n);
  std::iota(parent.begin(), parent.end(), vid{0});
  auto find = [&parent](vid x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      auto& p = parent[static_cast<std::size_t>(x)];
      p = parent[static_cast<std::size_t>(p)];  // path halving
      x = p;
    }
    return x;
  };
  for (vid u = 0; u < g.size(); ++u)
    for (auto e = g.begin(u); e < g.end(u); ++e) {
      vid a = find(u), b = find(g.target(e));
      if (a == b)
        continue;
      if (a < b)
        std::swap(a, b);
      parent[static_cast<std::size_t>(a)] = b;  // smaller id becomes the root
    }
  std::vector<vid> label(n);
  for (vid v = 0; v < g.size(); ++v)
    label[static_cast<std::size_t>(v)] = find(v);
  return label;
}

/// Power-iteration PageRank with the options the library's defaults use:
/// damping 0.85, dangling mass spread uniformly, stop at L1 change < 1e-9
/// or after 100 sweeps.  Scatter formulation over out-edges.
template <typename G>
std::vector<double> ref_pagerank(G const& g, double damping = 0.85,
                                 double tolerance = 1e-9,
                                 std::size_t max_iterations = 100) {
  std::size_t const n = static_cast<std::size_t>(g.size());
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), next(n);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (vid u = 0; u < g.size(); ++u) {
      auto const deg = g.end(u) - g.begin(u);
      double const r = rank[static_cast<std::size_t>(u)];
      if (deg == 0) {
        dangling += r;
        continue;
      }
      double const share = r / static_cast<double>(deg);
      for (auto e = g.begin(u); e < g.end(u); ++e)
        next[static_cast<std::size_t>(g.target(e))] += share;
    }
    double const base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    double change = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      next[v] = base + damping * next[v];
      change += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (change < tolerance)
      break;
  }
  return rank;
}

// --- output checks -------------------------------------------------------------

inline bool check_bfs(std::vector<vid> const& ref,
                      std::vector<vid> const& depths) {
  return depths == ref;
}

/// A BFS tree: each reached non-source vertex's parent is one level up and
/// adjacent to it.
inline bool check_bfs_tree(adjacency const& g, std::vector<vid> const& ref,
                           std::vector<vid> const& parents) {
  if (parents.size() != ref.size())
    return false;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (ref[v] <= 0)
      continue;
    vid const p = parents[v];
    if (p < 0 || static_cast<std::size_t>(p) >= ref.size() ||
        ref[static_cast<std::size_t>(p)] != ref[v] - 1 ||
        !g.has_edge(p, static_cast<vid>(v)))
      return false;
  }
  return true;
}

inline bool check_sssp(std::vector<float> const& ref,
                       std::vector<float> const& dist) {
  if (dist.size() != ref.size())
    return false;
  float const inf = std::numeric_limits<float>::max();
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if ((ref[v] == inf) != (dist[v] == inf))
      return false;
    if (ref[v] != inf &&
        std::abs(ref[v] - dist[v]) > 1e-5f * std::max(1.0f, ref[v]))
      return false;
  }
  return true;
}

/// Same partition: a bijection between reference and output labels.
inline bool check_components(std::vector<vid> const& ref,
                             std::vector<vid> const& labels) {
  if (labels.size() != ref.size())
    return false;
  std::size_t const n = ref.size();
  std::vector<vid> ref_to_out(n, -1), out_to_ref(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    vid const r = ref[v], o = labels[v];
    if (o < 0 || static_cast<std::size_t>(o) >= n)
      return false;
    auto& ro = ref_to_out[static_cast<std::size_t>(r)];
    auto& orr = out_to_ref[static_cast<std::size_t>(o)];
    if (ro == -1 && orr == -1) {
      ro = o;
      orr = r;
    } else if (ro != o || orr != r) {
      return false;
    }
  }
  return true;
}

inline bool check_pagerank(std::vector<double> const& ref,
                           std::vector<double> const& ranks) {
  if (ranks.size() != ref.size())
    return false;
  for (std::size_t v = 0; v < ref.size(); ++v)
    if (!(std::abs(ref[v] - ranks[v]) <= 1e-9))
      return false;
  return true;
}

/// Personalized PageRank from `source` by power iteration over the walk
/// forward push approximates: with probability `alpha` stop, else step to a
/// uniform out-neighbour (from a vertex without out-edges, back to the
/// source).  Started from zero, every entry stays below the exact value and
/// the entries miss `tail` = (1 - alpha)^sweeps of mass in total.
struct ppr_reference {
  std::vector<double> rank;
  double tail = 1.0;
};

template <typename G>
ppr_reference ref_ppr(G const& g, vid source, double alpha,
                      double max_tail = 1e-10) {
  std::size_t const n = static_cast<std::size_t>(g.size());
  ppr_reference out;
  out.rank.assign(n, 0.0);
  std::vector<double> next(n);
  while (out.tail > max_tail) {
    std::fill(next.begin(), next.end(), 0.0);
    next[static_cast<std::size_t>(source)] = alpha;
    for (vid u = 0; u < g.size(); ++u) {
      double const r = out.rank[static_cast<std::size_t>(u)];
      if (r == 0.0)
        continue;
      auto const deg = g.end(u) - g.begin(u);
      if (deg == 0) {
        next[static_cast<std::size_t>(source)] += (1.0 - alpha) * r;
        continue;
      }
      double const share = (1.0 - alpha) * r / static_cast<double>(deg);
      for (auto e = g.begin(u); e < g.end(u); ++e)
        next[static_cast<std::size_t>(g.target(e))] += share;
    }
    out.rank.swap(next);
    out.tail *= 1.0 - alpha;
  }
  return out;
}

/// Forward-push PPR output against the power-iteration reference.  Push
/// keeps exact = estimate + (residual carried along the walk), so the gap
/// exact - estimate lies in [0, R] at every vertex, R the total residual,
/// and the gaps sum to R.  Also: nothing is negative, and no vertex holds
/// more residual than the push threshold `epsilon` * max(1, degree) allows.
template <typename G>
bool check_ppr(G const& g, ppr_reference const& ref,
               std::vector<double> const& estimate,
               std::vector<double> const& residual, double epsilon) {
  std::size_t const n = static_cast<std::size_t>(g.size());
  if (estimate.size() != n || residual.size() != n || ref.rank.size() != n)
    return false;
  double total_residual = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!(estimate[v] >= 0.0) || !(residual[v] >= 0.0))
      return false;
    double const deg =
        static_cast<double>(g.end(static_cast<vid>(v)) - g.begin(static_cast<vid>(v)));
    if (residual[v] > epsilon * std::max(1.0, deg) * (1.0 + 1e-9))
      return false;
    total_residual += residual[v];
  }
  // The reference sits up to `tail` below the exact vector; 1e-9 covers
  // rounding in both.
  double const slack = ref.tail + 1e-9;
  double gap_sum = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    double const gap = ref.rank[v] - estimate[v];
    if (gap < -slack || gap > total_residual + slack)
      return false;
    gap_sum += gap;
  }
  return std::abs(gap_sum - total_residual) <= slack;
}

}  // namespace perfbench
