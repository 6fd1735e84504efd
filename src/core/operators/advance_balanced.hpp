#pragma once

/// \file core/operators/advance_balanced.hpp
/// \brief Load-balanced advance strategies — the optimization the paper's
/// §IV-C points at: "This is where the bulk of optimizations can be
/// introduced, such as utilizing data parallelism and load balancing."
///
/// The plain (thread-mapped) advance assigns *vertices* to lanes, so one
/// celebrity vertex with 10^5 out-edges serializes an entire lane while the
/// others idle — the classic power-law pathology.  This header provides the
/// alternative decompositions and the dispatcher that makes the choice a
/// policy axis (`execution::load_balance`):
///
///  - **edge_balanced** (`advance_push_edge_balanced`) assigns *edges* to
///    lanes:
///      1. exclusive-scan the frontier's out-degrees -> per-vertex work
///         offsets and the total edge work W (the scan itself runs on the
///         pool via `parallel::exclusive_scan_map` once the frontier is big
///         enough to amortize it);
///      2. split [0, W) into equal chunks;
///      3. each lane binary-searches the offsets for its starting (vertex,
///         intra-vertex) position and walks edges linearly from there.
///  - **degree_class** (`advance_push_degree_class`) is the TWC-style
///    triage: one pass buckets the frontier by out-degree — small vertices
///    (<= 32 edges) stay thread-mapped, medium ones go through the
///    edge-balanced machinery, and huge hubs (>= 4096 edges) are each
///    expanded cooperatively by every lane.  When only a few hubs cause the
///    skew this avoids the full scan + binary search over the whole
///    frontier.
///  - **advance_balanced** dispatches on `policy.balance`; `auto_select`
///    consults the frontier size, its estimated edge work and the graph's
///    cached degree summary (graph/properties.hpp) every superstep, and the
///    decision lands in telemetry (schema v7).
///
/// Every strategy computes the same function as advance_push (same
/// condition evaluations, same output multiset); only the work
/// decomposition changes — the differential suite
/// (tests/test_differential.cpp, LoadBalanceDifferential) pins this across
/// steal orders and graph families.  bench_operators
/// measures the strategies against each other on skewed frontiers
/// (BENCH_loadbalance.json).
///
/// Output generation uses scan compaction and honors the policy's `dedup`
/// flag exactly like advance_push.  Grains in the edge domain
/// (edge-balanced chunks, degree-class medium/huge phases) use
/// `policy.grain` floored at `policy.edge_grain_floor` (default 64, env
/// `ESSENTIALS_EDGE_GRAIN`) so tiny grains cannot shred the binary-search
/// amortization.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "graph/properties.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"

namespace essentials::operators {

namespace detail {

/// Degree-class cutoffs: a vertex is "small" (thread-mapped) when its whole
/// neighborhood is cheaper than one edge-balanced chunk would be, "huge"
/// (cooperatively expanded) when it alone carries more work than a typical
/// lane's fair share of a superstep.  Fixed constants keep the triage —
/// and therefore the output — independent of the host.
inline constexpr std::size_t degree_class_small_cutoff = 32;
inline constexpr std::size_t degree_class_huge_cutoff = 4096;

/// Below this frontier size the degree scan runs serially: the blocked
/// parallel scan costs two sweeps plus two barriers, which only pays for
/// itself on big frontiers.  The offsets are identical either way (integer
/// sums), so this is a pure latency knob.
inline constexpr std::size_t parallel_degree_scan_cutoff = 2048;

/// Pooled per-superstep offsets scratch for the edge-balanced degree scan,
/// thread_local to the coordinating thread like the frontier-gen lane
/// buffers: steady-state supersteps reallocate nothing.  `reused` reports
/// whether the capacity arrived warm (ticks the telemetry `scratch_reused`
/// flag).
inline std::vector<std::size_t>& balanced_offsets_scratch(std::size_t n,
                                                          bool& reused) {
  thread_local std::vector<std::size_t> offsets;
  reused = offsets.capacity() >= n;
  offsets.resize(n);
  return offsets;
}

/// Per-chunk triage lists for the degree-class strategy (small / medium /
/// huge, in frontier order within a chunk).  Chunk-indexed like the
/// frontier-gen lane buffers: each run_blocked chunk owns one entry, the
/// coordinating thread concatenates in chunk order, so the class lists are
/// deterministic subsequences of the frontier.
template <typename V>
struct triage_lists {
  std::vector<V> small, medium, huge;
};

template <typename V>
std::vector<triage_lists<V>>& triage_scratch(std::size_t chunks) {
  thread_local std::vector<triage_lists<V>> lanes;
  if (lanes.size() < chunks)
    lanes.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    lanes[c].small.clear();
    lanes[c].medium.clear();
    lanes[c].huge.clear();
  }
  return lanes;
}

template <typename V>
triage_lists<V>& triage_buckets() {
  thread_local triage_lists<V> buckets;
  buckets.small.clear();
  buckets.medium.clear();
  buckets.huge.clear();
  return buckets;
}

struct edge_balanced_result {
  frontier::generate_stats stats;
  bool offsets_warm = false;
  std::size_t total_work = 0;
};

/// The edge-balanced expansion core over an arbitrary vertex list, shared
/// by `advance_push_edge_balanced` (whole frontier) and the degree-class
/// medium bucket.  Replaces `out`'s contents (it routes through
/// `frontier::generate_scan`).
template <typename G, typename Cond>
edge_balanced_result edge_balanced_expand(
    execution::parallel_policy const& policy, G const& g,
    typename G::vertex_type const* verts, std::size_t f, Cond const& cond,
    frontier::sparse_frontier<typename G::vertex_type>& out,
    parallel::atomic_bitset* dedup, telemetry::op_probe const& probe) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  edge_balanced_result r;
  if (f == 0) {
    out.clear();
    return r;
  }

  // Pass 1: per-vertex work offsets (exclusive scan of out-degrees) into
  // pooled scratch.  Big frontiers scan on the pool; the offsets are
  // bit-identical to the serial scan either way.
  auto& offsets = balanced_offsets_scratch(f + 1, r.offsets_warm);
  auto const degree_of = [&g, verts](std::size_t i) {
    return static_cast<std::size_t>(g.get_out_degree(verts[i]));
  };
  if (f >= parallel_degree_scan_cutoff) {
    r.total_work = parallel::exclusive_scan_map(policy.pool(), f, degree_of,
                                                offsets.data());
  } else {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < f; ++i) {
      offsets[i] = acc;
      acc += degree_of(i);
    }
    r.total_work = acc;
  }
  offsets[f] = r.total_work;
  if (r.total_work == 0) {
    out.clear();
    return r;
  }

  // Pass 2: edge-parallel expansion.  Each chunk of the edge-work range
  // locates its starting vertex once, then walks linearly, funneling hits
  // through the generation path's emit closure.
  auto const process_range = [&](std::size_t wlo, std::size_t whi,
                                 auto&& emit) {
    // First vertex whose work range intersects [wlo, whi).
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.begin() + f + 1, wlo) -
        offsets.begin()) - 1;
    std::size_t w = wlo;
    std::size_t relaxed = 0;
    while (w < whi && i < f) {
      V const v = verts[i];
      auto const edges = g.get_edges(v);
      E const base = *edges.begin();
      std::size_t const v_begin = offsets[i];
      std::size_t const v_end = offsets[i + 1];
      std::size_t const lo = w - v_begin;                  // intra-vertex
      std::size_t const hi = std::min(whi, v_end) - v_begin;
      for (std::size_t k = lo; k < hi; ++k) {
        E const e = static_cast<E>(base + static_cast<E>(k));
        V const n = g.get_dest_vertex(e);
        auto const weight = g.get_edge_weight(e);
        if (cond(v, n, e, weight)) {
          ++relaxed;
          emit(n);
        }
      }
      w = v_begin + hi;
      ++i;
    }
    probe.add_edges(whi - wlo, relaxed);
  };

  r.stats = frontier::generate_scan(
      policy.pool(), r.total_work,
      std::max<std::size_t>(policy.grain, policy.edge_grain_floor), out,
      process_range, dedup);
  return r;
}

}  // namespace detail

/// Edge-balanced push advance: sparse -> sparse, synchronous policies.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push_edge_balanced(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;

  auto const& active = in.active();
  std::size_t const f = active.size();
  auto const probe =
      telemetry::make_probe("advance_push_edge_balanced", policy, f);
  frontier::sparse_frontier<V> out;
  if (f == 0)
    return out;

  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::atomic_bitset* const dedup = detail::dedup_filter(
        policy, static_cast<std::size_t>(g.get_num_vertices()));
    auto const r = detail::edge_balanced_expand(policy, g, active.data(), f,
                                                cond, out, dedup, probe);
    detail::flush_generate_stats(probe, r.stats);
    // The pooled scratch axis covers both the lane buffers *and* the
    // offsets vector: a warm superstep reuses every allocation.
    probe.set_scratch_reused(r.stats.scratch_reused && r.offsets_warm);
    probe.set_load_balance("edge_balanced", false);
  } else {
    // Sequential reference: serial degree scan, then one linear walk.
    std::vector<std::size_t> offsets(f + 1, 0);
    for (std::size_t i = 0; i < f; ++i)
      offsets[i + 1] =
          offsets[i] + static_cast<std::size_t>(g.get_out_degree(active[i]));
    std::size_t const total_work = offsets[f];
    if (total_work == 0)
      return out;
    std::size_t relaxed = 0;
    for (std::size_t i = 0; i < f; ++i) {
      V const v = active[i];
      auto const edges = g.get_edges(v);
      E const base = *edges.begin();
      std::size_t const deg = offsets[i + 1] - offsets[i];
      for (std::size_t k = 0; k < deg; ++k) {
        E const e = static_cast<E>(base + static_cast<E>(k));
        V const n = g.get_dest_vertex(e);
        auto const weight = g.get_edge_weight(e);
        if (cond(v, n, e, weight)) {
          ++relaxed;
          out.active().push_back(n);
        }
      }
    }
    probe.add_edges(total_work, relaxed);
  }
  probe.set_items_out(out.size());
  return out;
}

/// Degree-class (TWC-style) push advance: triage the frontier by degree in
/// one pass, then expand each class with the decomposition that fits it —
/// small thread-mapped, medium edge-balanced, huge cooperatively.  The
/// output is the concatenation small ++ medium ++ huge (each class in
/// frontier order), deterministic for a fixed pool size; the sequential
/// overload delegates to the reference `advance_push(seq, ...)` semantics.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push_degree_class(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;

  if constexpr (!std::decay_t<P>::is_parallel) {
    return advance_push(policy, g, in, cond);
  } else {
    auto const& active = in.active();
    std::size_t const f = active.size();
    auto const probe =
        telemetry::make_probe("advance_push_degree_class", policy, f);
    frontier::sparse_frontier<V> out;
    if (f == 0)
      return out;
    auto& pool = policy.pool();

    // Triage pass: every chunk classifies its slice of the frontier into
    // per-chunk lists (no locks — chunk `lo / step` owns its entry), the
    // coordinating thread concatenates in chunk order.  Zero-degree
    // vertices expand nothing and are dropped here.
    std::size_t const step =
        frontier::detail::chunk_step(pool, f, policy.grain);
    std::size_t const chunks = (f + step - 1) / step;
    auto& tri = detail::triage_scratch<V>(chunks);
    pool.run_blocked(
        f,
        [&](std::size_t lo, std::size_t hi) {
          auto& lane = tri[lo / step];
          for (std::size_t i = lo; i < hi; ++i) {
            V const v = active[i];
            std::size_t const d =
                static_cast<std::size_t>(g.get_out_degree(v));
            if (d == 0)
              continue;
            if (d <= detail::degree_class_small_cutoff)
              lane.small.push_back(v);
            else if (d >= detail::degree_class_huge_cutoff)
              lane.huge.push_back(v);
            else
              lane.medium.push_back(v);
          }
        },
        step);
    auto& buckets = detail::triage_buckets<V>();
    for (std::size_t c = 0; c < chunks; ++c) {
      auto const& lane = tri[c];
      buckets.small.insert(buckets.small.end(), lane.small.begin(),
                           lane.small.end());
      buckets.medium.insert(buckets.medium.end(), lane.medium.begin(),
                            lane.medium.end());
      buckets.huge.insert(buckets.huge.end(), lane.huge.begin(),
                          lane.huge.end());
    }

    // One claim bitmap across all three phases: `dedup_filter` clears it
    // once, the phases share the claims, so the output stays a set even
    // when a neighbor is reachable from different classes.
    parallel::atomic_bitset* const dedup = detail::dedup_filter(
        policy, static_cast<std::size_t>(g.get_num_vertices()));
    frontier::generate_stats combined;
    bool scratch_seen = false, scratch_reused = false;
    auto const note_scratch = [&](frontier::generate_stats const& s) {
      combined.emitted += s.emitted;
      combined.dedup_hits += s.dedup_hits;
      if (!scratch_seen) {
        scratch_seen = true;
        scratch_reused = s.scratch_reused;
      }
    };

    // Phase 1 — small: classic thread mapping; whole (small) vertices are
    // the unit of work.
    if (!buckets.small.empty()) {
      auto const& small = buckets.small;
      auto const body = [&](std::size_t lo, std::size_t hi, auto&& emit) {
        std::size_t inspected = 0, relaxed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          V const v = small[i];
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
      };
      note_scratch(frontier::generate_scan(pool, small.size(),
                                           policy.edge_grain, out, body,
                                           dedup));
    }

    // Phase 2 — medium: edge-balanced over the medium list only (this is
    // where scan + binary search still pays: degrees vary by two orders of
    // magnitude inside the bucket).
    if (!buckets.medium.empty()) {
      frontier::sparse_frontier<V> tmp;
      auto const r =
          detail::edge_balanced_expand(policy, g, buckets.medium.data(),
                                       buckets.medium.size(), cond, tmp,
                                       dedup, probe);
      note_scratch(r.stats);
      out.active().insert(out.active().end(), tmp.active().begin(),
                          tmp.active().end());
    }

    // Phase 3 — huge: each hub's edge range becomes its own blocked index
    // space, so every lane cooperates on one celebrity vertex instead of
    // one lane serializing it.
    for (V const v : buckets.huge) {
      auto const edges = g.get_edges(v);
      E const base = *edges.begin();
      std::size_t const deg = static_cast<std::size_t>(g.get_out_degree(v));
      auto const body = [&](std::size_t lo, std::size_t hi, auto&& emit) {
        std::size_t relaxed = 0;
        for (std::size_t k = lo; k < hi; ++k) {
          E const e = static_cast<E>(base + static_cast<E>(k));
          V const n = g.get_dest_vertex(e);
          auto const w = g.get_edge_weight(e);
          if (cond(v, n, e, w)) {
            ++relaxed;
            emit(n);
          }
        }
        probe.add_edges(hi - lo, relaxed);
      };
      frontier::sparse_frontier<V> tmp;
      note_scratch(frontier::generate_scan(
          pool, deg,
          std::max<std::size_t>(policy.grain, policy.edge_grain_floor), tmp,
          body, dedup));
      out.active().insert(out.active().end(), tmp.active().begin(),
                          tmp.active().end());
    }

    detail::flush_generate_stats(probe, combined);
    probe.set_scratch_reused(scratch_seen && scratch_reused);
    probe.set_load_balance("degree_class", false);
    probe.set_items_out(out.size());
    return out;
  }
}

namespace detail {

/// The auto_select heuristic, from three inputs the superstep already has:
/// the frontier size, its estimated edge work (frontier size x the graph's
/// cached mean degree) and the graph's degree shape (max/mean ratio,
/// relative spread).  Deliberately simple and documented in
/// docs/ARCHITECTURE.md; BENCH_loadbalance.json holds it to >= 0.95x of
/// the best fixed strategy on the skewed sweep.
inline execution::load_balance auto_select_strategy(
    std::size_t frontier_size, graph::degree_stats_t const& s,
    std::size_t lanes, std::size_t edge_grain_floor) {
  using lb = execution::load_balance;
  if (frontier_size == 0)
    return lb::thread_mapped;
  // Hubs big enough for cooperative expansion exist: triage is cheap
  // insurance even on small frontiers (one of them could be in there).
  if (s.max_degree >= degree_class_huge_cutoff)
    return lb::degree_class;
  // Not enough estimated edge work to keep the lanes busy past the floor:
  // decomposition overhead cannot pay for itself.
  double const est_work =
      static_cast<double>(frontier_size) * std::max(s.mean_degree, 1.0);
  if (est_work <
      static_cast<double>(2 * lanes * std::max<std::size_t>(edge_grain_floor, 1)))
    return lb::thread_mapped;
  // Pronounced skew without giant hubs: triage still wins (the medium
  // bucket gets edge-balanced, the many small vertices skip the scan).
  if (s.mean_degree > 0.0 &&
      static_cast<double>(s.max_degree) >= 16.0 * s.mean_degree)
    return lb::degree_class;
  // Moderate, broad variance: pay the full scan once per superstep.
  if (s.mean_degree > 0.0 && s.stddev_degree >= s.mean_degree)
    return lb::edge_balanced;
  return lb::thread_mapped;
}

}  // namespace detail

/// The load-balance dispatcher: run the push advance with the
/// decomposition `policy.balance` names, resolving `auto_select` per
/// superstep from the frontier and the graph's cached degree summary.  The
/// resolved choice is recorded in telemetry (schema v7) on a zero-cost
/// `advance_balanced` op record whenever the caller engaged the axis
/// (balance != thread_mapped); the strategy's own op record carries the
/// work counters as usual.  Sequential policies take the reference path
/// unchanged.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_balanced(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  if constexpr (!std::decay_t<P>::is_parallel) {
    return advance_push(policy, g, in, cond);
  } else {
    using lb = execution::load_balance;
    lb strategy = policy.balance;
    bool const autod = strategy == lb::auto_select;
    if (autod) {
      auto const stats = graph::cached_out_degree_stats(g);
      strategy = detail::auto_select_strategy(
          in.size(), stats, policy.pool().size() + 1, policy.edge_grain_floor);
    }
    telemetry::op_probe probe;
    if (policy.balance != lb::thread_mapped) {
      probe = telemetry::make_probe("advance_balanced", policy, in.size());
      probe.set_load_balance(execution::to_string(strategy), autod);
    }
    frontier::sparse_frontier<V> out;
    switch (strategy) {
      case lb::edge_balanced:
        out = advance_push_edge_balanced(policy, g, in, cond);
        break;
      case lb::degree_class:
        out = advance_push_degree_class(policy, g, in, cond);
        break;
      case lb::thread_mapped:
      case lb::auto_select:  // resolved above; thread-mapped is the fallback
        out = advance_push(policy, g, in, cond);
        break;
    }
    probe.set_items_out(out.size());
    return out;
  }
}

}  // namespace essentials::operators
