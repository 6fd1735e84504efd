#pragma once

/// \file residual/state.hpp
/// \brief Per-vertex (value, delta) accumulator state and the wave-based
/// re-convergence loop — the residual engine's core.
///
/// Execution model (Maiter's delta-accumulative processing on top of the
/// bucketed SLF/LLL scheduler of residual/buckets.hpp):
///
///   inject residuals  ──►  [buckets by magnitude]  ──►  wave = drain top
///                                  ▲                         bucket
///                                  │                           │
///                                  └── propagate shares ◄── process wave
///                                                        (claim Δ, combine,
///                                                         relax out-edges)
///
/// Waves repeat until every bucket drains (min-lattices) or the striped
/// residual counter certifies total mass < ε (sum algebras) — convergence
/// in time proportional to the injected change, not the graph.
///
/// **The scheduling handshake** (why nothing is ever lost): each vertex
/// has a `queued` flag meaning "a staged copy of v exists in some bucket".
/// Producers *accumulate into delta, then try to claim the flag*;
/// consumers *clear the flag, then drain the delta*.  All four operations
/// are seq_cst RMWs (residual/algebra.hpp::detail), so they have a single
/// total order — and in every interleaving where a producer's share lands
/// after the consumer's drain, the consumer's earlier flag-clear makes the
/// producer's claim succeed, so the share gets a fresh staging.  A share
/// can at worst be processed *earlier* than its staging (absorbed by a
/// racing wave), never left behind.
///
/// Waves run through `thread_pool::run_blocked`, so the pool's substrate
/// choices — work stealing, tiered NUMA steal order, lane-stable scratch —
/// carry over unchanged; small waves (the standing-
/// query steady state) are processed inline on the caller to keep
/// re-convergence latency in microseconds.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/enactor.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomics.hpp"
#include "parallel/thread_pool.hpp"
#include "residual/algebra.hpp"
#include "residual/buckets.hpp"
#include "residual/striped_counter.hpp"

namespace essentials::residual {

struct residual_options {
  double epsilon = 1e-9;        ///< convergence: total residual mass < ε
  std::size_t num_buckets = 64; ///< factor-of-two magnitude bands
  std::size_t seq_threshold = 512;  ///< waves below this run inline (no pool)
  /// Waves smaller than this absorb every remaining bucket instead of just
  /// the top one: priority ordering cannot pay for its per-wave overhead
  /// on a handful of vertices (the standing-query steady state).
  std::size_t merge_threshold = 64;
};

/// Outcome of one `reconverge` call.
struct reconverge_stats {
  std::size_t waves = 0;       ///< priority waves executed
  std::size_t processed = 0;   ///< vertex claims (incl. stale/demoted)
  std::size_t edges = 0;       ///< out-edges relaxed (the work metric)
  bool converged = false;      ///< false only when cancelled/deadlined
  enactor::cancelled_or_deadline::reason stop_reason =
      enactor::cancelled_or_deadline::reason::none;
};

/// The residual engine for one algebra over one vertex universe.  `A` must
/// satisfy `residual_algebra`; `V` is the graph's vertex id type.
template <typename A, typename V = vertex_t>
class residual_state {
 public:
  using value_type = typename A::value_type;
  using algebra_type = A;

  residual_state(std::size_t n, A algebra, residual_options opt,
                 parallel::thread_pool& pool)
      : algebra_(algebra),
        opt_(opt),
        pool_(&pool),
        values_(n, algebra.identity()),
        deltas_(n, algebra.identity()),
        queued_(n, 0),
        buckets_(opt.num_buckets ? opt.num_buckets : 1,
                 std::max<std::size_t>(pool.max_lanes(), 1)),
        floor_(algebra.schedule_floor(n, opt.epsilon)) {}

  std::size_t size() const noexcept { return values_.size(); }
  A const& algebra() const noexcept { return algebra_; }
  residual_options const& options() const noexcept { return opt_; }
  parallel::thread_pool& pool() const noexcept { return *pool_; }

  /// Converged values.  Stable between reconverge calls; concurrent
  /// readers during a reconverge must go through value_at().
  std::vector<value_type> const& values() const noexcept { return values_; }

  /// Torn-read-safe single-value probe (atomic load).
  value_type value_at(std::size_t v) const {
    return atomic::load(&values_[v]);
  }

  /// Outstanding residual mass (exact for sum algebras between waves).
  double residual_mass() const noexcept { return counter_.total(); }

  /// Merge `share` into v's pending delta and stage v if its priority
  /// clears the floor.  Callable from any thread, including mid-wave
  /// workers — this is also the propagate path.
  void inject(V v, value_type share) {
    std::size_t const lane = pool_->lane_id();
    accumulate_and_stage(static_cast<std::size_t>(v), share, lane);
  }

  /// Re-initialize every vertex to (identity, identity) keeping capacity —
  /// the full-recompute fallback (non-monotone epoch rebase, deletion
  /// chains).  Caller must be quiescent (no wave in flight).
  void reset() {
    std::vector<V> drained;
    while (buckets_.take_wave(drained) != residual_buckets<V>::npos) {
    }
    std::fill(values_.begin(), values_.end(), algebra_.identity());
    std::fill(deltas_.begin(), deltas_.end(), algebra_.identity());
    std::fill(queued_.begin(), queued_.end(), static_cast<unsigned char>(0));
    counter_.reset();
  }

  /// Run priority waves until convergence, cancellation, or deadline.
  /// Returns the work actually done; `converged == false` means staged
  /// residuals remain and a later call resumes exactly where this stopped.
  template <typename G>
  reconverge_stats reconverge(
      G const& g, enactor::cancelled_or_deadline stop = {}) {
    reconverge_stats st;
    // Member scratch: reconverge is coordinator-only, and a steady-state
    // absorb should not pay a fresh allocation per call.
    std::vector<V>& wave = wave_scratch_;
    for (;;) {
      if (stop.budget.expired() || stop.token.cancelled()) {
        st.stop_reason = stop.why();
        return st;
      }
      if constexpr (A::exact_mass) {
        // Early convergence by mass: anything still staged is below the
        // certified total, and stays staged for the next call — flags and
        // buckets remain consistent because we stop *before* draining.
        if (counter_.total() < opt_.epsilon) {
          st.converged = true;
          return st;
        }
      }
      std::size_t b = buckets_.take_wave(wave);
      if (b == residual_buckets<V>::npos) {
        st.converged = true;
        return st;
      }
      if (wave.size() < opt_.merge_threshold) {
        // Tiny wave: fold in everything else that is staged and run it as
        // the lowest band, so LLL demotion can't bounce items between
        // micro-waves.  Ordering is a heuristic — correctness only needs
        // every staged vertex processed.
        while (buckets_.take_wave(merge_scratch_) !=
               residual_buckets<V>::npos)
          wave.insert(wave.end(), merge_scratch_.begin(),
                      merge_scratch_.end());
        b = buckets_.num_buckets() - 1;
      }
      ++st.waves;
      st.processed += wave.size();
      // One priority wave == one telemetry superstep (schema v6 standing
      // traces): frontier_in is the wave size, the metric is the residual
      // mass still outstanding when the wave retires.
      auto* const rec = telemetry::current();
      if (rec)
        rec->begin_superstep(wave.size(), direction_t::push);
      if (wave.size() < opt_.seq_threshold) {
        // Tiny wave — the standing-query steady state.  Inline on the
        // caller: a run_blocked round trip would dominate the microsecond
        // re-convergence budget.
        std::size_t const lane = pool_->lane_id();
        for (V const v : wave)
          st.edges += process_one(g, v, lane, b);
      } else {
        std::atomic<std::size_t> edges{0};
        pool_->run_blocked(
            wave.size(),
            [&](std::size_t lo, std::size_t hi) {
              std::size_t const lane = pool_->lane_id();
              std::size_t local = 0;
              for (std::size_t i = lo; i < hi; ++i)
                local += process_one(g, wave[i], lane, b);
              edges.fetch_add(local, std::memory_order_relaxed);
            },
            /*grain=*/64);
        st.edges += edges.load(std::memory_order_relaxed);
      }
      if (rec) {
        rec->set_metric(counter_.total());
        rec->end_superstep(0);
      }
    }
  }

 private:
  /// Producer protocol: accumulate (seq_cst RMW), then claim the queued
  /// flag.  Magnitude below the schedule floor skips staging — for sum
  /// algebras the floor is ε/(2n), bounding all unscheduled mass by ε/2.
  void accumulate_and_stage(std::size_t v, value_type share,
                            std::size_t lane) {
    if constexpr (A::monotone) {
      // Test-before-RMW (the classic relaxation prune): on a min-lattice a
      // share that cannot improve the current value can never improve the
      // fixed point (values only tighten), so skip the seq_cst accumulate
      // and the staging probe.  Most shares pushed into a settled region
      // die here for the price of one plain load.
      if (!(algebra_.magnitude(atomic::load(&values_[v]), share) > 0.0))
        return;
    }
    algebra_.accumulate(&deltas_[v], share);
    if constexpr (A::exact_mass)
      counter_.add(algebra_.mass(share), lane);
    maybe_stage(v, lane);
  }

  void maybe_stage(std::size_t v, std::size_t lane) {
    double const mag = algebra_.magnitude(
        atomic::load(&values_[v]), atomic::load(&deltas_[v]));
    if (!(mag > floor_))
      return;
    if (detail::try_claim(&queued_[v]))
      buckets_.stage(bucket_of(mag, buckets_.num_buckets()), lane,
                     static_cast<V>(v));
  }

  /// Consumer protocol: LLL demotion check, then clear-flag → drain-delta
  /// → combine → propagate shares into out-neighbours.  Returns edges
  /// relaxed.
  template <typename G>
  std::size_t process_one(G const& g, V v, std::size_t lane,
                          std::size_t wave_bucket) {
    std::size_t const idx = static_cast<std::size_t>(v);
    double const mag = algebra_.magnitude(atomic::load(&values_[idx]),
                                          atomic::load(&deltas_[idx]));
    if (!(mag > floor_)) {
      // Fell below the floor (absorbed/cancelled since staging): unstage.
      // The post-clear re-check closes the race with a producer whose
      // accumulate landed between our magnitude read and the clear.
      detail::clear_claim(&queued_[idx]);
      maybe_stage(idx, lane);
      return 0;
    }
    if (std::size_t const now = bucket_of(mag, buckets_.num_buckets());
        now > wave_bucket) {
      // LLL: priority dropped out of this wave's band — demote unprocessed.
      // We still hold the flag, so the restaged copy stays the only one.
      buckets_.stage(now, lane, v);
      return 0;
    }
    detail::clear_claim(&queued_[idx]);
    value_type const d =
        detail::exchange_seq(&deltas_[idx], algebra_.identity());
    if constexpr (A::exact_mass)
      counter_.add(-algebra_.mass(d), lane);
    value_type const old_v = atomic::load(&values_[idx]);
    value_type const new_v = algebra_.combine(old_v, d);
    if constexpr (A::monotone) {
      if (!(new_v < old_v))
        return 0;  // stale claim: a racing wave already absorbed it
    } else {
      if (d == algebra_.identity())
        return 0;  // drained by a racing claim
    }
    atomic::store(&values_[idx], new_v);
    std::size_t const deg = static_cast<std::size_t>(g.get_out_degree(v));
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      accumulate_and_stage(
          static_cast<std::size_t>(n),
          algebra_.propagate(d, new_v, g.get_edge_weight(e), deg), lane);
    }
    return deg;
  }

  A algebra_;
  residual_options opt_;
  parallel::thread_pool* pool_;
  std::vector<value_type> values_;
  std::vector<value_type> deltas_;
  std::vector<unsigned char> queued_;
  residual_buckets<V> buckets_;
  striped_counter counter_;
  double floor_;
  std::vector<V> wave_scratch_;
  std::vector<V> merge_scratch_;
};

}  // namespace essentials::residual
