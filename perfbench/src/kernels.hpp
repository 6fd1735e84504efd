#pragma once

// Kernel phase: repeated calls of the public algorithms with the `par`
// policy on the workload graph, each output checked against the serial
// references.  In a traced run every other call records the library's
// telemetry, and the per-layer figures come from those records.

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "essentials.hpp"
#include "reference.hpp"

namespace perfbench {

namespace es = essentials;

enum kernel_id : std::size_t { k_bfs, k_sssp, k_cc, k_pagerank, k_count };
inline constexpr std::array<char const*, k_count> kernel_names = {
    "bfs", "sssp", "cc", "pagerank"};

/// PageRank runs a fixed number of sweeps (tolerance 0).  The sweeps an
/// R-MAT graph needs to converge to 1e-9 vary from about 33 to 60 between
/// seeds, which would make the time per call depend on the seed rather
/// than on the program.
inline constexpr std::size_t kPagerankSweeps = 40;
inline es::algorithms::pagerank_options const pagerank_opts{0.85, 0.0,
                                                            kPagerankSweeps};

/// Reference answers for the run's inputs, computed once at set-up.
struct kernel_refs {
  std::vector<vid> sources;
  std::vector<std::vector<vid>> bfs;      // per source
  std::vector<std::vector<float>> sssp;   // per source
  std::vector<vid> components;
  std::vector<double> pagerank;
  std::array<std::vector<double>, k_count> serial_ms;  // reference run times
};

/// What the telemetry records of one kernel's traced calls add up to.
struct kernel_trace_agg {
  std::vector<double> supersteps;       // per call
  std::vector<double> self_us;          // per superstep
  std::vector<double> advance_ms;       // per call
  std::vector<double> filter_ms;        // per call
  std::vector<double> edges_inspected;  // per call
  std::vector<double> emits;            // per call
  double inspected = 0, relaxed = 0, dedup_hits = 0, emitted = 0;
  double op_ms = 0;  // advance + filter time, for edges per second
};

struct layer_agg {
  std::array<kernel_trace_agg, k_count> kernel;
  std::map<std::string, double> lb_ms;  // push-advance time per strategy
  std::size_t ops = 0, scratch_reused = 0;
  std::vector<double> lanes, busy, queued;  // per parallel op
};

struct kernel_samples {
  std::array<std::vector<double>, k_count> ms;         // untraced calls
  std::array<std::vector<double>, k_count> traced_ms;  // traced calls
  std::uint64_t attempted = 0, failed = 0;
  layer_agg layers;
};

inline bool is_advance_op(std::string const& name) {
  return name.rfind("advance_push", 0) == 0 ||
         name.rfind("neighbors_expand", 0) == 0 ||
         name == "advance_pull" || name == "advance_edges" ||
         name == "expand_to_edges" || name == "neighbor_reduce_activate";
}

inline bool is_filter_op(std::string const& name) {
  return name.rfind("filter", 0) == 0 || name.rfind("uniquify", 0) == 0;
}

/// The push advances `operators::advance_balanced` dispatches to, one per
/// load-balance strategy.  Pull, neighbor-reduce and edge-expansion
/// advances are not load-balanced and stay out of `lb_share`.
inline char const* push_strategy(std::string const& name) {
  if (name == "advance_push.par")
    return "thread_mapped";
  if (name == "advance_push_edge_balanced")
    return "edge_balanced";
  if (name == "advance_push_degree_class")
    return "degree_class";
  return nullptr;
}

inline void absorb_trace(es::telemetry::trace const& t, kernel_trace_agg& k,
                         layer_agg& layers) {
  double advance = 0, filter = 0, inspected = 0, emits = 0;
  for (auto const& step : t.supersteps) {
    double covered = 0;
    auto const& ops = step.ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      auto const& op = ops[i];
      // `advance_balanced` records the strategy it dispatched to (its
      // load_balance field) and retires right after that strategy's own
      // record, which carries the time and the counters.
      if (op.name == "advance_balanced")
        continue;
      covered += op.millis;
      if (is_advance_op(op.name)) {
        advance += op.millis;
        if (char const* named = push_strategy(op.name)) {
          bool const dispatched = i + 1 < ops.size() &&
                                  ops[i + 1].name == "advance_balanced" &&
                                  !ops[i + 1].load_balance.empty();
          // Without a dispatcher record (the default thread_mapped policy
          // records none) the op's name is the strategy.
          layers.lb_ms[dispatched ? ops[i + 1].load_balance : named] +=
              op.millis;
        }
      } else if (is_filter_op(op.name)) {
        filter += op.millis;
      }
      inspected += static_cast<double>(op.edges_inspected);
      k.relaxed += static_cast<double>(op.edges_relaxed);
      k.dedup_hits += static_cast<double>(op.dedup_hits);
      emits += static_cast<double>(op.emits_scan + op.emits_lock);
      ++layers.ops;
      layers.scratch_reused += op.scratch_reused ? 1 : 0;
      if (op.pool_lanes != 0) {
        layers.lanes.push_back(static_cast<double>(op.pool_lanes));
        layers.busy.push_back(static_cast<double>(op.pool_busy));
        layers.queued.push_back(static_cast<double>(op.pool_queued));
      }
    }
    k.self_us.push_back(std::max(0.0, step.millis - covered) * 1000.0);
  }
  k.supersteps.push_back(static_cast<double>(t.supersteps.size()));
  k.advance_ms.push_back(advance);
  k.filter_ms.push_back(filter);
  k.edges_inspected.push_back(inspected);
  k.emits.push_back(emits);
  k.inspected += inspected;
  k.emitted += emits;
  k.op_ms += advance + filter;
}

/// Runs kernel calls until `seconds` have passed and every kernel has at
/// least its minimum number of samples.  The BFS/SSSP source cycles through
/// `refs.sources`; CC and PageRank run once every `slow_every` rounds.
template <typename G>
kernel_samples run_kernels(G const& g, adjacency const& ref,
                           kernel_refs const& refs, double seconds,
                           std::size_t slow_every, std::size_t min_fast,
                           std::size_t min_slow, bool traced,
                           span_log& spans) {
  kernel_samples out;
  auto const par = es::execution::par;
  auto const deadline =
      now() + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(seconds));

  // Traced runs alternate traced and untraced calls of each kernel, so the
  // tracing overhead is the difference between the two halves.
  auto timed = [&](kernel_id k, auto&& call, auto&& check) {
    bool const trace_this =
        traced && (out.ms[k].size() + out.traced_ms[k].size()) % 2 == 1;
    es::telemetry::trace t;
    auto const t0 = now();
    bool ok;
    if (trace_this) {
      es::telemetry::scoped_recording rec(t, kernel_names[k]);
      auto const r = call();
      auto const t1 = now();
      spans.record(std::string("algorithms.") + kernel_names[k], t0, t1);
      out.traced_ms[k].push_back(ms_between(t0, t1));
      ok = check(r);
    } else {
      auto const r = call();
      out.ms[k].push_back(ms_between(t0, now()));
      ok = check(r);
    }
    if (trace_this)
      absorb_trace(t, out.layers.kernel[k], out.layers);
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "check failed: %s\n", kernel_names[k]);
    }
  };
  auto count = [&](kernel_id k) {
    return out.ms[k].size() + out.traced_ms[k].size();
  };

  for (std::size_t round = 0;; ++round) {
    bool const time_left = now() < deadline;
    bool const need_fast = count(k_bfs) < min_fast || count(k_sssp) < min_fast;
    bool const need_slow = count(k_cc) < min_slow || count(k_pagerank) < min_slow;
    if (!time_left && !need_fast && !need_slow)
      break;
    std::size_t const i = round % refs.sources.size();
    vid const s = refs.sources[i];
    if (time_left || need_fast) {
      timed(k_bfs, [&] { return es::algorithms::bfs(par, g, s); },
            [&](auto const& r) {
              return check_bfs(refs.bfs[i], r.depths) &&
                     check_bfs_tree(ref, refs.bfs[i], r.parents);
            });
      timed(k_sssp, [&] { return es::algorithms::sssp(par, g, s); },
            [&](auto const& r) { return check_sssp(refs.sssp[i], r.distances); });
    }
    if ((time_left && round % slow_every == 0) || need_slow) {
      timed(k_cc, [&] { return es::algorithms::connected_components(par, g); },
            [&](auto const& r) {
              return check_components(refs.components, r.labels);
            });
      timed(k_pagerank,
            [&] { return es::algorithms::pagerank(par, g, pagerank_opts); },
            [&](auto const& r) { return check_pagerank(refs.pagerank, r.ranks); });
    }
  }
  return out;
}

/// Median wall time of the `seq` policy on the same inputs (traced runs
/// only; a reference row, not gated).  Outputs are checked like any other.
template <typename G>
std::array<double, k_count> time_seq(G const& g, adjacency const& ref,
                                     kernel_refs const& refs, std::size_t reps,
                                     kernel_samples& counts) {
  auto const seq = es::execution::seq;
  std::array<std::vector<double>, k_count> ms;
  auto note = [&](kernel_id k, time_point t0, bool ok) {
    ms[k].push_back(ms_between(t0, now()));
    ++counts.attempted;
    if (!ok) {
      ++counts.failed;
      std::fprintf(stderr, "check failed: seq %s\n", kernel_names[k]);
    }
  };
  for (std::size_t r = 0; r < reps; ++r) {
    std::size_t const i = r % refs.sources.size();
    vid const s = refs.sources[i];
    auto t0 = now();
    auto const b = es::algorithms::bfs(seq, g, s);
    note(k_bfs, t0,
         check_bfs(refs.bfs[i], b.depths) &&
             check_bfs_tree(ref, refs.bfs[i], b.parents));
    t0 = now();
    auto const d = es::algorithms::sssp(seq, g, s);
    note(k_sssp, t0, check_sssp(refs.sssp[i], d.distances));
    t0 = now();
    auto const c = es::algorithms::connected_components(seq, g);
    note(k_cc, t0, check_components(refs.components, c.labels));
    t0 = now();
    auto const p = es::algorithms::pagerank(seq, g, pagerank_opts);
    note(k_pagerank, t0, check_pagerank(refs.pagerank, p.ranks));
  }
  std::array<double, k_count> med{};
  for (std::size_t k = 0; k < k_count; ++k)
    med[k] = median(ms[k]);
  return med;
}

}  // namespace perfbench
