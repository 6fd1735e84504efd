// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Generates the workload's inputs from the seed with the in-repo
// generators, builds the graph through the public API, then measures two
// phases on it: direct kernel calls (algorithms::bfs / sssp /
// connected_components / pagerank with execution::par) and engine serving
// (analytics_engine under open-loop traffic with writes beside the reads).
// Every output is checked against the benchmark's own serial references.
// The last line of standard output is the result record; `--trace 0`
// reports the end-to-end metrics and `--trace 1` the per-layer metrics.
// Workload choices and the layer map are documented in perfbench/README.md.

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "kernels.hpp"
#include "reference.hpp"
#include "serve.hpp"

namespace {

using namespace perfbench;
using graph_t = es::graph::graph_push_pull;
using snapshot_t = es::graph::graph_csr;

struct workload {
  std::string name;
  bool grid;                // 2-D grid, else R-MAT
  int scale;                // R-MAT scale, or grid side = 2^scale
  bool dynamic_serve;       // engine over a dynamic graph with deltas
  double kernel_share;      // share of --seconds spent in the kernel phase
  std::size_t slow_every;   // CC + PageRank once every this many rounds
  std::size_t min_fast, min_slow;
  serve_plan plan;
  std::size_t delta_edges;  // undirected edges added per publish
  double kernel_tail_pct;   // percentile of bfs_tail_ms / sssp_tail_ms
  double req_tail_pct;      // percentile of req_tail_ms
};

// Offered rates are fixed, not measured per run, so that two commits see
// the same traffic; they sit near half of the capacity measured on a
// 4-core host (see perfbench/README.md).
workload make_workload(std::string const& name) {
  workload w{};
  w.name = name;
  w.plan = serve_plan{};
  w.kernel_tail_pct = 80;  // min_fast >= 50 keeps ten samples beyond it
  w.min_fast = 50;
  if (name == "rmat-kernels" || name == "grid-kernels") {
    w.grid = name == "grid-kernels";
    w.scale = w.grid ? 9 : 18;
    w.dynamic_serve = false;
    w.kernel_share = 0.35;
    w.slow_every = 2;
    w.min_slow = 10;
    // Engine traffic over the same graph, where every request costs a
    // whole kernel.  For 65% of the serve window: paced cold SSSP from
    // seeded sources at about 40% of the single runner's capacity, and a
    // hot pool re-asked on every publish.  Then BFS bursts alone,
    // one after another.  Requests of a few milliseconds (PPR) were tried
    // and dropped: with the runner mostly idle their latency changed by 2x
    // from run to run.  Bursts among the paced traffic were dropped too: a
    // grid burst holds the runner for over a second, so the paced tail and
    // the burst time hinged on how the two happened to overlap.  On the
    // grid, a burst of 8 makes its depth, the largest eccentricity among
    // its sources, vary little from seed to seed.
    w.plan.rate = w.grid ? 4.5 : 10;
    w.plan.sssp_share = 1.0;
    w.plan.bfs_share = 0;
    w.plan.paced_sssp_hot = false;
    // Grid SSSP time varies with the source's eccentricity, so the grid
    // re-asks four hot sources per publish to keep refresh time steady.
    w.plan.hot_pool = w.grid ? 4 : 2;
    w.plan.burst_size = w.grid ? 8 : 32;
    w.plan.burst_segment = 0.35;
    w.plan.burst_every_s = 0.2;  // idle gap between bursts
    w.plan.publish_every_s = w.grid ? 3.0 : 2.0;
    w.plan.deadline = std::chrono::milliseconds(10000);
    w.plan.check_samples = 12;
    w.plan.max_kept_epochs = 64;  // every epoch shares the one graph
    w.plan.tail_limit_ms = w.grid ? 150 : 100;
    w.req_tail_pct = 80;  // >= 53 paced requests per run
  } else if (name == "serve-mixed") {
    w.grid = false;
    w.scale = 16;
    w.dynamic_serve = true;
    w.kernel_share = 0.3;
    w.slow_every = 1;
    w.min_slow = 12;
    // About a third of the single runner's capacity on a 4-core host: paced
    // BFS and PPR keep it about 25% busy, refreshes and bursts another 10%.
    // Heavier traffic made the request tail move with how many arrivals met
    // a refresh or a burst (perfbench/README.md).
    w.plan.rate = 40;
    w.plan.hot_pool = 4;
    w.plan.burst_size = 64;
    w.plan.burst_every_s = 2.0;
    w.plan.publish_every_s = 0.5;
    w.plan.check_samples = 48;
    w.plan.max_kept_epochs = 8;
    w.plan.tail_limit_ms = 40;
    w.delta_edges = 16;
    // p90 (about 1100 paced requests in 40 s): the slowest request kinds and
    // light queueing.  p95 and p99 fell among the requests that arrived
    // during a refresh or a burst, and moved with how often that happened.
    w.req_tail_pct = 90;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

edge_list generate(workload const& w, std::uint64_t seed) {
  es::graph::coo_t<> coo;
  es::generators::weight_options const weights{1.0f, 4.0f};
  if (w.grid) {
    vid const side = vid{1} << w.scale;
    coo = es::generators::grid_2d(side, side, weights, seed);
  } else {
    coo = es::generators::rmat({w.scale, 8, 0.57, 0.19, 0.19, weights, seed});
  }
  edge_list e;
  e.n = coo.num_rows;
  e.src.assign(coo.row_indices.begin(), coo.row_indices.end());
  e.dst.assign(coo.column_indices.begin(), coo.column_indices.end());
  e.w.assign(coo.values.begin(), coo.values.end());
  return e;
}

/// The library build under measurement: drop self loops, symmetrize,
/// deduplicate and build CSR + CSC.
graph_t build(edge_list const& e) {
  es::graph::coo_t<> coo;
  coo.num_rows = coo.num_cols = e.n;
  coo.row_indices.assign(e.src.begin(), e.src.end());
  coo.column_indices.assign(e.dst.begin(), e.dst.end());
  coo.values.assign(e.w.begin(), e.w.end());
  es::graph::remove_self_loops(coo);
  es::graph::symmetrize(coo);
  return es::graph::from_coo<graph_t>(std::move(coo));
}

/// `count` distinct sources drawn from the seed among the vertices of the
/// largest component (R-MAT leaves many vertices isolated, and a source
/// there makes a trivial traversal).
std::vector<vid> pick_sources(std::vector<vid> const& components,
                              std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> size(components.size(), 0);
  for (vid c : components)
    ++size[static_cast<std::size_t>(c)];
  vid const giant = static_cast<vid>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<vid> members;
  for (std::size_t v = 0; v < components.size(); ++v)
    if (components[v] == giant)
      members.push_back(static_cast<vid>(v));
  rng64 rng(seed ^ 0x50c5ull);
  std::vector<vid> out;
  count = std::min(count, members.size());
  while (out.size() < count) {
    vid const v = members[rng.below(members.size())];
    if (std::find(out.begin(), out.end(), v) == out.end())
      out.push_back(v);
  }
  return out;
}

template <typename G>
std::size_t graph_bytes(G const& g) {
  auto const& r = g.csr();
  auto const& c = g.csc();
  return r.row_offsets.size() * sizeof(r.row_offsets[0]) +
         r.column_indices.size() * sizeof(r.column_indices[0]) +
         r.values.size() * sizeof(r.values[0]) +
         c.column_offsets.size() * sizeof(c.column_offsets[0]) +
         c.row_indices.size() * sizeof(c.row_indices[0]) +
         c.values.size() * sizeof(c.values[0]);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    std::string const a = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + a);
    std::string const v = argv[++i];
    if (a == "--workload")
      o.workload = v;
    else if (a == "--seed")
      o.seed = std::stoull(v);
    else if (a == "--seconds")
      o.seconds = std::stod(v);
    else if (a == "--trace")
      o.trace = v == "1";
    else if (a == "--trace-out")
      o.trace_out = v;
    else
      throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty() || !(o.seconds > 0))
    throw std::invalid_argument("need --workload and --seconds > 0");
  return o;
}

double overhead_pct(double traced, double untraced) {
  return (traced / untraced - 1.0) * 100.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Set-up is repeated and its median reported, so that one slow set-up
/// does not decide the figure: at least three times, five when that fits
/// in four seconds.  Traced runs interleave traced repetitions, which run
/// under the library's telemetry recorder and record a span.
template <typename F>
void repeat_setup(F&& once, bool trace, span_log& spans, char const* name,
                  std::vector<double>& untraced, std::vector<double>& traced) {
  double spent = 0;
  for (std::size_t i = 0;; ++i) {
    bool const traced_rep = trace && i % 2 == 1;
    std::size_t const done = untraced.size();
    if (!traced_rep && done >= 3 && (done >= 5 || spent > 4.0))
      break;
    auto const t0 = now();
    if (traced_rep) {
      es::telemetry::trace t;
      es::telemetry::scoped_recording rec(t, name);
      once();
    } else {
      once();
    }
    auto const t1 = now();
    if (traced_rep)
      spans.record(name, t0, t1);
    auto const t2 = now();  // a traced repetition pays for its span too
    spent += seconds_between(t0, t2);
    (traced_rep ? traced : untraced).push_back(seconds_between(t0, t2));
  }
}

int run(options const& opt) {
  workload const w = make_workload(opt.workload);
#ifdef M_MMAP_THRESHOLD
  // Fix glibc's mmap threshold at its initial 128 KiB.  By default the
  // first free of a large block raises it (up to 32 MiB), after which
  // freed result and frontier arrays stay in the heap arenas; how much
  // stays then depends on how frees interleave across threads, and
  // peak_rss_mb moved between about 230 and 280 MB on the same input.
  // With the threshold fixed, large arrays go back to the system when
  // freed and the peak follows the memory the program actually holds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  span_log spans(opt.trace);

  // --- thread budget ------------------------------------------------------
  // The kernel phase runs on the default pool (its workers plus the calling
  // thread).  The serve phase runs the generator (this thread), the writer,
  // the engine runners and a pool of its own; the default pool's workers
  // are parked meanwhile.  Each phase keeps its runnable threads <= nproc.
  std::size_t const nproc = usable_cpus();
  std::size_t const kernel_workers = es::parallel::default_pool().size();
  std::size_t const serve_avail = nproc > 2 ? nproc - 2 : 1;
  std::size_t const runners = std::max<std::size_t>(1, serve_avail / 2);
  std::size_t const serve_workers =
      std::max<std::size_t>(1, serve_avail - runners);
  std::size_t const llc = llc_bytes();

  // --- inputs and set-up ----------------------------------------------------
  auto t0 = now();
  edge_list const edges = generate(w, opt.seed);
  double const gen_s = seconds_between(t0, now());
  spans.record("generators.generate", t0, now());

  adjacency const ref = canonical_undirected(edges);
  kernel_refs refs;
  refs.components = ref_components(ref);
  refs.sources = pick_sources(refs.components, 16, opt.seed);
  for (vid s : refs.sources) {
    t0 = now();
    refs.bfs.push_back(ref_bfs(ref, s));
    refs.serial_ms[k_bfs].push_back(ms_between(t0, now()));
    t0 = now();
    refs.sssp.push_back(ref_dijkstra(ref, s));
    refs.serial_ms[k_sssp].push_back(ms_between(t0, now()));
  }
  // Timed three times only where the timing is reported (traced runs).
  for (int i = 0; i < (opt.trace ? 3 : 1); ++i) {
    t0 = now();
    refs.components = ref_components(ref);
    refs.serial_ms[k_cc].push_back(ms_between(t0, now()));
    t0 = now();
    refs.pagerank = ref_pagerank(ref, pagerank_opts.damping,
                                 pagerank_opts.tolerance,
                                 pagerank_opts.max_iterations);
    refs.serial_ms[k_pagerank].push_back(ms_between(t0, now()));
  }

  // peak_rss_mb counts what the program allocates from here on: the inputs
  // and reference answers above are the benchmark's, not the program's.
  double const baseline_kb = reset_peak_rss_kb();
  if (baseline_kb < 0)
    throw std::runtime_error("cannot reset the peak resident set size");

  std::vector<double> build_s, traced_build_s;
  std::unique_ptr<graph_t> g;
  repeat_setup(
      [&] {
        g.reset();
        g = std::make_unique<graph_t>(build(edges));
      },
      opt.trace, spans, "graph.build", build_s, traced_build_s);
  if (static_cast<std::size_t>(g->get_num_edges()) != ref.targets.size())
    throw std::runtime_error("graph build: edge count differs from reference");

  std::shared_ptr<graph_t const> shared_g(std::move(g));
  std::printf(
      "workload %s seed %llu: %d vertices, %lld directed edges, graph %zu "
      "bytes (computed from array sizes), LLC %zu bytes, graph/LLC %.2f\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), ref.n,
      static_cast<long long>(ref.targets.size()), graph_bytes(*shared_g), llc,
      ratio(static_cast<double>(graph_bytes(*shared_g)),
            static_cast<double>(llc)));
  std::printf(
      "threads: nproc %zu; kernel phase %zu pool workers + caller; serve "
      "phase %zu runners + %zu pool workers + generator + writer\n",
      nproc, kernel_workers, runners, serve_workers);

  // --- kernel phase -------------------------------------------------------------
  // Before the serving set-up, so that its allocations (five dynamic graphs
  // on serve-mixed) do not shape the heap the kernels allocate from.
  double const kernel_s = opt.seconds * w.kernel_share;
  auto ks = run_kernels(*shared_g, ref, refs, kernel_s, w.slow_every,
                        w.min_fast, w.min_slow, opt.trace, spans);
  std::array<double, k_count> seq_ms{};
  if (opt.trace)
    seq_ms = time_seq(*shared_g, ref, refs, 3, ks);

  // --- serving set-up ---------------------------------------------------------
  es::parallel::thread_pool serve_pool(serve_workers);
  es::execution::parallel_policy const serve_policy(serve_pool);
  std::vector<double> serve_setup_s, traced_serve_setup_s;
  std::unique_ptr<es::graph::dynamic_graph_t<>> dyn;
  std::unique_ptr<eng::analytics_engine<snapshot_t>> dyn_engine;
  std::unique_ptr<eng::analytics_engine<graph_t>> static_engine;
  eng::engine_options eopt;
  eopt.num_runners = runners;
  eopt.max_queued = 1024;
  // Half the default capacity: a PPR result on the kernel graphs is 4 MB.
  eopt.cache_capacity = 64;
  if (w.dynamic_serve) {
    repeat_setup(
        [&] {
          dyn_engine.reset();
          dyn.reset();
          dyn = std::make_unique<es::graph::dynamic_graph_t<>>(ref.n);
          for (vid u = 0; u < ref.n; ++u)
            for (auto e = ref.begin(u); e < ref.end(u); ++e)
              dyn->add_edge(u, ref.target(e), ref.weight(e));
          dyn_engine =
              std::make_unique<eng::analytics_engine<snapshot_t>>(eopt);
          dyn_engine->registry().publish("g", *dyn);
        },
        opt.trace, spans, "engine.setup", serve_setup_s, traced_serve_setup_s);
  } else {
    static_engine = std::make_unique<eng::analytics_engine<graph_t>>(eopt);
  }
  if (static_engine)
    static_engine->registry().publish_shared("g", shared_g);
  double const setup_s = median(w.dynamic_serve ? serve_setup_s : build_s);

  // --- serve phase ----------------------------------------------------------------
  double const serve_s = opt.seconds - kernel_s;
  serve_result sr;
  std::vector<vid> const serve_sources =
      pick_sources(refs.components, 256, opt.seed ^ 0x5e7e);
  if (w.dynamic_serve) {
    auto& engine = *dyn_engine;
    auto& d = *dyn;
    vid const n = ref.n;
    std::size_t const delta = w.delta_edges;
    serve_bench<snapshot_t> bench(
        engine, "g", w.plan, serve_policy, serve_sources, opt.seed,
        [&d, n, delta](rng64& r) {
          auto const bound = static_cast<std::uint64_t>(n);
          for (std::size_t i = 0; i < delta; ++i) {
            auto const u = static_cast<vid>(r.below(bound));
            auto const v = static_cast<vid>(r.below(bound));
            if (u == v)
              continue;
            float const wt = 1.0f + static_cast<float>(r.unit() * 3.0);
            d.add_edge(u, v, wt);
            d.add_edge(v, u, wt);
          }
        },
        [&engine, &d] { return engine.registry().publish("g", d); }, spans,
        opt.trace);
    sr = bench.run(serve_s);
  } else {
    auto& engine = *static_engine;
    serve_bench<graph_t> bench(
        engine, "g", w.plan, serve_policy, serve_sources, opt.seed,
        [](rng64&) {},
        [&engine, shared_g] {
          return engine.registry().publish_shared("g", shared_g);
        },
        spans, opt.trace);
    sr = bench.run(serve_s);
  }

  // --- report -------------------------------------------------------------------
  std::uint64_t const attempted = ks.attempted + sr.attempted;
  std::uint64_t const failed = ks.failed + sr.failed;
  std::printf(
      "checks: %llu kernel calls (%llu failed), %llu engine requests "
      "(%llu failed, %llu outputs checked, %llu wrong)\n",
      static_cast<unsigned long long>(ks.attempted),
      static_cast<unsigned long long>(ks.failed),
      static_cast<unsigned long long>(sr.attempted),
      static_cast<unsigned long long>(sr.failed),
      static_cast<unsigned long long>(sr.checked),
      static_cast<unsigned long long>(sr.wrong));

  auto const bfs_tail = tail_of(ks.ms[k_bfs], w.kernel_tail_pct);
  auto const sssp_tail = tail_of(ks.ms[k_sssp], w.kernel_tail_pct);
  auto const req_tail = tail_of(sr.req_ms, w.req_tail_pct);
  std::printf(
      "tails: bfs p%.0f of %zu (%zu beyond), sssp p%.0f of %zu (%zu beyond), "
      "requests p%.0f of %zu (%zu beyond; latency limit %.0f ms: %s)\n",
      bfs_tail.percentile, bfs_tail.samples, bfs_tail.beyond,
      sssp_tail.percentile, sssp_tail.samples, sssp_tail.beyond,
      req_tail.percentile, req_tail.samples, req_tail.beyond,
      w.plan.tail_limit_ms,
      req_tail.value <= w.plan.tail_limit_ms ? "met" : "missed");

  std::printf("request latency (ms):");
  for (double p : {50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 99.0})
    std::printf(" p%.0f %.2f", p, tail_of(sr.req_ms, p).value);
  std::printf("\n");

  metric_table m;
  if (!opt.trace) {
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", (sr.window_hwm_kb - baseline_kb) / 1024.0, "MB");
    m.add("bfs_ms", median(ks.ms[k_bfs]), "ms");
    m.add("sssp_ms", median(ks.ms[k_sssp]), "ms");
    m.add("bfs_tail_ms", bfs_tail.value, "ms");
    m.add("sssp_tail_ms", sssp_tail.value, "ms");
    m.add("cc_ms", median(ks.ms[k_cc]), "ms");
    m.add("pagerank_ms", median(ks.ms[k_pagerank]), "ms");
    m.add("req_p50_ms", median(sr.req_ms), "ms");
    m.add("req_tail_ms", req_tail.value, "ms");
    m.add("burst_ms", median(sr.burst_ms), "ms");
    m.add("refresh_ms", median(sr.refresh_ms), "ms");
  } else {
    auto const& L = ks.layers;
    m.add("generators.gen_s", gen_s, "s");
    m.add("graph.build_s", median(build_s), "s");
    m.add("graph.bytes", static_cast<double>(graph_bytes(*shared_g)), "B");
    m.add("graph.llc_ratio",
          ratio(static_cast<double>(graph_bytes(*shared_g)),
                static_cast<double>(llc)),
          "ratio");
    m.add("parallel.pool_workers", static_cast<double>(kernel_workers), "count");
    m.add("engine.runners", static_cast<double>(runners), "count");
    for (std::size_t k = 0; k < k_count; ++k) {
      std::string const n = kernel_names[k];
      auto const& a = L.kernel[k];
      m.add("core.enactor.supersteps." + n, median(a.supersteps), "count");
      m.add("core.enactor.self_us." + n, median(a.self_us), "us");
    }
    for (std::size_t k : {k_bfs, k_sssp, k_cc}) {
      std::string const n = kernel_names[k];
      auto const& a = L.kernel[k];
      m.add("core.operators.advance_ms." + n, median(a.advance_ms), "ms");
      m.add("core.operators.edges_inspected." + n, median(a.edges_inspected),
            "count");
      m.add("core.operators.relax_ratio." + n, ratio(a.relaxed, a.inspected),
            "ratio");
      m.add("core.operators.meps." + n, ratio(a.inspected, a.op_ms * 1000.0),
            "Medges/s");
    }
    for (std::size_t k : {k_sssp, k_cc}) {
      std::string const n = kernel_names[k];
      m.add("core.operators.filter_ms." + n, median(L.kernel[k].filter_ms),
            "ms");
    }
    double lb_total = 0;
    for (auto const& [s, ms] : L.lb_ms)
      lb_total += ms;
    for (char const* s : {"thread_mapped", "edge_balanced", "degree_class"}) {
      auto const it = L.lb_ms.find(s);
      m.add(std::string("core.operators.lb_share.") + s,
            ratio(it == L.lb_ms.end() ? 0.0 : it->second, lb_total), "ratio");
    }
    for (std::size_t k : {k_bfs, k_sssp}) {
      std::string const n = kernel_names[k];
      auto const& a = L.kernel[k];
      m.add("core.frontier.emits." + n, median(a.emits), "count");
      m.add("core.frontier.dedup_ratio." + n,
            ratio(a.dedup_hits, a.dedup_hits + a.emitted), "ratio");
    }
    m.add("core.frontier.scratch_reuse_ratio",
          ratio(static_cast<double>(L.scratch_reused),
                static_cast<double>(L.ops)),
          "ratio");
    m.add("parallel.lanes", median(L.lanes), "count");
    m.add("parallel.busy_at_launch", mean(L.busy), "count");
    m.add("parallel.queued_at_launch", mean(L.queued), "count");
    for (std::size_t k = 0; k < k_count; ++k) {
      std::string const n = kernel_names[k];
      double const par = median(ks.ms[k]);
      double const serial = median(refs.serial_ms[k]);
      m.add("algorithms.seq." + n + "_ms", seq_ms[k], "ms");
      m.add("ref.serial." + n + "_ms", serial, "ms");
      m.add("algorithms.par_over_seq." + n, ratio(par, seq_ms[k]), "ratio");
      m.add("algorithms.seq_over_serial." + n, ratio(seq_ms[k], serial),
            "ratio");
    }
    auto const& st = sr.stats;
    m.add("engine.submit_us", median(sr.submit_us), "us");
    m.add("engine.scheduler.queue_ms", median(sr.queue_ms), "ms");
    m.add("engine.scheduler.run_ms", median(sr.run_ms), "ms");
    m.add("engine.overhead_ms", median(sr.overhead_ms), "ms");
    m.add("engine.result_cache.hit_ratio", st.hit_ratio(), "ratio");
    m.add("engine.warm_jobs.warm_ratio", st.warm_ratio(), "ratio");
    m.add("engine.warm_jobs.delta_fallbacks",
          static_cast<double>(st.delta_fallbacks), "count");
    m.add("engine.registry.publish_ms", median(sr.publish_ms), "ms");
    m.add("engine.batcher.avg_batch_size", st.avg_batch_size(), "count");
    m.add("engine.batcher.edge_passes_saved",
          static_cast<double>(st.edge_passes_saved), "count");
    m.add("engine.rejected", static_cast<double>(st.rejected), "count");
    m.add("engine.failed", static_cast<double>(st.failed + sr.wrong), "count");
    m.add("engine.deadline_expired", static_cast<double>(st.deadline_expired),
          "count");
    m.add("loadgen.late_ms", tail_of(sr.late_ms, w.req_tail_pct).value, "ms");
    auto const traced_setup =
        w.dynamic_serve ? traced_serve_setup_s : traced_build_s;
    m.add("trace.overhead_pct.setup_s",
          overhead_pct(median(traced_setup), setup_s), "%");
    for (std::size_t k = 0; k < k_count; ++k)
      m.add(std::string("trace.overhead_pct.") + kernel_names[k] + "_ms",
            overhead_pct(median(ks.traced_ms[k]), median(ks.ms[k])), "%");
    m.add("trace.overhead_pct.bfs_tail_ms",
          overhead_pct(tail_of(ks.traced_ms[k_bfs], w.kernel_tail_pct).value,
                       tail_of(ks.ms[k_bfs], w.kernel_tail_pct).value),
          "%");
    m.add("trace.overhead_pct.sssp_tail_ms",
          overhead_pct(tail_of(ks.traced_ms[k_sssp], w.kernel_tail_pct).value,
                       tail_of(ks.ms[k_sssp], w.kernel_tail_pct).value),
          "%");
    m.add("trace.overhead_pct.req_p50_ms",
          overhead_pct(median(sr.traced_req_ms), median(sr.req_ms)), "%");
    m.add("trace.overhead_pct.req_tail_ms",
          overhead_pct(tail_of(sr.traced_req_ms, w.req_tail_pct).value, req_tail.value), "%");
    m.add("trace.overhead_pct.burst_ms",
          overhead_pct(median(sr.traced_burst_ms), median(sr.burst_ms)), "%");
    m.add("trace.overhead_pct.refresh_ms",
          overhead_pct(median(sr.traced_refresh_ms), median(sr.refresh_ms)),
          "%");

    if (!opt.trace_out.empty()) {
      std::FILE* f = std::fopen(opt.trace_out.c_str(), "w");
      if (!f)
        throw std::runtime_error("cannot write " + opt.trace_out);
      std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":",
                   w.name.c_str(), static_cast<unsigned long long>(opt.seed));
      spans.write_json(f);
      std::fprintf(f, ",\n\"jobs\":[");
      for (std::size_t i = 0; i < sr.job_traces.size(); ++i)
        std::fprintf(f, "%s\n%s", i ? "," : "", sr.job_traces[i].c_str());
      std::fprintf(f, "\n]}\n");
      std::fclose(f);
      std::printf("trace: %zu spans, %zu job traces written to %s\n",
                  spans.size(), sr.job_traces.size(), opt.trace_out.c_str());
    }
  }

  for (auto const& r : m.rows())
    std::printf("  %-44s %14.6g %s\n", r.name.c_str(), r.value,
                r.unit.c_str());
  if (!m.all_finite()) {
    std::fprintf(stderr, "a metric could not be measured\n");
    return 1;
  }
  m.print_result(failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (std::exception const& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
