#pragma once

// Serve phase: an open-loop request generator drives an analytics_engine
// while a writer thread publishes new epochs beside the reads.
//
//  - Paced requests arrive on a fixed schedule regardless of completions
//    (independent users).  Each is timed from the moment it was due, so a
//    stall is charged to every request it delays, and the generator reports
//    how late it ran.
//  - Every `burst_every_s` a burst of BFS queries arrives at once (fusion).
//  - The writer applies a small edge delta, publishes it, and re-asks every
//    hot-pool SSSP query on the new epoch; refresh time runs from the start
//    of the publish call until all of those have retired.
//
// Retirement is observed by polling the outstanding handles from the
// generator thread between arrivals, never by waiting on them in
// submission order (which would charge a fast job for a slow one ahead).

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "essentials.hpp"
#include "reference.hpp"

namespace perfbench {

namespace es = essentials;
namespace eng = essentials::engine;

struct serve_plan {
  double rate = 100;           // paced requests per second
  double sssp_share = 0.4;     // hot-pool SSSP
  double bfs_share = 0.4;      // BFS from any source; the rest is PPR
  std::size_t hot_pool = 8;
  bool paced_sssp_hot = true;  // paced SSSP from the hot pool, else any source
  // Share of the window, at its end, in which bursts run alone (no paced
  // traffic, no publishes), each `burst_every_s` after the previous one
  // retired.  0 == bursts every `burst_every_s` among the paced traffic.
  double burst_segment = 0;
  double burst_every_s = 2.0;
  std::size_t burst_size = 64;
  double publish_every_s = 0.5;
  std::chrono::milliseconds deadline{2000};
  std::size_t check_samples = 48;
  std::size_t max_kept_epochs = 8;
  double ppr_epsilon = 1e-6;
  double tail_limit_ms = 100;  // latency limit on the request tail
};

struct serve_result {
  std::vector<double> req_ms, traced_req_ms;  // paced, +inf when failed
  std::vector<double> late_ms, submit_us, queue_ms, run_ms, overhead_ms;
  std::vector<double> burst_ms, traced_burst_ms;
  std::vector<double> refresh_ms, traced_refresh_ms, publish_ms;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, checked = 0;
  double window_hwm_kb = -1;  // VmHWM when the timed window ended
  eng::engine_stats_snapshot stats;
  std::vector<std::string> job_traces;  // traced runs: one JSON object per job
};

enum req_kind : int { rq_sssp, rq_bfs, rq_ppr };
inline constexpr char const* req_names[] = {"sssp", "bfs", "ppr"};

template <typename G>
class serve_bench {
 public:
  using engine_t = eng::analytics_engine<G>;
  using pinned_t = eng::pinned_graph<G>;

  /// `mutate` changes the source of truth (may be a no-op); `publish`
  /// publishes it into the engine's registry and returns the new pin.
  serve_bench(engine_t& engine, std::string name, serve_plan plan,
               es::execution::parallel_policy policy,
               std::vector<vid> const& sources, std::uint64_t seed,
               std::function<void(rng64&)> mutate,
               std::function<pinned_t()> publish, span_log& spans,
               bool traced)
      : engine_(engine), name_(std::move(name)), plan_(plan),
        policy_(policy), sources_(sources), seed_(seed),
        mutate_(std::move(mutate)), publish_(std::move(publish)),
        spans_(spans), traced_(traced) {
    rng64 r(seed ^ 0x5eed5eedull);
    for (std::size_t i = 0; i < plan_.hot_pool; ++i)
      hot_.push_back(sources_[r.below(sources_.size())]);
  }

  serve_result run(double seconds);

 private:
  struct request {
    req_kind kind;
    vid src;
    bool paced;
    bool traced;
    time_point due, sub0, sub1, retired;
    eng::job_ptr job;  // released at retirement unless sampled for a check
    pinned_t pin;      // set only for sampled requests
    bool ok = false;   // retired completed or from the cache
    eng::job_status status = eng::job_status::queued;
    double queue_ms = 0, run_ms = 0;
  };

  /// Record what the metrics need from a retired handle, then drop it (a
  /// held handle keeps its result alive) unless its output is checked later.
  void retire(request& r) {
    r.retired = now();
    r.status = r.job->status();
    r.ok = succeeded(r.job);
    r.queue_ms = r.job->queue_ms();
    r.run_ms = r.job->run_ms();
    note_job_trace(r);
    if (!r.pin)
      r.job.reset();
  }

  eng::job_desc desc(req_kind k, vid src, bool traced) const {
    eng::job_desc d;
    d.graph = name_;
    d.algorithm = req_names[k];
    d.params = "src=" + std::to_string(src);
    d.deadline = plan_.deadline;
    d.record_trace = traced;
    return d;
  }

  eng::job_ptr submit(req_kind k, vid src, bool traced) {
    auto d = desc(k, src, traced);
    switch (k) {
      case rq_sssp:
        return engine_.submit(std::move(d),
                              eng::sssp_cold_job<G>(policy_, src),
                              eng::sssp_warm_job<G>(policy_, src));
      case rq_bfs:
        return engine_.submit_batch(std::move(d),
                                    eng::bfs_batch_job<G>(policy_, src));
      case rq_ppr:
      default:
        return engine_.submit(
            std::move(d),
            [src, opt = ppr_opts()](G const& g, eng::job_context&)
                -> std::shared_ptr<void const> {
              return std::make_shared<es::algorithms::ppr_result const>(
                  es::algorithms::personalized_pagerank(g, src, opt));
            });
    }
  }

  es::algorithms::ppr_options ppr_opts() const {
    es::algorithms::ppr_options opt;
    opt.epsilon = plan_.ppr_epsilon;
    return opt;
  }

  static bool succeeded(eng::job_ptr const& j) {
    auto const s = j->status();
    return s == eng::job_status::completed || s == eng::job_status::cache_hit;
  }

  /// Decide (from the seed) whether to check this request's output, and if
  /// so pin the snapshot of its epoch so it can be checked after the run.
  void maybe_sample(request& r, rng64& rng, double p) {
    if (rng.unit() >= p)
      return;
    auto pin = engine_.registry().lookup(name_);
    if (!pin || pin.epoch != r.job->graph_epoch())
      return;  // a publish slipped in between: skip rather than guess
    if (!kept_epochs_.count(pin.epoch)) {
      if (kept_epochs_.size() >= plan_.max_kept_epochs)
        return;
      kept_epochs_.insert(pin.epoch);
    }
    r.pin = std::move(pin);
  }

  bool check(request const& r);
  void writer_loop(time_point start, time_point end);
  void note_job_trace(request const& r);

  engine_t& engine_;
  std::string name_;
  serve_plan plan_;
  es::execution::parallel_policy policy_;
  std::vector<vid> const& sources_;
  std::vector<vid> hot_;
  std::uint64_t seed_;
  std::function<void(rng64&)> mutate_;
  std::function<pinned_t()> publish_;
  span_log& spans_;
  bool traced_;

  std::set<std::uint64_t> kept_epochs_;  // generator thread only
  std::vector<request> writer_samples_;  // writer thread only until joined
  std::atomic<bool> stop_writer_{false};
  serve_result res_;   // writer-owned fields are merged after the join
  serve_result wres_;  // writer thread's share of the result
  std::map<std::tuple<G const*, int, vid>, std::shared_ptr<void const>>
      ref_cache_;
};

template <typename G>
void serve_bench<G>::note_job_trace(request const& r) {
  if (!r.traced || !r.job)
    return;
  auto const& t = r.job->trace();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"job\":%llu,\"algorithm\":\"%s\",\"status\":\"%s\","
                "\"epoch\":%llu,\"queue_ms\":%.6f,\"run_ms\":%.6f,"
                "\"supersteps\":%zu,\"warm_start\":%s,\"batch_size\":%u}",
                static_cast<unsigned long long>(r.job->id()),
                req_names[r.kind], eng::to_string(r.job->status()),
                static_cast<unsigned long long>(r.job->graph_epoch()),
                r.job->queue_ms(), r.job->run_ms(), t.num_supersteps(),
                r.job->warm_started() ? "true" : "false",
                r.job->batch_size());
  res_.job_traces.emplace_back(buf);
}

template <typename G>
void serve_bench<G>::writer_loop(time_point start, time_point end) {
  rng64 rng(seed_ ^ 0x77717e5ull);
  auto const period = std::chrono::duration_cast<clock_type::duration>(
      std::chrono::duration<double>(plan_.publish_every_s));
  auto next = start + period;
  std::size_t index = 0;
  while (!stop_writer_.load(std::memory_order_relaxed) && next < end) {
    while (now() < next && !stop_writer_.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (stop_writer_.load(std::memory_order_relaxed))
      break;
    bool const traced = traced_ && index % 2 == 1;
    mutate_(rng);
    auto const t0 = now();
    auto pin = publish_();
    auto const t1 = now();
    wres_.publish_ms.push_back(ms_between(t0, t1));
    std::vector<request> probes;
    for (vid s : hot_) {
      request r{rq_sssp, s, false, traced, t0, now(), {}, {}, {}, {}};
      r.job = submit(rq_sssp, s, traced);
      r.sub1 = now();
      probes.push_back(std::move(r));
    }
    bool ok = true;
    for (auto& r : probes) {
      r.job->wait();
      r.retired = now();
      ++wres_.attempted;
      if (!succeeded(r.job) || r.job->graph_epoch() != pin.epoch) {
        ++wres_.failed;
        ok = false;
      }
    }
    auto const t2 = now();
    (traced ? wres_.traced_refresh_ms : wres_.refresh_ms)
        .push_back(ok ? ms_between(t0, t2)
                      : std::numeric_limits<double>::infinity());
    if (traced) {
      auto const id = spans_.record("engine.refresh", t0, t2);
      spans_.record("engine.registry.publish", t0, t1, id);
    }
    // Check the probes of the first publishes against their epoch.
    if (index < 4)
      for (auto& r : probes) {
        r.pin = pin;
        writer_samples_.push_back(std::move(r));
      }
    ++index;
    next += period;
  }
}

template <typename G>
bool serve_bench<G>::check(request const& r) {
  auto const* g = r.pin.graph.get();
  csr_view_of<std::decay_t<decltype(g->csr())>> view{&g->csr()};
  auto const key = std::make_tuple(g, static_cast<int>(r.kind), r.src);
  switch (r.kind) {
    case rq_sssp: {
      auto const out = r.job->template result_as<
          es::algorithms::sssp_result<float>>();
      if (!out)
        return false;
      auto& ref = ref_cache_[key];
      if (!ref)
        ref = std::make_shared<std::vector<float> const>(
            ref_dijkstra(view, r.src));
      return check_sssp(*std::static_pointer_cast<std::vector<float> const>(ref),
                        out->distances);
    }
    case rq_bfs: {
      auto const out = r.job->template result_as<eng::bfs_lanes_result<vid>>();
      if (!out)
        return false;
      auto& ref = ref_cache_[key];
      if (!ref)
        ref = std::make_shared<std::vector<vid> const>(ref_bfs(view, r.src));
      return check_bfs(*std::static_pointer_cast<std::vector<vid> const>(ref),
                       out->depths);
    }
    case rq_ppr:
    default: {
      auto const out = r.job->template result_as<es::algorithms::ppr_result>();
      if (!out)
        return false;
      auto& ref = ref_cache_[key];
      if (!ref)
        ref = std::make_shared<ppr_reference const>(
            ref_ppr(view, r.src, ppr_opts().alpha));
      return check_ppr(view, *std::static_pointer_cast<ppr_reference const>(ref),
                       out->estimate, out->residual, plan_.ppr_epsilon);
    }
  }
}

template <typename G>
serve_result serve_bench<G>::run(double seconds) {
  rng64 rng(seed_);
  auto const start = now();
  auto const end = start + std::chrono::duration_cast<clock_type::duration>(
                               std::chrono::duration<double>(seconds));
  auto const gap = std::chrono::duration_cast<clock_type::duration>(
      std::chrono::duration<double>(1.0 / plan_.rate));
  auto const burst_gap = std::chrono::duration_cast<clock_type::duration>(
      std::chrono::duration<double>(plan_.burst_every_s));
  double const expected =
      seconds * plan_.rate +
      seconds / plan_.burst_every_s * static_cast<double>(plan_.burst_size);
  double const sample_p =
      std::min(1.0, static_cast<double>(plan_.check_samples) / expected);

  // With a burst segment, paced traffic and publishes stop at `paced_end`
  // and the rest of the window runs bursts alone, one after another.
  bool const separate_bursts = plan_.burst_segment > 0;
  auto const paced_end =
      separate_bursts
          ? start + std::chrono::duration_cast<clock_type::duration>(
                        std::chrono::duration<double>(
                            seconds * (1.0 - plan_.burst_segment)))
          : end;

  std::thread writer([this, start, paced_end] {
    try {
      writer_loop(start, paced_end);
    } catch (std::exception const& e) {
      std::fprintf(stderr, "writer failed: %s\n", e.what());
      ++wres_.failed;
      ++wres_.attempted;
    }
  });
  // Stops and joins the writer on every exit path, exceptions included.
  struct joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~joiner() {
      stop.store(true);
      if (thread.joinable())
        thread.join();
    }
  } join_writer{stop_writer_, writer};

  std::vector<request> reqs;
  std::vector<std::size_t> outstanding;
  struct burst {
    time_point first;
    std::vector<std::size_t> members;
    bool traced;
  };
  std::vector<burst> bursts;
  auto next_due = start + gap;
  // Bursts among the paced traffic arrive midway between two publishes, so
  // that a burst does not meet the publish and refresh on some runs and
  // not on others.
  auto next_burst =
      separate_bursts
          ? time_point::max()
          : start + std::chrono::duration_cast<clock_type::duration>(
                        std::chrono::duration<double>(plan_.publish_every_s / 2));
  std::size_t paced = 0;

  auto poll = [&] {
    std::size_t kept = 0;
    for (std::size_t idx : outstanding) {
      auto& r = reqs[idx];
      if (r.job->done()) {
        retire(r);
      } else {
        outstanding[kept++] = idx;
      }
    }
    outstanding.resize(kept);
  };
  auto drain = [&] {
    while (!outstanding.empty()) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  auto fire_burst = [&] {
    burst b{now(), {}, traced_ && bursts.size() % 2 == 1};
    for (std::size_t i = 0; i < plan_.burst_size; ++i) {
      vid const src = sources_[rng.below(sources_.size())];
      request r{rq_bfs, src, false, b.traced, b.first, now(), {}, {}, {}, {}};
      r.job = submit(rq_bfs, src, b.traced);
      r.sub1 = now();
      maybe_sample(r, rng, sample_p);
      reqs.push_back(std::move(r));
      outstanding.push_back(reqs.size() - 1);
      b.members.push_back(reqs.size() - 1);
    }
    bursts.push_back(std::move(b));
  };

  while (true) {
    auto const t = now();
    if (t >= paced_end)
      break;
    if (t >= next_due) {
      double const u = rng.unit();
      req_kind const k = u < plan_.sssp_share ? rq_sssp
                         : u < plan_.sssp_share + plan_.bfs_share ? rq_bfs
                                                                  : rq_ppr;
      vid const src = k == rq_sssp && plan_.paced_sssp_hot
                          ? hot_[rng.below(hot_.size())]
                          : sources_[rng.below(sources_.size())];
      bool const traced = traced_ && paced % 2 == 1;
      request r{k, src, true, traced, next_due, now(), {}, {}, {}, {}};
      r.job = submit(k, src, traced);
      r.sub1 = now();
      maybe_sample(r, rng, sample_p);
      reqs.push_back(std::move(r));
      outstanding.push_back(reqs.size() - 1);
      next_due += gap;
      ++paced;
      continue;  // catch up on arrivals that are already due
    }
    if (t >= next_burst) {
      fire_burst();
      next_burst += burst_gap;
      continue;
    }
    poll();
    auto const wake = std::min({next_due, next_burst, paced_end});
    auto const slice = std::chrono::microseconds(50);
    std::this_thread::sleep_for(
        std::min<clock_type::duration>(slice, wake - now()));
  }
  drain();
  stop_writer_.store(true);
  writer.join();  // wres_ and writer_samples_ are ours from here on

  // Burst segment: each burst arrives `burst_every_s` after the previous
  // one retired, into an otherwise idle engine; at least three run.
  while (separate_bursts && (now() < end || bursts.size() < 3)) {
    fire_burst();
    drain();
    std::this_thread::sleep_for(burst_gap);
  }

  // --- collect -----------------------------------------------------------
  // The output checks below allocate reference answers; the program's
  // memory peak is read before them.
  auto& out = res_;
  out.window_hwm_kb = proc_status_kb("VmHWM");
  for (auto& r : reqs) {
    ++out.attempted;
    bool ok = r.ok;
    if (r.pin) {
      ++out.checked;
      if (ok && !check(r)) {
        ++out.wrong;
        ok = false;
      }
    }
    if (!ok)
      ++out.failed;
    if (traced_) {
      spans_.record(std::string("engine.submit.") + req_names[r.kind], r.sub0,
                    r.sub1);
      spans_.record("engine.retire_wait", r.sub1, r.retired);
    }
    if (!r.paced)
      continue;
    double const latency =
        ok ? ms_between(r.due, r.retired) : std::numeric_limits<double>::infinity();
    (r.traced ? out.traced_req_ms : out.req_ms).push_back(latency);
    if (r.traced)
      continue;
    double const late = ms_between(r.due, r.sub0);
    out.late_ms.push_back(late);
    out.submit_us.push_back(ms_between(r.sub0, r.sub1) * 1000.0);
    if (!ok)
      continue;
    double queue = 0, run = 0;
    if (r.status == eng::job_status::completed) {
      queue = r.queue_ms;
      run = r.run_ms;
      out.queue_ms.push_back(queue);
      out.run_ms.push_back(run);
    }
    out.overhead_ms.push_back(latency - late - queue - run);
  }
  for (auto const& b : bursts) {
    time_point last = b.first;
    bool ok = true;
    for (std::size_t idx : b.members) {
      last = std::max(last, reqs[idx].retired);
      ok = ok && reqs[idx].ok;
    }
    (b.traced ? out.traced_burst_ms : out.burst_ms)
        .push_back(ok ? ms_between(b.first, last)
                      : std::numeric_limits<double>::infinity());
    if (b.traced)
      spans_.record("engine.burst", b.first, last);
  }
  for (auto& r : writer_samples_) {
    ++out.checked;
    if (succeeded(r.job) && !check(r)) {
      ++out.wrong;
      ++out.failed;
    }
  }
  out.attempted += wres_.attempted;
  out.failed += wres_.failed;
  out.refresh_ms = std::move(wres_.refresh_ms);
  out.traced_refresh_ms = std::move(wres_.traced_refresh_ms);
  out.publish_ms = std::move(wres_.publish_ms);
  out.stats = engine_.stats();
  return std::move(out);
}

}  // namespace perfbench
