// perfbench_selftest — confirms the benchmark's output checks catch a
// wrong answer and that the kernel phase counts it as a failed operation.
//
// For each kernel it runs the library once on a small R-MAT graph, checks
// that the untouched result passes, corrupts one entry of the result and
// checks that it now fails.  Then it runs the kernel phase with one
// reference answer altered and confirms that exactly the calls using it
// are counted as failed.  Exit code 0 == all confirmed.

#include <cstdio>

#include "common.hpp"
#include "kernels.hpp"
#include "reference.hpp"

namespace {

using namespace perfbench;
using graph_t = es::graph::graph_push_pull;

int failures = 0;

void expect(bool cond, char const* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond)
    ++failures;
}

}  // namespace

int main() {
  auto coo = es::generators::rmat({10, 8, 0.57, 0.19, 0.19, {1.0f, 4.0f}, 7});
  edge_list e;
  e.n = coo.num_rows;
  e.src.assign(coo.row_indices.begin(), coo.row_indices.end());
  e.dst.assign(coo.column_indices.begin(), coo.column_indices.end());
  e.w.assign(coo.values.begin(), coo.values.end());
  es::graph::remove_self_loops(coo);
  es::graph::symmetrize(coo);
  auto const g = es::graph::from_coo<graph_t>(std::move(coo));
  adjacency const ref = canonical_undirected(e);
  expect(static_cast<std::size_t>(g.get_num_edges()) == ref.targets.size(),
         "reference build has the library's edge count");

  auto const par = es::execution::par;
  vid const src = ref.target(ref.begin(0));  // a vertex with an edge

  auto bfs = es::algorithms::bfs(par, g, src);
  auto const bfs_ref = ref_bfs(ref, src);
  expect(check_bfs(bfs_ref, bfs.depths) &&
             check_bfs_tree(ref, bfs_ref, bfs.parents),
         "bfs passes");
  auto reached = std::find_if(bfs.depths.begin(), bfs.depths.end(),
                              [](vid d) { return d > 1; });
  *reached += 1;
  expect(!check_bfs(bfs_ref, bfs.depths),
         "bfs with one corrupted depth fails");
  auto const child = static_cast<std::size_t>(reached - bfs.depths.begin());
  bfs.parents[child] = static_cast<vid>(child);
  expect(!check_bfs_tree(ref, bfs_ref, bfs.parents),
         "bfs with one corrupted parent fails");

  auto sssp = es::algorithms::sssp(par, g, src);
  auto const sssp_ref = ref_dijkstra(ref, src);
  expect(check_sssp(sssp_ref, sssp.distances), "sssp passes");
  sssp.distances[static_cast<std::size_t>(ref.target(ref.begin(src)))] += 0.5f;
  expect(!check_sssp(sssp_ref, sssp.distances),
         "sssp with one corrupted distance fails");

  auto cc = es::algorithms::connected_components(par, g);
  auto const cc_ref = ref_components(ref);
  expect(check_components(cc_ref, cc.labels), "cc passes");
  // Move src alone to a label no component uses: its component (which has
  // at least one other vertex) is now split.
  std::vector<char> used(static_cast<std::size_t>(ref.n), 0);
  for (vid l : cc.labels)
    used[static_cast<std::size_t>(l)] = 1;
  cc.labels[static_cast<std::size_t>(src)] =
      static_cast<vid>(std::find(used.begin(), used.end(), 0) - used.begin());
  expect(!check_components(cc_ref, cc.labels),
         "cc with one corrupted label fails");

  auto pr = es::algorithms::pagerank(par, g, pagerank_opts);
  auto const pr_ref = ref_pagerank(ref, pagerank_opts.damping,
                                   pagerank_opts.tolerance,
                                   pagerank_opts.max_iterations);
  expect(check_pagerank(pr_ref, pr.ranks), "pagerank passes");
  pr.ranks[3] += 1e-6;
  expect(!check_pagerank(pr_ref, pr.ranks),
         "pagerank with one corrupted rank fails");

  es::algorithms::ppr_options popt;
  auto ppr = es::algorithms::personalized_pagerank(g, src, popt);
  csr_view_of<std::decay_t<decltype(g.csr())>> const view{&g.csr()};
  auto const ppr_ref = ref_ppr(view, src, popt.alpha);
  expect(check_ppr(view, ppr_ref, ppr.estimate, ppr.residual, popt.epsilon),
         "ppr passes");
  // Move half of the source's estimate to a neighbour: total mass, signs
  // and residuals are unchanged, so only the reference can tell.
  auto const nb = static_cast<std::size_t>(ref.target(ref.begin(src)));
  double const moved = ppr.estimate[static_cast<std::size_t>(src)] / 2;
  ppr.estimate[static_cast<std::size_t>(src)] -= moved;
  ppr.estimate[nb] += moved;
  expect(!check_ppr(view, ppr_ref, ppr.estimate, ppr.residual, popt.epsilon),
         "ppr with mass moved between two vertices fails");

  // The counting path: one altered reference answer (source 0's BFS) makes
  // exactly the BFS calls from that source fail, and nothing else.
  kernel_refs refs;
  refs.components = cc_ref;
  refs.pagerank = pr_ref;
  refs.sources = {src, ref.target(ref.begin(src))};
  for (vid s : refs.sources) {
    refs.bfs.push_back(ref_bfs(ref, s));
    refs.sssp.push_back(ref_dijkstra(ref, s));
  }
  refs.bfs[0][static_cast<std::size_t>(refs.sources[1])] += 1;
  span_log spans(false);
  auto const ks = run_kernels(g, ref, refs, 0.0, 1, 6, 2, false, spans);
  std::size_t const bfs_calls = ks.ms[k_bfs].size();
  expect(ks.failed == (bfs_calls + 1) / 2,
         "kernel phase counts each mismatching call as failed");
  expect(ks.attempted == 2 * bfs_calls + ks.ms[k_cc].size() +
                             ks.ms[k_pagerank].size(),
         "kernel phase counts every call as attempted");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
