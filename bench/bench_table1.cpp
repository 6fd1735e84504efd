// bench_table1 — regenerates the paper's Table I as an *executable*
// coverage matrix: for every (TLAV pillar, captured model) cell, run the
// abstraction mechanism that captures it on a live workload, verify the
// result against an oracle, and report PASS with the measured time.
//
// Paper artifact: Table I, "Summary of what models are captured within the
// four pillars of TLAV by our abstraction."
#include <chrono>
#include <cstdio>
#include <string>

#include "algorithms/bfs.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/sssp_async_mp.hpp"
#include "essentials.hpp"

namespace e = essentials;

namespace {

struct cell_t {
  char const* pillar;
  char const* model;
  char const* mechanism;
  bool pass;
  double ms;
};

template <typename F>
std::pair<bool, double> timed(F&& fn) {
  auto const t0 = std::chrono::steady_clock::now();
  bool const ok = fn();
  auto const t1 = std::chrono::steady_clock::now();
  return {ok, std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

bool near(std::vector<float> const& a, std::vector<float> const& b) {
  if (a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == e::infinity_v<float> || b[i] == e::infinity_v<float>) {
      if (a[i] != b[i])
        return false;
    } else if (std::abs(a[i] - b[i]) > 1e-3f) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  // The shared workload: an R-MAT graph (the regime graph frameworks
  // target), weights in [1, 4).
  e::generators::rmat_options opt;
  opt.scale = 11;
  opt.edge_factor = 8;
  opt.weights = {1.0f, 4.0f};
  opt.seed = 3;
  auto coo = e::generators::rmat(opt);
  e::graph::remove_self_loops(coo);
  auto const g = e::graph::from_coo<e::graph::graph_push_pull>(
      std::move(coo), e::graph::duplicate_policy::keep_min);
  auto const oracle = e::algorithms::dijkstra(g, 0).distances;
  auto const bfs_oracle = e::algorithms::bfs_serial(g, 0).depths;

  std::vector<cell_t> cells;

  // --- Timing pillar ---------------------------------------------------------
  {
    auto [ok, ms] = timed([&] {
      return near(e::algorithms::sssp(e::execution::par, g, 0).distances,
                  oracle);
    });
    cells.push_back({"Timing", "Bulk-Synchronous",
                     "operators w/ execution::par + bsp_loop", ok, ms});
  }
  {
    auto [ok, ms] = timed([&] {
      return near(e::algorithms::sssp_async(g, 0, 4).distances, oracle);
    });
    cells.push_back({"Timing", "Asynchronous",
                     "async queue frontier + quiescence loop", ok, ms});
  }

  // --- Communication pillar ----------------------------------------------------
  {
    auto [ok, ms] = timed([&] {
      // Shared memory: frontier as bitmap/sparse vector in one address
      // space (the par SSSP above already used it; verify the dense/bitmap
      // path via pull SSSP).
      return near(e::algorithms::sssp_pull(e::execution::par, g, 0).distances,
                  oracle);
    });
    cells.push_back({"Communication", "Shared-Memory",
                     "sparse/bitmap frontier in shared memory", ok, ms});
  }
  {
    auto [ok, ms] = timed([&] {
      return near(e::algorithms::sssp_message_passing(g, 0, 4).distances,
                  oracle);
    });
    cells.push_back({"Communication", "Message Passing",
                     "queue/mailbox frontier over mpsim ranks", ok, ms});
  }
  {
    auto [ok, ms] = timed([&] {
      return near(
          e::algorithms::sssp_async_message_passing(g, 0, 4).distances,
          oracle);
    });
    cells.push_back({"Timing x Comm.", "Async + Message Passing",
                     "continuous relax/forward + Safra termination", ok, ms});
  }

  // --- Execution-model pillar ----------------------------------------------------
  {
    auto [ok, ms] = timed([&] {
      // Vertex program: the Listing 4 lambda over {src, dst, edge, weight}.
      return near(e::algorithms::sssp(e::execution::par, g, 0).distances,
                  oracle);
    });
    cells.push_back({"Execution Model", "Vertex Programs",
                     "lambda on {src, dst, edge, weight}", ok, ms});
  }
  {
    auto [ok, ms] = timed([&] {
      // `bfs` pushes over CSR and pulls over CSC, switching per level;
      // `bfs_pull` pulls every level.
      auto const both = e::algorithms::bfs(e::execution::par, g, 0).depths;
      auto const pull = e::algorithms::bfs_pull(e::execution::par, g, 0).depths;
      return both == bfs_oracle && pull == bfs_oracle;
    });
    cells.push_back({"Execution Model", "Push vs. Pull",
                     "per-level CSR push / CSC pull vs. pull-only (same result)",
                     ok, ms});
  }

  // --- Partitioning pillar ---------------------------------------------------------
  {
    auto [ok, ms] = timed([&] {
      auto const p = e::partition::partition_random<e::vertex_t>(
          g.get_num_vertices(), 4, 1);
      e::partition::partitioned_graph_t<> pg(g.csr(), p);
      return near(e::algorithms::sssp(e::execution::par, pg, 0).distances,
                  oracle);
    });
    cells.push_back({"Partitioning", "Random Partitioning",
                     "partitioned graph behind the same API", ok, ms});
  }
  {
    auto [ok, ms] = timed([&] {
      auto const p = e::partition::partition_bfs_grow(g.csr(), 4, 1);
      e::partition::partitioned_graph_t<> pg(g.csr(), p);
      return near(e::algorithms::sssp(e::execution::par, pg, 0).distances,
                  oracle);
    });
    cells.push_back({"Partitioning", "METIS-like (BFS-grown)",
                     "locality-aware partition, same API", ok, ms});
  }

  // --- Representation pillar --------------------------------------------------
  // Not a Table I row in the paper, but the same claim shape: a storage
  // representation (block-coded CSR, the out-of-core tier's format) slots
  // in behind the unchanged operator API.  The mechanism label carries the
  // measured footprint so the matrix doubles as the bytes-per-edge report.
  {
    static char mech[64];
    auto [ok, ms] = timed([&] {
      e::graph::compressed_graph<> const cg(g.csr());
      std::snprintf(mech, sizeof(mech),
                    "compressed CSR, same API (%.2f B/edge, rss %zu MiB)",
                    cg.bytes_per_edge(),
                    e::io::detail::process_resident_bytes() / (1024u * 1024u));
      return near(e::algorithms::sssp(e::execution::par, cg, 0).distances,
                  oracle);
    });
    cells.push_back(
        {"Representation", "Compressed / Out-of-Core", mech, ok, ms});
  }

  // --- print the matrix ---------------------------------------------------------
  std::printf("Table I coverage matrix (R-MAT scale=%d, %d vertices, %d "
              "edges; every cell verified against a serial oracle)\n\n",
              opt.scale, g.get_num_vertices(), g.get_num_edges());
  std::printf("%-17s %-26s %-44s %-6s %10s\n", "TLAV Pillar",
              "Model Captured", "Mechanism", "Check", "Time");
  std::printf("%s\n", std::string(107, '-').c_str());
  bool all_pass = true;
  for (auto const& c : cells) {
    std::printf("%-17s %-26s %-44s %-6s %8.1fms\n", c.pillar, c.model,
                c.mechanism, c.pass ? "PASS" : "FAIL", c.ms);
    all_pass &= c.pass;
  }
  std::printf("\nModels ignored (as in the paper): active messages, "
              "streaming/vertex-cut/dynamic repartitioning.\n");
  std::printf("Overall: %s\n", all_pass ? "ALL CELLS PASS" : "FAILURES");
  return all_pass ? 0 : 1;
}
