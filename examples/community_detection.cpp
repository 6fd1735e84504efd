// community_detection — structure mining on a small-world collaboration
// network: connected components (who can reach whom), triangle counting
// (clustering), k-core (cohesive groups), and a conflict-free coloring
// (e.g. meeting scheduling among collaborators).
//
// Usage: community_detection [n k beta]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "essentials.hpp"

namespace e = essentials;

int main(int argc, char** argv) {
  e::vertex_t n = 4000;
  int k = 3;
  double beta = 0.05;
  if (argc == 4) {
    n = static_cast<e::vertex_t>(std::atoi(argv[1]));
    k = std::atoi(argv[2]);
    beta = std::atof(argv[3]);
  }

  auto coo = e::generators::watts_strogatz(n, k, beta, {}, /*seed=*/11);
  e::graph::remove_self_loops(coo);
  e::graph::symmetrize(coo);
  auto const g = e::graph::from_coo<e::graph::graph_full>(std::move(coo));
  std::printf("collaboration network: %d people, %d ties (small world)\n",
              g.get_num_vertices(), g.get_num_edges());

  auto const cc = e::algorithms::connected_components(e::execution::par, g);
  std::map<e::vertex_t, std::size_t> sizes;
  for (auto const label : cc.labels)
    ++sizes[label];
  std::size_t largest = 0;
  for (auto const& [label, size] : sizes)
    largest = std::max(largest, size);
  std::printf("\ncomponents: %zu (largest holds %.1f%% of people), "
              "%zu Afforest phases\n",
              cc.num_components,
              100.0 * static_cast<double>(largest) / g.get_num_vertices(),
              cc.iterations);

  auto const triangles = e::algorithms::triangle_count(e::execution::par, g);
  std::printf("triangles: %llu (closed collaborations)\n",
              static_cast<unsigned long long>(triangles));

  auto const cores = e::algorithms::kcore(e::execution::par, g);
  std::printf("max k-core: %d (the most cohesive group survives %d-degree "
              "peeling)\n",
              cores.max_core, cores.max_core);

  auto const coloring =
      e::algorithms::color_jones_plassmann(e::execution::par, g);
  std::printf("conflict-free schedule: %d time slots for %d people "
              "(%zu parallel rounds, valid: %s)\n",
              coloring.num_colors, g.get_num_vertices(), coloring.rounds,
              e::algorithms::is_valid_coloring(g, coloring.colors) ? "yes"
                                                                   : "NO");
  return 0;
}
