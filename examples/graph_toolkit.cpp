// graph_toolkit — a command-line Swiss-army knife over the library's IO,
// properties, partitioning and reordering modules: the utility a
// downstream user reaches for before writing any code.
//
// Usage:
//   graph_toolkit stats     <file>             # degrees, components, clustering
//   graph_toolkit convert   <in> <out>         # between mtx/el/gr/metis/bin
//   graph_toolkit partition <file> <k> <heur>  # heur: random|block|greedy|bfs
//   graph_toolkit reorder   <in> <out> <ord>   # ord: degree|bfs
//   graph_toolkit demo                         # run all of the above on a
//                                              # generated graph in /tmp
// Formats are chosen by extension: .mtx .el .gr .graph .bin
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>

#include "essentials.hpp"

namespace e = essentials;
namespace g = e::graph;

namespace {

std::string extension(std::string const& path) {
  auto const dot = path.rfind('.');
  return dot == std::string::npos ? "" : path.substr(dot + 1);
}

g::coo_t<> load(std::string const& path) {
  auto const ext = extension(path);
  if (ext == "mtx")
    return e::io::read_matrix_market_file(path);
  if (ext == "el" || ext == "txt" || ext == "tsv")
    return e::io::read_edge_list_file(path);
  if (ext == "gr")
    return e::io::read_dimacs_file(path);
  if (ext == "graph")
    return e::io::read_metis_file(path);
  if (ext == "bin")
    return g::to_coo(e::io::read_binary_csr_file(path));
  throw e::graph_error("unknown input extension '" + ext + "'");
}

void save(std::string const& path, g::coo_t<> const& coo) {
  auto const ext = extension(path);
  std::ofstream out(path);
  if (!out)
    throw e::graph_error("cannot open '" + path + "' for writing");
  if (ext == "mtx")
    e::io::write_matrix_market(out, coo);
  else if (ext == "el" || ext == "txt" || ext == "tsv")
    e::io::write_edge_list(out, coo);
  else if (ext == "gr")
    e::io::write_dimacs(out, coo);
  else if (ext == "graph")
    e::io::write_metis(out, coo);
  else if (ext == "bin")
    e::io::write_binary_csr_file(path, g::build_csr(coo));
  else
    throw e::graph_error("unknown output extension '" + ext + "'");
}

int cmd_stats(std::string const& path) {
  auto coo = load(path);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const s = g::out_degree_stats(csr);
  std::printf("file        : %s\n", path.c_str());
  std::printf("vertices    : %d\n", csr.num_rows);
  std::printf("edges       : %d\n", csr.num_edges());
  std::printf("degree      : min %zu / mean %.2f (+/- %.2f) / max %zu\n",
              s.min_degree, s.mean_degree, s.stddev_degree, s.max_degree);
  std::printf("isolated    : %zu\n", s.isolated_vertices);
  std::printf("symmetric   : %s\n", g::is_symmetric(csr) ? "yes" : "no");
  std::printf("self loops  : %s\n", g::has_no_self_loops(csr) ? "none" : "yes");

  auto und = coo;
  g::remove_self_loops(und);
  g::symmetrize(und);
  auto const gr = g::from_coo<g::graph_full>(std::move(und));
  auto const cc = e::algorithms::connected_components(e::execution::par, gr);
  std::printf("components  : %zu (undirected)\n", cc.num_components);
  auto const cl =
      e::algorithms::clustering_coefficients(e::execution::par, gr);
  std::printf("clustering  : global %.4f, average local %.4f\n", cl.global,
              cl.average_local);
  auto const kc = e::algorithms::kcore(e::execution::par, gr);
  std::printf("max k-core  : %d\n", kc.max_core);
  return 0;
}

int cmd_convert(std::string const& in, std::string const& out) {
  auto const coo = load(in);
  save(out, coo);
  std::printf("converted %s (%d vertices, %d edges) -> %s\n", in.c_str(),
              coo.num_rows, coo.num_edges(), out.c_str());
  return 0;
}

int cmd_partition(std::string const& path, int k, std::string const& heur) {
  auto coo = load(path);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  e::partition::partition_t<e::vertex_t> p;
  if (heur == "random")
    p = e::partition::partition_random<e::vertex_t>(csr.num_rows, k, 1);
  else if (heur == "block")
    p = e::partition::partition_block<e::vertex_t>(csr.num_rows, k);
  else if (heur == "greedy")
    p = e::partition::partition_greedy_edges(csr, k);
  else if (heur == "bfs")
    p = e::partition::partition_bfs_grow(csr, k, 1);
  else
    throw e::graph_error("unknown heuristic '" + heur + "'");
  std::printf("%s, k=%d: edge cut %.1f%%, vertex balance %.3f, edge balance "
              "%.3f\n",
              heur.c_str(), k,
              100.0 * e::partition::edge_cut_fraction(csr, p),
              e::partition::vertex_balance(p),
              e::partition::edge_balance(csr, p));
  return 0;
}

int cmd_reorder(std::string const& in, std::string const& out,
                std::string const& order) {
  auto coo = load(in);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const perm = order == "degree" ? g::order_by_degree(csr)
                    : order == "bfs"  ? g::order_by_bfs(csr, 0)
                                      : throw e::graph_error(
                                            "unknown order '" + order + "'");
  g::permutation_t<e::vertex_t> identity(perm.size());
  std::iota(identity.begin(), identity.end(), 0);
  std::printf("average edge span: %.1f -> %.1f\n",
              g::average_edge_span(csr, identity),
              g::average_edge_span(csr, perm));
  save(out, g::apply_permutation(coo, perm));
  return 0;
}

int cmd_demo() {
  auto coo = e::generators::watts_strogatz(2000, 3, 0.1, {1.0f, 5.0f}, 4);
  g::sort_and_deduplicate(coo);
  std::string const base = "/tmp/essentials_demo";
  save(base + ".mtx", coo);
  std::printf("--- stats ---\n");
  cmd_stats(base + ".mtx");
  std::printf("--- convert ---\n");
  cmd_convert(base + ".mtx", base + ".graph");
  cmd_convert(base + ".graph", base + ".bin");
  std::printf("--- partition ---\n");
  for (auto const* h : {"random", "block", "greedy", "bfs"})
    cmd_partition(base + ".mtx", 4, h);
  std::printf("--- reorder ---\n");
  cmd_reorder(base + ".mtx", base + "_bfs.mtx", "bfs");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2) {
      std::string const cmd = argv[1];
      if (cmd == "stats" && argc == 3)
        return cmd_stats(argv[2]);
      if (cmd == "convert" && argc == 4)
        return cmd_convert(argv[2], argv[3]);
      if (cmd == "partition" && argc == 5)
        return cmd_partition(argv[2], std::atoi(argv[3]), argv[4]);
      if (cmd == "reorder" && argc == 5)
        return cmd_reorder(argv[2], argv[3], argv[4]);
      if (cmd == "demo")
        return cmd_demo();
    }
  } catch (std::exception const& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: %s stats <file> | convert <in> <out> | partition "
               "<file> <k> <random|block|greedy|bfs> | reorder <in> <out> "
               "<degree|bfs> | demo\n",
               argv[0]);
  return 2;
}
