// Robustness fuzzing (deterministic): every reader fed random garbage,
// truncations and boundary inputs must either parse or throw graph_error —
// never crash, hang, or return an inconsistent structure.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "essentials.hpp"

namespace e = essentials;
namespace g = e::graph;

namespace {

std::string random_bytes(std::size_t len, std::uint64_t seed) {
  e::generators::rng_t rng(seed);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(static_cast<char>(rng.next_below(256)));
  return s;
}

std::string random_ascii(std::size_t len, std::uint64_t seed) {
  e::generators::rng_t rng(seed);
  std::string const alphabet = "0123456789 \t\n.-%#aepz";
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(alphabet[rng.next_below(alphabet.size())]);
  return s;
}

template <typename Reader>
void expect_parse_or_throw(Reader&& reader, std::string const& payload,
                           std::string const& label) {
  std::istringstream in(payload);
  try {
    auto const coo = reader(in);
    // If it parsed, the result must be structurally sound.
    EXPECT_GE(coo.num_rows, 0) << label;
    for (std::size_t i = 0; i < coo.row_indices.size(); ++i) {
      EXPECT_GE(coo.row_indices[i], 0) << label;
      EXPECT_LT(coo.row_indices[i], coo.num_rows) << label;
      EXPECT_GE(coo.column_indices[i], 0) << label;
      EXPECT_LT(coo.column_indices[i], coo.num_cols) << label;
    }
  } catch (e::graph_error const&) {
    // expected failure mode
  }
}

}  // namespace

class IoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzz, MatrixMarketSurvivesGarbage) {
  auto const seed = GetParam();
  expect_parse_or_throw([](std::istream& in) { return e::io::read_matrix_market(in); },
                        random_bytes(512, seed), "mtx/binary");
  expect_parse_or_throw([](std::istream& in) { return e::io::read_matrix_market(in); },
                        random_ascii(512, seed), "mtx/ascii");
  expect_parse_or_throw(
      [](std::istream& in) { return e::io::read_matrix_market(in); },
      "%%MatrixMarket matrix coordinate real general\n" +
          random_ascii(256, seed),
      "mtx/banner+garbage");
}

TEST_P(IoFuzz, EdgeListSurvivesGarbage) {
  auto const seed = GetParam();
  expect_parse_or_throw([](std::istream& in) { return e::io::read_edge_list(in); },
                        random_ascii(512, seed), "el/ascii");
  expect_parse_or_throw([](std::istream& in) { return e::io::read_edge_list(in); },
                        random_bytes(512, seed), "el/binary");
}

TEST_P(IoFuzz, DimacsSurvivesGarbage) {
  auto const seed = GetParam();
  expect_parse_or_throw([](std::istream& in) { return e::io::read_dimacs(in); },
                        random_ascii(512, seed), "gr/ascii");
  expect_parse_or_throw(
      [](std::istream& in) { return e::io::read_dimacs(in); },
      "p sp 5 3\n" + random_ascii(256, seed), "gr/header+garbage");
}

TEST_P(IoFuzz, MetisSurvivesGarbage) {
  auto const seed = GetParam();
  expect_parse_or_throw([](std::istream& in) { return e::io::read_metis(in); },
                        random_ascii(512, seed), "metis/ascii");
}

TEST_P(IoFuzz, BinaryCsrSurvivesGarbageAndTruncation) {
  auto const seed = GetParam();
  {
    std::istringstream in(random_bytes(256, seed));
    EXPECT_THROW((void)e::io::read_binary_csr(in), e::graph_error);
  }
  // Valid prefix, truncated at every eighth byte boundary.
  auto coo = e::generators::erdos_renyi(16, 60, {}, seed);
  g::sort_and_deduplicate(coo);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  e::io::write_binary_csr(buf, g::build_csr(coo));
  std::string const full = buf.str();
  for (std::size_t cut = 8; cut + 8 < full.size(); cut += full.size() / 7) {
    std::istringstream in(full.substr(0, cut));
    EXPECT_THROW((void)e::io::read_binary_csr(in), e::graph_error)
        << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Mapped block files (PR 9): the mmap reader must throw graph_error on any
// malformed file — truncation, header garbage, endianness mismatch — and
// corrupted *payload* bytes must decode to garbage values without ever
// leaving the mapping (exercised under ASan in CI).
// ---------------------------------------------------------------------------

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/mapped.hpp"
#include "temp_dir.hpp"

namespace {

/// This process's scratch directory, removed at exit.  Private per process
/// because ctest runs every parameterized instance as its own process: a
/// shared directory let one instance truncate a file another had mmapped.
std::filesystem::path const& fuzz_dir() {
  static essentials::testing::private_dir const dir("essentials-io-fuzz");
  return dir.path();
}

std::string read_file(std::filesystem::path const& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::filesystem::path write_file(std::string const& name,
                                 std::string const& bytes) {
  auto const p = fuzz_dir() / name;
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return p;
}

/// A small valid mapped file's bytes (deterministic per seed).
std::string valid_mapped_bytes(std::uint64_t seed) {
  auto coo = e::generators::erdos_renyi(64, 700, {0.5f, 2.0f}, seed);
  g::sort_and_deduplicate(coo);
  auto const p = fuzz_dir() / ("valid-" + std::to_string(seed) + ".blk");
  e::io::write_mapped_graph(p.string(), g::build_csr(coo));
  auto bytes = read_file(p);
  std::filesystem::remove(p);
  return bytes;
}

}  // namespace

TEST_P(IoFuzz, MappedFileRejectsPureGarbage) {
  auto const seed = GetParam();
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{64},
                          std::size_t{4096}, std::size_t{9000}}) {
    auto const p = write_file("garbage.blk", random_bytes(len, seed + len));
    EXPECT_THROW((void)e::io::mapped_graph<>(p.string()), e::graph_error)
        << "len " << len;
    std::filesystem::remove(p);
  }
}

TEST_P(IoFuzz, MappedFileRejectsTruncation) {
  auto const seed = GetParam();
  auto const full = valid_mapped_bytes(seed);
  // Truncate at uneven points across the whole layout: header, each
  // section boundary neighborhood, and mid-adjacency.
  for (std::size_t cut = 13; cut < full.size(); cut += full.size() / 11) {
    auto const p = write_file("trunc.blk", full.substr(0, cut));
    EXPECT_THROW((void)e::io::mapped_graph<>(p.string()), e::graph_error)
        << "cut at " << cut << " of " << full.size();
    std::filesystem::remove(p);
  }
  // The untouched file still loads (the fixture itself is valid).
  auto const p = write_file("whole.blk", full);
  EXPECT_NO_THROW((void)e::io::mapped_graph<>(p.string()));
  std::filesystem::remove(p);
}

TEST_P(IoFuzz, MappedFileSurvivesHeaderGarbage) {
  auto const seed = GetParam();
  auto const full = valid_mapped_bytes(seed);
  e::generators::rng_t rng(seed * 977 + 5);
  // Flip bytes across the header page: every mutation either fails header
  // validation with graph_error or yields a graph whose traversal stays in
  // bounds (garbage page-0 padding is ignored by design).
  for (int trial = 0; trial < 64; ++trial) {
    auto bytes = full;
    auto const off = rng.next_below(e::io::kMappedPage);
    bytes[off] = static_cast<char>(bytes[off] ^
                                   static_cast<char>(1 + rng.next_below(255)));
    auto const p = write_file("hdr.blk", bytes);
    try {
      e::io::mapped_graph<> mg(p.string());
      std::uint64_t sink = 0;
      for (e::vertex_t v = 0; v < mg.get_num_vertices(); ++v)
        mg.for_each_neighbor(v, [&sink](e::vertex_t nb, float) {
          sink += static_cast<std::uint64_t>(nb);
        });
      (void)sink;
    } catch (e::graph_error const&) {
      // expected failure mode
    }
    std::filesystem::remove(p);
  }
}

TEST_P(IoFuzz, MappedFileRejectsForeignEndianness) {
  auto const seed = GetParam();
  auto bytes = valid_mapped_bytes(seed);
  // The endian tag sits right after magic (u64) + version (u32).  A
  // byte-swapped tag is what this file would look like written on an
  // opposite-endian host.
  std::size_t const off = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  std::swap(bytes[off], bytes[off + 3]);
  std::swap(bytes[off + 1], bytes[off + 2]);
  auto const p = write_file("endian.blk", bytes);
  EXPECT_THROW((void)e::io::mapped_graph<>(p.string()), e::graph_error);
  std::filesystem::remove(p);
}

TEST_P(IoFuzz, MappedPayloadGarbageDecodesInBounds) {
  auto const seed = GetParam();
  auto full = valid_mapped_bytes(seed);
  // Locate the adjacency section from the (valid) header and corrupt
  // payload bytes only — the header and both index sections stay intact,
  // so validation passes and decode must absorb the damage: garbage
  // *values*, never out-of-bounds reads (ASan-checked in CI).
  e::io::mapped_header h{};
  std::memcpy(&h, full.data(), sizeof h);
  ASSERT_GT(h.len_adj, e::graph::blockcodec::stream_slop);
  e::generators::rng_t rng(seed * 31 + 7);
  std::size_t const payload =
      static_cast<std::size_t>(h.len_adj - e::graph::blockcodec::stream_slop);
  for (int i = 0; i < 200; ++i) {
    auto const off =
        static_cast<std::size_t>(h.off_adj) + rng.next_below(payload);
    full[off] = static_cast<char>(rng.next_below(256));
  }
  auto const p = write_file("payload.blk", full);
  try {
    e::io::mapped_graph<> mg(p.string());
    std::uint64_t sink = 0;
    for (e::vertex_t v = 0; v < mg.get_num_vertices(); ++v)
      mg.for_each_neighbor(v, [&sink](e::vertex_t nb, float) {
        sink += static_cast<std::uint64_t>(nb);
      });
    (void)sink;  // values may be garbage; the walk must terminate in bounds
  } catch (e::graph_error const&) {
    // also acceptable: corruption detected up front
  }
  std::filesystem::remove(p);
}
