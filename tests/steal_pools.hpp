#pragma once

// Two work-stealing pools that differ in everything the scheduler is free
// to vary — steal order (flat vs tiered) and victim stream
// (ESSENTIALS_STEAL_SEED) — but share the deterministic chunk map
// (`thread_pool::bulk_step`).  Differential suites run one operator on both
// and require bit-identical scan-compacted output: the output order may
// depend on (n, grain, pool size), never on which thread ran which chunk.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "parallel/thread_pool.hpp"

namespace essentials::testing {

/// A pool of `n` workers whose victim streams are seeded with `seed`.  The
/// pool reads ESSENTIALS_STEAL_SEED at construction; the previous value is
/// restored before returning.
inline std::unique_ptr<parallel::thread_pool> seeded_pool(
    std::size_t n, parallel::steal_order order, char const* seed) {
  char const* const prev = std::getenv("ESSENTIALS_STEAL_SEED");
  std::optional<std::string> const saved =
      prev ? std::optional<std::string>(prev) : std::nullopt;
  setenv("ESSENTIALS_STEAL_SEED", seed, 1);
  auto pool = std::make_unique<parallel::thread_pool>(n, order);
  if (saved)
    setenv("ESSENTIALS_STEAL_SEED", saved->c_str(), 1);
  else
    unsetenv("ESSENTIALS_STEAL_SEED");
  return pool;
}

struct steal_pools {
  explicit steal_pools(std::size_t n)
      : flat(seeded_pool(n, parallel::steal_order::flat, "1")),
        tiered(seeded_pool(n, parallel::steal_order::tiered, "2")) {}

  std::unique_ptr<parallel::thread_pool> flat, tiered;
};

}  // namespace essentials::testing
