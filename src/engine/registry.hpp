#pragma once

/// \file engine/registry.hpp
/// \brief The graph registry: named, epoch-versioned, immutable graph
/// snapshots — the "many enactments over shared graphs" substrate of the
/// analytics engine.
///
/// Design: every published snapshot is a `shared_ptr<GraphT const>`.
/// Lookup *pins* the current epoch: a job holds the shared_ptr for its
/// whole enactment, so an ingest thread can publish epoch N+1 while
/// readers finish on epoch N — the new epoch becomes visible to *new*
/// lookups instantly, old epochs die when their last reader drops them.
/// This is RCU-by-shared_ptr, the standard epoch scheme of serving
/// systems, and it is exactly why `dynamic_graph_t::snapshot()` only needs
/// bucket-atomicity: consistency of the *published* graph is this layer's
/// job, immutability makes it trivial.
///
/// Epochs are per-name and strictly increasing.  Publishing fires
/// subscriber callbacks (cache invalidation, metrics) *after* the swap,
/// outside the registry lock — subscribers may call back into the
/// registry.
///
/// Delta chains (PR 4): a publish may *carry* the edge delta that led from
/// the previous epoch to the new one (produced by
/// `dynamic_graph_t::delta_since`).  The registry keeps a bounded chain of
/// per-transition deltas per name; `delta_between(name, from, to)` splices
/// and compacts them so a warm-start job holding a stale epoch's result can
/// seed an incremental enactment (algorithms/incremental.hpp).  A publish
/// without a delta (or from a different source graph) breaks the chain —
/// `delta_between` across the break reports `complete == false` and the
/// consumer falls back to a cold enactment.  Registry epochs are re-stamped
/// onto carried deltas, so the chain speaks registry epochs, not the
/// dynamic graph's internal ones.
///
/// Storage tier (PR 9): with `enable_tier`, the registry demotes *cold*
/// epochs — least-recently-looked-up first, never one a reader currently
/// pins — to the block-coded on-disk format (io/mapped.hpp) whenever the
/// total resident footprint exceeds the configured budget, and
/// transparently pages them back (rebuilding every view of GraphT from the
/// decoded CSR) on the next lookup.  Spill IO always runs *outside* the
/// registry lock: demotion keeps the epoch resident until its file is
/// durably written, promotion loads into a local and installs only if the
/// slot is still the same demoted epoch.  A spill file remains valid for
/// its epoch after promotion, so re-demoting an unchanged epoch is free.
/// Spill files are never rewritten while mapped: names carry the process
/// id and the registry instance, so engines in different processes can
/// share one `spill_dir`, and each file is written under a temporary name
/// and renamed into place.
/// Delta chains survive demotion untouched — warm starts resume after a
/// promotion.  engine_stats v5 counts demotions/promotions and gauges
/// resident/spilled bytes; demote/promote are telemetry-tagged
/// ("tier.demote"/"tier.promote").

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "engine/stats.hpp"
#include "graph/build.hpp"
#include "graph/delta.hpp"
#include "graph/dynamic.hpp"
#include "io/mapped.hpp"

namespace essentials::engine {

/// Configuration for the registry's on-disk storage tier.
struct tier_options {
  std::string spill_dir = {};  ///< directory for spill files (created on enable)
  /// Demote coldest epochs while resident snapshot bytes exceed this;
  /// 0 == unlimited (only explicit `demote` calls spill).
  std::uint64_t resident_budget_bytes = 0;
};

/// Environment-driven tier configuration (CONTRIBUTING.md knob table):
/// `ESSENTIALS_OOC=1` enables the tier, `ESSENTIALS_OOC_DIR` overrides the
/// spill directory, `ESSENTIALS_OOC_BUDGET_MB` sets the resident budget.
struct tier_env_config {
  bool enabled = false;
  tier_options options;
};
inline tier_env_config tier_config_from_env() {
  tier_env_config cfg;
  char const* const on = std::getenv("ESSENTIALS_OOC");
  cfg.enabled = on != nullptr && on[0] == '1';
  if (char const* const dir = std::getenv("ESSENTIALS_OOC_DIR"))
    cfg.options.spill_dir = dir;
  else
    cfg.options.spill_dir =
        (std::filesystem::temp_directory_path() / "essentials-ooc").string();
  if (char const* const mb = std::getenv("ESSENTIALS_OOC_BUDGET_MB"))
    cfg.options.resident_budget_bytes =
        static_cast<std::uint64_t>(std::strtoull(mb, nullptr, 10)) * 1024 *
        1024;
  return cfg;
}

/// A graph type the tier can spill: CSR-bearing (every other view is
/// rebuilt from the CSR on promotion) with column ids the block codec can
/// store.
template <typename G>
concept tier_spillable = requires(G const& g) {
  requires G::has_csr;
  g.csr();
  requires sizeof(typename G::vertex_type) <= 4;
};

/// A pinned snapshot: the graph plus the epoch it belongs to.  Holding the
/// shared_ptr keeps this epoch alive regardless of later publishes.
template <typename GraphT>
struct pinned_graph {
  std::shared_ptr<GraphT const> graph;
  std::uint64_t epoch = 0;
  explicit operator bool() const { return graph != nullptr; }
};

template <typename GraphT>
class graph_registry {
 public:
  using graph_type = GraphT;
  using delta_type = graph::edge_delta_t<typename GraphT::vertex_type,
                                         typename GraphT::weight_type>;

  /// How many epoch transitions of delta history each name retains; older
  /// transitions scroll out and warm-starts across them fall back cold.
  static constexpr std::size_t kMaxDeltaHistory = 64;

  /// Callback fired after a publish: (name, new epoch).
  using subscriber = std::function<void(std::string const&, std::uint64_t)>;

  graph_registry() = default;
  graph_registry(graph_registry const&) = delete;
  graph_registry& operator=(graph_registry const&) = delete;

  /// Publish `g` as the next epoch of `name` (epoch 1 for a new name).
  /// Returns the pinned snapshot just published.  In-flight readers of the
  /// previous epoch are unaffected — they hold their own pins.
  pinned_graph<GraphT> publish(std::string const& name, GraphT g) {
    return publish_shared(name,
                          std::make_shared<GraphT const>(std::move(g)));
  }

  /// Publish an externally built snapshot (e.g. the shared_ptr returned by
  /// `dynamic_graph_t::publish_epoch`).  The no-delta overload breaks the
  /// delta chain for `name` (the transition is unexplained).
  pinned_graph<GraphT> publish_shared(std::string const& name,
                                      std::shared_ptr<GraphT const> g) {
    return publish_impl(name, std::move(g), std::nullopt, nullptr, 0);
  }

  /// Publish a snapshot together with the edge delta explaining the
  /// transition from the previous epoch's snapshot to this one.  The delta
  /// is re-stamped with registry epochs and appended to the name's delta
  /// chain; an incomplete delta breaks the chain instead.
  pinned_graph<GraphT> publish_shared(std::string const& name,
                                      std::shared_ptr<GraphT const> g,
                                      delta_type delta) {
    return publish_impl(name, std::move(g), std::move(delta), nullptr, 0);
  }

  /// Snapshot a dynamic (ingest) graph and publish it as the next epoch —
  /// the convenience path an ingest loop calls at epoch boundaries.  This
  /// const overload cannot consult the delta log, so it breaks the chain;
  /// prefer the non-const overload for warm-start-capable serving.
  template <typename V, typename E, typename W>
  pinned_graph<GraphT> publish(std::string const& name,
                               graph::dynamic_graph_t<V, E, W> const& dyn) {
    return publish(name, dyn.template snapshot<GraphT>());
  }

  /// Warm-start-capable publish: advances the dynamic graph's own epoch
  /// (sealing its delta log), then publishes the snapshot *with* the delta
  /// for this transition.  The chain stays intact only while consecutive
  /// epochs of `name` come from the same `dyn` with a complete log —
  /// anything else (first publish, source switch, truncated log) degrades
  /// to a chain break, never to a wrong delta.
  template <typename V, typename E, typename W>
  pinned_graph<GraphT> publish(std::string const& name,
                               graph::dynamic_graph_t<V, E, W>& dyn) {
    auto [snap, dyn_epoch] = dyn.template publish_epoch<GraphT>();
    std::optional<delta_type> delta;
    if (dyn_epoch > 0) {
      auto d = dyn.delta_since(dyn_epoch - 1);
      if (d.complete)
        delta.emplace(std::move(d));
    }
    return publish_impl(name, std::move(snap), std::move(delta), &dyn,
                        dyn_epoch);
  }

  /// The spliced, compacted delta covering registry epochs
  /// (`from_epoch`, `to_epoch`] of `name`.  `complete == false` when any
  /// transition in the range is missing (chain break, history scrolled out,
  /// unknown name, or a range the registry never saw) — the caller must
  /// recompute cold.  `from_epoch == to_epoch` yields an empty complete
  /// delta.
  delta_type delta_between(std::string const& name, std::uint64_t from_epoch,
                           std::uint64_t to_epoch) const {
    delta_type out;
    out.from_epoch = from_epoch;
    out.to_epoch = to_epoch;
    out.complete = false;
    if (from_epoch > to_epoch)
      return out;
    std::lock_guard<std::mutex> guard(mutex_);
    auto const it = graphs_.find(name);
    if (it == graphs_.end() || to_epoch > it->second.epoch)
      return out;
    if (from_epoch == to_epoch) {
      out.complete = true;
      return out;
    }
    std::uint64_t covered = 0;
    for (auto const& d : it->second.deltas) {
      if (d.to_epoch <= from_epoch || d.to_epoch > to_epoch)
        continue;
      out.records.insert(out.records.end(), d.records.begin(),
                         d.records.end());
      ++covered;
    }
    if (covered != to_epoch - from_epoch) {
      out.records.clear();  // hole in the chain: unusable
      return out;
    }
    out.complete = true;
    graph::compact(out);
    return out;
  }

  /// Pin the current epoch of `name`; empty pin when unknown.  A demoted
  /// epoch is paged back from its spill file first (the lookup blocks on
  /// the load; concurrent lookups may load redundantly, the first install
  /// wins) — callers never observe the tier except through latency.
  pinned_graph<GraphT> lookup(std::string const& name) const {
    std::uint64_t demoted_epoch = 0;
    std::string spill_path;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto const it = graphs_.find(name);
      if (it == graphs_.end())
        return {};
      it->second.last_access = ++access_clock_;
      if (it->second.graph != nullptr)
        return {it->second.graph, it->second.epoch};
      if (it->second.spill_path.empty())
        return {};  // never happens for published names; defensive
      demoted_epoch = it->second.epoch;
      spill_path = it->second.spill_path;
    }
    if constexpr (tier_spillable<GraphT>)
      return promote(name, demoted_epoch, spill_path);
    else
      return {};
  }

  /// Current epoch of `name` (0 == never published).
  std::uint64_t epoch(std::string const& name) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto const it = graphs_.find(name);
    return it == graphs_.end() ? 0 : it->second.epoch;
  }

  /// Remove a graph (its epochs survive in readers' pins).  Returns
  /// whether the name existed.  Any spill file is deleted.
  bool remove(std::string const& name) {
    std::string stale;
    bool erased = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto const it = graphs_.find(name);
      if (it != graphs_.end()) {
        release_accounting_locked(it->second);
        stale = std::move(it->second.spill_path);
        graphs_.erase(it);
        erased = true;
        push_gauges_locked();
      }
    }
    remove_spill_file(stale);
    return erased;
  }

  // --- storage tier ----------------------------------------------------------

  /// Attach the engine's stats block (tier counters/gauges).  Call before
  /// concurrent use.
  void set_stats(engine_stats* stats) { stats_ = stats; }

  /// Enable the on-disk tier: spill files live under `opt.spill_dir`
  /// (created here), and publishes/demotions keep total resident snapshot
  /// bytes at or under `opt.resident_budget_bytes` whenever unpinned cold
  /// epochs make that possible.  Compile-time no-op for graph types the
  /// tier cannot serialize (no CSR view).
  void enable_tier(tier_options opt) {
    static_assert(tier_spillable<GraphT>,
                  "graph_registry tier requires a CSR-bearing graph type");
    std::filesystem::create_directories(opt.spill_dir);
    std::lock_guard<std::mutex> guard(mutex_);
    tier_ = std::move(opt);
    tier_enabled_ = true;
  }

  bool tier_enabled() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return tier_enabled_;
  }

  /// Total bytes of resident (in-RAM) snapshots the registry itself holds.
  std::uint64_t resident_bytes() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return resident_total_;
  }
  /// Total bytes of spill files currently on disk.
  std::uint64_t spilled_bytes() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return spilled_total_;
  }

  /// Force-demote the current epoch of `name` to disk.  Returns true when
  /// the epoch is on disk afterwards (including "already demoted"); false
  /// for unknown names, pinned epochs, or a disabled tier.
  bool demote(std::string const& name) {
    if constexpr (tier_spillable<GraphT>)
      return demote_impl(name);
    else
      return false;
  }

  /// Register a publish callback (the engine wires cache invalidation
  /// here).  Callbacks run on the publishing thread, after the swap,
  /// outside the registry lock.
  void subscribe(subscriber s) {
    std::lock_guard<std::mutex> guard(mutex_);
    subscribers_.push_back(std::move(s));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return graphs_.size();
  }

  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<std::string> out;
    out.reserve(graphs_.size());
    for (auto const& [name, slot] : graphs_)
      out.push_back(name);
    return out;
  }

 private:
  struct slot_t {
    std::shared_ptr<GraphT const> graph;  ///< null while demoted to disk
    std::uint64_t epoch = 0;
    /// Per-transition deltas, oldest first; deltas[i] covers registry
    /// epochs (to_epoch - 1, to_epoch].  Contiguity is an invariant: a
    /// chain break clears the deque.  Demotion leaves the chain in place —
    /// warm starts resume once the epoch is promoted back.
    std::deque<delta_type> deltas;
    /// Continuity tracking: which dynamic graph produced the current epoch
    /// (identity only — never dereferenced) and at which of *its* epochs.
    void const* delta_source = nullptr;
    std::uint64_t source_epoch = 0;
    // Storage-tier bookkeeping.
    std::uint64_t resident_bytes = 0;  ///< footprint charged while resident
    std::uint64_t last_access = 0;     ///< LRU stamp (access_clock_ ticks)
    std::string spill_path;            ///< on-disk copy of `spill_epoch`
    std::uint64_t spill_epoch = 0;     ///< epoch the spill file serializes
    std::uint64_t spill_bytes = 0;     ///< spill file size
    bool spilling = false;             ///< a demotion write is in flight
  };

  pinned_graph<GraphT> publish_impl(std::string const& name,
                                    std::shared_ptr<GraphT const> g,
                                    std::optional<delta_type> delta,
                                    void const* source,
                                    std::uint64_t source_epoch) {
    expects(g != nullptr, "graph_registry: cannot publish a null graph");
    pinned_graph<GraphT> pinned;
    std::vector<subscriber> subs;
    std::string stale_spill;
    bool over_budget = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto& slot = graphs_[name];
      bool const continuous =
          delta.has_value() && delta->complete && slot.epoch > 0 &&
          slot.delta_source == source && source != nullptr &&
          source_epoch == slot.source_epoch + 1;
      release_accounting_locked(slot);
      stale_spill = std::move(slot.spill_path);  // old epoch's file is stale
      slot.spill_path.clear();
      slot.spill_epoch = 0;
      slot.spill_bytes = 0;
      slot.graph = std::move(g);
      slot.epoch += 1;
      slot.resident_bytes = estimate_bytes(*slot.graph);
      slot.last_access = ++access_clock_;
      resident_total_ += slot.resident_bytes;
      if (continuous) {
        delta->from_epoch = slot.epoch - 1;  // re-stamp in registry epochs
        delta->to_epoch = slot.epoch;
        slot.deltas.push_back(std::move(*delta));
        while (slot.deltas.size() > kMaxDeltaHistory)
          slot.deltas.pop_front();
      } else {
        slot.deltas.clear();  // unexplained transition: chain break
      }
      slot.delta_source = source;
      slot.source_epoch = source_epoch;
      pinned = {slot.graph, slot.epoch};
      subs = subscribers_;  // snapshot: callbacks run outside the lock
      push_gauges_locked();
      over_budget = tier_enabled_ && tier_.resident_budget_bytes > 0 &&
                    resident_total_ > tier_.resident_budget_bytes;
    }
    remove_spill_file(stale_spill);
    if (over_budget)
      enforce_budget();
    for (auto const& s : subs)
      s(name, pinned.epoch);
    return pinned;
  }

  // --- tier internals --------------------------------------------------------
  //
  // Locking discipline: every file read/write happens with the registry
  // lock RELEASED; the lock is retaken afterwards and the slot's epoch is
  // re-checked before any state is installed.  A republish racing a
  // demotion/promotion simply invalidates the in-flight IO (the loser
  // deletes/discards its work).

  /// Registry's own footprint estimate of a snapshot: the raw bytes of
  /// every view GraphT carries.
  static std::uint64_t estimate_bytes(GraphT const& g) {
    std::uint64_t b = 0;
    using V = typename GraphT::vertex_type;
    using E = typename GraphT::edge_type;
    using W = typename GraphT::weight_type;
    if constexpr (GraphT::has_csr) {
      auto const& c = g.csr();
      b += c.row_offsets.size() * sizeof(E) +
           c.column_indices.size() * (sizeof(V) + sizeof(W));
    }
    if constexpr (GraphT::has_csc) {
      auto const& c = g.csc();
      b += c.column_offsets.size() * sizeof(E) +
           c.row_indices.size() * (sizeof(V) + sizeof(W));
    }
    if constexpr (GraphT::has_coo) {
      auto const& c = g.coo();
      b += c.row_indices.size() * (2 * sizeof(V) + sizeof(W));
    }
    return b;
  }

  /// Drop a slot's contribution from both accounting totals (caller holds
  /// the lock and is about to overwrite/erase the slot).
  void release_accounting_locked(slot_t& slot) {
    if (slot.graph != nullptr)
      resident_total_ -= slot.resident_bytes;
    if (!slot.spill_path.empty())
      spilled_total_ -= slot.spill_bytes;
  }

  void push_gauges_locked() const {
    if (stats_ != nullptr) {
      stats_->set_tier_resident_bytes(resident_total_);
      stats_->set_tier_spilled_bytes(spilled_total_);
    }
  }

  static void remove_spill_file(std::string const& path) {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove(path, ec);  // best-effort
    }
  }

  std::string spill_path_for(std::string const& name,
                             std::uint64_t epoch) const {
    // Lock held.  Name goes through a hash: spill files must not depend on
    // names being filesystem-safe.  `instance_` is unique only within a
    // process (and survives fork), so the pid keeps registries in
    // different processes sharing one spill_dir from colliding.
    auto const h = std::hash<std::string>{}(name);
    char buf[96];
    std::snprintf(buf, sizeof buf, "g%016zx-p%lld-i%llu-e%llu.blk",
                  static_cast<std::size_t>(h),
                  static_cast<long long>(::getpid()),
                  static_cast<unsigned long long>(instance_),
                  static_cast<unsigned long long>(epoch));
    return (std::filesystem::path(tier_.spill_dir) / buf).string();
  }

  /// Page a demoted epoch back in.  Loads outside the lock; installs only
  /// if the slot still holds the same demoted epoch.
  pinned_graph<GraphT> promote(std::string const& name, std::uint64_t epoch,
                               std::string const& path) const
    requires tier_spillable<GraphT>
  {
    using V = typename GraphT::vertex_type;
    using E = typename GraphT::edge_type;
    using W = typename GraphT::weight_type;
    std::shared_ptr<GraphT const> loaded;
    {
      io::mapped_graph<V, E, W> mg(path);
      telemetry::op_probe probe("tier.promote", mg.file_bytes(), 0, 0, 0,
                                false);
      // The spilled CSR is canonical, so every view of GraphT comes back
      // exactly as it was published.
      loaded =
          std::make_shared<GraphT const>(graph::from_csr<GraphT>(mg.to_csr()));
    }
    std::lock_guard<std::mutex> guard(mutex_);
    auto const it = graphs_.find(name);
    if (it == graphs_.end())
      return {};  // removed while loading
    slot_t& slot = it->second;
    if (slot.graph != nullptr || slot.epoch != epoch)
      return {slot.graph, slot.epoch};  // republished or promoted by a peer
    slot.graph = loaded;
    slot.resident_bytes = estimate_bytes(*loaded);
    slot.last_access = ++access_clock_;
    resident_total_ += slot.resident_bytes;
    // The spill file stays valid for this epoch: a later re-demotion of an
    // unchanged epoch drops the pointer without rewriting the file.
    if (stats_ != nullptr)
      stats_->on_tier_promotion();
    push_gauges_locked();
    return {slot.graph, slot.epoch};
  }

  bool demote_impl(std::string const& name)
    requires tier_spillable<GraphT>
  {
    std::shared_ptr<GraphT const> pin;
    std::uint64_t epoch = 0;
    std::string path;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (!tier_enabled_)
        return false;
      auto const it = graphs_.find(name);
      if (it == graphs_.end())
        return false;
      slot_t& slot = it->second;
      if (slot.graph == nullptr)
        return !slot.spill_path.empty();  // already on disk
      if (slot.spilling)
        return false;  // another demotion owns this slot's IO
      if (!slot.spill_path.empty() && slot.spill_epoch == slot.epoch) {
        // Fast path: the epoch is already durably on disk from a previous
        // demote/promote cycle — just drop the resident copy.
        if (slot.graph.use_count() > 1)
          return false;  // pinned by a reader: not cold, keep it
        resident_total_ -= slot.resident_bytes;
        slot.graph.reset();
        if (stats_ != nullptr)
          stats_->on_tier_demotion();
        push_gauges_locked();
        return true;
      }
      if (slot.graph.use_count() > 1)
        return false;  // pinned by a reader: not cold, keep it
      pin = slot.graph;  // keep the epoch alive (and resident) during IO
      epoch = slot.epoch;
      path = spill_path_for(name, epoch);
      slot.spilling = true;
    }
    bool wrote = false;
    std::uint64_t file_bytes = 0;
    // Write under a temporary name, then rename into place: the published
    // name only ever refers to a complete file, and a file some reader may
    // have mapped is replaced, never truncated.
    std::string const tmp = path + ".tmp";
    try {
      telemetry::op_probe probe("tier.demote", pin->csr().column_indices.size(),
                                0, 0, 0, false);
      io::write_mapped_graph(tmp, pin->csr());
      std::filesystem::rename(tmp, path);
      std::error_code ec;
      auto const sz = std::filesystem::file_size(path, ec);
      file_bytes = ec ? 0 : static_cast<std::uint64_t>(sz);
      wrote = true;
    } catch (...) {
      remove_spill_file(tmp);
    }
    bool demoted = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto const it = graphs_.find(name);
      if (it != graphs_.end()) {
        slot_t& slot = it->second;
        slot.spilling = false;
        if (wrote && slot.epoch == epoch && slot.graph == pin) {
          slot.spill_path = path;
          slot.spill_epoch = epoch;
          slot.spill_bytes = file_bytes;
          spilled_total_ += file_bytes;
          // Drop the resident copy only if still unpinned (the registry's
          // reference + our local `pin` = 2).
          if (slot.graph.use_count() <= 2) {
            resident_total_ -= slot.resident_bytes;
            slot.graph.reset();
            demoted = true;
            if (stats_ != nullptr)
              stats_->on_tier_demotion();
          }
          push_gauges_locked();
          wrote = false;  // file adopted by the slot
        }
      } else if (wrote) {
        wrote = true;  // name vanished: file is orphaned, delete below
      }
    }
    if (wrote)
      remove_spill_file(path);
    return demoted;
  }

  /// Demote least-recently-used unpinned epochs until resident bytes fit
  /// the budget (or nothing cold remains).
  void enforce_budget() {
    if constexpr (tier_spillable<GraphT>) {
      for (;;) {
        std::string victim;
        {
          std::lock_guard<std::mutex> guard(mutex_);
          if (!tier_enabled_ || tier_.resident_budget_bytes == 0 ||
              resident_total_ <= tier_.resident_budget_bytes)
            return;
          std::uint64_t best = ~0ull;
          for (auto& [n, slot] : graphs_) {
            if (slot.graph == nullptr || slot.spilling ||
                slot.graph.use_count() > 1)
              continue;  // demoted already, in flight, or pinned
            if (slot.last_access < best) {
              best = slot.last_access;
              victim = n;
            }
          }
          if (victim.empty())
            return;  // everything resident is pinned/hot: budget is advisory
        }
        if (!demote_impl(victim))
          return;  // raced a reader pin: stop rather than spin
      }
    }
  }

  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, slot_t> graphs_;
  std::vector<subscriber> subscribers_;
  // Tier state.  graphs_/totals are mutated under mutex_ from const
  // lookups (LRU stamps, promotion installs) — logically const: the
  // name -> current-epoch mapping callers observe never changes.
  engine_stats* stats_ = nullptr;
  tier_options tier_;
  bool tier_enabled_ = false;
  std::uint64_t const instance_ = graph::blockcodec::next_cookie();
  mutable std::uint64_t access_clock_ = 0;
  mutable std::uint64_t resident_total_ = 0;
  mutable std::uint64_t spilled_total_ = 0;
};

}  // namespace essentials::engine
