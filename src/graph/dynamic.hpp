#pragma once

/// \file graph/dynamic.hpp
/// \brief A mutable graph: thread-safe incremental edge insertion/removal
/// over a bucketed adjacency structure, with snapshotting into the static
/// representations the analytics run on.
///
/// The paper's Table I explicitly leaves *dynamic repartitioning* out of
/// scope; what analytics systems do need is the ingest side — accumulate
/// streaming edges, then snapshot to CSR for a read-only analytics epoch.
/// That snapshot IS "another underlying representation" in the paper's
/// sense: `dynamic_graph_t::snapshot<graph_csr>()` hands back a graph_t
/// every operator/algorithm in the library accepts.
///
/// Concurrency model: per-vertex spinlocks guard each adjacency bucket, so
/// concurrent inserts to different sources never contend and inserts to the
/// same source serialize briefly (CP.43).  Snapshot acquires each bucket's
/// lock while copying it, so it may run *concurrently with writers*: the
/// result is bucket-atomic — every adjacency list in the snapshot is some
/// complete state of that bucket (never a torn read), though buckets copied
/// at different instants may straddle an in-flight batch.  This is the
/// epoch-publication contract the engine's graph registry builds on
/// (regression-tested under TSAN: snapshot-while-inserting stress in
/// tests/test_engine.cpp).
///
/// Epoch publication: `publish_epoch()` stamps a monotonically increasing
/// epoch number and invokes registered `on_publish` hooks with it — the
/// callback seam the engine layer (src/engine/registry.hpp) uses to swap
/// registry snapshots and invalidate result-cache entries while readers
/// keep old epochs alive via shared_ptr pinning.
///
/// Edge-delta log: every mutation is additionally appended (while still
/// holding the bucket lock) to a bounded per-publish log; `publish_epoch()`
/// seals the accumulated records into a segment stamped with the new epoch,
/// and `delta_since(e)` returns the compacted concatenation of segments
/// (e, current] — the warm-start fuel of the engine's incremental
/// recompute path.  See "Epoch stamping under concurrent writers" below
/// for why the seal happens strictly *after* the snapshot.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/build.hpp"
#include "graph/delta.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "parallel/spinlock.hpp"

namespace essentials::graph {

template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class dynamic_graph_t {
 public:
  using delta_type = edge_delta_t<V, W>;
  using delta_record = delta_record_t<V, W>;

  /// Default bound on the total number of delta records held across all
  /// sealed segments plus the pending one; past it the log truncates and
  /// `delta_since` degrades to "incomplete" (full recompute).
  static constexpr std::size_t kDefaultDeltaCapacity = 1u << 16;

  explicit dynamic_graph_t(V num_vertices)
      : adjacency_(static_cast<std::size_t>(num_vertices)),
        locks_(static_cast<std::size_t>(num_vertices)) {}

  V num_vertices() const { return static_cast<V>(adjacency_.size()); }

  std::size_t num_edges() const {
    std::size_t total = 0;
    for (std::size_t v = 0; v < adjacency_.size(); ++v) {
      std::lock_guard<parallel::spinlock> guard(locks_[v]);
      total += adjacency_[v].size();
    }
    return total;
  }

  /// Insert edge (src, dst, w).  Duplicate (src, dst) pairs update the
  /// weight in place rather than multiplying edges.  Thread-safe across
  /// sources and within a source.  Delta log: a fresh edge or an in-place
  /// weight decrease records `insert` (monotone improvement); an in-place
  /// weight *increase* records `remove` (it can invalidate cached monotone
  /// results, exactly like a removal would).
  void add_edge(V src, V dst, W weight) {
    check(src, dst);
    std::lock_guard<parallel::spinlock> guard(
        locks_[static_cast<std::size_t>(src)]);
    auto& bucket = adjacency_[static_cast<std::size_t>(src)];
    for (auto& nb : bucket) {
      if (nb.vertex == dst) {
        bool const worsened = weight > nb.weight;
        nb.weight = weight;
        record_mutation(
            {src, dst, weight,
             worsened ? delta_op::remove : delta_op::insert});
        return;
      }
    }
    bucket.push_back({dst, weight});
    record_mutation({src, dst, weight, delta_op::insert});
  }

  /// Remove edge (src, dst) if present; returns whether an edge was
  /// removed.  Thread-safe like add_edge.
  bool remove_edge(V src, V dst) {
    check(src, dst);
    std::lock_guard<parallel::spinlock> guard(
        locks_[static_cast<std::size_t>(src)]);
    auto& bucket = adjacency_[static_cast<std::size_t>(src)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].vertex == dst) {
        W const old_w = bucket[i].weight;
        bucket[i] = bucket.back();
        bucket.pop_back();
        record_mutation({src, dst, old_w, delta_op::remove});
        return true;
      }
    }
    return false;
  }

  /// True iff the edge exists (bucket-atomic under concurrent writers).
  bool has_edge(V src, V dst) const {
    check(src, dst);
    std::lock_guard<parallel::spinlock> guard(
        locks_[static_cast<std::size_t>(src)]);
    for (auto const& nb : adjacency_[static_cast<std::size_t>(src)])
      if (nb.vertex == dst)
        return true;
    return false;
  }

  E out_degree(V v) const {
    expects(v >= 0 && static_cast<std::size_t>(v) < adjacency_.size(),
            "dynamic_graph: vertex out of range");
    std::lock_guard<parallel::spinlock> guard(
        locks_[static_cast<std::size_t>(v)]);
    return static_cast<E>(adjacency_[static_cast<std::size_t>(v)].size());
  }

  /// Materialize the current edge set as a COO (sorted canonical order):
  /// the snapshot's CSR, expanded.  Safe under concurrent mutation like
  /// `snapshot`.
  coo_t<V, E, W> to_coo() const { return graph::to_coo(snapshot_csr()); }

  /// Snapshot into any graph_t instantiation — the epoch boundary between
  /// ingest and analytics.  Safe under concurrent mutation: each bucket is
  /// copied under its lock (bucket-atomic snapshot; see the header comment
  /// for the exact guarantee).
  template <typename GraphT>
  GraphT snapshot() const {
    return from_csr<GraphT>(snapshot_csr());
  }

  // --- Epoch publication ----------------------------------------------------

  /// Hook signature: called with the freshly assigned epoch number after a
  /// `publish_epoch()` snapshot completed.
  using publish_hook = std::function<void(std::uint64_t epoch)>;

  /// Register a hook invoked on every publish (engine registries subscribe
  /// here).  Not thread-safe versus concurrent publish — register during
  /// setup.
  void on_publish(publish_hook hook) {
    std::lock_guard<std::mutex> guard(publish_mutex_);
    hooks_.push_back(std::move(hook));
  }

  /// Epochs published so far (0 before the first publish).
  std::uint64_t epoch() const {
    std::lock_guard<std::mutex> guard(publish_mutex_);
    return epoch_;
  }

  /// Snapshot the current edge set, stamp it with the next epoch number and
  /// fire the publish hooks.  Serialized against other publishers (one
  /// publish at a time ⇒ epoch numbers are dense and hooks observe them in
  /// order); ingest threads may keep mutating concurrently — their edges
  /// land in this epoch or the next, never in a torn bucket.
  ///
  /// Epoch stamping under concurrent writers: the delta log's pending
  /// segment is sealed strictly *after* the snapshot's bucket copies, and
  /// the seal splits the pending records at a boundary *marked before the
  /// first bucket copy*:
  ///
  ///  - Records logged before the mark: their bucket mutation happened
  ///    before every bucket copy (a mutation is appended to the log while
  ///    its bucket lock is still held), so they are definitely visible in
  ///    this snapshot.  They are stamped into this epoch's segment only.
  ///  - Records logged after the mark raced the bucket copies: the
  ///    mutation may have landed in an already-copied bucket, making it
  ///    first visible only in the *next* snapshot.  These ambiguous records
  ///    are stamped into this epoch's segment AND carried over into the
  ///    pending set for the next one — a duplicate record is a permitted
  ///    spurious entry under the delta contract's superset semantics
  ///    (graph/delta.hpp), whereas a dropped record would silently corrupt
  ///    the warm-start targeting the next epoch.
  ///
  /// (The naive variants — seal first / snapshot second, stamping each
  /// record with `epoch()` read at mutation time, or sealing everything
  /// into this epoch without the carry-over — all admit a schedule where a
  /// mutation visible only in snapshot e+1 is stamped e and thereby
  /// excluded from `delta_since(e)`.)  Regression-tested under TSAN in
  /// tests/test_delta.cpp (DeltaTsanEpochStamping).
  template <typename GraphT>
  std::pair<std::shared_ptr<GraphT const>, std::uint64_t> publish_epoch() {
    std::lock_guard<std::mutex> guard(publish_mutex_);
    {
      // Mark the pending-log boundary before any bucket is copied; see
      // the stamping note above.
      std::lock_guard<parallel::spinlock> log_guard(log_lock_);
      snapshot_mark_ = pending_.size();
    }
    auto snap = std::make_shared<GraphT const>(snapshot<GraphT>());
    std::uint64_t const e = epoch_ + 1;
    seal_pending(e);  // after the snapshot — see the ordering note above
    epoch_ = e;
    for (auto const& hook : hooks_)
      hook(e);
    return {std::move(snap), e};
  }

  // --- Edge-delta log -------------------------------------------------------

  /// Bound the total records held by the log (sealed segments + pending).
  /// 0 disables logging entirely; shrinking below the current footprint
  /// truncates.  Not thread-safe versus concurrent mutation — configure
  /// during setup.
  void set_delta_log_capacity(std::size_t max_records) {
    std::lock_guard<std::mutex> publish_guard(publish_mutex_);
    std::lock_guard<parallel::spinlock> log_guard(log_lock_);
    delta_capacity_ = max_records;
    enforce_capacity();
  }

  std::size_t delta_log_capacity() const {
    std::lock_guard<parallel::spinlock> guard(log_lock_);
    return delta_capacity_;
  }

  /// Earliest epoch `delta_since` can still answer from (deltas from
  /// epochs below the floor have scrolled out of the bounded history).
  std::uint64_t delta_floor() const {
    std::lock_guard<std::mutex> publish_guard(publish_mutex_);
    std::lock_guard<parallel::spinlock> log_guard(log_lock_);
    return floor_epoch_;
  }

  /// The compacted edge delta from `from_epoch`'s snapshot to the current
  /// epoch's snapshot.  `complete == false` (truncated log, unknown epoch,
  /// or `from_epoch` ahead of the current epoch) means the caller must do a
  /// full recompute.  Superset semantics — see graph/delta.hpp.
  delta_type delta_since(std::uint64_t from_epoch) const {
    std::lock_guard<std::mutex> publish_guard(publish_mutex_);
    std::lock_guard<parallel::spinlock> log_guard(log_lock_);
    delta_type delta;
    delta.from_epoch = from_epoch;
    delta.to_epoch = epoch_;
    // Capacity zero = logging disabled: never claim completeness, even for
    // quiescent spans we could technically vouch for.
    if (delta_capacity_ == 0 || from_epoch > epoch_ ||
        from_epoch < floor_epoch_) {
      delta.complete = false;
      return delta;
    }
    delta.complete = true;
    for (auto const& seg : segments_) {
      if (seg.epoch <= from_epoch)
        continue;
      delta.records.insert(delta.records.end(), seg.records.begin(),
                           seg.records.end());
    }
    compact(delta);
    return delta;
  }

 private:
  struct neighbor_t {
    V vertex;
    W weight;
  };

  /// Mutations accumulated between two publishes, stamped at seal time with
  /// the epoch whose snapshot they lead *to*.
  struct delta_segment {
    std::uint64_t epoch = 0;
    std::vector<delta_record> records;
  };

  /// The canonical CSR of the current edge set.  One serial pass copies
  /// each bucket under its lock and appends it to the CSR arrays, recording
  /// row offsets as it goes; then the rows are sorted by column on the
  /// default pool.  Buckets never hold a destination twice, so no edge is
  /// dropped and no COO is built.
  csr_t<V, E, W> snapshot_csr() const {
    csr_t<V, E, W> csr;
    csr.num_rows = csr.num_cols = num_vertices();
    csr.row_offsets.resize(adjacency_.size() + 1);
    csr.row_offsets[0] = 0;
    // Writers may change the count before the copy; it is only a hint.
    std::size_t const hint = num_edges();
    csr.column_indices.reserve(hint);
    csr.values.reserve(hint);
    for (std::size_t v = 0; v < adjacency_.size(); ++v) {
      std::lock_guard<parallel::spinlock> guard(locks_[v]);
      for (auto const& nb : adjacency_[v]) {
        csr.column_indices.push_back(nb.vertex);
        csr.values.push_back(nb.weight);
      }
      csr.row_offsets[v + 1] = static_cast<E>(csr.column_indices.size());
    }
    detail::canonicalize_rows(parallel::default_pool(), csr,
                              duplicate_policy::keep_first);
    return csr;
  }

  void check(V src, V dst) const {
    expects(src >= 0 && static_cast<std::size_t>(src) < adjacency_.size(),
            "dynamic_graph: source out of range");
    expects(dst >= 0 && static_cast<std::size_t>(dst) < adjacency_.size(),
            "dynamic_graph: destination out of range");
  }

  /// Append one mutation to the pending segment.  Called while the
  /// mutation's bucket lock is still held — that ordering is what makes the
  /// seal-after-snapshot stamping in publish_epoch() sound.  When the
  /// capacity bound is hit, older history is dropped first (fresh deltas
  /// serve warm-starts; stale ones only raise the floor); if even that
  /// cannot make room the pending segment itself truncates.
  void record_mutation(delta_record r) {
    std::lock_guard<parallel::spinlock> guard(log_lock_);
    if (delta_capacity_ == 0) {
      pending_truncated_ = true;
      return;
    }
    while (total_records_ >= delta_capacity_ && !segments_.empty()) {
      total_records_ -= segments_.front().records.size();
      floor_epoch_ = segments_.front().epoch;
      segments_.pop_front();
    }
    if (total_records_ >= delta_capacity_) {
      pending_truncated_ = true;
      return;
    }
    pending_.push_back(r);
    ++total_records_;
  }

  /// Seal the pending records into the segment for `epoch`.  Caller holds
  /// publish_mutex_ and has *finished* the snapshot (see publish_epoch).
  /// Records appended after `snapshot_mark_` raced the snapshot's bucket
  /// copies and may be visible only in the *next* snapshot — they are
  /// stamped into this segment and also carried over into the next pending
  /// set (superset semantics make the duplicate harmless; the omission
  /// would not be).
  void seal_pending(std::uint64_t epoch) {
    std::lock_guard<parallel::spinlock> guard(log_lock_);
    if (pending_truncated_) {
      // Continuity is broken: restart history at this epoch.  Warm-starts
      // from any earlier epoch degrade to full recomputes.
      segments_.clear();
      pending_.clear();
      total_records_ = 0;
      floor_epoch_ = epoch;
      pending_truncated_ = false;
      return;
    }
    if (pending_.empty())
      return;  // quiescent publish: nothing changed, history stays dense
    std::size_t const mark = std::min(snapshot_mark_, pending_.size());
    std::vector<delta_record> ambiguous(pending_.begin() +
                                            static_cast<std::ptrdiff_t>(mark),
                                        pending_.end());
    delta_segment seg{epoch, std::move(pending_)};
    pending_ = std::move(ambiguous);
    compact(seg.records);  // per-segment compaction bounds the footprint
    total_records_ = seg.records.size() + pending_.size();
    for (auto const& s : segments_)
      total_records_ += s.records.size();
    segments_.push_back(std::move(seg));
    enforce_capacity();  // the carried-over duplicates count toward the bound
  }

  /// Re-apply the capacity bound after it changed.  Caller holds both
  /// publish_mutex_ and log_lock_.
  void enforce_capacity() {
    if (delta_capacity_ == 0) {
      segments_.clear();
      pending_.clear();
      total_records_ = 0;
      pending_truncated_ = true;
      floor_epoch_ = epoch_;
      return;
    }
    while (total_records_ > delta_capacity_ && !segments_.empty()) {
      total_records_ -= segments_.front().records.size();
      floor_epoch_ = segments_.front().epoch;
      segments_.pop_front();
    }
    if (total_records_ > delta_capacity_) {
      total_records_ -= pending_.size();
      pending_.clear();
      pending_truncated_ = true;
    }
  }

  std::vector<std::vector<neighbor_t>> adjacency_;
  mutable std::vector<parallel::spinlock> locks_;

  mutable std::mutex publish_mutex_;  // serializes publish + hook list
  std::uint64_t epoch_ = 0;
  std::vector<publish_hook> hooks_;

  // Edge-delta log (guarded by log_lock_; log_lock_ is always innermost:
  // bucket-lock -> log_lock_ on the mutation path, publish_mutex_ ->
  // log_lock_ on the publish/query path — no cycles).
  mutable parallel::spinlock log_lock_;
  std::size_t delta_capacity_ = kDefaultDeltaCapacity;
  std::size_t total_records_ = 0;      // across pending_ + segments_
  std::size_t snapshot_mark_ = 0;      // pending_ size at snapshot start
  bool pending_truncated_ = false;     // capacity hit since last seal
  std::uint64_t floor_epoch_ = 0;      // earliest answerable from-epoch
  std::vector<delta_record> pending_;  // mutations since last publish
  std::deque<delta_segment> segments_;  // sealed, oldest first
};

}  // namespace essentials::graph
