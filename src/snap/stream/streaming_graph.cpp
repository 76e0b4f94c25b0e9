#include "snap/stream/streaming_graph.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/sync.hpp"

namespace snap::stream {

EpochSnapshot::EpochSnapshot(CSRGraph csr, std::uint64_t epoch,
                             std::shared_ptr<std::atomic<std::int64_t>> live)
    : csr_(std::move(csr)), epoch_(epoch), live_(std::move(live)) {
  live_->fetch_add(1, std::memory_order_acq_rel);
}

EpochSnapshot::~EpochSnapshot() {
  live_->fetch_sub(1, std::memory_order_acq_rel);
}

StreamingGraph::StreamingGraph(vid_t n, bool directed, eid_t promote_threshold)
    : graph_(n, directed, promote_threshold) {}

StreamingGraph::StreamingGraph(DynamicGraph graph)
    : graph_(std::move(graph)) {}

StreamingGraph StreamingGraph::from_csr(const CSRGraph& g,
                                        eid_t promote_threshold) {
  return StreamingGraph(DynamicGraph::from_csr(g, promote_threshold));
}

void StreamingGraph::add_observer(StreamObserver* obs) {
  if (obs) observers_.push_back(obs);
}

ApplyStats StreamingGraph::apply(const UpdateBatch& batch) {
  return apply_canonical(batch.canonicalize(graph_.directed()));
}

ApplyStats StreamingGraph::apply_serial(const UpdateBatch& batch) {
  parallel::ThreadScope scope(1);
  return apply(batch);
}

ApplyStats StreamingGraph::apply_canonical(const CanonicalBatch& cb) {
  ApplyStats st;
  st.raw_records = cb.raw_records;
  st.canonical_arcs = cb.arcs.size();
  const bool directed = graph_.directed();
  // Growth happens before any other state changes, so a rejected id or a
  // failed allocation leaves the graph and the epoch as they were.
  if (cb.max_vid == std::numeric_limits<vid_t>::max())
    throw std::out_of_range("StreamingGraph::apply: vertex id " +
                            std::to_string(cb.max_vid) + " is too large");
  if (cb.max_vid >= graph_.num_vertices())
    graph_.ensure_vertices(cb.max_vid + 1);

  const std::vector<ArcUpdate>& arcs = cb.arcs;
  const std::size_t na = arcs.size();

  AppliedBatch ab;
  if (na > 0) {
    // Group the sorted arc array by owner.  A group is the contiguous run of
    // updates landing in one vertex's adjacency; groups are applied with
    // dynamic scheduling (hub vertices can receive most of a batch), each
    // group entirely by one thread — the no-lock ownership discipline.
    std::vector<eid_t> head(na);
    parallel::parallel_for(na, [&](std::size_t i) {
      head[i] = (i == 0 || arcs[i].owner != arcs[i - 1].owner) ? 1 : 0;
    });
    std::vector<eid_t> group_of;
    parallel::exclusive_prefix_sum(head, group_of);
    const auto ngroups = static_cast<std::size_t>(group_of[na]);
    std::vector<std::size_t> group_begin(ngroups + 1, na);
    parallel::parallel_for(na, [&](std::size_t i) {
      if (head[i]) group_begin[static_cast<std::size_t>(group_of[i])] = i;
    });

    // Apply.  insert_arc/delete_arc report whether the arc actually changed
    // state; within a group arcs are applied in (nbr, seq) order, so flat
    // array contents, promotion points and treap shapes are all deterministic.
    std::vector<std::uint8_t> eff(na, 0);
    parallel::parallel_for_dynamic(
        ngroups,
        [&](std::size_t g) {
          const std::size_t lo = group_begin[g];
          const std::size_t hi = group_begin[g + 1];
          for (std::size_t i = lo; i < hi; ++i) {
            const ArcUpdate& a = arcs[i];
            eff[i] = a.kind == UpdateKind::kInsert
                         ? graph_.insert_arc(a.owner, a.nbr)
                         : graph_.delete_arc(a.owner, a.nbr);
          }
        },
        /*chunk=*/8);

    // Effective logical edge changes: for undirected graphs the two arcs of
    // an edge are always both effective or both not (the adjacency mirror
    // invariant plus symmetric canonicalization), so the owner <= nbr arc
    // stands for the edge.  Compaction keeps the sorted (u, v) order.
    std::vector<eid_t> fi(na), fd(na);
    parallel::parallel_for(na, [&](std::size_t i) {
      const ArcUpdate& a = arcs[i];
      const bool logical = eff[i] && (directed || a.owner <= a.nbr);
      fi[i] = (logical && a.kind == UpdateKind::kInsert) ? 1 : 0;
      fd[i] = (logical && a.kind == UpdateKind::kDelete) ? 1 : 0;
    });
    std::vector<eid_t> oi, od;
    parallel::exclusive_prefix_sum(fi, oi);
    parallel::exclusive_prefix_sum(fd, od);
    ab.inserted.resize(static_cast<std::size_t>(oi[na]));
    ab.deleted.resize(static_cast<std::size_t>(od[na]));
    parallel::parallel_for(na, [&](std::size_t i) {
      const ArcUpdate& a = arcs[i];
      if (fi[i])
        ab.inserted[static_cast<std::size_t>(oi[i])] = {a.owner, a.nbr};
      if (fd[i])
        ab.deleted[static_cast<std::size_t>(od[i])] = {a.owner, a.nbr};
    });

    graph_.m_ += static_cast<eid_t>(ab.inserted.size()) -
                 static_cast<eid_t>(ab.deleted.size());
  }

  st.applied_inserts = ab.inserted.size();
  st.applied_deletes = ab.deleted.size();

  // Post-batch structural check runs before observers see the new state, so
  // a corrupted graph is caught at the batch that broke it, not downstream.
  SNAP_VALIDATE(graph_);

  const std::uint64_t new_epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  ab.epoch = new_epoch;
  ab.num_vertices = graph_.num_vertices();
  ab.graph = &graph_;
  for (StreamObserver* obs : observers_) obs->on_batch(ab);

  // Eager mode: materialize and publish this epoch's snapshot before apply
  // returns, on the writer thread.  Readers pinning concurrently keep
  // seeing the previous epoch until the pointer swap; their handles keep
  // superseded snapshots alive until unpinned (RCU-style reclamation).
  if (eager_) (void)publish_snapshot(&ab);
  return st;
}

SnapshotHandle StreamingGraph::publish_snapshot(
    const AppliedBatch* batch) const {
  // Hidden contract: reads graph_, so only the applying thread (or a caller
  // with no concurrent writer) may enter.  The build happens outside the
  // lock — pinning readers are never blocked behind a build.
  const std::uint64_t e = epoch();
  SnapshotHandle prev;
  if (batch != nullptr) {
    sync::MutexLock lk(snap_mu_);
    prev = published_;
  }
  // The previous epoch's image plus the batch that led here is this
  // epoch's image: patch it.  Otherwise (lazy pins, the first eager
  // publication) rebuild from the live graph.
  const bool patch = prev && prev->epoch() + 1 == e;
  CSRGraph csr = patch ? CSRGraph::patched(prev->graph(),
                                           graph_.num_vertices(),
                                           batch->inserted, batch->deleted)
                       : graph_.to_csr();
  SNAP_DCHECK(csr.num_edges() == graph_.num_edges(), "epoch ", e,
              " snapshot has ", csr.num_edges(), " edges, the graph ",
              graph_.num_edges());
  SNAP_CHECK_EXPENSIVE(!patch || debug::same_image(csr, graph_.to_csr()),
                       "epoch ", e, ": patched snapshot differs from to_csr()");
  auto snap = std::shared_ptr<const EpochSnapshot>(
      new EpochSnapshot(std::move(csr), e, live_));
  sync::MutexLock lk(snap_mu_);
  published_ = snap;
  return snap;
}

SnapshotHandle StreamingGraph::pin() const {
  const std::uint64_t e = epoch();
  {
    sync::MutexLock lk(snap_mu_);
    // Eager mode serves whatever is currently published (snapshot
    // isolation: a pin racing an in-flight apply gets the previous epoch).
    // Lazy mode reuses the cache only when it matches the current epoch.
    if (published_ && (eager_ || published_->epoch() == e))
      return published_;
  }
  return publish_snapshot();
}

void StreamingGraph::set_eager_snapshots(bool eager) {
  eager_ = eager;
  // Publish immediately so concurrent pins always find a snapshot without
  // ever touching the live graph.
  if (eager_) (void)publish_snapshot();
}

const CSRGraph& StreamingGraph::snapshot() const {
  SnapshotHandle h = pin();
  bool refreshed = false;
  {
    sync::MutexLock lk(snap_mu_);
    refreshed = legacy_.get() != h.get();
    legacy_ = h;
  }
  // Validate only on refresh: the validator itself calls snapshot(), which
  // now short-circuits (same handle), so validation cannot recurse.
  if (refreshed) SNAP_VALIDATE(*this);
  return h->graph();
}

}  // namespace snap::stream
