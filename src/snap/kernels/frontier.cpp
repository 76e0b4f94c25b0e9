#include "snap/kernels/frontier.hpp"

#include <atomic>
#include <limits>

namespace snap {

namespace {

std::int64_t depth_limit(const HybridBFSOptions& o) {
  return o.max_depth < 0 ? std::numeric_limits<std::int64_t>::max()
                         : o.max_depth;
}

enum class Switch { kNone, kToPull, kToPush };

/// Per-level direction decision (Beamer alpha/beta), shared by the parallel
/// and serial engines: flip to pull when the frontier's arcs dominate what
/// is left to explore, back to push once the frontier is both shrinking and
/// small.  Pull reads a vertex's own adjacency as its *in*-edges, which is
/// only valid when the graph is symmetric.
Switch direction_switch(const CSRGraph& g, const HybridBFSOptions& opts,
                        const Frontier& cur, eid_t unexplored,
                        vid_t prev_size) {
  const bool allow_pull = opts.enable_pull && !g.directed();
  if (!cur.dense() && allow_pull && cur.arcs() > opts.min_pull_arcs &&
      static_cast<double>(cur.arcs()) * opts.alpha >
          static_cast<double>(unexplored))
    return Switch::kToPull;
  if (cur.dense() && cur.size() < prev_size &&
      static_cast<double>(cur.size()) * opts.beta <
          static_cast<double>(g.num_vertices()))
    return Switch::kToPush;
  return Switch::kNone;
}

}  // namespace

BFSResult BfsEngine::run(const CSRGraph& g, vid_t source,
                         const HybridBFSOptions& opts,
                         std::vector<BfsLevelStats>* trace) {
  if (trace) trace->clear();
  const vid_t n = g.num_vertices();
  BFSResult r;
  if (n == 0) return r;
  r.parent.assign(static_cast<std::size_t>(n), kInvalidVid);
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.parent[static_cast<std::size_t>(source)] = source;
  r.dist[static_cast<std::size_t>(source)] = 0;
  r.num_visited = 1;

  const std::int64_t max_depth = depth_limit(opts);

  visited_.resize(static_cast<std::size_t>(n));
  visited_.set(static_cast<std::size_t>(source));
  cur_.init(n);
  next_.init(n);
  cur_.reset_to(source, g.degree(source));
  eid_t unexplored = g.num_arcs() - cur_.arcs();
  vid_t prev_size = cur_.size();
  std::int64_t level = 0;

  while (!cur_.empty() && level < max_depth) {
    ++level;
    const Switch sw = direction_switch(g, opts, cur_, unexplored, prev_size);
    if (sw == Switch::kToPull) {
      cur_.to_dense();
    } else if (sw == Switch::kToPush) {
      cur_.to_sparse(g, r.dist, level - 1, pool_);
    }
    const vid_t fsize = cur_.size();
    const eid_t farcs = cur_.arcs();
    const bool pull = cur_.dense();
    vid_t discovered = 0;

    if (pull) {
      next_.bits().resize(static_cast<std::size_t>(n));
      std::atomic<vid_t> awake{0};
      std::atomic<eid_t> arcs{0};
      const AtomicBitmap& front = cur_.bits();
      AtomicBitmap& nbits = next_.bits();
      auto& dist = r.dist;
      auto& parent = r.parent;
      constexpr vid_t kPullChunk = 1024;
      std::atomic<vid_t> cursor{0};
      parallel::run_team(parallel::num_threads(), [&](int) {
        vid_t local_awake = 0;
        eid_t local_arcs = 0;
        for (;;) {
          const vid_t lo =
              cursor.fetch_add(kPullChunk, std::memory_order_relaxed);
          if (lo >= n) break;
          const vid_t hi = std::min(n, lo + kPullChunk);
          for (vid_t v = lo; v < hi; ++v) {
            if (dist[static_cast<std::size_t>(v)] >= 0) continue;
            for (vid_t u : g.neighbors(v)) {
              if (front.test(static_cast<std::size_t>(u))) {
                // Only the thread owning this chunk touches v, so dist/parent
                // writes are unshared; the bitmaps are atomic.
                dist[static_cast<std::size_t>(v)] = level;
                parent[static_cast<std::size_t>(v)] = u;
                visited_.set(static_cast<std::size_t>(v));
                nbits.set(static_cast<std::size_t>(v));
                ++local_awake;
                local_arcs += g.degree(v);
                break;
              }
            }
          }
        }
        awake.fetch_add(local_awake, std::memory_order_relaxed);
        arcs.fetch_add(local_arcs, std::memory_order_relaxed);
      });
      next_.assume_dense(awake.load(std::memory_order_relaxed),
                         arcs.load(std::memory_order_relaxed));
      discovered = awake.load(std::memory_order_relaxed);
    } else {
      expand_arc_balanced(g, cur_.list(), next_.list(), pool_,
                          [&](vid_t u, vid_t v) {
                            if (visited_.test_and_set(
                                    static_cast<std::size_t>(v))) {
                              r.dist[static_cast<std::size_t>(v)] = level;
                              r.parent[static_cast<std::size_t>(v)] = u;
                              return true;
                            }
                            return false;
                          });
      next_.assume_sparse(g);
      discovered = next_.size();
    }

    if (trace) trace->push_back({level, pull, fsize, farcs, discovered});
    r.num_visited += discovered;
    if (discovered > 0) r.num_levels = level;
    unexplored -= next_.arcs();
    prev_size = fsize;
    cur_.swap(next_);
  }
  return r;
}

void BfsEngine::run_serial_into(const CSRGraph& g, vid_t source,
                                const HybridBFSOptions& opts, BFSResult& r) {
  const vid_t n = g.num_vertices();
  r.parent.assign(static_cast<std::size_t>(n), kInvalidVid);
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.num_visited = 0;
  r.num_levels = 0;
  if (n == 0) return;
  r.parent[static_cast<std::size_t>(source)] = source;
  r.dist[static_cast<std::size_t>(source)] = 0;
  r.num_visited = 1;

  const std::int64_t max_depth = depth_limit(opts);

  cur_.init(n);
  next_.init(n);
  cur_.reset_to(source, g.degree(source));
  eid_t unexplored = g.num_arcs() - cur_.arcs();
  vid_t prev_size = cur_.size();
  std::int64_t level = 0;

  while (!cur_.empty() && level < max_depth) {
    ++level;
    const Switch sw = direction_switch(g, opts, cur_, unexplored, prev_size);
    if (sw == Switch::kToPull) {
      cur_.bits().resize(static_cast<std::size_t>(n));
      for (vid_t v : cur_.list()) cur_.bits().set(static_cast<std::size_t>(v));
      cur_.assume_dense(cur_.size(), cur_.arcs());
    } else if (sw == Switch::kToPush) {
      auto& lst = cur_.list();
      lst.clear();
      for (vid_t v = 0; v < n; ++v)
        if (r.dist[static_cast<std::size_t>(v)] == level - 1) lst.push_back(v);
      cur_.assume_sparse(g);
    }
    const vid_t fsize = cur_.size();
    vid_t discovered = 0;

    if (cur_.dense()) {
      next_.bits().resize(static_cast<std::size_t>(n));
      vid_t awake = 0;
      eid_t arcs = 0;
      for (vid_t v = 0; v < n; ++v) {
        if (r.dist[static_cast<std::size_t>(v)] >= 0) continue;
        for (vid_t u : g.neighbors(v)) {
          if (cur_.bits().test(static_cast<std::size_t>(u))) {
            r.dist[static_cast<std::size_t>(v)] = level;
            r.parent[static_cast<std::size_t>(v)] = u;
            next_.bits().set(static_cast<std::size_t>(v));
            ++awake;
            arcs += g.degree(v);
            break;
          }
        }
      }
      next_.assume_dense(awake, arcs);
      discovered = awake;
    } else {
      auto& out = next_.list();
      out.clear();
      for (vid_t u : cur_.list()) {
        for (vid_t v : g.neighbors(u)) {
          if (r.dist[static_cast<std::size_t>(v)] < 0) {
            r.dist[static_cast<std::size_t>(v)] = level;
            r.parent[static_cast<std::size_t>(v)] = u;
            out.push_back(v);
          }
        }
      }
      next_.assume_sparse(g);
      discovered = next_.size();
    }

    r.num_visited += discovered;
    if (discovered > 0) r.num_levels = level;
    unexplored -= next_.arcs();
    prev_size = fsize;
    cur_.swap(next_);
  }
}

BFSResult BfsEngine::run_serial(const CSRGraph& g, vid_t source,
                                const HybridBFSOptions& opts) {
  BFSResult r;
  run_serial_into(g, source, opts, r);
  return r;
}

}  // namespace snap
