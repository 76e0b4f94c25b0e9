#include "snap/graph/dynamic_graph.hpp"

#include <algorithm>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

DynamicGraph::DynamicGraph(vid_t n, bool directed, eid_t promote_threshold)
    : directed_(directed),
      promote_threshold_(std::max<eid_t>(promote_threshold, 2)),
      flat_(static_cast<std::size_t>(n)),
      treap_(static_cast<std::size_t>(n)) {}

vid_t DynamicGraph::add_vertex() {
  flat_.emplace_back();
  treap_.emplace_back();
  return static_cast<vid_t>(flat_.size()) - 1;
}

void DynamicGraph::ensure_vertices(vid_t n) {
  if (n <= num_vertices()) return;
  // Reserve both arrays before resizing either: a failed allocation then
  // leaves flat_ and treap_ the same size, and the resizes cannot throw.
  // Geometric, as resize() alone would be, so one-vertex growth stays
  // amortized O(1).
  const auto want = static_cast<std::size_t>(n);
  const std::size_t cap = std::max(want, 2 * flat_.size());
  flat_.reserve(cap);
  treap_.reserve(cap);
  flat_.resize(want);
  treap_.resize(want);
}

bool DynamicGraph::insert_arc(vid_t u, vid_t v) {
  if (!treap_[u].empty()) return treap_[u].insert(v);
  auto& a = flat_[u];
  if (std::find(a.begin(), a.end(), v) != a.end()) return false;
  a.push_back(v);
  if (static_cast<eid_t>(a.size()) > promote_threshold_) {
    // Promote: migrate the flat array into a treap.
    std::sort(a.begin(), a.end());
    treap_[u] = Treap::from_sorted(a);
    a.clear();
    a.shrink_to_fit();
  }
  return true;
}

bool DynamicGraph::delete_arc(vid_t u, vid_t v) {
  if (!treap_[u].empty()) return treap_[u].erase(v);
  auto& a = flat_[u];
  auto it = std::find(a.begin(), a.end(), v);
  if (it == a.end()) return false;
  *it = a.back();
  a.pop_back();
  return true;
}

bool DynamicGraph::has_arc(vid_t u, vid_t v) const {
  if (!treap_[u].empty()) return treap_[u].contains(v);
  const auto& a = flat_[u];
  return std::find(a.begin(), a.end(), v) != a.end();
}

bool DynamicGraph::insert_edge(vid_t u, vid_t v) {
  if (has_arc(u, v)) return false;
  const bool fwd = insert_arc(u, v);
  SNAP_DCHECK(fwd, "arc (", u, ",", v, ") vanished between has_arc and insert");
  if (!directed_ && u != v) {
    const bool mirror = insert_arc(v, u);
    SNAP_DCHECK(mirror, "mirror arc (", v, ",", u,
                ") already present: adjacency asymmetry");
  }
  ++m_;
  return true;
}

bool DynamicGraph::delete_edge(vid_t u, vid_t v) {
  if (!delete_arc(u, v)) return false;
  if (!directed_ && u != v) {
    const bool mirror = delete_arc(v, u);
    SNAP_DCHECK(mirror, "mirror arc (", v, ",", u,
                ") missing on delete: adjacency asymmetry");
  }
  --m_;
  return true;
}

bool DynamicGraph::has_edge(vid_t u, vid_t v) const { return has_arc(u, v); }

eid_t DynamicGraph::degree(vid_t v) const {
  return treap_[v].empty() ? static_cast<eid_t>(flat_[v].size())
                           : static_cast<eid_t>(treap_[v].size());
}

CSRGraph DynamicGraph::to_csr() const {
  const vid_t n = num_vertices();
  // Two passes: per-vertex emitted-edge counts -> prefix sum -> parallel fill
  // of disjoint slices.  Slice order is the deterministic per-vertex visit
  // order, so the edge list (and the CSR built from it) is identical at every
  // thread count.
  std::vector<eid_t> cnt(static_cast<std::size_t>(n), 0);
  parallel::parallel_for(n, [&](vid_t u) {
    eid_t c = 0;
    for_each_neighbor(u, [&](vid_t v) {
      if (directed_ || u <= v) ++c;
    });
    cnt[static_cast<std::size_t>(u)] = c;
  });
  std::vector<eid_t> offs;
  parallel::exclusive_prefix_sum(cnt, offs);
  EdgeList edges(static_cast<std::size_t>(offs[static_cast<std::size_t>(n)]));
  parallel::parallel_for(n, [&](vid_t u) {
    eid_t at = offs[static_cast<std::size_t>(u)];
    for_each_neighbor(u, [&](vid_t v) {
      if (directed_ || u <= v) edges[static_cast<std::size_t>(at++)] = {u, v, 1.0};
    });
  });
  // Keep self loops: the adjacency structures store them (one arc, one
  // logical edge), so the default remove_self_loops=true would silently
  // shrink the snapshot below num_edges().  Dedupe stays on purely for its
  // canonical (u, v, w) edge ordering — arcs are already unique here.
  BuildOptions opts;
  opts.remove_self_loops = false;
  CSRGraph g = CSRGraph::from_edges(n, edges, directed_, opts);
  SNAP_DCHECK(g.num_edges() == m_, "to_csr emitted ", g.num_edges(),
              " edges but the dynamic graph tracks ", m_);
  return g;
}

DynamicGraph DynamicGraph::from_csr(const CSRGraph& g, eid_t promote_threshold) {
  DynamicGraph d(g.num_vertices(), g.directed(), promote_threshold);
  for (const Edge& e : g.edges()) d.insert_edge(e.u, e.v);
  SNAP_VALIDATE(d);
  return d;
}

}  // namespace snap
