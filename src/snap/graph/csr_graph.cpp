#include "snap/graph/csr_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

namespace {

/// Inputs below this many edges build serially: the parallel pipeline's
/// fork/join and scratch allocations cost more than the build itself.
constexpr std::size_t kParallelBuildCutoff = 1 << 15;

/// Total-order edge comparator used by dedupe on BOTH build paths.  Keying
/// on (u, v, w) — not just (u, v) — makes the sorted sequence unique, so
/// the edge a dedupe keeps (the smallest-weight one of each parallel group)
/// is the same at every thread count and for both pipelines.
inline bool edge_key_less(const Edge& a, const Edge& b) {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.w < b.w;
}

inline bool same_endpoints(const Edge& a, const Edge& b) {
  return a.u == b.u && a.v == b.v;
}

[[noreturn]] void throw_out_of_range(std::size_t input_index) {
  throw std::out_of_range(
      "CSRGraph::from_edges: vertex id out of range at input edge " +
      std::to_string(input_index));
}

/// Serial validate/normalize/filter + dedupe — the reference semantics the
/// parallel path must reproduce exactly.
EdgeList prepare_edges_serial(vid_t n, const EdgeList& input, bool directed,
                              const BuildOptions& opts) {
  EdgeList edges;
  edges.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Edge& e = input[i];
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) throw_out_of_range(i);
    if (opts.remove_self_loops && e.u == e.v) continue;
    Edge c = e;
    if (!directed && c.u > c.v) std::swap(c.u, c.v);
    edges.push_back(c);
  }
  if (opts.dedupe) {
    std::sort(edges.begin(), edges.end(), edge_key_less);
    edges.erase(std::unique(edges.begin(), edges.end(), same_endpoints),
                edges.end());
  }
  return edges;
}

/// Parallel prepare: per-thread validate/normalize/filter buffers compacted
/// via a prefix sum over buffer sizes; out-of-range ids are aggregated (the
/// lowest offending input index) instead of thrown mid-loop, so the error a
/// caller sees does not depend on scheduling.  Dedupe is parallel_sort on
/// the (u, v, w) key followed by a keep-flag prefix-sum `unique` compaction.
EdgeList prepare_edges_parallel(vid_t n, const EdgeList& input, bool directed,
                                const BuildOptions& opts) {
  const std::size_t in_sz = input.size();
  const int nt = parallel::num_threads();
  constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

  std::vector<EdgeList> local(static_cast<std::size_t>(nt));
  std::vector<std::size_t> first_bad(static_cast<std::size_t>(nt), kNoError);
  parallel::run_team(nt, [&](int t) {
    const std::size_t lo = in_sz * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(nt);
    const std::size_t hi = in_sz * (static_cast<std::size_t>(t) + 1) /
                           static_cast<std::size_t>(nt);
    EdgeList& buf = local[static_cast<std::size_t>(t)];
    buf.reserve(hi - lo);
    std::size_t bad = kNoError;
    for (std::size_t i = lo; i < hi; ++i) {
      const Edge& e = input[i];
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
        if (bad == kNoError) bad = i;
        continue;
      }
      if (opts.remove_self_loops && e.u == e.v) continue;
      Edge c = e;
      if (!directed && c.u > c.v) std::swap(c.u, c.v);
      buf.push_back(c);
    }
    first_bad[static_cast<std::size_t>(t)] = bad;
  });
  const std::size_t bad =
      *std::min_element(first_bad.begin(), first_bad.end());
  if (bad != kNoError) throw_out_of_range(bad);

  // Compact the per-thread buffers; block order == input order, so the
  // prepared list matches the serial pass element for element.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t)
    sizes[static_cast<std::size_t>(t)] = local[static_cast<std::size_t>(t)].size();
  std::vector<std::size_t> offs;
  parallel::exclusive_prefix_sum(sizes, offs);
  EdgeList edges(offs[static_cast<std::size_t>(nt)]);
  parallel::run_team(nt, [&](int t) {
    const EdgeList& buf = local[static_cast<std::size_t>(t)];
    std::copy(buf.begin(), buf.end(),
              edges.begin() + static_cast<std::ptrdiff_t>(
                                  offs[static_cast<std::size_t>(t)]));
  });

  if (opts.dedupe && !edges.empty()) {
    parallel::parallel_sort(edges.begin(), edges.end(), edge_key_less);
    const std::size_t ne = edges.size();
    std::vector<std::size_t> keep(ne);
    parallel::parallel_for(ne, [&](std::size_t i) {
      keep[i] = (i == 0 || !same_endpoints(edges[i - 1], edges[i])) ? 1 : 0;
    });
    std::vector<std::size_t> kpos;
    parallel::exclusive_prefix_sum(keep, kpos);
    EdgeList out(kpos[ne]);
    parallel::parallel_for(ne, [&](std::size_t i) {
      if (keep[i]) out[kpos[i]] = edges[i];
    });
    edges.swap(out);
  }
  return edges;
}

/// Sort each vertex's adjacency slice by (neighbor, edge id).  The edge id
/// tiebreak makes the layout a pure function of the logical edge list —
/// arcs arriving in any placement order land identically — which is what
/// lets the parallel builder use unordered atomic-cursor placement and
/// still match the serial reference byte for byte.
void sort_adjacency_slices(vid_t n, const std::vector<eid_t>& offsets,
                           std::vector<vid_t>& adj,
                           std::vector<weight_t>& weights,
                           std::vector<eid_t>& arc_edge_ids) {
  parallel::parallel_for_dynamic(n, [&](vid_t v) {
    const eid_t lo = offsets[static_cast<std::size_t>(v)];
    const eid_t hi = offsets[static_cast<std::size_t>(v) + 1];
    const auto len = static_cast<std::size_t>(hi - lo);
    if (len < 2) return;
    std::vector<eid_t> idx(len);
    std::iota(idx.begin(), idx.end(), lo);
    std::sort(idx.begin(), idx.end(), [&](eid_t a, eid_t b) {
      const auto sa = static_cast<std::size_t>(a);
      const auto sb = static_cast<std::size_t>(b);
      if (adj[sa] != adj[sb]) return adj[sa] < adj[sb];
      return arc_edge_ids[sa] < arc_edge_ids[sb];
    });
    std::vector<vid_t> a2(len);
    std::vector<weight_t> w2(len);
    std::vector<eid_t> id2(len);
    for (std::size_t i = 0; i < len; ++i) {
      a2[i] = adj[idx[i]];
      w2[i] = weights[idx[i]];
      id2[i] = arc_edge_ids[idx[i]];
    }
    std::copy(a2.begin(), a2.end(),
              adj.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(w2.begin(), w2.end(),
              weights.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(id2.begin(), id2.end(),
              arc_edge_ids.begin() + static_cast<std::ptrdiff_t>(lo));
  });
}

using EdgePair = std::pair<vid_t, vid_t>;

inline bool edge_before(const Edge& e, const EdgePair& p) {
  return e.u < p.first || (e.u == p.first && e.v < p.second);
}

/// One arc an inserted edge adds to a row, carrying its new edge id.
struct PatchArc {
  vid_t owner;
  vid_t nbr;
  eid_t id;
};

/// A row the batch changes: its inserted arcs are [ins_begin, ins_end) of
/// the sorted PatchArc array, and its length moves by `delta` arcs.
struct TouchedRow {
  vid_t v;
  std::size_t ins_begin;
  std::size_t ins_end;
  eid_t delta;
};

/// True if `s` is strictly ascending (sorted, no duplicates).
bool strictly_ascending(std::span<const EdgePair> s) {
  return std::adjacent_find(s.begin(), s.end(),
                            [](const EdgePair& a, const EdgePair& b) {
                              return !(a < b);
                            }) == s.end();
}

}  // namespace

CSRGraph CSRGraph::from_edges(vid_t n, const EdgeList& input, bool directed,
                              const BuildOptions& opts) {
  const bool serial =
      opts.path == BuildPath::kSerial ||
      (opts.path == BuildPath::kAuto &&
       (input.size() < kParallelBuildCutoff || parallel::num_threads() <= 1));

  CSRGraph g;
  g.n_ = n;
  g.directed_ = directed;
  g.edge_endpoints_ = serial ? prepare_edges_serial(n, input, directed, opts)
                             : prepare_edges_parallel(n, input, directed, opts);
  g.m_ = static_cast<eid_t>(g.edge_endpoints_.size());
  const auto& edges = g.edge_endpoints_;
  [[maybe_unused]] const eid_t arcs = directed ? g.m_ : 2 * g.m_;
  g.offsets_.resize(static_cast<std::size_t>(n) + 1);

  if (serial) {
    g.weighted_ = std::any_of(edges.begin(), edges.end(),
                              [](const Edge& e) { return e.w != 1.0; });
    std::vector<eid_t> deg(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge& e : edges) {
      ++deg[static_cast<std::size_t>(e.u)];
      if (!directed) ++deg[static_cast<std::size_t>(e.v)];
    }
    parallel::exclusive_prefix_sum(deg.data(), g.offsets_.data(),
                                   static_cast<std::size_t>(n));
    SNAP_DCHECK(g.offsets_[static_cast<std::size_t>(n)] == arcs,
                "serial degree prefix sum lost arcs: offsets[n]=",
                g.offsets_[static_cast<std::size_t>(n)], " expected ", arcs);

    g.adj_.resize(static_cast<std::size_t>(arcs));
    g.weights_.resize(static_cast<std::size_t>(arcs));
    g.arc_edge_ids_.resize(static_cast<std::size_t>(arcs));
    std::vector<eid_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (eid_t e = 0; e < g.m_; ++e) {
      const Edge& ed = edges[static_cast<std::size_t>(e)];
      eid_t a = cursor[static_cast<std::size_t>(ed.u)]++;
      g.adj_[static_cast<std::size_t>(a)] = ed.v;
      g.weights_[static_cast<std::size_t>(a)] = ed.w;
      g.arc_edge_ids_[static_cast<std::size_t>(a)] = e;
      if (!directed) {
        a = cursor[static_cast<std::size_t>(ed.v)]++;
        g.adj_[static_cast<std::size_t>(a)] = ed.u;
        g.weights_[static_cast<std::size_t>(a)] = ed.w;
        g.arc_edge_ids_[static_cast<std::size_t>(a)] = e;
      }
    }
  } else {
    // Per-thread degree histograms, with weighted-detection folded into the
    // same sweep (replacing the serial path's extra std::any_of pass).
    const int nt = parallel::num_threads();
    const eid_t m = g.m_;
    std::vector<std::vector<eid_t>> hist(static_cast<std::size_t>(nt));
    std::vector<unsigned char> wflag(static_cast<std::size_t>(nt), 0);
    parallel::run_team(nt, [&](int t) {
      auto& h = hist[static_cast<std::size_t>(t)];
      h.assign(static_cast<std::size_t>(n), 0);
      const eid_t lo = m * t / nt;
      const eid_t hi = m * (t + 1) / nt;
      bool weighted = false;
      for (eid_t e = lo; e < hi; ++e) {
        const Edge& ed = edges[static_cast<std::size_t>(e)];
        ++h[static_cast<std::size_t>(ed.u)];
        if (!directed) ++h[static_cast<std::size_t>(ed.v)];
        weighted |= (ed.w != 1.0);
      }
      wflag[static_cast<std::size_t>(t)] = weighted ? 1 : 0;
    });
    g.weighted_ = std::any_of(wflag.begin(), wflag.end(),
                              [](unsigned char f) { return f != 0; });

    // Reduce the histograms into one degree array (threads own disjoint
    // vertex ranges of the sum) and prefix-sum into offsets.
    std::vector<eid_t> deg(static_cast<std::size_t>(n), 0);
    parallel::parallel_for(n, [&](vid_t v) {
      eid_t d = 0;
      for (int t = 0; t < nt; ++t) d += hist[static_cast<std::size_t>(t)]
                                           [static_cast<std::size_t>(v)];
      deg[static_cast<std::size_t>(v)] = d;
    });
    parallel::exclusive_prefix_sum(deg.data(), g.offsets_.data(),
                                   static_cast<std::size_t>(n));
    SNAP_DCHECK(g.offsets_[static_cast<std::size_t>(n)] == arcs,
                "histogram reduction lost arcs: offsets[n]=",
                g.offsets_[static_cast<std::size_t>(n)], " expected ", arcs);

    // Atomic-cursor placement: arcs land in scheduling order, which the
    // (neighbor, edge id) adjacency sort below canonicalizes.
    g.adj_.resize(static_cast<std::size_t>(arcs));
    g.weights_.resize(static_cast<std::size_t>(arcs));
    g.arc_edge_ids_.resize(static_cast<std::size_t>(arcs));
    std::vector<std::atomic<eid_t>> cursor(static_cast<std::size_t>(n));
    parallel::parallel_for(n, [&](vid_t v) {
      cursor[static_cast<std::size_t>(v)].store(
          g.offsets_[static_cast<std::size_t>(v)], std::memory_order_relaxed);
    });
    auto place = [&](vid_t from, vid_t to, weight_t w, eid_t e) {
      const eid_t a = cursor[static_cast<std::size_t>(from)].fetch_add(
          1, std::memory_order_relaxed);
      g.adj_[static_cast<std::size_t>(a)] = to;
      g.weights_[static_cast<std::size_t>(a)] = w;
      g.arc_edge_ids_[static_cast<std::size_t>(a)] = e;
    };
    parallel::run_team(nt, [&](int t) {
      const eid_t lo = m * t / nt;
      const eid_t hi = m * (t + 1) / nt;
      for (eid_t e = lo; e < hi; ++e) {
        const Edge& ed = edges[static_cast<std::size_t>(e)];
        place(ed.u, ed.v, ed.w, e);
        if (!directed) place(ed.v, ed.u, ed.w, e);
      }
    });
  }

  if (opts.sort_adjacency) {
    sort_adjacency_slices(n, g.offsets_, g.adj_, g.weights_, g.arc_edge_ids_);
    g.sorted_ = true;
  }
  SNAP_VALIDATE(g);
  return g;
}

CSRGraph CSRGraph::from_parts(vid_t n, eid_t m, bool directed, bool weighted,
                              bool sorted, std::vector<eid_t> offsets,
                              std::vector<vid_t> adj,
                              std::vector<weight_t> weights,
                              std::vector<eid_t> arc_edge_ids,
                              EdgeList edge_endpoints) {
  SNAP_ASSERT(n >= 0 && m >= 0, "from_parts: negative n=", n, " or m=", m);
  SNAP_ASSERT(offsets.size() == static_cast<std::size_t>(n) + 1,
              "from_parts: offsets size ", offsets.size(), " != n+1 = ",
              n + 1);
  const auto arcs = static_cast<std::size_t>(directed ? m : 2 * m);
  SNAP_ASSERT(adj.size() == arcs && weights.size() == arcs &&
                  arc_edge_ids.size() == arcs,
              "from_parts: arc array sizes (", adj.size(), ", ",
              weights.size(), ", ", arc_edge_ids.size(), ") != ", arcs);
  SNAP_ASSERT(edge_endpoints.size() == static_cast<std::size_t>(m),
              "from_parts: edge list size ", edge_endpoints.size(),
              " != m = ", m);
  SNAP_ASSERT(n == 0 || (offsets.front() == 0 &&
                         offsets.back() == static_cast<eid_t>(arcs)),
              "from_parts: offsets do not cover the adjacency");
  CSRGraph g;
  g.n_ = n;
  g.m_ = m;
  g.directed_ = directed;
  g.weighted_ = weighted;
  g.sorted_ = sorted;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.weights_ = std::move(weights);
  g.arc_edge_ids_ = std::move(arc_edge_ids);
  g.edge_endpoints_ = std::move(edge_endpoints);
  SNAP_VALIDATE(g);
  return g;
}

CSRGraph CSRGraph::patched(const CSRGraph& prev, vid_t n,
                           std::span<const EdgePair> inserted,
                           std::span<const EdgePair> deleted) {
  SNAP_ASSERT(prev.sorted_ && !prev.weighted_ &&
                  prev.offsets_.size() ==
                      static_cast<std::size_t>(prev.n_) + 1,
              "patched: prev is not an unweighted sorted CSR image");
  SNAP_ASSERT(n >= prev.n_, "patched: n=", n, " shrinks prev's ", prev.n_,
              " vertices");
  SNAP_DCHECK(strictly_ascending(inserted) && strictly_ascending(deleted),
              "patched: change lists must be strictly ascending");
  const bool directed = prev.directed_;
  const vid_t n_old = prev.n_;
  const EdgeList& old_edges = prev.edge_endpoints_;
  const auto m_old = static_cast<std::size_t>(prev.m_);
  const std::size_t ni = inserted.size();
  const std::size_t nd = deleted.size();
  SNAP_ASSERT(nd <= m_old, "patched: deletes ", nd, " of ", m_old, " edges");
  const std::size_t m = m_old + ni - nd;
  // Small images patch on one thread: like from_edges' serial path, the
  // team forks would cost more than the copy itself.
  const int nt = prev.adj_.size() + ni + nd < kParallelBuildCutoff
                     ? 1
                     : parallel::num_threads();
  // Thread t's static block of [0, count).
  auto block = [nt](std::size_t count, int t) {
    const auto ut = static_cast<std::size_t>(t);
    const auto unt = static_cast<std::size_t>(nt);
    return std::pair{count * ut / unt, count * (ut + 1) / unt};
  };
  const std::size_t stride = directed ? 1 : 2;

  // 1. Old positions: a deleted edge's id, an inserted edge's insertion
  //    point (the id of the first old edge ordered after it).  Also the
  //    rows that lose arcs: both endpoints when undirected.
  std::vector<eid_t> del_id(nd);
  std::vector<vid_t> del_owner(nd * stride);
  std::vector<eid_t> ins_at(ni);
  parallel::run_team(nt, [&](int t) {
    const auto [dlo, dhi] = block(nd, t);
    for (std::size_t j = dlo; j < dhi; ++j) {
      const EdgePair& p = deleted[j];
      const auto it = std::lower_bound(old_edges.begin(), old_edges.end(), p,
                                       edge_before);
      SNAP_ASSERT(it != old_edges.end() && it->u == p.first &&
                      it->v == p.second,
                  "patched: deleted edge (", p.first, ",", p.second,
                  ") is not in prev");
      del_id[j] = it - old_edges.begin();
      del_owner[j * stride] = p.first;
      if (!directed) del_owner[j * stride + 1] = p.second;
    }
    const auto [ilo, ihi] = block(ni, t);
    for (std::size_t k = ilo; k < ihi; ++k) {
      const EdgePair& p = inserted[k];
      SNAP_ASSERT(p.first >= 0 && p.second >= 0 && p.first < n &&
                      p.second < n && (directed || p.first <= p.second),
                  "patched: inserted edge (", p.first, ",", p.second,
                  ") is not a canonical edge over n=", n);
      const auto it = std::lower_bound(old_edges.begin(), old_edges.end(), p,
                                       edge_before);
      SNAP_ASSERT(it == old_edges.end() || it->u != p.first ||
                      it->v != p.second,
                  "patched: inserted edge (", p.first, ",", p.second,
                  ") is already in prev");
      ins_at[k] = it - old_edges.begin();
    }
  });

  // 2. Edge ids stay the rank in (u, v) order.  Old edge e survives as
  //    e - #deleted(< e) + #inserted(at <= e); inserted edge k lands at
  //    ins_at[k] + k - #deleted(< ins_at[k]).  One walk per block fills the
  //    dense remap (kInvalidEid for deleted ids) and the surviving edges;
  //    the inserted edges fill the remaining slots and emit their arcs.
  EdgeList edges(m);
  std::vector<eid_t> remap(m_old);
  std::vector<PatchArc> arcs(ni * stride);
  parallel::run_team(nt, [&](int t) {
    const auto [lo, hi] = block(m_old, t);
    const auto e_lo = static_cast<eid_t>(lo);
    std::size_t d = static_cast<std::size_t>(
        std::lower_bound(del_id.begin(), del_id.end(), e_lo) - del_id.begin());
    std::size_t i = static_cast<std::size_t>(
        std::lower_bound(ins_at.begin(), ins_at.end(), e_lo) - ins_at.begin());
    for (std::size_t e = lo; e < hi; ++e) {
      if (d < nd && static_cast<std::size_t>(del_id[d]) == e) {
        remap[e] = kInvalidEid;
        ++d;
        continue;
      }
      while (i < ni && static_cast<std::size_t>(ins_at[i]) <= e) ++i;
      const std::size_t id = e - d + i;
      remap[e] = static_cast<eid_t>(id);
      edges[id] = old_edges[e];
    }
    const auto [ilo, ihi] = block(ni, t);
    for (std::size_t k = ilo; k < ihi; ++k) {
      const auto [u, v] = inserted[k];
      const eid_t id =
          ins_at[k] + static_cast<eid_t>(k) -
          (std::lower_bound(del_id.begin(), del_id.end(), ins_at[k]) -
           del_id.begin());
      edges[static_cast<std::size_t>(id)] = {u, v, 1.0};
      arcs[k * stride] = {u, v, id};
      if (!directed) arcs[k * stride + 1] = {v, u, id};
    }
  });

  // 3. The rows the batch changes.  Inserted arcs sorted by the unique key
  //    (owner, nbr) — only an undirected self loop's twin arcs tie, and
  //    they are identical — merged with the owners of deleted arcs.
  parallel::parallel_sort(arcs.begin(), arcs.end(),
                          [](const PatchArc& a, const PatchArc& b) {
                            return a.owner != b.owner ? a.owner < b.owner
                                                      : a.nbr < b.nbr;
                          });
  parallel::parallel_sort(del_owner.begin(), del_owner.end());
  std::vector<TouchedRow> touched;
  std::vector<eid_t> shift{0};  // shift[j] = sum of touched[0..j).delta
  for (std::size_t a = 0, b = 0; a < arcs.size() || b < del_owner.size();) {
    const vid_t v = std::min(
        a < arcs.size() ? arcs[a].owner : std::numeric_limits<vid_t>::max(),
        b < del_owner.size() ? del_owner[b]
                             : std::numeric_limits<vid_t>::max());
    TouchedRow row{v, a, a, 0};
    while (a < arcs.size() && arcs[a].owner == v) ++a;
    row.ins_end = a;
    row.delta = static_cast<eid_t>(a - row.ins_begin);
    for (; b < del_owner.size() && del_owner[b] == v; ++b) --row.delta;
    touched.push_back(row);
    shift.push_back(shift.back() + row.delta);
  }
  // Index of the first touched row >= v.
  auto first_touched = [&](vid_t v) {
    return static_cast<std::size_t>(
        std::lower_bound(touched.begin(), touched.end(), v,
                         [](const TouchedRow& r, vid_t x) { return r.v < x; }) -
        touched.begin());
  };

  // 4. Offsets: prev's offset plus the deltas of the touched rows before v.
  const std::vector<eid_t>& old_off = prev.offsets_;
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1);
  parallel::run_team(nt, [&](int t) {
    const auto [lo, hi] = block(static_cast<std::size_t>(n) + 1, t);
    std::size_t j = first_touched(static_cast<vid_t>(lo));
    for (auto v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
      while (j < touched.size() && touched[j].v < v) ++j;
      offsets[static_cast<std::size_t>(v)] =
          old_off[static_cast<std::size_t>(std::min(v, n_old))] + shift[j];
    }
  });
  const eid_t arc_count = offsets[static_cast<std::size_t>(n)];
  SNAP_DCHECK(arc_count == static_cast<eid_t>(directed ? m : 2 * m),
              "patched: offsets[n]=", arc_count, " for ", m, " edges");

  // 5. Rows, in blocks of about arc_count/nt arcs.  A run of untouched rows
  //    is one contiguous slice of prev: adj is a memcpy and the ids go
  //    through the remap, which is increasing on survivors, so the slice
  //    stays sorted by (neighbor, edge id).  A touched row merges its
  //    surviving old arcs with its inserted arcs on that key.
  const auto arcs_n = static_cast<std::size_t>(arc_count);
  std::vector<vid_t> adj(arcs_n);
  std::vector<eid_t> ids(arcs_n);
  std::vector<weight_t> weights(arcs_n, 1.0);
  const std::vector<vid_t>& old_adj = prev.adj_;
  const std::vector<eid_t>& old_ids = prev.arc_edge_ids_;
  auto copy_rows = [&](vid_t a, vid_t b) {
    a = std::min(a, n_old);
    b = std::min(b, n_old);
    if (a >= b) return;
    const auto src =
        static_cast<std::size_t>(old_off[static_cast<std::size_t>(a)]);
    const auto len =
        static_cast<std::size_t>(old_off[static_cast<std::size_t>(b)]) - src;
    const auto dst =
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(a)]);
    std::copy_n(old_adj.begin() + static_cast<std::ptrdiff_t>(src), len,
                adj.begin() + static_cast<std::ptrdiff_t>(dst));
    for (std::size_t x = 0; x < len; ++x)
      ids[dst + x] = remap[static_cast<std::size_t>(old_ids[src + x])];
  };
  auto patch_row = [&](const TouchedRow& row) {
    const auto v = static_cast<std::size_t>(row.v);
    auto out = static_cast<std::size_t>(offsets[v]);
    std::size_t x = 0;
    std::size_t x_end = 0;
    if (row.v < n_old) {
      x = static_cast<std::size_t>(old_off[v]);
      x_end = static_cast<std::size_t>(old_off[v + 1]);
    }
    std::size_t k = row.ins_begin;
    for (;;) {
      while (x < x_end &&
             remap[static_cast<std::size_t>(old_ids[x])] == kInvalidEid)
        ++x;
      const bool has_old = x < x_end;
      if (!has_old && k == row.ins_end) break;
      const eid_t old_id =
          has_old ? remap[static_cast<std::size_t>(old_ids[x])] : kInvalidEid;
      if (k < row.ins_end &&
          (!has_old || arcs[k].nbr < old_adj[x] ||
           (arcs[k].nbr == old_adj[x] && arcs[k].id < old_id))) {
        adj[out] = arcs[k].nbr;
        ids[out] = arcs[k].id;
        ++k;
      } else {
        adj[out] = old_adj[x];
        ids[out] = old_id;
        ++x;
      }
      ++out;
    }
    SNAP_DCHECK(out == static_cast<std::size_t>(offsets[v + 1]),
                "patched: row ", row.v, " filled to ", out, " of ",
                offsets[v + 1]);
  };
  std::vector<vid_t> row_block(static_cast<std::size_t>(nt) + 1, n);
  for (int t = 0; t < nt; ++t)
    row_block[static_cast<std::size_t>(t)] = static_cast<vid_t>(
        std::lower_bound(offsets.begin(), offsets.end() - 1,
                         arc_count * t / nt) -
        offsets.begin());
  parallel::run_team(nt, [&](int t) {
    const vid_t hi = row_block[static_cast<std::size_t>(t) + 1];
    vid_t v = row_block[static_cast<std::size_t>(t)];
    for (std::size_t j = first_touched(v); v < hi; ++j) {
      const vid_t next =
          j < touched.size() && touched[j].v < hi ? touched[j].v : hi;
      copy_rows(v, next);
      if (next == hi) break;
      patch_row(touched[j]);
      v = next + 1;
    }
  });

  return from_parts(n, static_cast<eid_t>(m), directed, /*weighted=*/false,
                    /*sorted=*/true, std::move(offsets), std::move(adj),
                    std::move(weights), std::move(ids), std::move(edges));
}

bool CSRGraph::has_edge(vid_t u, vid_t v) const {
  const auto nb = neighbors(u);
  if (sorted_) return std::binary_search(nb.begin(), nb.end(), v);
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

eid_t CSRGraph::max_degree() const {
  return parallel::parallel_reduce_max<eid_t>(
      n_, [this](vid_t v) { return degree(v); });
}

weight_t CSRGraph::total_edge_weight() const {
  return parallel::parallel_reduce_sum<weight_t>(
      m_, [this](eid_t e) { return edge_endpoints_[static_cast<std::size_t>(e)].w; });
}

CSRGraph CSRGraph::as_undirected() const {
  return from_edges(n_, edge_endpoints_, /*directed=*/false);
}

}  // namespace snap
