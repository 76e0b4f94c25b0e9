#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "snap/debug/validate.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/graph/subgraph.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

EdgeList triangle_plus_pendant() {
  // 0-1-2 triangle, 3 pendant off 0.
  return {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}};
}

TEST(CSRGraph, UndirectedBasics) {
  const auto g =
      CSRGraph::from_edges(4, triangle_plus_pendant(), /*directed=*/false);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_arcs(), 8);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(CSRGraph, DirectedBasics) {
  const EdgeList edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  const auto g = CSRGraph::from_edges(3, edges, /*directed=*/true);
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(CSRGraph, SortedAdjacency) {
  const EdgeList edges{{0, 3, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}};
  const auto g = CSRGraph::from_edges(4, edges, false);
  const auto nb = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(CSRGraph, DedupeCollapsesParallelEdges) {
  const EdgeList edges{{0, 1, 1.0}, {1, 0, 1.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CSRGraph, SelfLoopsRemovedByDefault) {
  const EdgeList edges{{0, 0, 1.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CSRGraph, SelfLoopKeptWhenRequestedCountsTwiceInDegree) {
  BuildOptions opts;
  opts.remove_self_loops = false;
  const EdgeList edges{{0, 0, 2.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false, opts);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 3);  // self loop contributes two arc slots
  double wsum = 0;
  for (weight_t w : g.weights(0)) wsum += w;
  EXPECT_DOUBLE_EQ(wsum, 5.0);  // 2 + 2 + 1
}

TEST(CSRGraph, EdgeIdsPairArcsOfOneEdge) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  // Every logical edge id must appear on exactly two arcs, and the two arcs
  // must connect the edge's endpoints.
  std::vector<int> count(static_cast<std::size_t>(g.num_edges()), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const auto ids = g.edge_ids(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ++count[static_cast<std::size_t>(ids[i])];
      const Edge e = g.edge(ids[i]);
      EXPECT_TRUE((e.u == v && e.v == nb[i]) || (e.v == v && e.u == nb[i]));
    }
  }
  for (int c : count) EXPECT_EQ(c, 2);
}

TEST(CSRGraph, WeightsPreserved) {
  const EdgeList edges{{0, 1, 2.5}, {1, 2, 0.5}};
  const auto g = CSRGraph::from_edges(3, edges, false);
  EXPECT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.0);
}

TEST(CSRGraph, OutOfRangeVertexThrows) {
  const EdgeList edges{{0, 5, 1.0}};
  EXPECT_THROW(CSRGraph::from_edges(3, edges, false), std::out_of_range);
}

TEST(CSRGraph, AsUndirectedFoldsArcs) {
  const EdgeList edges{{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}};
  const auto d = CSRGraph::from_edges(3, edges, /*directed=*/true);
  EXPECT_EQ(d.num_edges(), 3);
  const auto u = d.as_undirected();
  EXPECT_FALSE(u.directed());
  EXPECT_EQ(u.num_edges(), 2);
}

TEST(CSRGraph, EmptyGraph) {
  const auto g = CSRGraph::from_edges(5, {}, false);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

// The image from_edges builds for a deduped edge set with self loops kept
// (what DynamicGraph::to_csr publishes).
CSRGraph image_of(vid_t n, const std::set<std::pair<vid_t, vid_t>>& edges,
                  bool directed) {
  EdgeList list;
  for (const auto& [u, v] : edges) list.push_back({u, v, 1.0});
  BuildOptions opts;
  opts.remove_self_loops = false;
  return CSRGraph::from_edges(n, list, directed, opts);
}

TEST(CSRGraph, PatchedHandExample) {
  // Undirected: delete 0-1, insert a self loop at 1 (two arcs, one id), an
  // edge to a new vertex 5, and 2-3 (shifting every later id).
  const std::set<std::pair<vid_t, vid_t>> before{{0, 1}, {0, 2}, {1, 2},
                                                 {2, 4}, {3, 3}};
  const std::set<std::pair<vid_t, vid_t>> after{{0, 2}, {1, 1}, {1, 2},
                                                {2, 3}, {2, 4}, {3, 3},
                                                {4, 5}};
  const std::vector<std::pair<vid_t, vid_t>> ins{{1, 1}, {2, 3}, {4, 5}};
  const std::vector<std::pair<vid_t, vid_t>> del{{0, 1}};
  const CSRGraph got =
      CSRGraph::patched(image_of(5, before, false), 6, ins, del);
  EXPECT_TRUE(debug::same_image(got, image_of(6, after, false)));
  EXPECT_EQ(got.degree(1), 3);  // 1-1 twice, 1-2
}

TEST(CSRGraph, PatchedMatchesFromEdgesOnRandomBatches) {
  SplitMix64 rng(23);
  for (const bool directed : {false, true}) {
    vid_t n = 60;
    std::set<std::pair<vid_t, vid_t>> edges;
    CSRGraph img = image_of(n, edges, directed);
    for (int round = 0; round < 40; ++round) {
      const vid_t grown = n + static_cast<vid_t>(rng.next_bounded(3));
      std::set<std::pair<vid_t, vid_t>> ins;
      std::set<std::pair<vid_t, vid_t>> del;
      for (int i = 0; i < 30; ++i) {
        auto u = static_cast<vid_t>(rng.next_bounded(grown));
        auto v = static_cast<vid_t>(rng.next_bounded(grown));
        if (!directed && u > v) std::swap(u, v);
        if (edges.count({u, v}) != 0) {
          if (ins.count({u, v}) == 0) del.insert({u, v});
        } else if (del.count({u, v}) == 0) {
          ins.insert({u, v});
        }
      }
      for (const auto& e : del) edges.erase(e);
      for (const auto& e : ins) edges.insert(e);
      const std::vector<std::pair<vid_t, vid_t>> iv(ins.begin(), ins.end());
      const std::vector<std::pair<vid_t, vid_t>> dv(del.begin(), del.end());
      img = CSRGraph::patched(img, grown, iv, dv);
      n = grown;
      SCOPED_TRACE("round " + std::to_string(round) +
                   (directed ? " directed" : " undirected"));
      EXPECT_TRUE(debug::same_image(img, image_of(n, edges, directed)));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ------------------------------------------------------------- Subgraph

TEST(Subgraph, InducedKeepsInternalEdgesOnly) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const Subgraph s = induced_subgraph(g, {0, 1, 2});
  EXPECT_EQ(s.graph.num_vertices(), 3);
  EXPECT_EQ(s.graph.num_edges(), 3);  // the triangle; pendant edge dropped
  EXPECT_EQ(s.to_parent.size(), 3u);
  EXPECT_EQ(s.from_parent[3], kInvalidVid);
  // Mapping roundtrip.
  for (vid_t nu = 0; nu < 3; ++nu)
    EXPECT_EQ(s.from_parent[s.to_parent[static_cast<std::size_t>(nu)]], nu);
}

TEST(Subgraph, SplitByLabels) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const std::vector<vid_t> labels{0, 0, 0, 1};
  const auto parts = split_by_labels(g, labels, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].graph.num_vertices(), 3);
  EXPECT_EQ(parts[1].graph.num_vertices(), 1);
  EXPECT_EQ(parts[1].graph.num_edges(), 0);
}

// --------------------------------------------------------- DynamicGraph

TEST(DynamicGraph, InsertDeleteHasEdge) {
  DynamicGraph d(4, /*directed=*/false);
  EXPECT_TRUE(d.insert_edge(0, 1));
  EXPECT_FALSE(d.insert_edge(1, 0));  // same undirected edge
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_TRUE(d.has_edge(1, 0));
  EXPECT_EQ(d.num_edges(), 1);
  EXPECT_TRUE(d.delete_edge(0, 1));
  EXPECT_FALSE(d.delete_edge(0, 1));
  EXPECT_EQ(d.num_edges(), 0);
}

TEST(DynamicGraph, PromotionToTreapAtThreshold) {
  DynamicGraph d(200, false, /*promote_threshold=*/16);
  for (vid_t v = 1; v <= 20; ++v) d.insert_edge(0, v);
  EXPECT_TRUE(d.is_promoted(0));
  EXPECT_FALSE(d.is_promoted(1));
  EXPECT_EQ(d.degree(0), 20);
  EXPECT_TRUE(d.has_edge(0, 17));
  EXPECT_TRUE(d.delete_edge(0, 17));
  EXPECT_FALSE(d.has_edge(0, 17));
  EXPECT_EQ(d.degree(0), 19);
}

TEST(DynamicGraph, AddVertexGrows) {
  DynamicGraph d(2, false);
  const vid_t v = d.add_vertex();
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(d.insert_edge(0, v));
  EXPECT_EQ(d.num_vertices(), 3);
}

TEST(DynamicGraph, ToCSRRoundtrip) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const DynamicGraph d = DynamicGraph::from_csr(g);
  EXPECT_EQ(d.num_edges(), g.num_edges());
  const CSRGraph back = d.to_csr();
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

class DynamicGraphRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicGraphRandom, MatchesReferenceAdjacency) {
  const vid_t n = 60;
  DynamicGraph d(n, false, /*promote_threshold=*/8);  // force promotions
  std::set<std::pair<vid_t, vid_t>> ref;
  SplitMix64 rng(GetParam());
  for (int op = 0; op < 4000; ++op) {
    vid_t u = static_cast<vid_t>(rng.next_bounded(n));
    vid_t v = static_cast<vid_t>(rng.next_bounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (rng.next_bounded(3) == 0) {
      EXPECT_EQ(d.delete_edge(u, v), ref.erase({u, v}) > 0);
    } else {
      EXPECT_EQ(d.insert_edge(u, v), ref.insert({u, v}).second);
    }
    ASSERT_EQ(d.num_edges(), static_cast<eid_t>(ref.size()));
  }
  // Degrees must match the reference.
  std::vector<eid_t> deg(static_cast<std::size_t>(n), 0);
  for (const auto& [u, v] : ref) {
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  for (vid_t v = 0; v < n; ++v) EXPECT_EQ(d.degree(v), deg[v]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicGraphRandom,
                         ::testing::Values(3, 5, 8, 21));

TEST(DynamicGraph, DirectedMode) {
  DynamicGraph d(3, /*directed=*/true);
  EXPECT_TRUE(d.insert_edge(0, 1));
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_FALSE(d.has_edge(1, 0));
  EXPECT_TRUE(d.insert_edge(1, 0));
  EXPECT_EQ(d.num_edges(), 2);
}

// Promotion boundary: the flat→treap migration point across small and large
// thresholds, the revert when a treap empties, and the CSR round trip in the
// promoted state.

class DynamicGraphPromotion : public ::testing::TestWithParam<eid_t> {};

TEST_P(DynamicGraphPromotion, PromotesExactlyAtThreshold) {
  // A threshold of 1 clamps to 2 (a flat array of one entry is never worth
  // migrating), so the effective boundary is max(threshold, 2).
  const eid_t threshold = GetParam();
  const eid_t effective = std::max<eid_t>(threshold, 2);
  DynamicGraph d(200, false, threshold);
  // A vertex stays flat while its adjacency fits the threshold; the insert
  // that pushes it past migrates it to a treap.
  for (eid_t k = 1; k <= effective; ++k) {
    d.insert_edge(0, static_cast<vid_t>(k));
    EXPECT_FALSE(d.is_promoted(0)) << "promoted at degree " << k;
  }
  d.insert_edge(0, static_cast<vid_t>(effective + 1));
  EXPECT_TRUE(d.is_promoted(0));
  EXPECT_EQ(d.degree(0), effective + 1);
  // Neighbors stay flat: none crossed the boundary.
  for (eid_t k = 1; k <= effective + 1; ++k)
    EXPECT_FALSE(d.is_promoted(static_cast<vid_t>(k)));
}

TEST_P(DynamicGraphPromotion, RevertsToFlatWhenTreapEmpties) {
  const eid_t threshold = GetParam();
  const eid_t effective = std::max<eid_t>(threshold, 2);
  DynamicGraph d(300, false, threshold);
  for (eid_t k = 1; k <= effective + 3; ++k)
    d.insert_edge(0, static_cast<vid_t>(k));
  EXPECT_TRUE(d.is_promoted(0));
  // Deleting below the threshold does NOT demote (hysteresis: a vertex that
  // was hot once likely becomes hot again)...
  for (eid_t k = 1; k <= effective + 2; ++k)
    d.delete_edge(0, static_cast<vid_t>(k));
  EXPECT_EQ(d.degree(0), 1);
  EXPECT_TRUE(d.is_promoted(0));
  // ...but deleting the last key reverts the vertex to the flat form.
  d.delete_edge(0, static_cast<vid_t>(effective + 3));
  EXPECT_EQ(d.degree(0), 0);
  EXPECT_FALSE(d.is_promoted(0));
  // And it can promote again from scratch.
  for (eid_t k = 1; k <= effective + 1; ++k)
    d.insert_edge(0, static_cast<vid_t>(k));
  EXPECT_TRUE(d.is_promoted(0));
}

TEST_P(DynamicGraphPromotion, FromCsrToCsrRoundTrip) {
  const eid_t threshold = GetParam();
  const CSRGraph g = gen::erdos_renyi(120, 900, /*directed=*/false, 31);
  const DynamicGraph d = DynamicGraph::from_csr(g, threshold);
  EXPECT_EQ(d.num_edges(), g.num_edges());
  const CSRGraph back = d.to_csr();
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto want = g.neighbors(v);
    const auto got = back.neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "adjacency differs at " << v << " (threshold " << threshold << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DynamicGraphPromotion,
                         ::testing::Values(1, 2, 128));

}  // namespace
}  // namespace snap
