// Differential tests for the streaming-update engine: random update streams
// over R-MAT and Erdős–Rényi bases, applied batched-parallel at several
// thread counts, must produce snapshots byte-identical to serial
// one-edge-at-a-time application — and every observer must match a
// from-scratch recomputation after every batch.  With eager publication on,
// every published epoch image (patched from the previous one) must also be
// byte-identical to a full to_csr() of the live graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snap/debug/validate.hpp"
#include "snap/ds/union_find.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/stream/observers.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

using stream::ClusteringObserver;
using stream::ComponentsObserver;
using stream::DegreeStatsObserver;
using stream::StreamingGraph;
using stream::UpdateBatch;
using stream::UpdateRecord;
using stream::UpdateKind;

void expect_same_csr(const CSRGraph& a, const CSRGraph& b,
                     const char* what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  ASSERT_EQ(a.num_arcs(), b.num_arcs()) << what;
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.arc_begin(v), b.arc_begin(v)) << what << " offsets @" << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << what << " adjacency @" << v;
  }
}

/// Array-for-array equality of two CSR images: what eager publication must
/// deliver against a full rebuild.
void expect_same_image(const CSRGraph& got, const CSRGraph& want,
                       const std::string& what) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << what;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  EXPECT_EQ(got.directed(), want.directed()) << what;
  EXPECT_EQ(got.weighted(), want.weighted()) << what;
  EXPECT_EQ(got.adjacency_sorted(), want.adjacency_sorted()) << what;
  EXPECT_TRUE(std::ranges::equal(got.row_offsets(), want.row_offsets()))
      << what << " offsets";
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()))
      << what << " adj";
  EXPECT_TRUE(std::ranges::equal(got.arc_weights(), want.arc_weights()))
      << what << " weights";
  EXPECT_TRUE(
      std::ranges::equal(got.arc_edge_id_array(), want.arc_edge_id_array()))
      << what << " arc ids";
  EXPECT_TRUE(std::ranges::equal(got.edges(), want.edges()))
      << what << " edge list";
  EXPECT_TRUE(debug::same_image(got, want)) << what << " bytes";
}

/// Eager mode: the pinned snapshot is this epoch's, and equals a full
/// rebuild from the live graph.
void expect_published_is_rebuild(const StreamingGraph& sg,
                                 const std::string& what) {
  const stream::SnapshotHandle h = sg.pin();
  ASSERT_EQ(h->epoch(), sg.epoch()) << what;
  expect_same_image(h->graph(), sg.graph().to_csr(), what);
}

/// A stream of batches over a biased vertex range, so deletions often hit
/// edges that exist (uniform pairs over n^2 almost never would).
std::vector<std::vector<UpdateRecord>> make_stream(vid_t n, int num_batches,
                                                   int batch_size,
                                                   int delete_pct,
                                                   std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<UpdateRecord>> batches;
  std::uint64_t t = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<UpdateRecord>& recs = batches.emplace_back();
    for (int i = 0; i < batch_size; ++i) {
      const auto u = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(n)));
      const UpdateKind kind =
          rng.next_bounded(100) < static_cast<std::uint64_t>(delete_pct)
              ? UpdateKind::kDelete
              : UpdateKind::kInsert;
      recs.push_back({u, v, t++, kind});
    }
  }
  return batches;
}

/// The oracle: a plain DynamicGraph with every record applied one edge at a
/// time in stream order, via the public insert_edge/delete_edge API.
class SerialOracle {
 public:
  explicit SerialOracle(const CSRGraph& base)
      : g_(DynamicGraph::from_csr(base)) {}

  void apply(const std::vector<UpdateRecord>& recs) {
    for (const UpdateRecord& r : recs) {
      const vid_t hi = std::max(r.u, r.v);
      if (hi >= g_.num_vertices()) grow(hi + 1);
      if (r.kind == UpdateKind::kInsert)
        g_.insert_edge(r.u, r.v);
      else
        g_.delete_edge(r.u, r.v);
    }
  }

  [[nodiscard]] CSRGraph to_csr() const { return g_.to_csr(); }
  [[nodiscard]] const DynamicGraph& graph() const { return g_; }

 private:
  void grow(vid_t n) {
    // DynamicGraph has no public resize; re-inserting every edge into a
    // bigger graph is an oracle-grade (slow, simple) way to grow.  Walk the
    // adjacency itself — a to_csr() round trip would drop self loops.
    DynamicGraph bigger(n, g_.directed());
    for (vid_t u = 0; u < g_.num_vertices(); ++u)
      g_.for_each_neighbor(u, [&](vid_t v) {
        if (g_.directed() || u <= v) bigger.insert_edge(u, v);
      });
    g_ = std::move(bigger);
  }

  DynamicGraph g_;
};

struct ObserverChecks {
  bool check_clustering;  ///< undirected only
};

/// A stream built to hit every publication case: deletes of live edges
/// (about one per three inserts), self-loop inserts and deletes, no-op
/// records (deletes of absent edges, re-inserts, insert-then-delete in one
/// batch), empty batches, and ids growing past the base's n0 vertices.
std::vector<std::vector<UpdateRecord>> make_publication_stream(
    vid_t n0, int num_batches, int batch_size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<UpdateRecord>> batches;
  std::vector<std::pair<vid_t, vid_t>> live;  // inserted so far, maybe gone
  std::uint64_t t = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<UpdateRecord>& recs = batches.emplace_back();
    if (b % 5 == 3) continue;  // an empty batch
    const vid_t hi = n0 + 8 * b;  // grows past n0 batch by batch
    auto pick = [&](vid_t range) {
      return static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(range)));
    };
    for (int i = 0; i < batch_size; ++i) {
      const std::uint64_t roll = rng.next_bounded(100);
      if (roll < 20 && !live.empty()) {  // delete an edge inserted earlier
        const auto [u, v] = live[rng.next_bounded(live.size())];
        recs.push_back({u, v, t++, UpdateKind::kDelete});
      } else if (roll < 25) {  // delete an edge that is most likely absent
        recs.push_back({pick(hi), pick(hi), t++, UpdateKind::kDelete});
      } else if (roll < 30) {  // self loop, deleted again in some batch
        const vid_t u = pick(hi);
        recs.push_back({u, u, t++, UpdateKind::kInsert});
        live.emplace_back(u, u);
      } else if (roll < 35 && !live.empty()) {  // re-insert: often a no-op
        const auto [u, v] = live[rng.next_bounded(live.size())];
        recs.push_back({u, v, t++, UpdateKind::kInsert});
      } else if (roll < 40) {  // insert then delete within the batch
        const vid_t u = pick(hi);
        const vid_t v = pick(hi);
        recs.push_back({u, v, t++, UpdateKind::kInsert});
        recs.push_back({v, u, t++, UpdateKind::kDelete});
      } else {
        const vid_t u = pick(hi);
        const vid_t v = pick(hi);
        recs.push_back({u, v, t++, UpdateKind::kInsert});
        live.emplace_back(u, v);
      }
    }
  }
  return batches;
}

/// How the batched side publishes snapshots.
enum class Publish {
  kLazy,        ///< no eager snapshots (pin() rebuilds on demand)
  kEager,       ///< eager from the first batch
  kEagerLater,  ///< lazy for the first half of the stream, then eager
};

/// Drives one full differential run: same base + same stream through the
/// batched StreamingGraph (at `threads`) and the serial oracle; after every
/// batch the snapshots must be identical and every observer must agree with
/// a from-scratch recomputation on the oracle graph.
void run_differential(const CSRGraph& base,
                      const std::vector<std::vector<UpdateRecord>>& batches,
                      int threads, eid_t promote_threshold,
                      bool check_observers, Publish publish = Publish::kLazy) {
  DynamicGraph dyn =
      DynamicGraph::from_csr(base, promote_threshold);
  StreamingGraph sg(std::move(dyn));
  SerialOracle oracle(base);

  ComponentsObserver comps(sg.graph());
  DegreeStatsObserver deg(sg.graph());
  std::unique_ptr<ClusteringObserver> cc;
  if (check_observers) {
    sg.add_observer(&comps);
    sg.add_observer(&deg);
    if (!base.directed()) {
      cc = std::make_unique<ClusteringObserver>(sg.graph());
      sg.add_observer(cc.get());
    }
  }

  parallel::ThreadScope scope(threads);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if ((publish == Publish::kEager && b == 0) ||
        (publish == Publish::kEagerLater && b == batches.size() / 2)) {
      sg.set_eager_snapshots(true);
      expect_published_is_rebuild(sg, "eager switch @batch " +
                                          std::to_string(b));
    }
    UpdateBatch batch;
    for (const UpdateRecord& r : batches[b]) {
      if (r.kind == UpdateKind::kInsert)
        batch.insert(r.u, r.v, r.time);
      else
        batch.erase(r.u, r.v, r.time);
    }
    sg.apply(batch);
    oracle.apply(batches[b]);

    const CSRGraph got = sg.graph().to_csr();
    const CSRGraph want = oracle.to_csr();
    expect_same_csr(got, want,
                    ("batch " + std::to_string(b) + " threads " +
                     std::to_string(threads))
                        .c_str());
    if (::testing::Test::HasFatalFailure()) return;
    if (sg.eager_snapshots()) {
      expect_published_is_rebuild(sg, "published @batch " + std::to_string(b));
      if (::testing::Test::HasFailure()) return;
    }

    if (!check_observers) continue;

    // Components vs a fresh union–find over the snapshot's edges.
    {
      UnionFind uf(static_cast<std::size_t>(want.num_vertices()));
      for (const Edge& e : want.edges()) uf.unite(e.u, e.v);
      ASSERT_EQ(comps.num_components(), static_cast<vid_t>(uf.num_sets()))
          << "components @batch " << b;
    }
    // Degrees vs DynamicGraph::degree on the oracle.
    {
      ASSERT_EQ(deg.num_vertices(), oracle.graph().num_vertices());
      eid_t want_max = 0;
      for (vid_t v = 0; v < oracle.graph().num_vertices(); ++v) {
        const eid_t d = oracle.graph().degree(v);
        ASSERT_EQ(deg.degree(v), d) << "degree @batch " << b << " v " << v;
        want_max = std::max(want_max, d);
      }
      ASSERT_EQ(deg.max_degree(), want_max) << "max degree @batch " << b;
    }
    // Clustering vs the static metrics on the (self-loop-free) snapshot.
    if (cc) {
      ASSERT_NEAR(cc->global_clustering(),
                  global_clustering_coefficient(want), 1e-9)
          << "global cc @batch " << b;
      ASSERT_NEAR(cc->average_clustering(),
                  average_clustering_coefficient(want), 1e-9)
          << "average cc @batch " << b;
    }
  }
}

TEST(StreamDifferential, ErdosRenyiMixedStreamAllThreadCounts) {
  const CSRGraph base = gen::erdos_renyi(400, 1600, /*directed=*/false, 7);
  const auto batches = make_stream(420, /*num_batches=*/6,
                                   /*batch_size=*/800, /*delete_pct=*/35, 11);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, RmatMixedStreamAllThreadCounts) {
  gen::RmatParams p;
  p.scale = 9;  // 512 vertices
  p.edge_factor = 6;
  p.seed = 13;
  const CSRGraph base = gen::rmat(p);
  const auto batches =
      make_stream(base.num_vertices(), /*num_batches=*/5,
                  /*batch_size=*/1000, /*delete_pct=*/30, 29);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, LowPromoteThresholdExercisesTreaps) {
  // promote_threshold = 2 promotes nearly every touched vertex to a treap,
  // so the parallel path must keep treap shapes byte-identical too.
  const CSRGraph base = gen::erdos_renyi(150, 700, false, 3);
  const auto batches = make_stream(150, 4, 600, 40, 17);
  for (int t : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/2,
                     /*check_observers=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, DirectedStream) {
  const CSRGraph base = gen::erdos_renyi(300, 1200, /*directed=*/true, 21);
  const auto batches = make_stream(310, 4, 700, 30, 5);
  for (int t : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, ErdosRenyiEagerPublicationAllThreadCounts) {
  const CSRGraph base = gen::erdos_renyi(400, 1600, /*directed=*/false, 7);
  const auto batches = make_stream(420, 6, 800, 35, 11);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true, Publish::kEager);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(StreamDifferential, RmatEagerPublicationAllThreadCounts) {
  // Batches of 12000 records: enough inserted arcs that the patch's
  // parallel_sort of row changes takes its sample-sort path.
  gen::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 13;
  const CSRGraph base = gen::rmat(p);
  const auto batches = make_stream(base.num_vertices() + 64, 4, 12000, 25, 31);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/false, Publish::kEager);
    if (::testing::Test::HasFailure()) return;
  }
}

// The publication-case bases hold over 2^15 arcs, so the patch runs its
// parallel blocks at threads > 1 (smaller images patch on one thread).
TEST(StreamDifferential, PublicationCasesUndirected) {
  const CSRGraph base = gen::erdos_renyi(4000, 17000, /*directed=*/false, 5);
  const auto batches = make_publication_stream(4000, 12, 400, 91);
  for (const Publish publish : {Publish::kEager, Publish::kEagerLater}) {
    for (int t : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(t) + " switch mid-stream=" +
                   std::to_string(publish == Publish::kEagerLater));
      run_differential(base, batches, t, /*promote_threshold=*/4,
                       /*check_observers=*/false, publish);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(StreamDifferential, PublicationCasesDirected) {
  const CSRGraph base = gen::erdos_renyi(4000, 34000, /*directed=*/true, 6);
  const auto batches = make_publication_stream(4000, 12, 400, 92);
  for (const Publish publish : {Publish::kEager, Publish::kEagerLater}) {
    for (int t : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(t) + " switch mid-stream=" +
                   std::to_string(publish == Publish::kEagerLater));
      run_differential(base, batches, t, /*promote_threshold=*/4,
                       /*check_observers=*/false, publish);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(StreamDifferential, EagerPublicationFromEmpty) {
  const CSRGraph base = CSRGraph::from_edges(0, {}, /*directed=*/false);
  const auto batches = make_publication_stream(1, 10, 300, 93);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true, Publish::kEager);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(StreamDifferential, InsertOnlyFromEmpty) {
  const CSRGraph base = CSRGraph::from_edges(0, {}, /*directed=*/false);
  const auto batches = make_stream(256, 5, 900, /*delete_pct=*/0, 41);
  for (int t : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace snap
