#include "tasks.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "snap/centrality/betweenness.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/modularity.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/util/parallel.hpp"

namespace perfbench {

namespace {

snap::PageRankParams fixed_pagerank() {
  snap::PageRankParams p;
  p.max_iters = kPageRankIters;
  p.tol = 0.0;  // exactly kPageRankIters iterations: fixed work per call
  return p;
}

bool same_modularity(double reported, double recomputed) {
  return std::fabs(reported - recomputed) <= 1e-9;
}

}  // namespace

OfflineTasks::OfflineTasks(const snap::CSRGraph& g, std::uint64_t seed)
    : g_(g) {
  const snap::Components cc = snap::connected_components(g);
  cc_count_ = cc.count;
  const snap::vid_t giant = cc.giant();
  for (snap::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cc.label[static_cast<std::size_t>(v)] != giant) continue;
    ++giant_size_;
    giant_edges_ += static_cast<double>(g.degree(v));
  }
  giant_edges_ /= 2;
  bfs_sources_ = giant_sample(g, cc, kBfsSources, mix_seed(seed, 1));
  bc_sources_ = giant_sample(g, cc, kBcSources, mix_seed(seed, 2));
  serial_dist_ = snap::bfs_serial(g, bfs_sources_.front()).dist;
}

double OfflineTasks::traverse(SpanLog& log, Result& r, PassTimes* t) {
  const Clock::time_point start = Clock::now();
  snap::BFSResult first;
  for (std::size_t i = 0; i < bfs_sources_.size(); ++i) {
    snap::BFSResult res;
    const Clock::time_point t0 = Clock::now();
    res = snap::bfs(g_, bfs_sources_[i]);
    const Clock::time_point t1 = Clock::now();
    log.add("kernels.bfs", t0, t1, static_cast<double>(res.num_levels));
    t->bfs_ms.push_back(seconds_between(t0, t1) * 1e3);
    r.check(res.num_visited == giant_size_,
            "bfs from " + std::to_string(bfs_sources_[i]) +
                " did not reach the whole giant component");
    if (i == 0) first = std::move(res);
  }
  snap::Components cc;
  timed(log, "kernels.cc", [&] { cc = snap::connected_components_bfs(g_); });
  const double seconds = seconds_since(start);
  r.check(first.dist == serial_dist_,
          "bfs distances differ from bfs_serial");
  r.check(cc.count == cc_count_,
          "connected_components_bfs count " + std::to_string(cc.count) +
              " != connected_components " + std::to_string(cc_count_));
  return seconds;
}

OfflineTasks::PassTimes OfflineTasks::run_pass(SpanLog& log, Result& r) {
  PassTimes t;

  // Task 1: traverse, kTraversePerPass times.
  for (int i = 0; i < kTraversePerPass; ++i)
    t.traverse_s.push_back(traverse(log, r, &t));
  const Clock::time_point traverse_end = Clock::now();

  // Task 2: rank, kRankPerPass times.
  snap::PageRankResult pr;
  std::vector<double> bc;
  Clock::time_point rank_end = traverse_end;
  for (int i = 0; i < kRankPerPass; ++i) {
    const Clock::time_point rank_start = rank_end;
    timed(log, "kernels.pagerank",
          [&] { pr = snap::pagerank(g_, fixed_pagerank()); });
    timed(log, "centrality.bc",
          [&] { bc = snap::approx_vertex_betweenness(g_, bc_sources_); });
    rank_end = Clock::now();
    t.rank_s.push_back(seconds_between(rank_start, rank_end));
  }

  // Task 3: community.
  snap::LouvainResult lv;
  Clock::time_point t0 = Clock::now();
  lv = snap::louvain(g_);
  Clock::time_point t1 = Clock::now();
  log.add("community.louvain", t0, t1, static_cast<double>(lv.levels.size()));
  snap::LabelPropResult lp;
  t0 = Clock::now();
  lp = snap::label_propagation(g_);
  t1 = Clock::now();
  log.add("community.plp", t0, t1, static_cast<double>(lp.sweeps));
  t.community_s = seconds_between(rank_end, t1);

  // Output checks, outside every timed region.
  std::uint64_t mass = 0;
  for (const std::uint64_t m : pr.mass) mass += m;
  r.check(mass == snap::kPageRankTotalMass &&
              pr.iterations == kPageRankIters,
          "pagerank mass does not sum to the fixed-point total");
  r.check(bc.size() == static_cast<std::size_t>(g_.num_vertices()),
          "betweenness returned the wrong number of scores");
  r.check(same_modularity(lv.community.modularity,
                          snap::modularity(g_, lv.community.clustering
                                                   .membership)),
          "louvain modularity does not match modularity()");
  r.check(same_modularity(lp.community.modularity,
                          snap::modularity(g_, lp.community.clustering
                                                   .membership)),
          "label propagation modularity does not match modularity()");
  if (log.active()) {
    r.add("community.louvain_modularity", lv.community.modularity);
    for (const double ms : t.bfs_ms)
      r.add("kernels.bfs_teps", giant_edges_ / (ms / 1e3));
  }
  return t;
}

void OfflineTasks::run_thread_baseline(SpanLog& log, int threads) {
  const std::size_t nbfs = 8;
  for (const int nt : {1, threads}) {
    snap::parallel::set_num_threads(nt);
    const std::string suffix = nt == 1 ? "@1t" : "@nt";
    for (std::size_t i = 0; i < nbfs && i < bfs_sources_.size(); ++i)
      timed(log, "kernels.bfs" + suffix,
            [&] { (void)snap::bfs(g_, bfs_sources_[i]); });
    timed(log, "kernels.cc" + suffix,
          [&] { (void)snap::connected_components_bfs(g_); });
    timed(log, "kernels.pagerank" + suffix,
          [&] { (void)snap::pagerank(g_, fixed_pagerank()); });
    timed(log, "centrality.bc" + suffix,
          [&] { (void)snap::approx_vertex_betweenness(g_, bc_sources_); });
    timed(log, "community.louvain" + suffix,
          [&] { (void)snap::louvain(g_); });
    timed(log, "community.plp" + suffix,
          [&] { (void)snap::label_propagation(g_); });
  }
  snap::parallel::set_num_threads(threads);
}

void load_probe(const snap::CSRGraph& g, const std::string& tmpdir,
                SpanLog& log, Result& r) {
  const std::string path = tmpdir + "/probe.snapb2";
  snap::io::write_binary(g, path);
  for (int rep = 0; rep < 3; ++rep) {
    snap::CSRGraph loaded;
    timed(log, "io.read_binary",
          [&] { loaded = snap::io::read_binary(path); });
    timed(log, "graph.relabel_by_degree",
          [&] { (void)snap::relabel_by_degree(loaded); });
    r.check(loaded.num_edges() == g.num_edges() &&
                loaded.num_vertices() == g.num_vertices(),
            "SNAPB2 round trip changed the graph");
  }
  std::remove(path.c_str());
}

}  // namespace perfbench
