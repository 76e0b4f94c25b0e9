// bench_memory: the memory-system performance bench.
//
// Runs BFS, connected components, sampled betweenness, PageRank (10
// fixed-point iterations), and (in full mode) Louvain over one corpus
// instance in three memory layouts (vertex orderings of the flat CSR):
//
//   baseline     the graph exactly as generated/loaded
//   degree       relabel_by_degree pre-pass (hubs first)
//   hub          relabel_by_hub_cluster pre-pass (hub block + BFS tail)
//
// Every kernel uses the same logical source vertices in every layout (ids
// mapped through the relabeling permutation), so the numbers isolate the
// memory layout.  Pre-pass and build costs are recorded as their own
// phases — a locality ordering only pays off if its one-time cost is
// amortized by the traversals that follow, and the report shows both sides.
//
// Flags:
//   --corpus NAME   corpus instance (default rmat22; `--corpus list` to list)
//   --smoke         small built-in instance, 1 rep, no Louvain (CI mode)
//   --json PATH     write JSON records (phase names "<kernel>:<layout>")
//   --reps N        timing repetitions, min taken (default 3; smoke: 1)

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/centrality/betweenness.hpp"
#include "snap/community/louvain.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace {

using snap::CSRGraph;
using snap::vid_t;

constexpr int kBCSources = 8;

/// Best-of-reps wall time of `fn` (which must not be optimized away:
/// every kernel returns a result we fold into `sink`).
template <typename F>
double time_best(int reps, double& sink, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    snap::WallTimer t;
    sink += fn();
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

/// Deterministic sample sources: the top-degree vertex plus evenly spaced
/// ids (original-id space; callers map through the layout's permutation).
std::vector<vid_t> pick_sources(const CSRGraph& g, int count) {
  const vid_t n = g.num_vertices();
  vid_t hub = 0;
  for (vid_t v = 1; v < n; ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  std::vector<vid_t> s{hub};
  for (int i = 1; i < count && i < n; ++i)
    s.push_back((n / count) * i % n);
  return s;
}

struct Layout {
  std::string name;
  const CSRGraph* graph;
  const std::vector<vid_t>* old_to_new;  ///< nullptr = identity
};

vid_t mapped(const Layout& l, vid_t old_id) {
  return l.old_to_new ? (*l.old_to_new)[static_cast<std::size_t>(old_id)]
                      : old_id;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snapbench;
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = std::atoi(
      flag_value(argc, argv, "--reps", smoke ? "1" : "3").c_str());
  const std::string json = flag_value(argc, argv, "--json");
  const int threads = snap::parallel::num_threads();

  print_header("bench_memory: locality-aware CSR layouts");

  std::string dataset;
  CSRGraph g;
  if (smoke) {
    dataset = "smoke";
    g = make_rmat(14);
    std::printf("[smoke] R-MAT scale 14: n=%lld m=%lld\n",
                static_cast<long long>(g.num_vertices()),
                static_cast<long long>(g.num_edges()));
  } else if (!corpus_from_flags(argc, argv, &dataset, &g)) {
    dataset = "rmat22";
    g = load_corpus(dataset);
  }

  JsonReport report("memory", json);
  const JsonReport::Params params = {
      {"n", std::to_string(g.num_vertices())},
      {"m", std::to_string(g.num_edges())}};
  auto rec = [&](const std::string& phase, double seconds) {
    report.record(dataset, params, threads, phase, seconds);
  };

  const std::vector<vid_t> sources = pick_sources(g, kBCSources);
  const vid_t bfs_src = sources[0];
  double sink = 0;

  // --- Pre-passes -------------------------------------------------------
  snap::WallTimer t_deg;
  snap::ReorderedGraph by_degree = snap::relabel_by_degree(g);
  const double s_deg = t_deg.elapsed_s();
  rec("prepass:degree", s_deg);

  snap::WallTimer t_hub;
  snap::ReorderedGraph by_hub = snap::relabel_by_hub_cluster(g);
  const double s_hub = t_hub.elapsed_s();
  rec("prepass:hub", s_hub);

  std::printf("pre-pass: degree %.2fs, hub %.2fs\n", s_deg, s_hub);

  const std::vector<Layout> layouts = {
      {"baseline", &g, nullptr},
      {"degree", &by_degree.graph, &by_degree.old_to_new},
      {"hub", &by_hub.graph, &by_hub.old_to_new},
  };

  // Fixed work for cross-layout comparability: exactly 10 iterations,
  // no early exit (tol = 0).
  snap::PageRankParams prp;
  prp.max_iters = 10;
  prp.tol = 0.0;

  // --- Kernels over each layout ----------------------------------------
  std::map<std::string, double> times;  // "<kernel>:<layout>" -> seconds
  for (const Layout& l : layouts) {
    const CSRGraph& lg = *l.graph;
    const vid_t src = mapped(l, bfs_src);

    times["bfs:" + l.name] = time_best(reps, sink, [&] {
      return static_cast<double>(snap::bfs(lg, src).num_visited);
    });
    rec("bfs:" + l.name, times["bfs:" + l.name]);

    // The adjacency-driven CC engine: the edge-list SV engine streams
    // g.edges() sequentially and is insensitive to vertex order, so it
    // would measure nothing about the layout (see docs/PERFORMANCE.md).
    times["cc:" + l.name] = time_best(reps, sink, [&] {
      return static_cast<double>(snap::connected_components_bfs(lg).count);
    });
    rec("cc:" + l.name, times["cc:" + l.name]);

    std::vector<vid_t> lsrc;
    for (const vid_t s : sources) lsrc.push_back(mapped(l, s));
    times["bc:" + l.name] = time_best(reps, sink, [&] {
      return snap::approx_vertex_betweenness(lg, lsrc)[0];
    });
    rec("bc:" + l.name, times["bc:" + l.name]);

    times["pagerank:" + l.name] = time_best(reps, sink, [&] {
      return snap::pagerank(lg, prp).rank[0];
    });
    rec("pagerank:" + l.name, times["pagerank:" + l.name]);

    if (!smoke) {
      times["louvain:" + l.name] = time_best(1, sink, [&] {
        return snap::louvain(lg).community.modularity;
      });
      rec("louvain:" + l.name, times["louvain:" + l.name]);
    }
  }

  // --- Speedup table vs baseline ----------------------------------------
  std::printf("\n%-10s %-12s %10s %10s\n", "kernel", "layout", "seconds",
              "speedup");
  const std::vector<std::string> kernels = {"bfs", "cc", "bc", "pagerank",
                                            "louvain"};
  for (const std::string& k : kernels) {
    const auto base = times.find(k + ":baseline");
    for (const auto& [key, sec] : times) {
      if (key.rfind(k + ":", 0) != 0) continue;
      const std::string layout = key.substr(k.size() + 1);
      if (base != times.end() && base->second > 0)
        std::printf("%-10s %-12s %10.4f %9.2fx\n", k.c_str(), layout.c_str(),
                    sec, base->second / sec);
      else
        std::printf("%-10s %-12s %10.4f %10s\n", k.c_str(), layout.c_str(),
                    sec, "-");
    }
  }
  std::printf("(sink %.3g)\n", sink);

  report.write();
  return 0;
}
