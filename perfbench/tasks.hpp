#pragma once

// The offline pipeline's three tasks (traverse, rank, community) over one
// CSR graph, with their output checks.  The offline-rmat workload runs them
// on the R-MAT instance; the service workloads run them on the service's
// final snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "snap/graph/csr_graph.hpp"

namespace perfbench {

inline constexpr std::size_t kBfsSources = 64;
inline constexpr std::size_t kBcSources = 8;
inline constexpr int kPageRankIters = 20;
/// The traverse and rank tasks are several times shorter than the
/// community task, so a pass runs each of them three times: their medians
/// then rest on a dozen samples per run, and the BFS latency tail
/// (point_p99_ms on offline-rmat) on several hundred BFS calls.
inline constexpr int kTraversePerPass = 3;
inline constexpr int kRankPerPass = 3;

class OfflineTasks {
 public:
  OfflineTasks(const snap::CSRGraph& g, std::uint64_t seed);

  struct PassTimes {
    std::vector<double> traverse_s;  ///< one per traverse task
    std::vector<double> rank_s;      ///< one per rank task
    double community_s = 0;
    std::vector<double> bfs_ms;    ///< one per single-source BFS
  };

  /// One pass: the traverse task (64 BFS + CC) kTraversePerPass times,
  /// then the rank task (PageRank + sampled BC) kRankPerPass times, then
  /// Louvain + PLP.  Checks every output
  /// against its reference and records the result in `r`.
  PassTimes run_pass(SpanLog& log, Result& r);

  /// Each kernel once at one thread and once at `threads`, for the
  /// kernels.*_speedup metrics (spans suffixed "@1t" hold the one-thread
  /// times).  Restores `threads` on return.
  void run_thread_baseline(SpanLog& log, int threads);

  [[nodiscard]] const std::vector<snap::vid_t>& bfs_sources() const {
    return bfs_sources_;
  }

 private:
  /// One traverse task; returns its seconds.
  double traverse(SpanLog& log, Result& r, PassTimes* t);

  const snap::CSRGraph& g_;
  std::vector<snap::vid_t> bfs_sources_;
  std::vector<snap::vid_t> bc_sources_;
  // References, computed once per graph outside any timed region.
  std::vector<std::int64_t> serial_dist_;  ///< bfs_serial from source 0
  snap::vid_t cc_count_ = 0;
  snap::vid_t giant_size_ = 0;
  double giant_edges_ = 0;  ///< edges reached by a BFS from the giant
};

/// Time the offline path's set-up on `g`: write it as SNAPB2 under
/// `tmpdir`, then read it back and relabel it by degree three times.
/// Checks the round trip.  Spans: io.read_binary, graph.relabel_by_degree.
void load_probe(const snap::CSRGraph& g, const std::string& tmpdir,
                SpanLog& log, Result& r);

}  // namespace perfbench
