#pragma once

// Deterministic PageRank in 64-bit fixed point.
//
// The power iteration itself is textbook: rank flows along arcs, damped by
// d, with the residual (teleport + dangling + rounding) pool redistributed
// uniformly.  What is not textbook is the arithmetic: SNAP represents rank
// MASS as 64-bit fixed-point integers (the unit is 2^-60 of the total), so
// every accumulation in the engine is an exact integer add — associative
// and commutative.  That one choice buys the whole determinism story:
//
//   * the parallel path reduces per-thread partials in any grouping and
//     still matches the serial oracle bitwise at every thread count;
//   * the compressed path decodes each row and sums the same integers, so
//     it matches the flat paths bitwise too.
//
// With IEEE doubles neither holds — float addition does not associate, so
// a change of thread count or reduction grouping would perturb the last
// bits.  See docs/ALGORITHMS.md "Fixed-point PageRank".
//
// Spec (one iteration over n vertices, total mass T = 2^60, quantized
// damping D = d_num / 2^30):
//
//   contrib[u] = deg(u) > 0 ? mass[u] / deg(u) : 0        (floor division)
//   inflow[v]  = sum over stored arcs (u, v) of contrib[u]
//   kept[v]    = (inflow[v] * d_num) >> 30                 (128-bit product)
//   pool       = T - sum kept[v]     (teleport + dangling + rounding loss)
//   next[v]    = kept[v] + pool / n + (v < pool mod n ? 1 : 0)
//
// Total mass is exactly T after every iteration; the residual is the exact
// integer L1 distance |next - mass|.  Graphs are treated as unweighted
// (degree = stored arc count) and must be undirected.

#include <cstdint>
#include <vector>

#include "snap/graph/csr_graph.hpp"

namespace snap {

class CompressedCSR;

/// Which engine pagerank() runs.  kAuto picks the parallel engine for
/// graphs large enough to amortize the fork/join cost; the explicit values
/// exist for the differential tests, which require both paths to produce
/// bitwise identical mass vectors.
enum class PageRankPath { kAuto, kSerial, kParallel };

/// Total mass is 2^kPageRankMassBits; rank[v] = mass[v] / 2^kPageRankMassBits.
inline constexpr int kPageRankMassBits = 60;
/// Damping is quantized to d_num / 2^kPageRankDampBits.
inline constexpr int kPageRankDampBits = 30;
inline constexpr std::uint64_t kPageRankTotalMass = std::uint64_t{1}
                                                    << kPageRankMassBits;

struct PageRankParams {
  /// Damping factor d (quantized to kPageRankDampBits fractional bits).
  double damping = 0.85;
  /// Iteration cap.
  int max_iters = 50;
  /// Early-exit threshold on the L1 residual, expressed on the unit total
  /// (the exact integer residual is compared against tol * 2^60).  0 = run
  /// exactly max_iters — what the byte-exact service endpoint uses.
  double tol = 1e-9;
  PageRankPath path = PageRankPath::kAuto;
};

struct PageRankResult {
  /// Per-vertex rank, mass[v] / 2^60; sums to 1 up to double rounding.
  std::vector<double> rank;
  /// The exact fixed-point state (what the determinism harness hashes).
  std::vector<std::uint64_t> mass;
  /// Iterations actually run.
  int iterations = 0;
  /// Final L1 residual on the unit total (exact integer / 2^60).
  double residual = 0.0;
};

/// Flat PageRank over a CSR graph.  Undirected graphs only; weights are
/// ignored (unweighted spec).  Bitwise deterministic at every thread count,
/// and the serial and parallel paths match bitwise.
[[nodiscard]] PageRankResult pagerank(const CSRGraph& g,
                                      const PageRankParams& params = {});

/// The same spec over the delta/varint-compressed adjacency: decodes each
/// row instead of streaming it.  Mass vector is bitwise identical to
/// pagerank() on the source graph.
[[nodiscard]] PageRankResult pagerank_compressed(
    const CompressedCSR& g, const PageRankParams& params = {});

}  // namespace snap
