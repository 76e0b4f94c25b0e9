// PageRank differential suite.  The engines compute in 64-bit fixed-point
// mass (total 2^60) where every reduction is an exact integer sum, so ALL
// paths — serial oracle and ordered-reduction parallel — must agree
// BITWISE on the mass vector at every thread count.  The suite sweeps the
// generator zoo x ThreadScope {1,2,4,8}, plus sanity checks against
// closed-form stationary distributions (cycle, complete, star).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

CSRGraph rmat_graph(int scale, int epf, std::uint64_t seed) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = epf;
  p.seed = seed;
  p.directed = false;
  return gen::rmat(p);
}

std::vector<std::pair<std::string, CSRGraph>> instances() {
  std::vector<std::pair<std::string, CSRGraph>> out;
  out.emplace_back("er", gen::erdos_renyi(240, 720, false, 5));
  out.emplace_back("rmat", rmat_graph(7, 5, 7));
  out.emplace_back("ws", gen::watts_strogatz(300, 6, 0.1, 13));
  out.emplace_back("planted", gen::planted_partition(400, 8, 10.0, 1.5, 11));
  out.emplace_back("star", gen::star_graph(64));
  out.emplace_back("path", gen::path_graph(50));
  return out;
}

void expect_identical(const PageRankResult& a, const PageRankResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.mass, b.mass) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.residual, b.residual) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
}

TEST(PageRank, MassConservesAndRanksSumToOne) {
  const CSRGraph g = rmat_graph(8, 6, 3);
  const PageRankResult r = pagerank(g);
  const std::uint64_t total =
      std::accumulate(r.mass.begin(), r.mass.end(), std::uint64_t{0});
  EXPECT_EQ(total, kPageRankTotalMass);
  const double sum = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(r.iterations, 0);
}

TEST(PageRank, UniformOnVertexTransitiveGraphs) {
  // On a cycle and a complete graph the stationary distribution is uniform;
  // the fixed-point iteration preserves it exactly up to the +-1 ulp
  // remainder spread, so masses differ by at most 1.
  for (const CSRGraph& g : {gen::cycle_graph(9), gen::complete_graph(8)}) {
    const PageRankResult r = pagerank(g);
    const auto [lo, hi] = std::minmax_element(r.mass.begin(), r.mass.end());
    EXPECT_LE(*hi - *lo, 1u);
  }
}

TEST(PageRank, StarHubDominatesLeaves) {
  const CSRGraph g = gen::star_graph(32);
  const PageRankResult r = pagerank(g);
  for (std::size_t v = 1; v < r.rank.size(); ++v)
    EXPECT_GT(r.rank[0], r.rank[v]) << "leaf " << v;
}

TEST(PageRank, ToleranceStopsEarly) {
  const CSRGraph g = gen::complete_graph(16);
  PageRankParams p;
  p.max_iters = 100;
  p.tol = 1e-6;
  const PageRankResult r = pagerank(g, p);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.residual, 1e-6);
}

TEST(PageRank, SerialAndParallelPathsAreBitwiseIdentical) {
  for (const auto& [name, g] : instances()) {
    PageRankParams ps;
    ps.path = PageRankPath::kSerial;
    const PageRankResult oracle = pagerank(g, ps);
    for (const int nt : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(nt);
      PageRankParams pp;
      pp.path = PageRankPath::kParallel;
      expect_identical(pagerank(g, pp), oracle,
                       name + " threads=" + std::to_string(nt));
    }
  }
}

}  // namespace
}  // namespace snap
