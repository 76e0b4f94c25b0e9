// Community-engine comparison: the modern move/coarsen/refine engines
// (parallel Louvain, parallel label propagation) against the paper's 2008
// agglomerative heuristics (pMA, pLA) on the Table 2 generator instances —
// modularity achieved and wall time, per algorithm.
//
// The full run adds a planted-partition instance at >= 1M edges, which is
// the acceptance record for the Louvain engine: modularity at least
// pMA/pLA's while running faster than both.  The committed baseline
// (bench/baselines/BENCH_community.json) is a full-mode run; CI replays the
// smoke subset and soft-gates runtimes via tools/bench_compare.py.
//
// Flags: --json out.json (machine-readable records), --smoke (small
// instances for CI).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/pla.hpp"
#include "snap/community/pma.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace {

using namespace snap;
using namespace snapbench;

struct Instance {
  std::string name;
  CSRGraph g;
};

/// The Table 2 family, minus the GN-priced instances' caps: Karate is the
/// real Zachary graph, the rest are the planted-partition stand-ins of
/// bench_table2_modularity (same n/m/community-count recipes and seeds, so
/// the two benches describe the same instances).
std::vector<Instance> make_instances(bool smoke) {
  auto planted = [&](vid_t n, eid_t m, vid_t k, std::uint64_t seed,
                     double out_frac = 0.15) {
    const double avg = 2.0 * static_cast<double>(m) / static_cast<double>(n);
    return gen::planted_partition(n, k, avg * (1.0 - out_frac),
                                  avg * out_frac, seed);
  };
  std::vector<Instance> v;
  v.push_back({"Karate", gen::karate_club()});
  v.push_back({"Political books*", planted(105, 441, 3, 11)});
  v.push_back({"Metabolic*", planted(453, 2025, 10, 13)});
  v.push_back({"E-mail*", planted(1133, 5451, 10, 14)});
  if (!smoke) {
    v.push_back({"Key signing*", planted(10680, 24316, 100, 15, 0.07)});
    // The acceptance instance: >= 1M realized edges of community-structured
    // graph (n = 260k, k = 1000, ~8 expected degree -> m ~ 1.03M after
    // dedupe shrink).
    v.push_back({"planted-1M",
                 gen::planted_partition(260000, 1000, /*deg_in=*/7.0,
                                        /*deg_out=*/1.0, 21)});
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Community engines: Louvain / PLP vs pMA / pLA "
               "(* = synthetic stand-in, see DESIGN.md)");
  const bool smoke = has_flag(argc, argv, "--smoke");
  JsonReport report("bench_community", flag_value(argc, argv, "--json"));
  const int pmax = parallel::max_threads();
  parallel::ThreadScope scope(pmax);

  std::vector<Instance> insts;
  {
    std::string cname;
    CSRGraph cg;
    if (corpus_from_flags(argc, argv, &cname, &cg))
      insts.push_back({cname, std::move(cg)});
    else
      insts = make_instances(smoke);
  }

  std::printf("%-18s %8s %9s | %-7s %9s %8s %7s\n", "Network", "n", "m",
              "algo", "q", "time(s)", "k");
  for (const Instance& inst : insts) {
    const JsonReport::Params base_params{
        {"n", std::to_string(inst.g.num_vertices())},
        {"m", std::to_string(inst.g.num_edges())}};
    struct Row {
      const char* phase;
      double q;
      double seconds;
      vid_t clusters;
    };
    std::vector<Row> rows;

    {
      WallTimer w;
      const LouvainResult r = louvain(inst.g);
      rows.push_back({"louvain", r.community.modularity, w.elapsed_s(),
                      r.community.clustering.num_clusters});
    }
    {
      WallTimer w;
      const LabelPropResult r = label_propagation(inst.g);
      rows.push_back({"plp", r.community.modularity, w.elapsed_s(),
                      r.community.clustering.num_clusters});
    }
    {
      WallTimer w;
      const CommunityResult r = pma(inst.g);
      rows.push_back(
          {"pma", r.modularity, w.elapsed_s(), r.clustering.num_clusters});
    }
    {
      WallTimer w;
      const CommunityResult r = pla(inst.g);
      rows.push_back(
          {"pla", r.modularity, w.elapsed_s(), r.clustering.num_clusters});
    }

    for (const Row& row : rows) {
      report.record(inst.name, base_params, pmax, row.phase, row.seconds,
                    0.0,
                    {{"modularity", row.q},
                     {"clusters", static_cast<double>(row.clusters)}});
      std::printf("%-18s %8lld %9lld | %-7s %9.4f %8.3f %7lld\n",
                  inst.name.c_str(),
                  static_cast<long long>(inst.g.num_vertices()),
                  static_cast<long long>(inst.g.num_edges()), row.phase,
                  row.q, row.seconds, static_cast<long long>(row.clusters));
    }
  }
  std::printf(
      "\nShape check: Louvain's modularity is at or above pMA/pLA's on every\n"
      "instance, and on the 1M-edge planted instance (full run) it is also\n"
      "faster than both — the acceptance record in BENCH_community.json.\n");
  report.write();
  return 0;
}
