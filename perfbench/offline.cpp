// offline-rmat: the paper's small-world instance through the offline
// pipeline, SNAPB2 load -> relabel_by_degree -> kernels.

#include <cstdio>

#include "common.hpp"
#include "service.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/io/binary_io.hpp"
#include "tasks.hpp"

namespace perfbench {

namespace {
constexpr int kScale = 18;
constexpr int kSetupReps = 5;
/// The traced run's service-layer probe replays this many 500-edge batches
/// of the instance's edge stream (a full replay would take minutes).
constexpr std::size_t kProbeBatches = 64;
}  // namespace

void run_offline_rmat(const Options& o, Result& r, Tracer& tracer) {
  SpanLog log(&tracer, 0);
  const std::string path = o.tmpdir + "/rmat18.snapb2";
  snap::eid_t generated_edges = 0;
  std::vector<EdgePair> stream;
  PointMix mix;
  {
    const snap::CSRGraph g =
        rmat_graph(kScale, snap::eid_t{8} << kScale, kGraphSeed);
    generated_edges = g.num_edges();
    snap::io::write_binary(g, path);
    if (o.trace) {
      stream = edge_stream(g, mix_seed(o.seed, 3));
      mix = point_mix(g, mix_seed(o.seed, 4));
    }
  }

  // Set-up: load + reorder.  The load alone is the offline path's ingest.
  snap::ReorderedGraph rg;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    snap::CSRGraph g;
    const double read_s =
        timed(log, "io.read_binary", [&] { g = snap::io::read_binary(path); });
    timed(log, "graph.relabel_by_degree",
          [&] { rg = snap::relabel_by_degree(g); });
    r.add("setup_s", seconds_since(t0));
    r.add("ingest_ms", read_s * 1e3);
    r.add("ingest_eps", static_cast<double>(g.num_edges()) / read_s);
  }
  std::remove(path.c_str());
  r.check(rg.graph.num_edges() == generated_edges &&
              rg.graph.num_vertices() == (snap::vid_t{1} << kScale),
          "SNAPB2 round trip changed the graph");

  // Window: whole passes while the next one still fits in --seconds.  A traced run
  // records spans on the first pass, then on alternate passes only; the
  // pass times with and without spans after the first give the recorder's
  // overhead.
  OfflineTasks tasks(rg.graph, o.seed);
  const Clock::time_point start = Clock::now();
  int pass = 0;
  double pass_s = 0;
  do {
    log.on = (pass % 2) == 0;  // pass 0 warms caches; it is not compared
    const Clock::time_point p0 = Clock::now();
    const OfflineTasks::PassTimes t = tasks.run_pass(log, r);
    pass_s = seconds_since(p0);
    r.append("traverse_s", t.traverse_s);
    r.append("rank_s", t.rank_s);
    r.add("community_s", t.community_s);
    r.append("point_ms", t.bfs_ms);
    // The offline path's queries are its analytic tasks, the kernels the
    // service's analytic endpoints run: three rank tasks and one community
    // task a pass, so the p50 is a rank task and the p90 a community task,
    // each away from the boundary between the two.
    for (const double task_s : t.rank_s) r.add("query_ms", task_s * 1e3);
    r.add("query_ms", t.community_s * 1e3);
    if (o.trace && pass > 0)
      r.add(log.active() ? "pass_s.traced" : "pass_s.untraced", pass_s);
    ++pass;
  } while (seconds_since(start) + pass_s <= o.seconds ||
           (o.trace && pass < 3));
  log.on = true;

  if (!o.trace) return;
  tasks.run_thread_baseline(log, o.threads);

  // Service layers on this workload's input: a prefix of its edge stream
  // through a live service (writer + point reader), then directly.
  const std::vector<Batch> batches =
      make_batches(stream, 0, kProbeBatches * 500, 500);
  std::vector<const Batch*> probe;
  for (const Batch& b : batches) probe.push_back(&b);
  const snap::vid_t n = snap::vid_t{1} << kScale;
  IngestSession s = run_ingest_session(n, {}, probe, mix, o.threads, &tracer);
  record_session(s, probe, n, o.seed, "probe.", r);
  s.client->close();
  s.live.reset();
  replay_layers(n, probe, mix.vertices, log, r);
}

}  // namespace perfbench
