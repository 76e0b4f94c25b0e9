#include "service.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <stop_token>
#include <string_view>
#include <thread>

#include "snap/kernels/connected_components.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/util/json.hpp"
#include "snap/util/parallel.hpp"
#include "tasks.hpp"

namespace perfbench {

using snap::server::HttpClient;
using snap::server::HttpRequest;
using snap::server::HttpResult;

namespace {

constexpr double kPointRate = 200;     ///< point reads/s, open loop
// service-ingest: a preload of 23,800 edges, then 428 batches of 500.
constexpr std::size_t kPreloadEdges = 23800;
constexpr std::size_t kWindowBatches = 428;

/// Passes of the offline tasks over a service's final snapshot.
constexpr int kFinalPasses = 8;

/// Requests of the analytic cycle after the window: five whole cycles, so
/// the p90 is the 90th of 100 samples.
constexpr std::int64_t kAnalyticRequests = 100;

/// An open-loop generator this far behind its schedule stops sending and
/// counts the rest of its due requests as failed.
constexpr double kGiveUpBehindS = 5.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Start a LiveService or throw.
std::unique_ptr<LiveService> start_service(snap::vid_t n, int threads) {
  auto live = std::make_unique<LiveService>(n, threads);
  std::string err;
  if (!live->start(&err))
    throw std::runtime_error("cannot start the service: " + err);
  return live;
}

/// Connect a keep-alive client to `port` or throw.
void connect_client(HttpClient* client, int port) {
  std::string err;
  if (!client->connect("127.0.0.1", port, &err))
    throw std::runtime_error("cannot connect to the service: " + err);
}

/// Integer member `key` of a JSON response body, or -1 when the body is
/// not JSON or has no such member.
std::int64_t body_int(const std::string& body, std::string_view key) {
  snap::json::Value doc;
  if (!snap::json::parse(body, &doc)) return -1;
  return doc.get(key).as_int64(-1);
}

bool check_point(const std::string& path, const HttpResult& res,
                 ClientLog* out) {
  snap::json::Value doc;
  if (!snap::json::parse(res.body, &doc)) return false;
  if (path == "/stats") {
    out->live_snapshots_max = std::max(
        out->live_snapshots_max, doc.get("live_snapshots").as_int64(-1));
    return doc.get("num_edges").as_int64(-1) >= 0;
  }
  return doc.get("degree").as_int64(-1) >= 0;
}

HttpRequest make_request(const std::string& method, const std::string& path,
                         std::vector<std::pair<std::string, std::string>> query =
                             {},
                         std::string body = {}) {
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.query = std::move(query);
  for (const auto& [k, v] : req.query)
    req.query_string += (req.query_string.empty() ? "" : "&") + k + "=" + v;
  req.body = std::move(body);
  return req;
}

double csr_bytes(const snap::CSRGraph& g) {
  return static_cast<double>(g.row_offsets().size_bytes() +
                             g.adjacency().size_bytes() +
                             g.arc_weights().size_bytes() +
                             g.arc_edge_id_array().size_bytes() +
                             g.edges().size() * sizeof(snap::Edge));
}

/// Analytic reads: request i of a fixed cycle over /cc/{v},
/// /pagerank-topk, /bc-topk, /clustering, /community?algo=plp|louvain and
/// /degree/{v}.
std::string analytic_target(std::int64_t i, snap::vid_t v) {
  // Of every 20 requests: 8 light (5 degree, 2 cc, 1 pagerank), 4 bc,
  // 4 plp, 3 clustering and 1 louvain.  The weights model no traffic; they
  // are set for steady percentiles.  The p50 then falls in the middle of
  // the bc class and the p90 in the middle of the clustering class, not on
  // a boundary between classes, where the percentile would jump between
  // them from run to run.
  static const char* const kCycle[20] = {
      "/community?algo=louvain", "/cc/", "/degree/",
      "/bc-topk?k=10&samples=16", "/community?algo=plp", "/clustering",
      "/degree/", "/bc-topk?k=10&samples=16", "/community?algo=plp",
      "/clustering", "/degree/", "/bc-topk?k=10&samples=16",
      "/community?algo=plp", "/clustering", "/degree/",
      "/bc-topk?k=10&samples=16", "/community?algo=plp",
      "/pagerank-topk?k=10&iters=20", "/degree/", "/cc/"};
  const std::string path = kCycle[i % 20];
  return path.back() == '/' ? path + std::to_string(v) : path;
}

/// Open-loop point reader at `rate` requests/s from `t0` until `stop` is
/// requested.  Request i is due at t0 + i / rate.
void point_reader(int port, const PointMix& mix, double rate,
                  Clock::time_point t0, const std::stop_token& stop,
                  SpanLog* log, ClientLog* out) {
  HttpClient client;
  connect_client(&client, port);
  Clock::time_point prev_done = t0;
  for (std::int64_t i = 0; !stop.stop_requested(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    ++out->offered;
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point send = Clock::now();
    if (seconds_between(due, send) > kGiveUpBehindS) {
      out->failures.push_back("point reader gave up");
      continue;
    }
    out->late_ms.push_back(ms_between(std::max(due, prev_done), send));
    const std::string path = mix.target(i);
    log->on = (i / 10) % 2 == 0;  // spans on and off in blocks of ten
    const HttpResult res = client.request("GET", path);
    const Clock::time_point done = Clock::now();
    ++out->sent;
    log->add("server.http_point", send, done);
    prev_done = done;
    if (!res.ok() || !check_point(path, res, out)) {
      out->failures.push_back(path + " -> " + std::to_string(res.status) +
                              " " + res.error + res.body.substr(0, 80));
      if (!client.connected()) connect_client(&client, port);
      continue;
    }
    ++out->completed;
    const double latency = ms_between(due, done);
    out->latency_ms.push_back(latency);
    (log->active() ? out->traced_ms : out->untraced_ms).push_back(latency);
  }
  log->on = true;
}

/// Sequential /ingest of `batches` over `client` (closed loop): each
/// request is sent when the previous one returns.
void closed_loop_writer(HttpClient* client,
                        const std::vector<const Batch*>& batches,
                        SpanLog* log, ClientLog* out) {
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const Batch& b = *batches[i];
    log->on = (i / 10) % 2 == 0;  // spans on and off in blocks of ten
    const Clock::time_point t0 = Clock::now();
    const HttpResult res = client->request("POST", "/ingest", b.body);
    const Clock::time_point t1 = Clock::now();
    log->add("server.http_ingest", t0, t1);
    ++out->sent;
    if (!res.ok() || body_int(res.body, "applied_inserts") < 0) {
      out->failures.push_back("/ingest -> " + std::to_string(res.status) +
                              " " + res.error);
      if (!client->connected()) return;
      continue;
    }
    ++out->completed;
    out->edges_posted += static_cast<std::int64_t>(b.edges);
    const double ms = ms_between(t0, t1);
    out->latency_ms.push_back(ms);
    (log->active() ? out->traced_ms : out->untraced_ms).push_back(ms);
  }
  log->on = true;
}

/// Check the service's final state against a direct StreamingGraph replay
/// of `applied`: /stats edge count and epoch, sampled /degree answers, and
/// sampled /cc answers against connected_components on the replay.
/// `client` must be connected to the service; returns the requests sent.
std::int64_t check_final_state(HttpClient* client,
                               const std::vector<const Batch*>& applied,
                               snap::vid_t n, std::uint64_t seed, Result& r) {
  snap::stream::StreamingGraph ref(n, /*directed=*/false);
  for (const Batch* b : applied) ref.apply(b->updates);
  const snap::CSRGraph& g = ref.snapshot();
  std::int64_t requests = 0;

  HttpResult res = client->request("GET", "/stats");
  ++requests;
  r.check(res.ok() && body_int(res.body, "num_edges") == g.num_edges(),
          "/stats num_edges " + std::to_string(body_int(res.body, "num_edges")) +
              " != replay " + std::to_string(g.num_edges()));
  r.check(res.ok() &&
              body_int(res.body, "epoch") ==
                  static_cast<std::int64_t>(ref.epoch()) &&
              ref.epoch() == applied.size(),
          "/stats epoch " + std::to_string(body_int(res.body, "epoch")) +
              " != replay " + std::to_string(ref.epoch()));

  const snap::Components cc = snap::connected_components(g);
  const std::vector<snap::vid_t> sizes = cc.sizes();
  const std::vector<snap::vid_t> sample =
      giant_sample(g, cc, 32, mix_seed(seed, 7));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const snap::vid_t v = sample[i];
    res = client->request("GET", "/degree/" + std::to_string(v));
    ++requests;
    r.check(res.ok() && body_int(res.body, "degree") == g.degree(v),
            "/degree/" + std::to_string(v) + " differs from the replay");
    if (i % 8 != 0) continue;
    res = client->request("GET", "/cc/" + std::to_string(v));
    ++requests;
    const auto label = static_cast<std::size_t>(
        cc.label[static_cast<std::size_t>(v)]);
    r.check(res.ok() &&
                body_int(res.body, "num_components") == cc.count &&
                body_int(res.body, "component_size") ==
                    sizes[label],
            "/cc/" + std::to_string(v) +
                " differs from connected_components on the replay");
  }
  return requests;
}

/// Record the point reader's loadgen.* and server-side values for the
/// per-layer metrics, and check that the server answered exactly the
/// requests the clients sent.
void record_load(const ClientLog& reader, double window_s,
                 std::int64_t requests_served, std::int64_t client_requests,
                 Result& r) {
  r.append("loadgen.late_ms", reader.late_ms);
  r.counters["loadgen.offered_rps"] =
      static_cast<double>(reader.offered) / window_s;
  r.counters["loadgen.achieved_rps"] =
      static_cast<double>(reader.completed) / window_s;
  r.counters["stream.live_snapshots_max"] =
      static_cast<double>(reader.live_snapshots_max);
  r.counters["server.requests_served"] =
      static_cast<double>(requests_served);
  r.check(requests_served == client_requests,
          "server counted " + std::to_string(requests_served) +
              " requests, clients sent " + std::to_string(client_requests));
}

/// After a service workload's window: the offline tasks on the service's
/// final snapshot `g` and, in a traced run, the layer probes on the same
/// input (`applied` is every batch the service applied).
void finish_on_snapshot(const snap::CSRGraph& g,
                        const std::vector<const Batch*>& applied,
                        const Options& o, SpanLog& log, Result& r) {
  OfflineTasks tasks(g, o.seed);
  for (int rep = 0; rep < kFinalPasses; ++rep) {
    const OfflineTasks::PassTimes t = tasks.run_pass(log, r);
    r.append("traverse_s", t.traverse_s);
    r.append("rank_s", t.rank_s);
    r.add("community_s", t.community_s);
  }
  if (!o.trace) return;
  load_probe(g, o.tmpdir, log, r);
  replay_layers(g.num_vertices(), applied, tasks.bfs_sources(), log, r);
  tasks.run_thread_baseline(log, o.threads);
}

}  // namespace

void ClientLog::merge_into(Result& r, const std::string& latency_key) const {
  r.append(latency_key, latency_ms);
  if (!traced_ms.empty()) {
    r.append(latency_key + ".traced", traced_ms);
    r.append(latency_key + ".untraced", untraced_ms);
  }
  r.attempted += std::max(offered, sent);
  r.failed += static_cast<std::int64_t>(failures.size());
  for (const std::string& f : failures)
    if (r.failures.size() < 20) r.failures.push_back(f);
}

PointMix point_mix(const snap::CSRGraph& g, std::uint64_t seed) {
  return {giant_sample(g, snap::connected_components(g), 4096, seed)};
}

std::string PointMix::target(std::int64_t i) const {
  if (i % 10 == 9) return "/stats";
  const snap::vid_t v =
      vertices[static_cast<std::size_t>(i) % vertices.size()];
  return ((i % 2) == 0 ? "/degree/" : "/neighbors/") + std::to_string(v);
}

IngestSession run_ingest_session(snap::vid_t n,
                                 const std::vector<const Batch*>& preload,
                                 const std::vector<const Batch*>& batches,
                                 const PointMix& mix, int threads,
                                 Tracer* tracer) {
  const snap::parallel::ThreadScope service_threads(std::max(1, threads - 1));
  IngestSession s;
  const Clock::time_point setup = Clock::now();
  s.live = start_service(n, /*threads=*/2);
  const int port = s.live->port();
  s.client = std::make_unique<HttpClient>();
  connect_client(s.client.get(), port);
  for (const Batch* b : preload) {
    const HttpResult res = s.client->request("POST", "/ingest", b->body);
    ++s.writer.sent;
    if (!res.ok())
      s.writer.failures.push_back("preload /ingest -> " +
                                  std::to_string(res.status));
  }
  s.setup_s = seconds_since(setup);

  const Clock::time_point t0 = Clock::now();
  {
    // Stopped and joined on scope exit, exception paths too, so the reader
    // never outlives the log it writes.
    const std::jthread reader([&](const std::stop_token& stop) {
      SpanLog log(tracer, 1);
      point_reader(port, mix, kPointRate, t0, stop, &log, &s.reader);
    });
    SpanLog log(tracer, 2);
    closed_loop_writer(s.client.get(), batches, &log, &s.writer);
    s.window_s = seconds_since(t0);
  }
  s.client_requests = s.writer.sent + s.reader.sent;
  return s;
}

void record_session(IngestSession& s, const std::vector<const Batch*>& applied,
                    snap::vid_t n, std::uint64_t seed,
                    const std::string& prefix, Result& r) {
  r.add(prefix + "setup_s", s.setup_s);
  s.writer.merge_into(r, prefix + "ingest_ms");
  s.reader.merge_into(r, prefix + "point_ms");
  r.add(prefix + "ingest_eps",
        static_cast<double>(s.writer.edges_posted) / s.window_s);
  s.client_requests += check_final_state(s.client.get(), applied, n, seed, r);
  record_load(s.reader, s.window_s,
              static_cast<std::int64_t>(s.live->server().requests_served()),
              s.client_requests, r);
}

void replay_layers(snap::vid_t n, const std::vector<const Batch*>& batches,
                   const std::vector<snap::vid_t>& probe_vertices,
                   SpanLog& log, Result& r) {
  for (const Batch* b : batches) {
    snap::json::Value doc;
    timed(log, "util.json_parse",
          [&] { (void)snap::json::parse(b->body, &doc, nullptr); });
  }
  for (const Batch* b : batches)
    timed(log, "stream.canonicalize",
          [&] { (void)b->updates.canonicalize(/*directed=*/false); });

  snap::stream::StreamingGraph lazy(n, /*directed=*/false);
  std::int64_t inserts = 0;
  double bytes = 0;
  for (const Batch* b : batches) {
    timed(log, "stream.apply_lazy", [&] {
      inserts += static_cast<std::int64_t>(lazy.apply(b->updates).applied_inserts);
    });
    snap::CSRGraph image;
    const Clock::time_point t0 = Clock::now();
    image = lazy.graph().to_csr();
    const Clock::time_point t1 = Clock::now();
    bytes += csr_bytes(image);
    log.add("graph.to_csr", t0, t1, csr_bytes(image));
  }
  r.counters["graph.publish_bytes"] = bytes;
  r.counters["stream.applied_inserts"] = static_cast<double>(inserts);

  snap::stream::StreamingGraph eager(n, /*directed=*/false);
  eager.set_eager_snapshots(true);
  for (const Batch* b : batches) {
    timed(log, "stream.apply_eager", [&] { (void)eager.apply(b->updates); });
    snap::stream::SnapshotHandle pinned;
    timed(log, "stream.pin", [&] { pinned = eager.pin(); });
  }
  r.counters["stream.epochs"] = static_cast<double>(eager.epoch());
  r.check(eager.epoch() == batches.size() &&
              eager.pin()->graph().num_edges() == inserts &&
              lazy.graph().num_edges() == inserts,
          "eager and lazy replays disagree on epochs or edge count");

  snap::server::GraphService svc(n, /*directed=*/false);
  for (const Batch* b : batches) {
    const HttpRequest req = make_request("POST", "/ingest", {}, b->body);
    timed(log, "server.handle_ingest", [&] { (void)svc.handle(req); });
  }
  const auto probe = [&](const char* span, const HttpRequest& req, int reps) {
    for (int i = 0; i < reps; ++i) {
      snap::server::HttpResponse resp;
      timed(log, span, [&] { resp = svc.handle(req); });
      r.check(resp.status == 200,
              std::string(span) + " -> " + std::to_string(resp.status));
    }
  };
  for (std::size_t i = 0; i < 32 && i < probe_vertices.size(); ++i) {
    const std::string v = std::to_string(probe_vertices[i]);
    probe("server.handle_degree", make_request("GET", "/degree/" + v), 1);
    probe("server.handle_neighbors", make_request("GET", "/neighbors/" + v), 1);
  }
  probe("server.handle_stats", make_request("GET", "/stats"), 16);
  const std::string v0 = std::to_string(probe_vertices.front());
  probe("server.handle_cc", make_request("GET", "/cc/" + v0), 3);
  probe("server.handle_clustering", make_request("GET", "/clustering"), 3);
  probe("server.handle_pagerank_topk",
        make_request("GET", "/pagerank-topk", {{"k", "10"}, {"iters", "20"}}),
        3);
  probe("server.handle_bc_topk",
        make_request("GET", "/bc-topk", {{"k", "10"}, {"samples", "16"}}), 3);
  probe("server.handle_community_louvain",
        make_request("GET", "/community", {{"algo", "louvain"}}), 3);
  probe("server.handle_community_plp",
        make_request("GET", "/community", {{"algo", "plp"}}), 3);
  const snap::CSRGraph& g = svc.streaming().pin()->graph();
  for (int i = 0; i < 3; ++i)
    timed(log, "metrics.clustering",
          [&] { (void)snap::average_clustering_coefficient(g); });
}

// ---------------------------------------------------------------------------
// service-ingest

void run_service_ingest(const Options& o, Result& r, Tracer& tracer) {
  SpanLog log(&tracer, 0);
  const snap::CSRGraph base = rmat_graph(15, 8 << 15, kGraphSeed);
  const snap::vid_t n = base.num_vertices();
  const std::vector<EdgePair> edges = edge_stream(base, mix_seed(o.seed, 3));
  // Set-up preloads the first tenth of the stream in one request; the
  // window posts the rest in 500-edge batches.
  const std::vector<Batch> preload =
      make_batches(edges, 0, kPreloadEdges, kPreloadEdges);
  const std::vector<Batch> batches = make_batches(
      edges, kPreloadEdges,
      std::min(edges.size(), kPreloadEdges + kWindowBatches * 500), 500);
  std::vector<const Batch*> window;
  for (const Batch& b : batches) window.push_back(&b);
  std::vector<const Batch*> all = {&preload.front()};
  all.insert(all.end(), window.begin(), window.end());
  const PointMix mix = point_mix(base, mix_seed(o.seed, 4));

  // Window: whole replays of the stream, each into a fresh service, while
  // the next one still fits in --seconds.  Each replay's set-up (service,
  // server start, preload) is one setup_s sample.
  const Clock::time_point start = Clock::now();
  IngestSession last;
  do {
    IngestSession s = run_ingest_session(n, {&preload.front()}, window, mix,
                                         o.threads, &tracer);
    record_session(s, all, n, o.seed, "", r);
    // A server stops only after its connections close: close the previous
    // session's client before its service is replaced.
    if (last.client) last.client->close();
    last = std::move(s);
  } while (seconds_since(start) + last.setup_s + last.window_s <= o.seconds);

  // After the window: the analytic mix on the final graph, closed loop,
  // then the offline tasks on the final snapshot.
  for (std::int64_t i = 0; i < kAnalyticRequests; ++i) {
    const std::string path = analytic_target(i, mix.vertices[i]);
    const Clock::time_point t0 = Clock::now();
    const HttpResult res = last.client->request("GET", path);
    const Clock::time_point t1 = Clock::now();
    log.add("server.http_query", t0, t1);
    r.check(res.ok(), path + " -> " + std::to_string(res.status));
    r.add("query_ms", ms_between(t0, t1));
  }
  last.client->close();
  const snap::stream::SnapshotHandle snap =
      last.live->service().streaming().pin();
  last.live.reset();
  finish_on_snapshot(snap->graph(), all, o, log, r);
}

}  // namespace perfbench
