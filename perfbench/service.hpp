#pragma once

// The HTTP service side of the benchmark: a live GraphService behind an
// HttpServer on loopback, the open-loop and closed-loop clients that load
// it, and the direct (no-HTTP) replay that times each service layer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"

namespace perfbench {

/// A GraphService on an ephemeral loopback port.  The server member is
/// declared after the service it dispatches to, so it stops first.
class LiveService {
 public:
  LiveService(snap::vid_t n, int threads)
      : service_(n, /*directed=*/false), server_(&service_, threads) {}
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  bool start(std::string* err) { return server_.start("127.0.0.1", 0, err); }
  [[nodiscard]] int port() const { return server_.port(); }
  snap::server::GraphService& service() { return service_; }
  snap::server::HttpServer& server() { return server_; }

 private:
  snap::server::GraphService service_;
  snap::server::HttpServer server_;
};

/// What one client connection saw.  Latencies of open-loop requests are
/// timed from the request's due time, so a stall also charges the
/// requests queued behind it; `late_ms` is the generator's own lateness
/// (send time minus the later of due time and the previous response).
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> traced_ms;    ///< latencies of requests with spans on
  std::vector<double> untraced_ms;  ///< ... and with spans off
  std::int64_t offered = 0;    ///< requests due inside the window
  std::int64_t completed = 0;  ///< requests answered 2xx and checked ok
  std::int64_t sent = 0;       ///< requests put on the wire
  std::int64_t live_snapshots_max = 0;
  std::int64_t edges_posted = 0;
  std::vector<std::string> failures;

  void merge_into(Result& r, const std::string& latency_key) const;
};

/// Point reads: /degree/{v}, /neighbors/{v} and /stats in a fixed cycle
/// over vertices drawn from `vertices`.
struct PointMix {
  std::vector<snap::vid_t> vertices;
  [[nodiscard]] std::string target(std::int64_t i) const;
};

/// The point mix of both workloads: 4096 vertices drawn uniformly from the
/// giant component of `g` (the graph the stream will have built).
PointMix point_mix(const snap::CSRGraph& g, std::uint64_t seed);

/// One write-path session: a fresh service and its `preload` (the
/// set-up, timed as `setup_s`), then one closed-loop writer posting every
/// batch and one open-loop point reader at 200 requests/s running for the
/// writer's whole window.  The service's kernels run at one thread fewer
/// than `threads`, so the load generator keeps a core of its own and its
/// timestamps measure the service, not a run queue it shares.
/// `client` is declared after `live` so that it closes first: the server
/// waits for open connections when it stops.
struct IngestSession {
  std::unique_ptr<LiveService> live;
  std::unique_ptr<snap::server::HttpClient> client;  ///< the writer's
  ClientLog writer;
  ClientLog reader;
  double setup_s = 0;
  double window_s = 0;
  std::int64_t client_requests = 0;  ///< every request any client sent
};
IngestSession run_ingest_session(snap::vid_t n,
                                 const std::vector<const Batch*>& preload,
                                 const std::vector<const Batch*>& batches,
                                 const PointMix& mix, int threads,
                                 Tracer* tracer);

/// Record a finished session under `prefix` ("" for the workload's own
/// window): its set-up time, ingest and point latencies, ingest rate and
/// load generator figures; then check its final state against `applied`
/// (preload and window batches) and its request count.
void record_session(IngestSession& s, const std::vector<const Batch*>& applied,
                    snap::vid_t n, std::uint64_t seed,
                    const std::string& prefix, Result& r);

/// Traced run only: replay `batches` directly through json::parse,
/// UpdateBatch::canonicalize, StreamingGraph::apply (lazy, then eager with
/// pin), DynamicGraph::to_csr and GraphService::handle, then time each
/// read endpoint through handle() on the final state.
void replay_layers(snap::vid_t n, const std::vector<const Batch*>& batches,
                   const std::vector<snap::vid_t>& probe_vertices,
                   SpanLog& log, Result& r);

}  // namespace perfbench
