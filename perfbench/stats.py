"""Percentiles and the metric tables of the benchmark.

The perfbench binary emits raw samples, counters and spans; this module turns
them into the end-to-end metrics (untraced runs) and the per-layer metrics
(traced runs).  test_stats.py is its self-test.
"""

import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it.  Always one of the samples, so a latency
    percentile never reports a time no request took."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def spread(values):
    """Interquartile distance as a share of the median, the way the
    run-to-run steadiness of a metric is judged."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Run:
    """The raw record one perfbench process wrote."""

    def __init__(self, record):
        self.samples = record.get("samples", {})
        self.counters = record.get("counters", {})
        self.spans = {}
        for name, _tid, _start, dur_ns, arg in record.get("spans", []):
            entry = self.spans.setdefault(name, ([], []))
            entry[0].append(dur_ns / 1e9)
            entry[1].append(arg)

    def sample(self, *keys):
        """Samples under the first key that has any."""
        for key in keys:
            if self.samples.get(key):
                return self.samples[key]
        raise KeyError("no samples for " + "/".join(keys))

    def durations(self, name):
        if name not in self.spans:
            raise KeyError("no spans named " + name)
        return self.spans[name][0]

    def args(self, name):
        self.durations(name)  # raises if absent
        return self.spans[name][1]

    def counter(self, name):
        if name not in self.counters:
            raise KeyError("no counter " + name)
        return self.counters[name]


# --- end-to-end metrics ---------------------------------------------------
# name -> (unit, function of Run).  Every workload reports every one; the
# per-workload meaning of each is tabled in README.md.


def _pct(key, p):
    return lambda r: percentile(r.sample(key), p)


END_TO_END = {
    "setup_s": ("s", lambda r: median(r.sample("setup_s"))),
    "traverse_s": ("s", lambda r: median(r.sample("traverse_s"))),
    "rank_s": ("s", lambda r: median(r.sample("rank_s"))),
    "community_s": ("s", lambda r: median(r.sample("community_s"))),
    "ingest_eps": ("edges/s", lambda r: median(r.sample("ingest_eps"))),
    "ingest_p50_ms": ("ms", _pct("ingest_ms", 50)),
    "point_p50_ms": ("ms", _pct("point_ms", 50)),
    "query_p50_ms": ("ms", _pct("query_ms", 50)),
}

# Tail latencies: printed in the untraced run's report beside END_TO_END,
# but not in its JSON result, so no bound gates them.  On service-ingest
# they move several-fold with load from outside the benchmark (README.md).
TAILS = {
    "ingest_p90_ms": ("ms", _pct("ingest_ms", 90)),
    "point_p99_ms": ("ms", _pct("point_ms", 99)),
    "query_p90_ms": ("ms", _pct("query_ms", 90)),
}


# --- per-layer metrics ----------------------------------------------------

def _span_median(name, scale=1.0):
    return lambda r: median(r.durations(name)) * scale


def _span_total(name):
    return lambda r: sum(r.durations(name))


def _arg_median(name):
    return lambda r: median(r.args(name))


def _speedup(name):
    return lambda r: (median(r.durations(name + "@1t")) /
                      median(r.durations(name + "@nt")))


def _http_overhead(r):
    http = median(r.sample("probe.ingest_ms", "ingest_ms"))
    return http - median(r.durations("server.handle_ingest")) * 1e3


def _point_wait(r):
    direct = (r.durations("server.handle_degree") +
              r.durations("server.handle_neighbors") +
              r.durations("server.handle_stats"))
    return (percentile(r.sample("probe.point_ms", "point_ms"), 50) -
            median(direct) * 1e3)


def _trace_overhead(r):
    """Latency with spans on over latency with spans off, the two
    interleaved in one traced run: offline passes, else point reads (the
    most numerous requests)."""
    for key in ("pass_s", "point_ms"):
        if r.samples.get(key + ".traced") and r.samples.get(key + ".untraced"):
            return 100.0 * (median(r.samples[key + ".traced"]) /
                            median(r.samples[key + ".untraced"]) - 1.0)
    raise KeyError("no traced/untraced sample pair")


PER_LAYER = {
    "io.read_binary_s": ("s", _span_median("io.read_binary")),
    "graph.relabel_by_degree_s": ("s",
                                  _span_median("graph.relabel_by_degree")),
    "kernels.bfs_s": ("s", _span_median("kernels.bfs")),
    "kernels.bfs_teps": ("edges/s",
                         lambda r: median(r.sample("kernels.bfs_teps"))),
    "kernels.bfs_levels": ("count", _arg_median("kernels.bfs")),
    "kernels.cc_s": ("s", _span_median("kernels.cc")),
    "kernels.pagerank_s": ("s", _span_median("kernels.pagerank")),
    "centrality.bc_s": ("s", _span_median("centrality.bc")),
    "community.louvain_s": ("s", _span_median("community.louvain")),
    "community.louvain_levels": ("count", _arg_median("community.louvain")),
    "community.louvain_modularity": (
        "Q", lambda r: median(r.sample("community.louvain_modularity"))),
    "community.plp_s": ("s", _span_median("community.plp")),
    "community.plp_sweeps": ("count", _arg_median("community.plp")),
    "kernels.bfs_speedup": ("x", _speedup("kernels.bfs")),
    "kernels.cc_speedup": ("x", _speedup("kernels.cc")),
    "kernels.pagerank_speedup": ("x", _speedup("kernels.pagerank")),
    "kernels.bc_speedup": ("x", _speedup("centrality.bc")),
    "kernels.louvain_speedup": ("x", _speedup("community.louvain")),
    "kernels.plp_speedup": ("x", _speedup("community.plp")),
    "util.json_parse_s": ("s", _span_total("util.json_parse")),
    "stream.canonicalize_s": ("s", _span_total("stream.canonicalize")),
    "stream.apply_lazy_s": ("s", _span_total("stream.apply_lazy")),
    "stream.apply_eager_s": ("s", _span_total("stream.apply_eager")),
    "graph.to_csr_s": ("s", _span_total("graph.to_csr")),
    "graph.publish_bytes": ("bytes",
                            lambda r: r.counter("graph.publish_bytes")),
    "server.handle_ingest_ms": ("ms",
                                _span_median("server.handle_ingest", 1e3)),
    "server.http_overhead_ms": ("ms", _http_overhead),
    "server.handle_degree_ms": ("ms",
                                _span_median("server.handle_degree", 1e3)),
    "server.handle_neighbors_ms": (
        "ms", _span_median("server.handle_neighbors", 1e3)),
    "server.handle_cc_ms": ("ms", _span_median("server.handle_cc", 1e3)),
    "server.handle_clustering_ms": (
        "ms", _span_median("server.handle_clustering", 1e3)),
    "server.handle_pagerank_topk_ms": (
        "ms", _span_median("server.handle_pagerank_topk", 1e3)),
    "server.handle_bc_topk_ms": ("ms",
                                 _span_median("server.handle_bc_topk", 1e3)),
    "server.handle_community_louvain_ms": (
        "ms", _span_median("server.handle_community_louvain", 1e3)),
    "server.handle_community_plp_ms": (
        "ms", _span_median("server.handle_community_plp", 1e3)),
    "metrics.clustering_s": ("s", _span_median("metrics.clustering")),
    "stream.pin_us": ("us", _span_median("stream.pin", 1e6)),
    "server.point_wait_ms": ("ms", _point_wait),
    "server.point_p99_ms": (
        "ms", lambda r: percentile(r.sample("probe.point_ms", "point_ms"), 99)),
    "stream.live_snapshots_max": (
        "count", lambda r: r.counter("stream.live_snapshots_max")),
    "stream.epochs": ("count", lambda r: r.counter("stream.epochs")),
    "stream.applied_inserts": ("count",
                               lambda r: r.counter("stream.applied_inserts")),
    "server.requests_served": ("count",
                               lambda r: r.counter("server.requests_served")),
    "loadgen.late_p99_ms": (
        "ms", lambda r: percentile(r.sample("loadgen.late_ms"), 99)),
    "loadgen.offered_rps": ("1/s", lambda r: r.counter("loadgen.offered_rps")),
    "loadgen.achieved_rps": ("1/s",
                             lambda r: r.counter("loadgen.achieved_rps")),
    "trace.overhead_pct": ("%", _trace_overhead),
}


def compute(table, run):
    """{name: {"value": v, "unit": u}} for every metric of `table`."""
    out = {}
    for name, (unit, fn) in table.items():
        out[name] = {"value": float(fn(run)), "unit": unit}
    return out
