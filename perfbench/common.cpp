#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "snap/gen/generators.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/util/json.hpp"
#include "snap/util/rng.hpp"

namespace perfbench {

void write_result(const std::string& path, const Result& r,
                  const Tracer& tracer, int threads) {
  namespace json = snap::json;
  json::Value doc = json::Value::object();
  doc.set("threads", threads);
  doc.set("attempted", r.attempted);
  doc.set("failed", r.failed);
  json::Value failures = json::Value::array();
  for (const std::string& f : r.failures) failures.push_back(f);
  doc.set("failures", std::move(failures));
  json::Value samples = json::Value::object();
  for (const auto& [key, values] : r.samples) {
    json::Value list = json::Value::array();
    for (const double v : values) list.push_back(v);
    samples.set(key, std::move(list));
  }
  doc.set("samples", std::move(samples));
  json::Value counters = json::Value::object();
  for (const auto& [key, value] : r.counters) counters.set(key, value);
  doc.set("counters", std::move(counters));
  json::Value spans = json::Value::array();
  for (const Span& s : tracer.spans()) {
    json::Value row = json::Value::array();
    row.push_back(s.name);
    row.push_back(s.tid);
    row.push_back(s.start_ns);
    row.push_back(s.dur_ns);
    row.push_back(s.arg);
    spans.push_back(std::move(row));
  }
  doc.set("spans", std::move(spans));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

snap::CSRGraph rmat_graph(int scale, snap::eid_t m, std::uint64_t seed) {
  snap::gen::RmatParams p;
  p.scale = scale;
  p.m = m;
  p.seed = seed;
  return snap::gen::rmat(p);
}

std::vector<EdgePair> edge_stream(const snap::CSRGraph& g,
                                  std::uint64_t seed) {
  std::vector<EdgePair> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (snap::vid_t v = 0; v < g.num_vertices(); ++v)
    for (const snap::vid_t u : g.neighbors(v))
      if (u < v) edges.push_back({v, u});
  snap::SplitMix64 rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1],
              edges[static_cast<std::size_t>(
                  rng.next_bounded(static_cast<std::uint64_t>(i)))]);
  return edges;
}

std::vector<Batch> make_batches(const std::vector<EdgePair>& edges,
                                std::size_t begin, std::size_t end,
                                std::size_t batch_edges) {
  std::vector<Batch> out;
  for (std::size_t at = begin; at < end; at += batch_edges) {
    const std::size_t hi = std::min(at + batch_edges, end);
    Batch& b = out.emplace_back();
    b.edges = hi - at;
    b.body.reserve(b.edges * 48 + 16);
    b.body = "{\"updates\":[";
    for (std::size_t i = at; i < hi; ++i) {
      if (i > at) b.body += ',';
      b.body += "{\"op\":\"insert\",\"u\":" + std::to_string(edges[i].u) +
                ",\"v\":" + std::to_string(edges[i].v) +
                ",\"time\":" + std::to_string(i) + '}';
      b.updates.insert(edges[i].u, edges[i].v, i);
    }
    b.body += "]}";
  }
  return out;
}

std::vector<snap::vid_t> giant_sample(const snap::CSRGraph& g,
                                      const snap::Components& cc,
                                      std::size_t count, std::uint64_t seed) {
  const snap::vid_t giant = cc.giant();
  std::vector<snap::vid_t> members;
  for (snap::vid_t v = 0; v < g.num_vertices(); ++v)
    if (cc.label[static_cast<std::size_t>(v)] == giant) members.push_back(v);
  snap::SplitMix64 rng(seed);
  count = std::min(count, members.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_bounded(members.size() - i));
    std::swap(members[i], members[j]);
  }
  members.resize(count);
  return members;
}

}  // namespace perfbench
