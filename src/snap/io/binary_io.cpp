#include "snap/io/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "snap/util/parallel.hpp"

namespace snap::io {

namespace {

constexpr char kMagicV1[8] = {'S', 'N', 'A', 'P', 'B', '1', '\n', '\0'};
constexpr char kMagicV2[8] = {'S', 'N', 'A', 'P', 'B', '2', '\n', '\0'};

// Legacy (v1) layout: 32-byte header + m RawEdge records.
struct HeaderV1 {
  char magic[8];
  std::int64_t n;
  std::int64_t m;
  std::uint8_t directed;
  std::uint8_t pad[7];
};
static_assert(sizeof(HeaderV1) == 32);

struct RawEdge {
  std::int64_t u, v;
  double w;
};
static_assert(sizeof(RawEdge) == 24);

// Flag bits of HeaderV2::flags.
constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::uint32_t kFlagWeighted = 1u << 1;
constexpr std::uint32_t kFlagSorted = 1u << 2;

/// v2 layout: this header, then the payload arrays in order — offsets
/// (n+1 x i64), adjacency (arcs x i64), arc edge ids (arcs x i64), arc
/// weights (arcs x f64, weighted only), logical edges (m x RawEdge when
/// weighted, m x {i64 u, i64 v} otherwise).  `checksum` is FNV-1a over the
/// payload bytes in that exact order.
struct HeaderV2 {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::int64_t n;
  std::int64_t m;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(HeaderV2) == 48);

class Fnv1a {
 public:
  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = hash_;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
    hash_ = h;
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("binary graph: " + what + ": " + path);
}

void write_all(std::ofstream& out, const void* data, std::size_t len) {
  if (len == 0) return;
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len));
}

void read_all(std::ifstream& in, void* data, std::size_t len,
              const std::string& path) {
  if (len == 0) return;
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (!in) fail("truncated file", path);
}

/// One unsigned compare catches negative ids as well as ids >= bound.
bool outside(std::int64_t x, std::size_t bound) {
  return static_cast<std::uint64_t>(x) >= bound;
}

bool any_outside(const std::vector<std::int64_t>& a, std::size_t bound) {
  return parallel::parallel_reduce_sum<std::size_t>(
             static_cast<std::int64_t>(a.size()), [&](std::int64_t i) {
               return static_cast<std::size_t>(
                   outside(a[static_cast<std::size_t>(i)], bound));
             }) != 0;
}

CSRGraph read_binary_v1(std::ifstream& in, const HeaderV1& h,
                        const std::string& path) {
  if (h.n < 0 || h.m < 0) fail("bad header (negative n or m)", path);
  EdgeList edges(static_cast<std::size_t>(h.m));
  for (auto& e : edges) {
    RawEdge r{};
    read_all(in, &r, sizeof(r), path);
    e = Edge{r.u, r.v, r.w};
  }
  return CSRGraph::from_edges(h.n, edges, h.directed != 0);
}

CSRGraph read_binary_v2(std::ifstream& in, const HeaderV2& h,
                        const std::string& path) {
  if (h.version != kBinaryFormatVersion)
    fail("unsupported format version " + std::to_string(h.version) +
             " (this build reads version " +
             std::to_string(kBinaryFormatVersion) + ")",
         path);
  if (h.n < 0 || h.m < 0) fail("bad header (negative n or m)", path);
  const bool directed = (h.flags & kFlagDirected) != 0;
  const bool weighted = (h.flags & kFlagWeighted) != 0;
  const bool sorted = (h.flags & kFlagSorted) != 0;
  const auto n = static_cast<std::size_t>(h.n);
  const auto m = static_cast<std::size_t>(h.m);
  const std::size_t arcs = directed ? m : 2 * m;

  std::vector<eid_t> offsets(n + 1);
  std::vector<vid_t> adj(arcs);
  std::vector<eid_t> arc_edge_ids(arcs);
  std::vector<weight_t> weights;
  EdgeList edges(m);

  Fnv1a sum;
  std::uint64_t payload = 0;
  auto consume = [&](void* data, std::size_t len) {
    read_all(in, data, len, path);
    sum.update(data, len);
    payload += len;
  };
  bool bad_endpoint = false;

  consume(offsets.data(), offsets.size() * sizeof(eid_t));
  consume(adj.data(), adj.size() * sizeof(vid_t));
  consume(arc_edge_ids.data(), arc_edge_ids.size() * sizeof(eid_t));
  if (weighted) {
    weights.resize(arcs);
    consume(weights.data(), weights.size() * sizeof(weight_t));
    std::vector<RawEdge> raw(m);
    consume(raw.data(), raw.size() * sizeof(RawEdge));
    for (std::size_t e = 0; e < m; ++e) {
      edges[e] = Edge{raw[e].u, raw[e].v, raw[e].w};
      bad_endpoint |= outside(raw[e].u, n) | outside(raw[e].v, n);
    }
  } else {
    weights.assign(arcs, 1.0);
    std::vector<std::int64_t> raw(2 * m);
    consume(raw.data(), raw.size() * sizeof(std::int64_t));
    for (std::size_t e = 0; e < m; ++e) {
      edges[e] = Edge{raw[2 * e], raw[2 * e + 1], 1.0};
      bad_endpoint |= outside(raw[2 * e], n) | outside(raw[2 * e + 1], n);
    }
  }

  if (payload != h.payload_bytes)
    fail("payload size mismatch (header says " +
             std::to_string(h.payload_bytes) + " bytes, file holds " +
             std::to_string(payload) + ")",
         path);
  if (sum.hash() != h.checksum)
    fail("FNV-1a checksum mismatch (file corrupt)", path);

  // A matching checksum proves the bytes intact, not that they form a
  // graph: kernels index through these arrays unchecked, so every range is
  // checked here.  Monotone offsets from 0 to arcs keep every row in bounds.
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<eid_t>(arcs))
    fail("offsets array does not cover the adjacency", path);
  if (parallel::parallel_reduce_sum<std::size_t>(h.n, [&](std::int64_t v) {
        const auto sv = static_cast<std::size_t>(v);
        return static_cast<std::size_t>(offsets[sv] > offsets[sv + 1]);
      }) != 0)
    fail("offsets decrease", path);
  if (any_outside(adj, n)) fail("neighbor id outside [0, n)", path);
  if (any_outside(arc_edge_ids, m)) fail("arc edge id outside [0, m)", path);
  if (bad_endpoint) fail("edge endpoint outside [0, n)", path);

  return CSRGraph::from_parts(h.n, h.m, directed, weighted, sorted,
                              std::move(offsets), std::move(adj),
                              std::move(weights), std::move(arc_edge_ids),
                              std::move(edges));
}

}  // namespace

void write_binary(const CSRGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for writing", path);

  const auto offsets = g.row_offsets();
  const auto adj = g.adjacency();
  const auto ids = g.arc_edge_id_array();
  const auto weights = g.arc_weights();
  const auto& edges = g.edges();
  const auto m = static_cast<std::size_t>(g.num_edges());

  // Flatten the logical edge list once; it doubles as checksum input.
  std::vector<RawEdge> raw_weighted;
  std::vector<std::int64_t> raw_unweighted;
  if (g.weighted()) {
    raw_weighted.resize(m);
    for (std::size_t e = 0; e < m; ++e)
      raw_weighted[e] = RawEdge{edges[e].u, edges[e].v, edges[e].w};
  } else {
    raw_unweighted.resize(2 * m);
    for (std::size_t e = 0; e < m; ++e) {
      raw_unweighted[2 * e] = edges[e].u;
      raw_unweighted[2 * e + 1] = edges[e].v;
    }
  }

  Fnv1a sum;
  std::uint64_t payload = 0;
  auto tally = [&](const void* data, std::size_t len) {
    sum.update(data, len);
    payload += len;
  };
  tally(offsets.data(), offsets.size() * sizeof(eid_t));
  tally(adj.data(), adj.size() * sizeof(vid_t));
  tally(ids.data(), ids.size() * sizeof(eid_t));
  if (g.weighted()) {
    tally(weights.data(), weights.size() * sizeof(weight_t));
    tally(raw_weighted.data(), raw_weighted.size() * sizeof(RawEdge));
  } else {
    tally(raw_unweighted.data(),
          raw_unweighted.size() * sizeof(std::int64_t));
  }

  HeaderV2 h{};
  std::memcpy(h.magic, kMagicV2, sizeof(kMagicV2));
  h.version = kBinaryFormatVersion;
  h.flags = (g.directed() ? kFlagDirected : 0u) |
            (g.weighted() ? kFlagWeighted : 0u) |
            (g.adjacency_sorted() ? kFlagSorted : 0u);
  h.n = g.num_vertices();
  h.m = g.num_edges();
  h.payload_bytes = payload;
  h.checksum = sum.hash();

  write_all(out, &h, sizeof(h));
  write_all(out, offsets.data(), offsets.size() * sizeof(eid_t));
  write_all(out, adj.data(), adj.size() * sizeof(vid_t));
  write_all(out, ids.data(), ids.size() * sizeof(eid_t));
  if (g.weighted()) {
    write_all(out, weights.data(), weights.size() * sizeof(weight_t));
    write_all(out, raw_weighted.data(),
              raw_weighted.size() * sizeof(RawEdge));
  } else {
    write_all(out, raw_unweighted.data(),
              raw_unweighted.size() * sizeof(std::int64_t));
  }
  if (!out) fail("write failed", path);
}

CSRGraph read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open", path);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in) fail("truncated header", path);

  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    HeaderV1 h{};
    std::memcpy(h.magic, magic, sizeof(magic));
    read_all(in, reinterpret_cast<char*>(&h) + sizeof(magic),
             sizeof(h) - sizeof(magic), path);
    return read_binary_v1(in, h, path);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    HeaderV2 h{};
    std::memcpy(h.magic, magic, sizeof(magic));
    read_all(in, reinterpret_cast<char*>(&h) + sizeof(magic),
             sizeof(h) - sizeof(magic), path);
    return read_binary_v2(in, h, path);
  }
  fail("unrecognized magic (not a SNAP binary graph)", path);
}

}  // namespace snap::io
