#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/io/dimacs_io.hpp"
#include "snap/io/edge_list_io.hpp"
#include "snap/io/metis_io.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / ("snap_io_" + name))
        .string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

void expect_same_graph(const CSRGraph& a, const CSRGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (const Edge& e : a.edges()) {
    EXPECT_TRUE(b.has_edge(e.u, e.v)) << e.u << "-" << e.v;
  }
}

TEST_F(IoTest, EdgeListRoundtrip) {
  const auto g = gen::karate_club();
  const auto p = track(path("karate.txt"));
  io::write_edge_list(g, p);
  const auto back = io::read_edge_list_graph(p, /*directed=*/false);
  expect_same_graph(g, back);
}

TEST_F(IoTest, EdgeListParsesCommentsAndWeights) {
  const auto p = track(path("mini.txt"));
  {
    std::ofstream out(p);
    out << "# a comment\n# nodes: 6\n0 1 2.5\n1 2\n";
  }
  const auto parsed = io::read_edge_list(p);
  EXPECT_EQ(parsed.n, 6);
  ASSERT_EQ(parsed.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.edges[0].w, 2.5);
  EXPECT_DOUBLE_EQ(parsed.edges[1].w, 1.0);
}

TEST_F(IoTest, EdgeListSkipsPercentComments) {
  const auto p = track(path("konect.txt"));
  {
    std::ofstream out(p);
    out << "% KONECT header\n%\n0 1\n  % indented comment\n1 2\n";
  }
  const auto parsed = io::read_edge_list(p);
  ASSERT_EQ(parsed.edges.size(), 2u);
  EXPECT_EQ(parsed.n, 3);
}

TEST_F(IoTest, CommentsAcrossChunkBoundariesParseIdentically) {
  // Build a file comfortably above the parallel-parse cutoff (64 KiB) with
  // '#' and '%' comment lines and blanks sprinkled densely, so for every
  // thread count some chunk boundary lands inside or right next to a comment.
  const auto p = track(path("chunky.txt"));
  eid_t expected_edges = 0;
  {
    std::ofstream out(p);
    out << "# nodes: 5000\n";
    for (int i = 0; i < 12000; ++i) {
      if (i % 5 == 0) out << "# comment line " << i << " with some padding\n";
      if (i % 7 == 0) out << "% konect-style comment " << i << "\n";
      if (i % 11 == 0) out << "\n";
      out << i % 4000 << ' ' << (i + 1) % 4000 << '\n';
      ++expected_edges;
    }
  }
  ASSERT_GT(std::filesystem::file_size(p), 65536u) << "below parallel cutoff";

  parallel::ThreadScope serial_scope(1);
  const auto ref = io::read_edge_list(p);
  ASSERT_EQ(ref.edges.size(), static_cast<std::size_t>(expected_edges));
  EXPECT_EQ(ref.n, 5000);
  for (int t : {2, 4, 8}) {
    parallel::ThreadScope scope(t);
    const auto got = io::read_edge_list(p);
    ASSERT_EQ(got.n, ref.n) << "threads=" << t;
    ASSERT_EQ(got.edges.size(), ref.edges.size()) << "threads=" << t;
    for (std::size_t i = 0; i < ref.edges.size(); ++i) {
      ASSERT_EQ(got.edges[i].u, ref.edges[i].u) << "i=" << i;
      ASSERT_EQ(got.edges[i].v, ref.edges[i].v) << "i=" << i;
    }
  }
}

TEST_F(IoTest, EdgeListMissingFileThrows) {
  EXPECT_THROW(io::read_edge_list("/nonexistent/file.txt"),
               std::runtime_error);
}

TEST_F(IoTest, EdgeListNoTrailingNewlineAndCrLf) {
  const auto p = track(path("crlf.txt"));
  {
    std::ofstream out(p, std::ios::binary);
    out << "0 1 2.0\r\n1 2\r\n2 3 0.5";  // CRLF endings, no final newline
  }
  const auto parsed = io::read_edge_list(p);
  ASSERT_EQ(parsed.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.edges[0].w, 2.0);
  EXPECT_DOUBLE_EQ(parsed.edges[1].w, 1.0);
  EXPECT_DOUBLE_EQ(parsed.edges[2].w, 0.5);
  EXPECT_EQ(parsed.n, 4);
}

TEST_F(IoTest, EdgeListMalformedLineThrows) {
  const auto p = track(path("bad_line.txt"));
  {
    std::ofstream out(p);
    out << "0 1\nnot an edge\n2 3\n";
  }
  EXPECT_THROW(io::read_edge_list(p), std::runtime_error);
}

TEST_F(IoTest, ChunkParallelParseMatchesSerialParse) {
  // A file big enough to engage the chunk-parallel parser (> 64 KiB), with
  // comments sprinkled through it; every thread count must parse the exact
  // same edges in the exact same order.
  const auto p = track(path("big.txt"));
  constexpr int kLines = 20000;
  {
    std::ofstream out(p);
    out << "# nodes: 5000\n";
    for (int i = 0; i < kLines; ++i) {
      if (i % 500 == 0) out << "# checkpoint " << i << "\n";
      out << (i % 5000) << ' ' << ((i * 7 + 1) % 5000) << ' '
          << (1.0 + i % 3) << "\n";
    }
  }
  parallel::ThreadScope serial_scope(1);
  const auto ref = io::read_edge_list(p);
  ASSERT_EQ(ref.edges.size(), static_cast<std::size_t>(kLines));
  EXPECT_EQ(ref.n, 5000);
  for (int t : {2, 4, 8}) {
    parallel::ThreadScope scope(t);
    const auto got = io::read_edge_list(p);
    ASSERT_EQ(got.edges.size(), ref.edges.size()) << "threads " << t;
    EXPECT_EQ(got.n, ref.n) << "threads " << t;
    for (std::size_t i = 0; i < ref.edges.size(); ++i)
      ASSERT_EQ(got.edges[i], ref.edges[i]) << "threads " << t << " line " << i;
  }
}

TEST_F(IoTest, LargeRoundtripThroughParallelReader) {
  const auto g = gen::erdos_renyi(2000, 30000, /*directed=*/false, 17);
  const auto p = track(path("roundtrip_big.txt"));
  io::write_edge_list(g, p);
  parallel::ThreadScope scope(8);
  const auto back = io::read_edge_list_graph(p, /*directed=*/false);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  expect_same_graph(g, back);
}

TEST_F(IoTest, DimacsRoundtrip) {
  EdgeList edges{{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 7.0}};
  const auto g = CSRGraph::from_edges(4, edges, /*directed=*/true);
  const auto p = track(path("g.dimacs"));
  io::write_dimacs(g, p);
  const auto back = io::read_dimacs(p, /*directed=*/true);
  expect_same_graph(g, back);
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), 11.0);
}

TEST_F(IoTest, DimacsMissingHeaderThrows) {
  const auto p = track(path("bad.dimacs"));
  {
    std::ofstream out(p);
    out << "a 1 2 3\n";
  }
  EXPECT_THROW(io::read_dimacs(p), std::runtime_error);
}

TEST_F(IoTest, MetisRoundtrip) {
  const auto g = gen::karate_club();
  const auto p = track(path("karate.graph"));
  io::write_metis(g, p);
  const auto back = io::read_metis(p);
  expect_same_graph(g, back);
}

TEST_F(IoTest, MetisWeightedRoundtrip) {
  EdgeList edges{{0, 1, 3.0}, {1, 2, 2.0}};
  const auto g = CSRGraph::from_edges(3, edges, false);
  const auto p = track(path("w.graph"));
  io::write_metis(g, p);
  const auto back = io::read_metis(p);
  expect_same_graph(g, back);
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), 5.0);
}

TEST_F(IoTest, MetisRejectsDirected) {
  const auto g =
      CSRGraph::from_edges(2, {{0, 1, 1.0}}, /*directed=*/true);
  EXPECT_THROW(io::write_metis(g, path("d.graph")), std::invalid_argument);
}

TEST_F(IoTest, BinaryRoundtripLarge) {
  gen::RmatParams rp;
  rp.scale = 10;
  rp.edge_factor = 8;
  const auto g = gen::rmat(rp);
  const auto p = track(path("rmat.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.directed(), g.directed());
  expect_same_graph(g, back);
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  const auto p = track(path("garbage.bin"));
  {
    std::ofstream out(p, std::ios::binary);
    out << "not a snap binary file at all";
  }
  EXPECT_THROW(io::read_binary(p), std::runtime_error);
}

TEST_F(IoTest, BinaryPreservesDirectedness) {
  const auto g = CSRGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}},
                                      /*directed=*/true);
  const auto p = track(path("dir.bin"));
  io::write_binary(g, p);
  EXPECT_TRUE(io::read_binary(p).directed());
}

// ----------------------------------------------------- malformed inputs

TEST_F(IoTest, EdgeListGarbageLineThrows) {
  const auto p = track(path("garbage.txt"));
  {
    std::ofstream out(p);
    out << "0 1\nnot numbers at all\n";
  }
  EXPECT_THROW(io::read_edge_list(p), std::runtime_error);
}

TEST_F(IoTest, MetisTruncatedThrows) {
  const auto p = track(path("trunc.graph"));
  {
    std::ofstream out(p);
    out << "5 4\n2 3\n";  // promises 5 vertex lines, delivers 1
  }
  EXPECT_THROW(io::read_metis(p), std::runtime_error);
}

TEST_F(IoTest, BinaryTruncatedThrows) {
  const auto g = gen::karate_club();
  const auto p = track(path("short.bin"));
  io::write_binary(g, p);
  // Chop the file in half.
  const auto full = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, full / 2);
  EXPECT_THROW(io::read_binary(p), std::runtime_error);
}

TEST_F(IoTest, EmptyGraphRoundtrips) {
  const auto g = CSRGraph::from_edges(7, {}, false);
  const auto p = track(path("empty.txt"));
  io::write_edge_list(g, p);
  const auto back = io::read_edge_list_graph(p, false);
  EXPECT_EQ(back.num_vertices(), 7);
  EXPECT_EQ(back.num_edges(), 0);
}

// ------------------------------------------- binary v2 format specifics

TEST_F(IoTest, BinaryV2PreservesWeightsAndEdgeIds) {
  EdgeList edges{{0, 2, 3.5}, {1, 2, 0.25}, {0, 1, -1.0}};
  const auto g = CSRGraph::from_edges(4, edges, false);
  const auto p = track(path("v2w.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  expect_same_graph(g, back);
  EXPECT_TRUE(back.weighted());
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), g.total_edge_weight());
  // Edge ids and per-arc weights survive the raw-array round trip.
  ASSERT_EQ(back.edges().size(), g.edges().size());
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    EXPECT_EQ(back.edges()[e].u, g.edges()[e].u);
    EXPECT_EQ(back.edges()[e].v, g.edges()[e].v);
    EXPECT_DOUBLE_EQ(back.edges()[e].w, g.edges()[e].w);
  }
}

TEST_F(IoTest, BinaryV2ChecksumCorruptionRejected) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.edge_factor = 8;
  const auto g = gen::rmat(rp);
  const auto p = track(path("corrupt.bin"));
  io::write_binary(g, p);
  {
    // Flip one payload byte past the 48-byte v2 header.
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(48 + 100);
    char c = 0;
    f.read(&c, 1);
    f.seekp(48 + 100);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  try {
    io::read_binary(p);
    FAIL() << "corrupted file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, BinaryV2FutureVersionRejected) {
  const auto g = gen::path_graph(5);
  const auto p = track(path("future.bin"));
  io::write_binary(g, p);
  {
    // Bump the version field (bytes 8..11 of the header).
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t future = 99;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  try {
    io::read_binary(p);
    FAIL() << "future-version file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

/// Overwrite the i64 at `payload_offset` (bytes past the 48-byte v2
/// header) and recompute the FNV-1a checksum (header bytes 40..47), so the
/// file passes every integrity check and only its contents are wrong.
void patch_payload_i64(const std::string& p, std::size_t payload_offset,
                       std::int64_t value) {
  std::vector<char> bytes;
  {
    std::ifstream in(p, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kHeader = 48;
  ASSERT_LE(kHeader + payload_offset + 8, bytes.size());
  std::memcpy(bytes.data() + kHeader + payload_offset, &value, 8);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = kHeader; i < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + 40, &h, 8);
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(IoTest, BinaryV2RejectsOutOfRangeContents) {
  // Path 0-1-2-3, unweighted: n = 4, m = 3, 6 arcs.  Payload layout:
  // offsets {0,1,3,5,6} at 0, adjacency at 40, arc edge ids at 88, edge
  // endpoint pairs at 136.
  const auto g = gen::path_graph(4);
  ASSERT_FALSE(g.weighted());
  ASSERT_EQ(std::vector<eid_t>(g.row_offsets().begin(), g.row_offsets().end()),
            (std::vector<eid_t>{0, 1, 3, 5, 6}));
  struct Case {
    const char* name;
    std::size_t offset;
    std::int64_t value;
    const char* message;
  };
  const Case cases[] = {
      {"offsets", 8, 4, "offsets decrease"},  // {0,4,3,5,6}
      {"adjacency", 40, 1000000, "neighbor id"},
      {"adjacency-negative", 48, -1, "neighbor id"},
      {"arc-edge-ids", 88, 3, "arc edge id"},  // == m
      {"edge-endpoints", 136, 4, "edge endpoint"},  // == n
  };
  for (const Case& c : cases) {
    const auto p = track(path(std::string("range_") + c.name + ".bin"));
    io::write_binary(g, p);
    patch_payload_i64(p, c.offset, c.value);
    try {
      io::read_binary(p);
      ADD_FAILURE() << c.name << ": out-of-range file was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

TEST_F(IoTest, BinaryLegacyV1StillReads) {
  // Hand-crafted SNAPB1 bytes: 32-byte header {magic, n, m, directed, pad}
  // followed by m {i64 u, i64 v, f64 w} records — the exact layout every
  // pre-v2 snapshot on disk has.
  const auto p = track(path("legacy.bin"));
  {
    std::ofstream out(p, std::ios::binary);
    const char magic[8] = {'S', 'N', 'A', 'P', 'B', '1', '\n', '\0'};
    out.write(magic, 8);
    const std::int64_t n = 3, m = 2;
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    const char directed_and_pad[8] = {0};
    out.write(directed_and_pad, 8);
    const std::int64_t e0[2] = {0, 1}, e1[2] = {1, 2};
    const double w0 = 1.0, w1 = 2.5;
    out.write(reinterpret_cast<const char*>(e0), 16);
    out.write(reinterpret_cast<const char*>(&w0), 8);
    out.write(reinterpret_cast<const char*>(e1), 16);
    out.write(reinterpret_cast<const char*>(&w1), 8);
  }
  const auto g = io::read_binary(p);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.directed());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.5);
}

TEST_F(IoTest, BinaryV2EmptyAndEdgelessGraphs) {
  const auto g = CSRGraph::from_edges(9, {}, false);
  const auto p = track(path("v2empty.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  EXPECT_EQ(back.num_vertices(), 9);
  EXPECT_EQ(back.num_edges(), 0);
}

TEST_F(IoTest, LargeIdsSurviveAllFormats) {
  // Sparse ids near the top of the declared range.
  EdgeList edges{{99998, 99999, 2.0}, {0, 99999, 1.0}};
  const auto g = CSRGraph::from_edges(100000, edges, false);
  const auto p1 = track(path("big.txt"));
  io::write_edge_list(g, p1);
  EXPECT_EQ(io::read_edge_list_graph(p1, false).num_edges(), 2);
  const auto p2 = track(path("big.bin"));
  io::write_binary(g, p2);
  EXPECT_EQ(io::read_binary(p2).num_vertices(), 100000);
}

}  // namespace
}  // namespace snap
