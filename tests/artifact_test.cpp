#include "serve/artifact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "triangle/enumerate.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace xd::serve {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// The golden enumeration fixture (golden_test.cpp): gnp(60, 0.2, Rng(31)),
/// TreeRouter backend, build seed 17.
Graph golden_graph() {
  Rng rng(31);
  return gen::gnp(60, 0.2, rng);
}

PrepareParams golden_params(int scheduler_threads) {
  PrepareParams prm;
  prm.enumerate.backend = triangle::RouterBackend::kTree;
  prm.enumerate.scheduler_threads = scheduler_threads;
  return prm;
}

std::uint64_t triangle_hash(const PreparedArtifact& art) {
  std::uint64_t h = 0;
  for (const auto& t : art.triangles) {
    h = mix(h, t[0]);
    h = mix(h, t[1]);
    h = mix(h, t[2]);
  }
  return h;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void patch(std::vector<unsigned char>& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

template <typename T>
T peek(const std::vector<unsigned char>& bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

constexpr std::size_t kHeader = 32;
constexpr std::size_t kEntry = 24;
constexpr std::size_t kCrcAt = 24;

/// Re-computes the whole-file checksum the way save_artifact does (CRC-32C
/// over the file with its slot zeroed), so a patched file gets past the
/// checksum to the structural validator under test.
void reseal(std::vector<unsigned char>& bytes) {
  patch<std::uint64_t>(bytes, kCrcAt, 0);
  patch<std::uint64_t>(bytes, kCrcAt, crc32c(bytes.data(), bytes.size()));
}

std::size_t section_offset(const std::vector<unsigned char>& bytes,
                           std::size_t s) {
  return static_cast<std::size_t>(
      peek<std::uint64_t>(bytes, kHeader + s * kEntry + 8));
}

std::size_t section_size(const std::vector<unsigned char>& bytes,
                         std::size_t s) {
  return static_cast<std::size_t>(
      peek<std::uint64_t>(bytes, kHeader + s * kEntry + 16));
}

/// Small deterministic fixture with triangles and two far-apart regions: a
/// K5 bridged to a 5-path.
Graph small_graph() {
  GraphBuilder b(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.add_edge(u, v);
  }
  for (VertexId v = 5; v < 9; ++v) b.add_edge(v, v + 1);
  b.add_edge(4, 5);
  return b.build();
}

// ------------------------------------------------------ golden conformance

TEST(Artifact, PrepareMatchesGoldenPinsAtEveryThreadCount) {
  const Graph g = golden_graph();
  PreparedArtifact base;
  bool have_base = false;
  for (const int threads : {0, 1, 2, 8}) {
    const auto art = prepare_artifact(g, golden_params(threads));
    // The golden enumeration pins carry through the prepare pipeline
    // unchanged: prepare draws the enumeration stream from a fresh
    // Rng(seed), exactly like a direct enumerate_congest call.
    EXPECT_EQ(art.triangles.size(), 240u) << "threads=" << threads;
    EXPECT_EQ(triangle_hash(art), 2309664143457515940ULL)
        << "threads=" << threads;
    EXPECT_EQ(art.enum_rounds, 3535u) << "threads=" << threads;
    EXPECT_EQ(art.seed, 17u);
    if (!have_base) {
      base = art;
      have_base = true;
      continue;
    }
    // Thread count shapes wall-clock only: every captured structure is
    // bit-identical (build_rounds excepted -- sequential execution sums
    // rounds where the scheduler charges per-epoch maxima).
    EXPECT_EQ(art.component, base.component) << "threads=" << threads;
    EXPECT_EQ(art.removed_edge, base.removed_edge) << "threads=" << threads;
    EXPECT_EQ(art.num_components, base.num_components);
    EXPECT_EQ(art.relay_parent, base.relay_parent) << "threads=" << threads;
    EXPECT_EQ(art.relay_depth, base.relay_depth) << "threads=" << threads;
    EXPECT_EQ(art.portals, base.portals) << "threads=" << threads;
    EXPECT_EQ(art.triangles, base.triangles) << "threads=" << threads;
    EXPECT_EQ(art.build_messages, base.build_messages)
        << "threads=" << threads;
  }
}

TEST(Artifact, ReloadedArtifactKeepsTheGoldenPins) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  const std::string path = tmp_path("golden.xda");
  save_artifact(art, path);
  const auto back = load_artifact(path);
  EXPECT_EQ(back.triangles.size(), 240u);
  EXPECT_EQ(triangle_hash(back), 2309664143457515940ULL);
  EXPECT_EQ(back.enum_rounds, 3535u);
  EXPECT_EQ(back.component, art.component);
  EXPECT_EQ(back.build_rounds, art.build_rounds);
}

TEST(Artifact, PrepareSharesItsDecompositionWithTheorem2) {
  // prepare decomposes once: its serving partition is Theorem 2's level 0,
  // so the triangle plane and its rounds are a direct enumerate_congest
  // call's, and the whole prepare charges exactly those rounds.
  const Graph g = golden_graph();
  for (const int threads : {0, 1, 2, 8}) {
    const PrepareParams prm = golden_params(threads);
    const auto art = prepare_artifact(g, prm);
    Rng rng(prm.seed);
    congest::RoundLedger ledger;
    const auto direct =
        triangle::enumerate_congest(g, prm.enumerate, rng, ledger);
    EXPECT_EQ(art.triangles, direct.triangles) << "threads=" << threads;
    EXPECT_EQ(art.enum_rounds, direct.rounds) << "threads=" << threads;
    EXPECT_EQ(art.build_rounds, art.enum_rounds) << "threads=" << threads;
  }
}

TEST(Artifact, SimpleParallelPrepareEnumeratesExactly) {
  PrepareParams prm = golden_params(2);
  prm.decomp_backend = expander::DecompositionBackend::kSimpleParallel;
  for (const Graph& g : {golden_graph(), small_graph()}) {
    const auto art = prepare_artifact(g, prm);
    auto exact = triangles_exact(g);
    std::sort(exact.begin(), exact.end());
    EXPECT_EQ(art.triangles, exact);
    EXPECT_EQ(art.build_rounds, art.enum_rounds);
  }
}

// ------------------------------------------------------------- round trip

TEST(Artifact, SaveLoadSaveIsByteStable) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  const std::string p1 = tmp_path("rt1.xda");
  const std::string p2 = tmp_path("rt2.xda");
  save_artifact(art, p1);
  const auto back = load_artifact(p1);
  save_artifact(back, p2);
  EXPECT_EQ(read_file(p1), read_file(p2));
}

TEST(Artifact, RoundTripPreservesEveryField) {
  const auto art = prepare_artifact(small_graph(), golden_params(0));
  const std::string path = tmp_path("small.xda");
  save_artifact(art, path);
  const auto back = load_artifact(path);
  EXPECT_EQ(back.graph.num_vertices(), art.graph.num_vertices());
  EXPECT_EQ(back.graph.num_edges(), art.graph.num_edges());
  for (EdgeId e = 0; e < art.graph.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge(e), art.graph.edge(e));
  }
  EXPECT_EQ(back.component, art.component);
  EXPECT_EQ(back.num_components, art.num_components);
  EXPECT_EQ(back.removed_edge, art.removed_edge);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(back.removed_by[r], art.removed_by[r]);
  ASSERT_EQ(back.components.size(), art.components.size());
  for (std::size_t c = 0; c < art.components.size(); ++c) {
    EXPECT_EQ(back.components[c].root, art.components[c].root);
    EXPECT_EQ(back.components[c].size, art.components[c].size);
    EXPECT_EQ(back.components[c].volume, art.components[c].volume);
    EXPECT_EQ(back.components[c].cut, art.components[c].cut);
    EXPECT_EQ(back.components[c].internal_edges,
              art.components[c].internal_edges);
    EXPECT_EQ(back.components[c].conductance, art.components[c].conductance);
    EXPECT_EQ(back.components[c].balance, art.components[c].balance);
    EXPECT_EQ(back.components[c].height, art.components[c].height);
    EXPECT_EQ(back.components[c].beta, art.components[c].beta);
  }
  EXPECT_EQ(back.router_depth, art.router_depth);
  EXPECT_EQ(back.relay_parent, art.relay_parent);
  EXPECT_EQ(back.relay_depth, art.relay_depth);
  EXPECT_EQ(back.portals, art.portals);
  EXPECT_EQ(back.triangles, art.triangles);
  EXPECT_EQ(back.epsilon, art.epsilon);
  EXPECT_EQ(back.k, art.k);
  EXPECT_EQ(back.phi0, art.phi0);
  EXPECT_EQ(back.backend, art.backend);
  EXPECT_EQ(back.decomp_backend, art.decomp_backend);
  EXPECT_EQ(back.seed, art.seed);
  EXPECT_EQ(back.build_rounds, art.build_rounds);
  EXPECT_EQ(back.build_messages, art.build_messages);
  EXPECT_EQ(back.enum_rounds, art.enum_rounds);
  EXPECT_EQ(back.router_queries, art.router_queries);
  EXPECT_EQ(back.enum_levels, art.enum_levels);
  EXPECT_EQ(back.clusters_processed, art.clusters_processed);
  // The derived incidence index is rebuilt on load.
  EXPECT_EQ(back.tri_offsets, art.tri_offsets);
  EXPECT_EQ(back.tri_ids, art.tri_ids);
}

TEST(Artifact, DecompositionBackendRoundTripsThroughMeta) {
  // The selector lands in the META section: a simple-parallel build
  // reloads as simple-parallel, a default build reloads as nibble.
  PrepareParams prm = golden_params(0);
  prm.decomp_backend = expander::DecompositionBackend::kSimpleParallel;
  const auto art = prepare_artifact(small_graph(), prm);
  EXPECT_EQ(art.decomp_backend, 1);
  const std::string path = tmp_path("backend.xda");
  save_artifact(art, path);
  const auto back = load_artifact(path);
  EXPECT_EQ(back.decomp_backend, 1);
  EXPECT_STREQ(expander::to_string(static_cast<expander::DecompositionBackend>(
                   back.decomp_backend)),
               "simple-parallel");

  const auto def = prepare_artifact(small_graph(), golden_params(0));
  EXPECT_EQ(def.decomp_backend, 0);
  EXPECT_STREQ(expander::to_string(static_cast<expander::DecompositionBackend>(
                   def.decomp_backend)),
               "nibble");
}

TEST(Artifact, DerivedSummariesMatchIndependentOracles) {
  // Stats, relay forests and portal counts are rebuilt on load; check the
  // reloaded values against the graph/metrics oracles, not against prepare.
  // The fixtures above decompose into one component each; the clique chain
  // splits into four, so cuts and balances are nonzero too.
  for (const Graph& g :
       {small_graph(), golden_graph(), gen::clique_chain(4, 10)}) {
    const std::string path = tmp_path("oracle.xda");
    save_artifact(prepare_artifact(g, golden_params(0)), path);
    const auto art = load_artifact(path);
    const std::uint32_t depth = art.router_depth;
    ASSERT_EQ(art.components.size(), art.num_components);
    ASSERT_EQ(art.portals.size(), std::size_t{art.num_components} * depth);
    for (std::uint32_t c = 0; c < art.num_components; ++c) {
      std::vector<VertexId> members;
      for (VertexId v = 0; v < art.graph.num_vertices(); ++v) {
        if (art.component[v] == c) members.push_back(v);
      }
      const VertexSet s(members);
      const ComponentInfo& info = art.components[c];
      EXPECT_EQ(info.size, members.size()) << "c=" << c;
      if (!members.empty()) {
        EXPECT_EQ(info.root, members.front()) << "c=" << c;
      }
      EXPECT_EQ(info.volume, volume(art.graph, s)) << "c=" << c;
      EXPECT_EQ(info.cut, cut_size(art.graph, s)) << "c=" << c;
      EXPECT_EQ(info.conductance, conductance(art.graph, s)) << "c=" << c;
      EXPECT_EQ(info.balance, balance(art.graph, s)) << "c=" << c;

      // Live intra-component edges: the component's view under the
      // removed overlay.
      const GraphView view(art.graph, &art.removed_edge, s);
      const std::uint64_t m_c = view.num_nonloop_edges();
      EXPECT_EQ(info.internal_edges, m_c) << "c=" << c;
      std::uint32_t height = 0;
      for (const VertexId v : members) {
        VertexId root = v;
        while (art.relay_parent[root] != root) root = art.relay_parent[root];
        EXPECT_EQ(art.relay_depth[v], bfs_distances(view, root)[v])
            << "v=" << v;
        height = std::max(height, art.relay_depth[v]);
      }
      EXPECT_EQ(info.height, height) << "c=" << c;

      const double beta = std::pow(static_cast<double>(m_c), 1.0 / depth);
      for (std::uint32_t l = 0; l < depth; ++l) {
        const double fill =
            m_c == 0 ? 1.0 : std::ceil(m_c / std::pow(beta, l));
        EXPECT_EQ(art.portals[std::size_t{c} * depth + l],
                  static_cast<std::uint64_t>(std::max(1.0, fill)))
            << "c=" << c << " l=" << l;
      }
    }
  }
}

// ------------------------------------------------------------ query layer

TEST(Artifact, TriangleQueriesMatchTheTupleList) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  std::size_t incidences = 0;
  for (VertexId v = 0; v < art.graph.num_vertices(); ++v) {
    const auto span = art.triangles_of(v);
    incidences += span.size();
    for (const std::uint32_t id : span) {
      const auto& t = art.triangles[id];
      EXPECT_TRUE(t[0] == v || t[1] == v || t[2] == v);
    }
  }
  EXPECT_EQ(incidences, 3 * art.triangles.size());
  for (const auto& t : art.triangles) {
    EXPECT_TRUE(art.has_triangle(t[0], t[1], t[2]));
    EXPECT_TRUE(art.has_triangle(t[2], t[0], t[1]));  // order-insensitive
  }
  EXPECT_FALSE(art.has_triangle(0, 0, 1));  // degenerate triples never list
}

TEST(Artifact, RelayPathsWalkTheForest) {
  const auto art = prepare_artifact(small_graph(), golden_params(0));
  for (VertexId u = 0; u < art.graph.num_vertices(); ++u) {
    for (VertexId v = 0; v < art.graph.num_vertices(); ++v) {
      std::vector<VertexId> path;
      const bool ok = art.relay_path(u, v, path);
      if (art.component_of(u) != art.component_of(v)) {
        EXPECT_FALSE(ok);
        continue;
      }
      if (!ok) continue;  // fragmented component: disjoint relay trees
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      // Every hop is a parent link of the relay forest.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const VertexId x = path[i];
        const VertexId y = path[i + 1];
        EXPECT_TRUE(art.relay_parent[x] == y || art.relay_parent[y] == x)
            << u << "->" << v << " hop " << i;
      }
    }
  }
}

// -------------------------------------------------------- malformed files

class ArtifactReject : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto art = prepare_artifact(small_graph(), golden_params(0));
    ASSERT_GT(art.triangles.size(), 0u);  // the grid patches TRIS entries
    path_ = tmp_path("reject.xda");
    save_artifact(art, path_);
    bytes_ = read_file(path_);
    n_ = art.graph.num_vertices();
    m_ = art.graph.num_edges();
  }

  void expect_reject(const std::vector<unsigned char>& bytes,
                     const char* what) {
    const std::string p = tmp_path("reject_mut.xda");
    write_file(p, bytes);
    try {
      (void)load_artifact(p);
      ADD_FAILURE() << what << ": corrupt file loaded";
    } catch (const CheckError& e) {
      // A resealed case must fail on its own validator, not the checksum.
      EXPECT_EQ(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }

  std::string path_;
  std::vector<unsigned char> bytes_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

TEST_F(ArtifactReject, MissingFile) {
  EXPECT_THROW((void)load_artifact(tmp_path("no_such.xda")), CheckError);
}

TEST_F(ArtifactReject, TruncatedHeader) {
  auto b = bytes_;
  b.resize(16);
  expect_reject(b, "16-byte file");
  b.clear();
  expect_reject(b, "empty file");
}

TEST_F(ArtifactReject, BadMagic) {
  auto b = bytes_;
  patch<std::uint32_t>(b, 0, 0xdeadbeefu);
  expect_reject(b, "magic");
}

TEST_F(ArtifactReject, BadVersion) {
  auto b = bytes_;
  patch<std::uint32_t>(b, 4, kArtifactVersion + 1);
  expect_reject(b, "version");
  // Version 1 stored STAT and HIER sections; it is no longer read.
  patch<std::uint32_t>(b, 4, 1);
  expect_reject(b, "version 1");
}

TEST_F(ArtifactReject, BadSectionCount) {
  auto b = bytes_;
  patch<std::uint64_t>(b, 8, 7);
  expect_reject(b, "section count");
}

TEST_F(ArtifactReject, TruncatedFile) {
  auto b = bytes_;
  ASSERT_GT(b.size(), kHeader);
  b.resize(b.size() - 1);  // header file_size no longer matches
  expect_reject(b, "truncation");
}

TEST_F(ArtifactReject, WrongSectionTag) {
  auto b = bytes_;
  patch<std::uint32_t>(b, kHeader + 2 * kEntry, 0x21212121u);
  reseal(b);
  expect_reject(b, "tag");
}

TEST_F(ArtifactReject, NonContiguousSections) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 1 * kEntry + 8,
                       section_offset(b, 1) + 8);
  reseal(b);
  expect_reject(b, "offset gap");
}

TEST_F(ArtifactReject, SectionOverrunsFile) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 3 * kEntry + 16, section_size(b, 3) + 8);
  reseal(b);
  expect_reject(b, "overrun");
}

TEST_F(ArtifactReject, SectionSizeWraps) {
  // A TRIS size of 2^64 - tris + w wraps offset + size around to a small
  // w, with META claiming [w, end): the table must not hand TRIS a span
  // past the file.  As 2^64 == 4 (mod 12), w == tris + 4 (mod 12) makes
  // the huge span hold a whole number of triples; the count claims them.
  auto b = bytes_;
  const std::uint64_t tris = section_offset(b, 2);
  const std::uint64_t w = (tris + 4) % 12;
  const std::uint64_t tris_size = w - tris;
  patch<std::uint64_t>(b, kHeader + 2 * kEntry + 16, tris_size);
  patch<std::uint64_t>(b, kHeader + 3 * kEntry + 8, w);
  patch<std::uint64_t>(b, kHeader + 3 * kEntry + 16, b.size() - w);
  patch<std::uint64_t>(b, tris, (tris_size - 8) / 12);
  reseal(b);
  expect_reject(b, "wrapped section size");
}

TEST_F(ArtifactReject, TrailingBytes) {
  auto b = bytes_;
  b.insert(b.end(), 4, 0);
  patch<std::uint64_t>(b, 16, b.size());
  reseal(b);
  expect_reject(b, "trailing bytes");
}

TEST_F(ArtifactReject, GraphEdgeOutOfRange) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 0) + 16, 0xfffffff0u);
  reseal(b);
  expect_reject(b, "edge endpoint");
}

TEST_F(ArtifactReject, GraphEdgeCountMismatch) {
  auto b = bytes_;
  patch<std::uint64_t>(b, section_offset(b, 0) + 8, m_ + 1);
  reseal(b);
  expect_reject(b, "edge count");
}

TEST_F(ArtifactReject, GraphEdgeCountOverflows) {
  // 8 * (m + 2^61) wraps to 8 * m: the count must not pass by overflow.
  auto b = bytes_;
  patch<std::uint64_t>(b, section_offset(b, 0) + 8,
                       m_ + (std::uint64_t{1} << 61));
  reseal(b);
  expect_reject(b, "wrapped edge count");
}

TEST_F(ArtifactReject, ComponentLabelOutOfRange) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 1) + 32, 0xffffffffu);
  reseal(b);
  expect_reject(b, "component label");
}

TEST_F(ArtifactReject, RemovedFlagNotBoolean) {
  auto b = bytes_;
  patch<std::uint8_t>(b, section_offset(b, 1) + 32 + 4 * n_, 2);
  reseal(b);
  expect_reject(b, "removed flag");
}

TEST_F(ArtifactReject, ZeroRouterDepth) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 3) + 80, 0);
  reseal(b);
  expect_reject(b, "depth 0");
}

TEST_F(ArtifactReject, RouterDepthAboveCap) {
  // The derived portal table is num_components * depth entries; the cap
  // keeps one META field from demanding an unbounded allocation.
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 3) + 80, kMaxRouterDepth + 1);
  reseal(b);
  expect_reject(b, "depth above cap");
}

TEST_F(ArtifactReject, TrianglesNotSorted) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 2) + 8, 0xfffffff0u);
  reseal(b);
  expect_reject(b, "triangle order");
}

TEST_F(ArtifactReject, TripleIsNotATriangle) {
  // Raise the last triple's top vertex to n - 1: still sorted, in range
  // and strictly ascending, but two of its edges are missing.
  auto b = bytes_;
  const auto count = peek<std::uint64_t>(b, section_offset(b, 2));
  const std::size_t last = section_offset(b, 2) + 8 + 12 * (count - 1);
  const auto top = static_cast<VertexId>(n_ - 1);
  ASSERT_LT(peek<std::uint32_t>(b, last + 8), top);
  ASSERT_FALSE(small_graph().has_edge(peek<std::uint32_t>(b, last), top));
  patch<std::uint32_t>(b, last + 8, top);
  reseal(b);
  expect_reject(b, "non-triangle triple");
}

TEST_F(ArtifactReject, TriangleCountOverflows) {
  // 12 * (count + 2^62) wraps to 12 * count.
  auto b = bytes_;
  const std::size_t at = section_offset(b, 2);
  patch<std::uint64_t>(b, at,
                       peek<std::uint64_t>(b, at) + (std::uint64_t{1} << 62));
  reseal(b);
  expect_reject(b, "wrapped triangle count");
}

TEST_F(ArtifactReject, UnknownDecompositionBackend) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 3) + 68, 7u);
  reseal(b);
  expect_reject(b, "decomposition backend");
}

TEST_F(ArtifactReject, MetaSizeWrong) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 3 * kEntry + 16, section_size(b, 3) - 8);
  patch<std::uint64_t>(b, 16, b.size() - 8);
  b.resize(b.size() - 8);
  reseal(b);
  expect_reject(b, "meta size");
}

}  // namespace
}  // namespace xd::serve
