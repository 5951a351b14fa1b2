#include "serve/artifact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "congest/ledger.hpp"
#include "expander/decomposition.hpp"
#include "graph/file_bytes.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace xd::serve {

namespace {

// All on-disk integers are little-endian; the loader memcpys them raw, so
// gate on the host byte order (matching graph/io.cpp).
static_assert(std::endian::native == std::endian::little,
              "artifact IO assumes a little-endian host");

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kSectionCount = 4;
/// Offset of the header's whole-file CRC-32C slot (a u64 whose high 32
/// bits are zero).
constexpr std::size_t kCrcAt = 24;

constexpr std::uint32_t section_tag(const char (&t)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(t[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(t[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(t[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(t[3])) << 24;
}

constexpr std::uint32_t kTagGraph = section_tag("GRPH");
constexpr std::uint32_t kTagDecomp = section_tag("DCMP");
constexpr std::uint32_t kTagTris = section_tag("TRIS");
constexpr std::uint32_t kTagMeta = section_tag("META");

constexpr std::uint32_t kSectionOrder[kSectionCount] = {kTagGraph, kTagDecomp,
                                                        kTagTris, kTagMeta};

/// Appending little-endian writer over one growing byte vector.
class ByteSink {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
  }

  void patch_u64(std::size_t offset, std::uint64_t v) {
    std::memcpy(bytes_.data() + offset, &v, sizeof v);
  }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] const std::vector<unsigned char>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<unsigned char> bytes_;
};

/// Bounds-checked little-endian reader over one section's payload.
class ByteSource {
 public:
  ByteSource(const unsigned char* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    XD_CHECK_MSG(pos_ + sizeof(T) <= size_,
                 what_ << ": section payload overrun at byte " << pos_);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace

void PreparedArtifact::build_index() {
  const std::size_t n = graph.num_vertices();

  // --- Per-component conductance/balance stats. ---
  components.assign(num_components, ComponentInfo{});
  const std::uint64_t total_volume = graph.volume();
  for (VertexId v = 0; v < n; ++v) {
    auto& info = components[component[v]];
    if (info.size == 0) info.root = v;  // ascending scan: the min-id member
    ++info.size;
    info.volume += graph.degree(v);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (graph.is_loop(e)) continue;
    const auto [u, v] = graph.edge(e);
    const std::uint32_t cu = component[u];
    const std::uint32_t cv = component[v];
    if (cu != cv) {
      ++components[cu].cut;
      ++components[cv].cut;
    } else if (!removed_edge[e]) {
      ++components[cu].internal_edges;
    }
  }
  for (auto& info : components) {
    const std::uint64_t other = total_volume - info.volume;
    const std::uint64_t small = std::min(info.volume, other);
    info.conductance = small == 0
                           ? std::numeric_limits<double>::infinity()
                           : static_cast<double>(info.cut) / small;
    info.balance = total_volume == 0
                       ? 0.0
                       : static_cast<double>(small) / total_volume;
  }

  // --- GKS hierarchy summary: relay forests + beta / portal counts. ---
  // Deterministic per-component BFS relay forests over the live
  // (non-removed) intra-component edges, neighbors visited in slot order.
  // Components that come apart under practical-mode guards get one tree per
  // piece (extra roots keep relay_parent[v] == v).
  relay_parent.resize(n);
  relay_depth.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) relay_parent[v] = v;
  std::vector<char> seen(n, 0);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (seen[v]) continue;
    const std::uint32_t c = component[v];
    // First unseen member in id order starts a tree (the component's min-id
    // vertex -- its root -- starts the first one).
    queue.assign(1, v);
    seen[v] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId u = queue[head];
      components[c].height = std::max(components[c].height, relay_depth[u]);
      const auto nbrs = graph.neighbors(u);
      const auto eids = graph.incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (w == u || seen[w] || removed_edge[eids[i]] || component[w] != c) {
          continue;
        }
        seen[w] = 1;
        relay_parent[w] = u;
        relay_depth[w] = relay_depth[u] + 1;
        queue.push_back(w);
      }
    }
  }
  portals.assign(std::size_t{num_components} * router_depth, 1);
  for (std::uint32_t c = 0; c < num_components; ++c) {
    auto& info = components[c];
    const double m_c = static_cast<double>(info.internal_edges);
    info.beta = m_c > 0 ? std::pow(m_c, 1.0 / router_depth) : 0.0;
    for (std::uint32_t l = 0; l < router_depth; ++l) {
      const double denom = info.beta > 0 ? std::pow(info.beta, l) : 1.0;
      const double count = m_c > 0 ? std::ceil(m_c / denom) : 1.0;
      portals[std::size_t{c} * router_depth + l] =
          static_cast<std::uint64_t>(std::max(1.0, count));
    }
  }

  // --- Triangle incidence CSR and per-component counts. ---
  tri_offsets.assign(n + 1, 0);
  for (const auto& t : triangles) {
    for (const VertexId v : t) ++tri_offsets[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) tri_offsets[v + 1] += tri_offsets[v];
  tri_ids.resize(3 * triangles.size());
  std::vector<std::uint32_t> cursor(tri_offsets.begin(), tri_offsets.end() - 1);
  for (std::uint32_t i = 0; i < triangles.size(); ++i) {
    for (const VertexId v : triangles[i]) tri_ids[cursor[v]++] = i;
  }
  comp_triangles.assign(num_components, 0);
  for (const auto& t : triangles) ++comp_triangles[component[t[0]]];
}

bool PreparedArtifact::has_triangle(VertexId a, VertexId b, VertexId c) const {
  triangle::Triangle t{a, b, c};
  std::sort(t.begin(), t.end());
  if (t[0] == t[1] || t[1] == t[2]) return false;
  return std::binary_search(triangles.begin(), triangles.end(), t);
}

bool PreparedArtifact::relay_path(VertexId u, VertexId v,
                                  std::vector<VertexId>& path) const {
  if (component[u] != component[v]) return false;
  VertexId x = u;
  VertexId y = v;
  std::vector<VertexId> tail;
  while (relay_depth[x] > relay_depth[y]) {
    path.push_back(x);
    x = relay_parent[x];
  }
  while (relay_depth[y] > relay_depth[x]) {
    tail.push_back(y);
    y = relay_parent[y];
  }
  while (x != y) {
    // Disjoint trees of a fragmented component meet only at their roots;
    // hitting both roots without converging means no relay route exists.
    if (relay_parent[x] == x && relay_parent[y] == y) return false;
    path.push_back(x);
    x = relay_parent[x];
    tail.push_back(y);
    y = relay_parent[y];
  }
  path.push_back(x);
  path.insert(path.end(), tail.rbegin(), tail.rend());
  return true;
}

PreparedArtifact prepare_artifact(const Graph& g, const PrepareParams& prm) {
  XD_CHECK(prm.enumerate.router_depth <= int{kMaxRouterDepth});
  PreparedArtifact art;
  art.graph = g;  // CSR copy: the artifact owns its ambient graph
  congest::RoundLedger ledger;

  // --- Theorem 1 decomposition: the serving partition, and Theorem 2's
  // level 0 (the same graph, parameters and stream a direct
  // enumerate_congest call would decompose with). ---
  Rng drng = Rng(prm.seed).fork(triangle::kLevel0Stream);
  const auto decomp = expander::expander_decomposition(
      g, triangle::decomposition_params(prm.enumerate, prm.decomp_backend),
      drng, ledger);
  art.component = decomp.component;
  art.num_components = static_cast<std::uint32_t>(decomp.num_components);
  art.removed_edge = decomp.removed_edge;
  for (int r = 0; r < 3; ++r) art.removed_by[r] = decomp.removed_by[r];

  // --- Theorem 2 triangle plane over the decomposition above.  Fresh
  // Rng(seed): exactly the stream a direct enumerate_congest call would
  // draw, so golden pins carry over and build_rounds == enum_rounds.
  Rng erng(prm.seed);
  const auto enumed =
      triangle::enumerate_congest(g, prm.enumerate, erng, ledger, &decomp);
  art.triangles = enumed.triangles;
  art.enum_rounds = enumed.rounds;
  art.router_queries = enumed.router_queries;
  art.enum_levels = static_cast<std::uint32_t>(enumed.levels);
  art.clusters_processed = enumed.clusters_processed;

  art.epsilon = prm.enumerate.epsilon;
  art.k = prm.enumerate.k;
  art.phi0 = prm.enumerate.phi0_override;
  art.backend = static_cast<int>(prm.enumerate.backend);
  art.decomp_backend = static_cast<int>(prm.decomp_backend);
  art.seed = prm.seed;
  art.router_depth =
      static_cast<std::uint32_t>(std::max(1, prm.enumerate.router_depth));
  art.build_rounds = ledger.rounds();
  art.build_messages = ledger.messages();

  art.build_index();
  return art;
}

// ------------------------------------------------------------------ save --

void save_artifact(const PreparedArtifact& art, const std::string& path) {
  const std::size_t n = art.graph.num_vertices();
  const std::size_t m = art.graph.num_edges();
  ByteSink sink;

  // Header.
  sink.put<std::uint32_t>(kArtifactMagic);
  sink.put<std::uint32_t>(kArtifactVersion);
  sink.put<std::uint64_t>(kSectionCount);
  const std::size_t file_size_at = sink.size();
  sink.put<std::uint64_t>(0);  // file size, patched below
  sink.put<std::uint64_t>(0);  // reserved

  // Section table (offsets/sizes patched as payloads are emitted).
  const std::size_t table_at = sink.size();
  for (const std::uint32_t tag : kSectionOrder) {
    sink.put<std::uint32_t>(tag);
    sink.put<std::uint32_t>(0);  // reserved
    sink.put<std::uint64_t>(0);  // offset
    sink.put<std::uint64_t>(0);  // size
  }

  std::size_t section = 0;
  std::size_t payload_start = 0;
  const auto begin_section = [&] { payload_start = sink.size(); };
  const auto end_section = [&] {
    const std::size_t entry = table_at + section * kSectionEntryBytes;
    sink.patch_u64(entry + 8, payload_start);
    sink.patch_u64(entry + 16, sink.size() - payload_start);
    ++section;
  };

  // GRPH: edge endpoints in EdgeId order (loops verbatim) -- replaying
  // them through GraphBuilder reproduces the CSR bit-for-bit.
  begin_section();
  sink.put<std::uint64_t>(n);
  sink.put<std::uint64_t>(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, v] = art.graph.edge(e);
    sink.put<std::uint32_t>(u);
    sink.put<std::uint32_t>(v);
  }
  end_section();

  // DCMP.
  begin_section();
  sink.put<std::uint64_t>(art.num_components);
  for (int r = 0; r < 3; ++r) sink.put<std::uint64_t>(art.removed_by[r]);
  for (VertexId v = 0; v < n; ++v) sink.put<std::uint32_t>(art.component[v]);
  for (EdgeId e = 0; e < m; ++e) {
    sink.put<std::uint8_t>(art.removed_edge[e] ? 1 : 0);
  }
  end_section();

  // TRIS.
  begin_section();
  sink.put<std::uint64_t>(art.triangles.size());
  for (const auto& t : art.triangles) {
    for (const VertexId v : t) sink.put<std::uint32_t>(v);
  }
  end_section();

  // META.
  begin_section();
  sink.put<double>(art.epsilon);
  sink.put<double>(art.phi0);
  sink.put<std::int32_t>(art.k);
  sink.put<std::int32_t>(art.backend);
  sink.put<std::uint64_t>(art.seed);
  sink.put<std::uint64_t>(art.build_rounds);
  sink.put<std::uint64_t>(art.build_messages);
  sink.put<std::uint64_t>(art.enum_rounds);
  sink.put<std::uint64_t>(art.router_queries);
  sink.put<std::uint32_t>(art.enum_levels);
  sink.put<std::uint32_t>(static_cast<std::uint32_t>(art.decomp_backend));
  sink.put<std::uint64_t>(art.clusters_processed);
  sink.put<std::uint32_t>(art.router_depth);
  sink.put<std::uint32_t>(0);  // reserved
  end_section();

  sink.patch_u64(file_size_at, sink.size());

  // Header integrity: CRC-32C of the whole file computed while the
  // reserved u64 at offset 24 still holds zero, then stored there (the low
  // 32 bits; the high 32 stay zero).  Loaders recompute over the same
  // zeroed field on every file, so save(load(save(x))) stays
  // byte-identical.
  const std::uint32_t crc = crc32c(sink.bytes().data(), sink.size());
  sink.patch_u64(kCrcAt, crc);

  std::ofstream os(path, std::ios::binary);
  XD_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  os.write(reinterpret_cast<const char*>(sink.bytes().data()),
           static_cast<std::streamsize>(sink.size()));
  XD_CHECK_MSG(os.good(), "short write on " << path);
}

// ------------------------------------------------------------------ load --

PreparedArtifact load_artifact(const std::string& path) {
  FileBytes file(path);
  XD_CHECK_MSG(file.size() >= kHeaderBytes,
               path << ": truncated header (" << file.size() << " bytes)");
  ByteSource header(file.data(), kHeaderBytes, "header");
  const auto magic = header.get<std::uint32_t>();
  XD_CHECK_MSG(magic == kArtifactMagic,
               path << ": bad magic 0x" << std::hex << magic
                    << " (not an XDA1 prepared artifact)");
  const auto version = header.get<std::uint32_t>();
  XD_CHECK_MSG(version == kArtifactVersion,
               path << ": unsupported XDA1 version " << version);
  const auto section_count = header.get<std::uint64_t>();
  XD_CHECK_MSG(section_count == kSectionCount,
               path << ": expected " << kSectionCount << " sections, header"
                    << " claims " << section_count);
  const auto file_size = header.get<std::uint64_t>();
  XD_CHECK_MSG(file_size == file.size(),
               path << ": header claims " << file_size << " bytes, file has "
                    << file.size());
  const auto stored_crc = header.get<std::uint64_t>();
  XD_CHECK_MSG(stored_crc <= 0xffffffffu,
               path << ": reserved header bits set (not an XDA1 checksum)");
  // Recompute over the file with the crc slot taken as zero (the bytes it
  // held when the writer checksummed them).  Every file is verified.
  static constexpr unsigned char kZero[8] = {0};
  std::uint32_t crc = crc32c(file.data(), kCrcAt);
  crc = crc32c_update(crc, kZero, 8);
  crc = crc32c_update(crc, file.data() + kCrcAt + 8,
                      file.size() - kCrcAt - 8);
  XD_CHECK_MSG(crc == stored_crc,
               path << ": file checksum mismatch (stored " << stored_crc
                    << ", computed " << crc << ") -- corrupt artifact");

  const std::size_t table_end =
      kHeaderBytes + kSectionCount * kSectionEntryBytes;
  XD_CHECK_MSG(file.size() >= table_end, path << ": truncated section table");

  // Sections must appear in canonical order and tile the rest of the file
  // contiguously -- any overlap, gap, or overrun is a corrupt file.
  struct Section {
    const unsigned char* data;
    std::size_t size;
  };
  Section sections[kSectionCount];
  std::size_t expect_offset = table_end;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    ByteSource entry(file.data() + kHeaderBytes + s * kSectionEntryBytes,
                     kSectionEntryBytes, "section table");
    const auto tag = entry.get<std::uint32_t>();
    entry.get<std::uint32_t>();  // reserved
    const auto offset = entry.get<std::uint64_t>();
    const auto size = entry.get<std::uint64_t>();
    XD_CHECK_MSG(tag == kSectionOrder[s],
                 path << ": section " << s << " tag 0x" << std::hex << tag
                      << " != expected 0x" << kSectionOrder[s]);
    XD_CHECK_MSG(offset == expect_offset,
                 path << ": section " << s << " offset " << offset
                      << " != expected " << expect_offset);
    XD_CHECK_MSG(size <= file.size() - offset,
                 path << ": section " << s << " overruns the file (offset "
                      << offset << " + size " << size << " > " << file.size()
                      << ")");
    sections[s] = {file.data() + offset, static_cast<std::size_t>(size)};
    expect_offset = offset + size;
  }
  XD_CHECK_MSG(expect_offset == file.size(),
               path << ": " << file.size() - expect_offset
                    << " trailing bytes after the last section");

  PreparedArtifact art;

  // GRPH.
  {
    ByteSource src(sections[0].data, sections[0].size, "GRPH");
    const auto n64 = src.get<std::uint64_t>();
    const auto m = src.get<std::uint64_t>();
    XD_CHECK_MSG(n64 <= 0xffffffffu, path << ": n=" << n64 << " exceeds u32");
    XD_CHECK_MSG(src.remaining() % 8 == 0 && src.remaining() / 8 == m,
                 path << ": GRPH payload holds " << src.remaining() / 8
                      << " edges, header claims " << m);
    const auto n = static_cast<std::size_t>(n64);
    GraphBuilder b(n, /*allow_parallel=*/true);
    b.reserve(static_cast<std::size_t>(m));
    for (std::uint64_t e = 0; e < m; ++e) {
      const auto u = src.get<std::uint32_t>();
      const auto v = src.get<std::uint32_t>();
      XD_CHECK_MSG(u < n && v < n, path << ": GRPH edge " << e << " = (" << u
                                        << "," << v << ") out of range n="
                                        << n);
      b.add_edge(u, v);
    }
    art.graph = b.build();
  }
  const std::size_t n = art.graph.num_vertices();
  const std::size_t m = art.graph.num_edges();

  // DCMP.
  {
    ByteSource src(sections[1].data, sections[1].size, "DCMP");
    XD_CHECK_MSG(sections[1].size == 32 + 4 * n + m,
                 path << ": DCMP size " << sections[1].size
                      << " inconsistent with n=" << n << " m=" << m);
    const auto comps = src.get<std::uint64_t>();
    XD_CHECK_MSG(comps <= n && (n == 0 || comps > 0),
                 path << ": " << comps << " components for n=" << n);
    art.num_components = static_cast<std::uint32_t>(comps);
    for (int r = 0; r < 3; ++r) art.removed_by[r] = src.get<std::uint64_t>();
    art.component.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      art.component[v] = src.get<std::uint32_t>();
      XD_CHECK_MSG(art.component[v] < comps,
                   path << ": vertex " << v << " label " << art.component[v]
                        << " out of range");
    }
    art.removed_edge.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
      const auto flag = src.get<std::uint8_t>();
      XD_CHECK_MSG(flag <= 1, path << ": DCMP removed flag " << int{flag}
                                   << " at edge " << e << " is not 0/1");
      art.removed_edge[e] = static_cast<char>(flag);
    }
  }

  // TRIS.
  {
    ByteSource src(sections[2].data, sections[2].size, "TRIS");
    const auto count = src.get<std::uint64_t>();
    XD_CHECK_MSG(src.remaining() % 12 == 0 && src.remaining() / 12 == count,
                 path << ": TRIS payload holds " << src.remaining() / 12
                      << " triples, header claims " << count);
    art.triangles.resize(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < art.triangles.size(); ++i) {
      auto& t = art.triangles[i];
      for (auto& v : t) v = src.get<std::uint32_t>();
      XD_CHECK_MSG(t[0] < t[1] && t[1] < t[2] && t[2] < n,
                   path << ": TRIS triple " << i << " is not sorted in-range");
      XD_CHECK_MSG(i == 0 || art.triangles[i - 1] < t,
                   path << ": TRIS not strictly ascending at " << i);
      XD_CHECK_MSG(art.graph.has_edge(t[0], t[1]) &&
                       art.graph.has_edge(t[1], t[2]) &&
                       art.graph.has_edge(t[0], t[2]),
                   path << ": TRIS triple " << i << " is not a triangle");
    }
  }

  // META.
  {
    ByteSource src(sections[3].data, sections[3].size, "META");
    XD_CHECK_MSG(sections[3].size == 88,
                 path << ": META size " << sections[3].size << " != 88");
    art.epsilon = src.get<double>();
    art.phi0 = src.get<double>();
    art.k = src.get<std::int32_t>();
    art.backend = src.get<std::int32_t>();
    art.seed = src.get<std::uint64_t>();
    art.build_rounds = src.get<std::uint64_t>();
    art.build_messages = src.get<std::uint64_t>();
    art.enum_rounds = src.get<std::uint64_t>();
    art.router_queries = src.get<std::uint64_t>();
    art.enum_levels = src.get<std::uint32_t>();
    // An unknown decomposition backend is a typed load error.
    art.decomp_backend = static_cast<int>(src.get<std::uint32_t>());
    XD_CHECK_MSG(art.decomp_backend <= 1,
                 path << ": META decomposition backend " << art.decomp_backend
                      << " unknown");
    art.clusters_processed = src.get<std::uint64_t>();
    art.router_depth = src.get<std::uint32_t>();
    src.get<std::uint32_t>();  // reserved
    XD_CHECK_MSG(art.router_depth >= 1 && art.router_depth <= kMaxRouterDepth,
                 path << ": META router depth " << art.router_depth
                      << " outside [1, " << kMaxRouterDepth << "]");
  }

  art.build_index();
  return art;
}

}  // namespace xd::serve
