#include "congest/shard_plane.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>

#include "congest/scheduler.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace {

constexpr std::size_t kWireHeaderBytes = 40;
constexpr std::size_t kWireCrcOffset = 32;
constexpr std::size_t kWireRecordBytes = 28;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int clamp_workers(int workers, int shards) {
  return std::max(1, std::min(workers, shards));
}

}  // namespace

// ------------------------------------------------------------- wire format --

namespace {

/// CRC-32C of a frame with the crc field's own four bytes taken as zero
/// (three streaming chunks; the xor conventions cancel across calls).
std::uint32_t frame_crc(std::span<const unsigned char> bytes) {
  static constexpr unsigned char kZero[4] = {0, 0, 0, 0};
  std::uint32_t c = crc32c(bytes.data(), kWireCrcOffset);
  c = crc32c_update(c, kZero, 4);
  return crc32c_update(c, bytes.data() + kWireCrcOffset + 4,
                       bytes.size() - kWireCrcOffset - 4);
}

/// Shared decode core: fills the outputs and returns true, or (for any
/// structural or integrity defect) writes a diagnostic into *err and
/// returns false.  Every byte read is bounds-checked before the read, so
/// arbitrarily damaged frames are rejected, never UB.
bool decode_impl(std::span<const unsigned char> bytes,
                 std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                 detail::StagingBuffer* out, std::uint64_t* seq,
                 std::string* err) {
  const auto fail = [err](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    *err = os.str();
    return false;
  };
  if (bytes.size() < kWireHeaderBytes) {
    return fail("shard buffer truncated: ", bytes.size(),
                " bytes, header needs ", kWireHeaderBytes);
  }
  const unsigned char* p = bytes.data();
  auto get32 = [&p] {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  auto get64 = [&p] {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint32_t magic = get32();
  if (magic != kShardBufferMagic) {
    return fail("shard buffer bad magic ", magic);
  }
  const std::uint32_t version = get32();
  if (version != kShardBufferVersion) {
    return fail("shard buffer version ", version, " unsupported (want ",
                kShardBufferVersion, ")");
  }
  *sender_shard = get32();
  *dest_shard = get32();
  const std::uint64_t count = get64();
  const std::uint64_t frame_seq = get64();
  const std::uint32_t stored_crc = get32();
  get32();  // reserved
  if (stored_crc != frame_crc(bytes)) {
    return fail("shard buffer CRC mismatch (stored ", stored_crc, ")");
  }
  if (seq != nullptr) *seq = frame_seq;
  if (count > (bytes.size() - kWireHeaderBytes) / kWireRecordBytes ||
      bytes.size() != kWireHeaderBytes + kWireRecordBytes * count) {
    return fail("shard buffer size ", bytes.size(), " != header + ", count,
                " records");
  }
  out->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t slot = get32();
    const VertexId from = get32();
    Message msg;
    msg.tag = get32();
    msg.words[0] = get64();
    msg.words[1] = get64();
    out->push(slot, from, msg);
  }
  return true;
}

}  // namespace

std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq) {
  const std::uint64_t count = buf.size();
  std::vector<unsigned char> out(kWireHeaderBytes + kWireRecordBytes * count);
  unsigned char* p = out.data();
  auto put32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  auto put64 = [&p](std::uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };
  put32(kShardBufferMagic);
  put32(kShardBufferVersion);
  put32(sender_shard);
  put32(dest_shard);
  put64(count);
  put64(seq);
  put32(0);  // crc placeholder, patched below
  put32(0);  // reserved
  for (std::size_t i = 0; i < count; ++i) {
    put32(buf.slot[i]);
    put32(buf.from[i]);
    put32(buf.msg[i].tag);
    put64(buf.msg[i].words[0]);
    put64(buf.msg[i].words[1]);
  }
  const std::uint32_t crc = frame_crc(out);
  std::memcpy(out.data() + kWireCrcOffset, &crc, 4);
  return out;
}

void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  XD_CHECK_MSG(decode_impl(bytes, sender_shard, dest_shard, out, seq, &err),
               err);
}

bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                             std::uint32_t* sender_shard,
                             std::uint32_t* dest_shard,
                             detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  return decode_impl(bytes, sender_shard, dest_shard, out, seq, &err);
}

// -------------------------------------------------------------- ShardPlane --

void ShardPlane::configure(const Graph& g, int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  graph_ = &g;
  shards_ = shards;
  const std::size_t n = g.num_vertices();
  const auto s_sz = static_cast<std::size_t>(shards);
  bounds_.assign(s_sz + 1, 0);
  for (std::size_t s = 0; s <= s_sz; ++s) bounds_[s] = n * s / s_sz;
  vshard_.assign(n, 0);
  for (std::size_t s = 0; s < s_sz; ++s) {
    for (std::size_t v = bounds_[s]; v < bounds_[s + 1]; ++v) {
      vshard_[v] = static_cast<std::uint32_t>(s);
    }
  }
  bufs_.assign(s_sz * s_sz, {});
  fill_.assign(s_sz * s_sz, {});
  order_.assign(s_sz * s_sz, {});
  dense_.assign(s_sz, 0);
  congestion_.assign(s_sz, 0);
  arena_.assign(s_sz, {});
  counts_.assign(s_sz, {});
  key_scratch_.assign(s_sz, {});
  offsets_.assign(n + 1, 0);
  shard_msg_base_.assign(s_sz + 1, 0);
  exchange_seq_ = 0;
  stats_ = {};
  stats_.shard.resize(s_sz);
}

std::size_t ShardPlane::staged() const {
  std::size_t total = 0;
  for (const auto& b : bufs_) total += b.size();
  return total;
}

void ShardPlane::wire_exchange() {
  // Transport semantics under test: every (sender, dest) buffer becomes an
  // XDSB v2 frame, the fault plane damages frames in flight, and each
  // destination column re-requests what it is missing from the senders'
  // retained staging copies -- at most kMaxAttempts passes before the
  // exchange is declared unrecoverable.  Runs serially (fault-armed runs
  // trade speed for a deterministic hit order); fault keys are pure
  // (seq, sender, dest, attempt) coordinates so p-triggers replay exactly.
  constexpr int kMaxAttempts = 8;
  FaultPlane& faults = FaultPlane::instance();
  const std::uint64_t seq = ++exchange_seq_;
  const std::uint64_t volume = graph_->volume();
  const auto S = static_cast<std::size_t>(shards_);
  std::vector<detail::StagingBuffer> col(S);
  std::vector<char> have(S, 0);
  detail::StagingBuffer scratch;
  for (int s = 0; s < shards_; ++s) {
    std::fill(have.begin(), have.end(), 0);
    int attempt = 0;
    for (; attempt < kMaxAttempts; ++attempt) {
      std::vector<std::vector<unsigned char>> arrivals;
      bool all_held = true;
      for (int q = 0; q < shards_; ++q) {
        if (have[static_cast<std::size_t>(q)]) continue;
        all_held = false;
        const std::uint64_t key =
            (seq * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::uint64_t>(q) << 20) ^
            (static_cast<std::uint64_t>(s) << 8) ^
            static_cast<std::uint64_t>(attempt);
        if (attempt > 0) {
          ++stats_.wire.retransmits;
          faults.count("shard.retransmits");
        }
        if (faults.should_fire("shard.drop", key)) {
          ++stats_.wire.dropped;
          continue;  // the frame never arrives
        }
        std::vector<unsigned char> frame = encode_shard_buffer(
            static_cast<std::uint32_t>(q), static_cast<std::uint32_t>(s),
            bufs_[index(q, s)], seq);
        ++stats_.wire.frames;
        if (faults.should_fire("shard.corrupt", key)) {
          const std::uint64_t bit =
              faults.decision_mix("shard.corrupt", key) %
              (static_cast<std::uint64_t>(frame.size()) * 8);
          frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
        if (faults.should_fire("shard.dup", key)) {
          ++stats_.wire.frames;
          arrivals.push_back(frame);
        }
        arrivals.push_back(std::move(frame));
      }
      if (all_held) break;
      if (arrivals.size() > 1 &&
          faults.should_fire("shard.reorder",
                             (seq << 16) ^ static_cast<std::uint64_t>(s))) {
        ++stats_.wire.reordered;
        std::reverse(arrivals.begin(), arrivals.end());
      }
      for (const auto& frame : arrivals) {
        std::uint32_t sender = 0;
        std::uint32_t dest = 0;
        std::uint64_t frame_seq = 0;
        if (!try_decode_shard_buffer(frame, &sender, &dest, &scratch,
                                     &frame_seq)) {
          ++stats_.wire.corrupted;
          continue;
        }
        if (sender >= S || dest != static_cast<std::uint32_t>(s) ||
            frame_seq != seq) {
          ++stats_.wire.corrupted;  // valid frame, wrong coordinates
          continue;
        }
        if (have[sender]) {
          ++stats_.wire.duplicates;
          continue;  // first valid copy wins
        }
        col[sender] = std::move(scratch);
        scratch = {};
        have[sender] = 1;
      }
    }
    for (int q = 0; q < shards_; ++q) {
      XD_CHECK_MSG(have[static_cast<std::size_t>(q)],
                   "shard wire exchange unrecoverable: buffer (" << q << " -> "
                       << s << ") still missing after " << attempt
                       << " attempts (seq " << seq << ")");
    }
    // Commit the column: the decoded buffers replace the staging originals
    // (with every record's slot range and receiver shard re-checked
    // defensively), and the buffers are marked unsorted so phase A
    // recomputes order and congestion from the wire content -- identical
    // content, identical results.
    for (int q = 0; q < shards_; ++q) {
      const std::size_t idx = index(q, s);
      bufs_[idx] = std::move(col[static_cast<std::size_t>(q)]);
      col[static_cast<std::size_t>(q)] = {};
      for (const std::uint32_t slot : bufs_[idx].slot) {
        XD_CHECK_MSG(slot < volume,
                     "wire record slot " << slot << " out of range");
        const VertexId to = graph_->slot_target(slot);
        XD_CHECK_MSG(vshard_[to] == static_cast<std::uint32_t>(s),
                     "wire record routed to shard " << vshard_[to]
                                                    << ", expected " << s);
      }
      fill_[idx].sorted = false;
    }
  }
}

void ShardPlane::phase_count(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  auto& counts = counts_[static_cast<std::size_t>(s)];
  counts.assign(hi - lo, 0);
  std::uint64_t total = 0;
  std::uint64_t cong = 0;
  if (dense_[static_cast<std::size_t>(s)]) {
    // Counting path: per-slot counts, then one walk of the shard's
    // incoming-slot index (ascending slots per receiver) turns them into
    // receiver counts, congestion, and per-slot scatter cursors.  No
    // receiver lookup, no sort.
    for (int q = 0; q < shards_; ++q) {
      const detail::StagingBuffer& b = bufs_[index(q, s)];
      for (const std::uint32_t slot : b.slot) ++slot_counts_[slot];
      total += b.size();
    }
    std::uint32_t running = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      const std::uint32_t start = running;
      for (const std::uint32_t slot :
           graph_->incoming_slots(static_cast<VertexId>(v))) {
        const std::uint32_t c = slot_counts_[slot];
        cong = std::max<std::uint64_t>(cong, c);
        slot_counts_[slot] = running;
        running += c;
      }
      counts[v - lo] = running - start;
    }
  } else {
    for (int q = 0; q < shards_; ++q) {
      const std::size_t idx = index(q, s);
      const detail::StagingBuffer& b = bufs_[idx];
      const std::size_t m = b.size();
      auto& ord = order_[idx];
      ord.clear();
      if (m == 0) continue;
      // Canonical per-buffer order is ascending (slot, staging index).
      // stage() tracked sortedness as the buffer filled, so the common case
      // (vertex-ascending staging) keeps staging order; an out-of-order
      // buffer pays a stable (slot, index) key sort.  One pass in that
      // order then reads congestion (the longest run of one slot) and
      // counts receivers.
      if (!fill_[idx].sorted) {
        auto& keys = key_scratch_[static_cast<std::size_t>(s)];
        keys.resize(m);
        for (std::size_t j = 0; j < m; ++j) {
          keys[j] =
              (std::uint64_t{b.slot[j]} << 32) | static_cast<std::uint32_t>(j);
        }
        std::sort(keys.begin(), keys.end());
        ord.resize(m);
        for (std::size_t j = 0; j < m; ++j) {
          ord[j] = static_cast<std::uint32_t>(keys[j] & 0xffffffffu);
        }
      }
      std::uint64_t run = 0;
      std::uint32_t prev = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t slot = b.slot[ord.empty() ? j : ord[j]];
        run = j > 0 && slot == prev ? run + 1 : 1;
        cong = std::max(cong, run);
        prev = slot;
        ++counts[graph_->slot_target(slot) - lo];
      }
      total += m;
    }
  }
  congestion_[static_cast<std::size_t>(s)] = cong;
  auto& st = stats_.shard[static_cast<std::size_t>(s)];
  st.received = total;
  st.buffer_ms = ms_since(t0);
}

void ShardPlane::phase_scatter(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  auto& counts = counts_[static_cast<std::size_t>(s)];
  auto& arena = arena_[static_cast<std::size_t>(s)];
  arena.resize(stats_.shard[static_cast<std::size_t>(s)].received);
  // Publish this shard's slice of the global CSR offsets (vertices [lo, hi)
  // only -- offsets_[n] is written serially by deliver(), and neighboring
  // shards' slices are disjoint, so no write is shared across workers) and
  // repurpose counts as arena-local scatter cursors.
  const std::uint32_t base = shard_msg_base_[static_cast<std::size_t>(s)];
  std::uint32_t running = 0;
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint32_t c = counts[v - lo];
    offsets_[v] = base + running;
    counts[v - lo] = running;
    running += c;
  }
  if (dense_[static_cast<std::size_t>(s)]) {
    // Counting path: each record lands at its slot's cursor; a slot's
    // records stay in staging order.  Then restore the all-zero invariant
    // over exactly the slots phase A turned into cursors -- at S = 1 that
    // is the whole array, where a streaming fill beats walking the index.
    for (int q = 0; q < shards_; ++q) {
      const detail::StagingBuffer& b = bufs_[index(q, s)];
      for (std::size_t i = 0; i < b.size(); ++i) {
        arena[slot_counts_[b.slot[i]]++] = Envelope{b.from[i], b.msg[i]};
      }
    }
    if (shards_ == 1) {
      std::fill(slot_counts_.begin(), slot_counts_.end(), 0);
    } else {
      for (std::size_t v = lo; v < hi; ++v) {
        for (const std::uint32_t slot :
             graph_->incoming_slots(static_cast<VertexId>(v))) {
          slot_counts_[slot] = 0;
        }
      }
    }
    stats_.shard[static_cast<std::size_t>(s)].scatter_ms = ms_since(t0);
    return;
  }
  // Scatter the S incoming buffers in sender-shard order: sender shards
  // partition the directed-slot space monotonically, so this visits each
  // receiver's messages in globally ascending slot order -- the canonical
  // delivery order.  The write-allocate prefetch hints a destination a few
  // records ahead; a cursor can sit at the arena end (a tail-heavy
  // receiver), which is still a valid one-past-the-end address.
  for (int q = 0; q < shards_; ++q) {
    const std::size_t bidx = index(q, s);
    const detail::StagingBuffer& b = bufs_[bidx];
    const auto& ord = order_[bidx];
    const std::size_t m = b.size();
    const auto cursor = [&](std::size_t i) -> std::uint32_t& {
      return counts[graph_->slot_target(b.slot[i]) - lo];
    };
    constexpr std::size_t kAhead = 12;
    if (ord.empty()) {
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kAhead < m) {
          __builtin_prefetch(arena.data() + cursor(i + kAhead), 1, 0);
        }
        arena[cursor(i)++] = Envelope{b.from[i], b.msg[i]};
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kAhead < m) {
          __builtin_prefetch(arena.data() + cursor(ord[i + kAhead]), 1, 0);
        }
        const std::size_t idx = ord[i];
        arena[cursor(idx)++] = Envelope{b.from[idx], b.msg[idx]};
      }
    }
  }
  stats_.shard[static_cast<std::size_t>(s)].scatter_ms = ms_since(t0);
}

void ShardPlane::deliver(int workers) {
  const auto S = static_cast<std::size_t>(shards_);
  const std::size_t n = graph_->num_vertices();
  const int w = clamp_workers(workers, shards_);

  // Fault-armed runs route every buffer through the wire frame path first
  // (serial, deterministic); disarmed runs pay one relaxed load here and
  // exchange buffers in memory.
  if (shards_ > 1 &&
      FaultPlane::instance().armed(FaultCategory::kShard)) {
    wire_exchange();
  }

  // Strategy per destination shard, from what the plane observes: count
  // per directed slot when some incoming buffer is unsorted and the staged
  // traffic is dense against the shard's incoming slots (>= 1/16), where a
  // key sort would cost more than O(slots) counting passes.
  bool any_dense = false;
  for (std::size_t s = 0; s < S; ++s) {
    std::uint64_t total = 0;
    bool unsorted = false;
    for (int q = 0; q < shards_; ++q) {
      const std::size_t idx = index(q, static_cast<int>(s));
      total += bufs_[idx].size();
      unsorted |= bufs_[idx].size() > 0 && !fill_[idx].sorted;
    }
    const auto [lo, hi] = shard_range(static_cast<int>(s));
    const std::uint64_t slots =
        graph_->slot_base(static_cast<VertexId>(hi)) -
        graph_->slot_base(static_cast<VertexId>(lo));
    dense_[s] = unsorted && total * 16 >= slots;
    any_dense |= dense_[s] != 0;
  }
  if (any_dense && slot_counts_.size() < graph_->volume()) {
    slot_counts_.resize(graph_->volume(), 0);
  }

  // Phase A, parallel over destination shards: canonicalize buffers, read
  // congestion, count receivers.  Writes are per-dest-shard-local (the
  // shared slot_counts_ entries of a slot belong to its receiver's shard).
  EpochScheduler::run_partitioned(S, w,
                                  [&](int /*w*/, std::size_t lo,
                                      std::size_t hi) {
                                    for (std::size_t s = lo; s < hi; ++s) {
                                      phase_count(static_cast<int>(s));
                                    }
                                  });

  // Serial barrier: shard totals -> global arena base offsets, shard
  // congestion -> global max.  Exact because every directed slot lives in
  // exactly one (sender, dest) buffer.
  std::size_t total_staged = 0;
  shard_msg_base_[0] = 0;
  for (std::size_t s = 0; s < S; ++s) {
    total_staged += stats_.shard[s].received;
    XD_CHECK_MSG(total_staged < (std::uint64_t{1} << 32),
                 "too many staged messages for one exchange");
    shard_msg_base_[s + 1] =
        shard_msg_base_[s] + static_cast<std::uint32_t>(stats_.shard[s].received);
  }
  stats_.max_congestion =
      *std::max_element(congestion_.begin(), congestion_.end());
  stats_.staged = total_staged;
  offsets_[n] = shard_msg_base_[S];

  // Phase B, parallel over destination shards: publish offsets and scatter.
  EpochScheduler::run_partitioned(
      S, w, [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          phase_scatter(static_cast<int>(s));
        }
      });

  for (auto& b : bufs_) b.clear();
  std::fill(fill_.begin(), fill_.end(), Fill{});
}

}  // namespace xd::congest
