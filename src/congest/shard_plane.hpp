#pragma once

/// \file shard_plane.hpp
/// The round engine's one delivery path: aggregate / exchange /
/// deaggregate.
///
/// A Network always owns a plane with S >= 1 contiguous vertex shards
/// (`Network::set_shards`, default 1; worker threads today, and the buffer
/// wire format below is exactly what a process or socket boundary would
/// ship).  Each sender shard stages its messages into S per-destination-shard
/// *aggregation buffers* -- packed `(slot, from, msg)` records -- and
/// delivery becomes an S x S bulk buffer exchange followed by a per-shard
/// local scatter into that shard's inbox arena.  No shared staging vector,
/// no global sort.  At S = 1 the plane is one buffer and one arena.
///
/// Canonical delivery order is ascending (directed slot, staging index).
/// Each destination shard reaches it by one of three strategies, picked
/// from what the plane observes: buffers staged in slot order are scattered
/// as they stand; dense unsorted traffic is counted per directed slot and
/// scattered through the graph's incoming-slot index; sparse unsorted
/// buffers pay a stable (slot, index) key sort.
///
/// The shard-invariance argument (docs/sharding.md in full): directed slots
/// are grouped by sender vertex and shards own contiguous vertex ranges, so
///   (a) every directed slot lives in exactly one (sender shard, dest
///       shard) buffer, which makes per-buffer and per-shard congestion
///       exact, and
///   (b) scanning a receiver shard's S incoming buffers in sender-shard
///       order visits each receiver's messages in ascending directed-slot
///       order -- the canonical order.
/// Every S reproduces the same inboxes and round charges bit-for-bit at any
/// worker count (pinned by tests/shard_test.cpp against a brute-force
/// oracle, and by the *_sharded golden CTest variants).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace xd::congest {

/// Per-delivery totals and timings, per destination shard -- the
/// buffer/scatter breakdown `bench_kernel` emits into
/// BENCH_kernel_summary.json.
struct ShardDeliveryStats {
  struct PerShard {
    double buffer_ms = 0.0;   ///< canonicalize + congestion + receiver counts
    double scatter_ms = 0.0;  ///< offset publication + arena scatter
    std::uint64_t received = 0;
  };
  /// Wire-exchange transport counters, cumulative since configure() (the
  /// fault-armed frame path at S > 1 only; the in-memory exchange ships no
  /// frames).
  struct Wire {
    std::uint64_t frames = 0;       ///< frames emitted, incl. retransmits
    std::uint64_t retransmits = 0;  ///< frames re-emitted after a bad attempt
    std::uint64_t dropped = 0;      ///< frames lost to injected drops
    std::uint64_t corrupted = 0;    ///< frames rejected (CRC / structure)
    std::uint64_t duplicates = 0;   ///< valid copies discarded as duplicates
    std::uint64_t reordered = 0;    ///< arrival batches delivered reversed
  };
  std::vector<PerShard> shard;
  Wire wire;
  std::uint64_t max_congestion = 0;
  std::size_t staged = 0;
};

/// Wire format of one aggregation buffer ("XDSB" version 2): a 40-byte
/// header {magic u32, version u32, sender shard u32, dest shard u32, record
/// count u64, sequence u64, crc32c u32, reserved u32} followed by `count`
/// packed 28-byte records {slot u32, from u32, Message{tag u32, words[2]
/// u64}}, all little-endian.  The CRC-32C covers the whole frame with the
/// crc field's four bytes taken as zero; the sequence number stamps every
/// frame of one logical exchange so stale retransmits are rejectable.
/// deliver() swaps buffers through shared memory; a process-boundary
/// transport would ship exactly these bytes (docs/sharding.md,
/// docs/robustness.md).
inline constexpr std::uint32_t kShardBufferMagic = 0x42534458u;  // "XDSB"
inline constexpr std::uint32_t kShardBufferVersion = 2;

[[nodiscard]] std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq = 0);
/// Strict decode: throws CheckError on any structural or integrity defect.
/// Any version other than kShardBufferVersion is rejected.  `seq`
/// (optional) receives the frame's sequence number.
void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out,
                         std::uint64_t* seq = nullptr);
/// Non-throwing decode for transport loops that expect damaged frames:
/// returns false (and leaves *out unspecified) instead of throwing.
[[nodiscard]] bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                                           std::uint32_t* sender_shard,
                                           std::uint32_t* dest_shard,
                                           detail::StagingBuffer* out,
                                           std::uint64_t* seq = nullptr);

/// The S-shard delivery plane every Network runs.  Owned by Network; all
/// staging entry points validate there first.
class ShardPlane {
 public:
  /// Partition the graph's vertices into `shards` contiguous ranges
  /// (range s = [n*s/S, n*(s+1)/S), the scheduler's partition formula).
  /// Drops any staged traffic and the last delivery's inboxes.
  void configure(const Graph& g, int shards);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of(VertexId v) const {
    return static_cast<int>(vshard_[v]);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(int s) const {
    return {bounds_[static_cast<std::size_t>(s)],
            bounds_[static_cast<std::size_t>(s) + 1]};
  }

  /// Stage one pre-validated record into the buffer of (shard_of(from),
  /// shard of the slot's receiver).  Distinct sender shards may stage
  /// concurrently (disjoint buffer rows).  Every staging entry point (send,
  /// send_to, and the run_round send phase) lands here, so records arrive
  /// pre-partitioned -- delivery never re-scans a mixed buffer.  At S = 1
  /// the buffer is fixed and stage() does no shard or receiver lookup.
  void stage(std::uint32_t global_slot, VertexId from, const Message& msg);

  /// The S x S buffer exchange + per-shard scatter on at most `workers`
  /// workers (capped at S).  Canonicalizes every destination shard's
  /// traffic, reads congestion off the per-slot counts, publishes the
  /// global CSR offsets, and fills the per-shard inbox arenas.  Aggregation
  /// buffers are cleared afterwards (capacity retained); totals and
  /// per-shard timings land in last_delivery().
  void deliver(int workers);

  /// Messages the last deliver() left for v.
  [[nodiscard]] std::span<const Envelope> inbox(VertexId v) const {
    const auto s = static_cast<std::size_t>(vshard_[v]);
    return {arena_[s].data() + (offsets_[v] - shard_msg_base_[s]),
            offsets_[v + 1] - offsets_[v]};
  }

  /// Records staged across all aggregation buffers (diagnostics).
  [[nodiscard]] std::size_t staged() const;

  [[nodiscard]] const ShardDeliveryStats& last_delivery() const {
    return stats_;
  }

 private:
  [[nodiscard]] std::size_t index(int sender, int dest) const {
    return static_cast<std::size_t>(sender) *
               static_cast<std::size_t>(shards_) +
           static_cast<std::size_t>(dest);
  }

  /// Fault-armed transport step, run serially at the top of deliver() when
  /// S > 1: every aggregation buffer crosses the exchange as an XDSB v2
  /// frame, injected faults (shard.drop / corrupt / dup / reorder) damage
  /// frames in flight, and each destination column recovers by bounded
  /// re-request from the senders' retained staging copies.  Decoded buffers
  /// replace the originals marked unsorted, so phase A recomputes order and
  /// congestion from the wire content -- bit-identical results under any
  /// recoverable fault schedule.  Exhausted retries throw CheckError.
  void wire_exchange();

  /// Phase A for dest shard s: per-slot counts (dense_[s]) or per-buffer
  /// canonical order (staging order if it stayed sorted, else a stable
  /// (slot, index) key sort recorded in order_), the shard's congestion,
  /// and per-receiver message counts.
  void phase_count(int s);
  /// Phase B for dest shard s: publish global offsets, scatter the S
  /// buffers in sender-shard order into this shard's arena.
  void phase_scatter(int s);

  /// Stage-time fill state of one aggregation buffer: whether its slots
  /// are still ascending, and the last slot staged.  Reset by deliver().
  struct Fill {
    bool sorted = true;
    std::uint32_t prev = 0;
  };

  const Graph* graph_ = nullptr;
  int shards_ = 1;
  std::vector<std::size_t> bounds_;  ///< size S+1: shard vertex ranges
  std::vector<std::uint32_t> vshard_;  ///< size n: vertex -> shard
  /// S x S aggregation buffers, row-major by sender shard.
  std::vector<detail::StagingBuffer> bufs_;
  std::vector<Fill> fill_;  ///< per buffer, maintained by stage()
  /// Per buffer: canonical visit order when the staged order was unsorted
  /// (empty = already canonical, visit in staging order).
  std::vector<std::vector<std::uint32_t>> order_;
  /// Per dest shard: counting path selected, congestion, inbox arena,
  /// receiver counts/cursors scratch, and (slot, index) key scratch.
  std::vector<char> dense_;
  std::vector<std::uint64_t> congestion_;
  std::vector<std::vector<Envelope>> arena_;
  std::vector<std::vector<std::uint32_t>> counts_;
  std::vector<std::vector<std::uint64_t>> key_scratch_;
  /// Per directed slot (lazily sized to the slot count): message counts,
  /// then scatter cursors, for shards on the counting path.  All zero
  /// between deliveries; each slot is written only by the worker owning
  /// its receiver's shard.
  std::vector<std::uint32_t> slot_counts_;
  /// Size n+1: global CSR inbox offsets published by the last deliver().
  std::vector<std::uint32_t> offsets_;
  /// Size S+1: global message offset where each shard's arena begins.
  std::vector<std::uint32_t> shard_msg_base_;
  /// Logical-exchange sequence stamped into every wire frame.
  std::uint64_t exchange_seq_ = 0;
  ShardDeliveryStats stats_;
};

inline void ShardPlane::stage(std::uint32_t global_slot, VertexId from,
                              const Message& msg) {
  const std::size_t idx =
      shards_ > 1
          ? index(shard_of(from), shard_of(graph_->slot_target(global_slot)))
          : 0;
  // Sortedness rides along with the fill, so delivery needs no detection
  // pass to pick a strategy.
  Fill& f = fill_[idx];
  f.sorted = f.sorted && global_slot >= f.prev;
  f.prev = global_slot;
  bufs_[idx].push(global_slot, from, msg);
}

}  // namespace xd::congest
