#include "congest/network.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "congest/scheduler.hpp"
#include "util/check.hpp"

namespace xd::congest {

int parse_shard_count(const char* text) {
  XD_CHECK_MSG(text != nullptr, "shard count: null string");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  XD_CHECK_MSG(end != text, "shard count '" << text << "' is not a number");
  while (*end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end)) != 0) {
    ++end;
  }
  XD_CHECK_MSG(*end == '\0',
               "shard count '" << text << "' has trailing garbage");
  XD_CHECK_MSG(errno != ERANGE && v >= 1 && v <= (1L << 20),
               "shard count " << text << " out of range [1, 2^20]");
  return static_cast<int>(v);
}

Network::Network(const Graph& graph, RoundLedger& ledger, std::uint64_t seed)
    : graph_(&graph),
      ledger_(&ledger),
      inbox_offsets_(graph.num_vertices() + 1, 0),
      cursor_(graph.num_vertices() + 1, 0) {
  Rng master(seed);
  rngs_.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    rngs_.push_back(master.fork(v));
  }
  // XD_SHARDS > 1 turns the sharded plane on for every network in the
  // process -- how the *_sharded CTest variants re-run whole suites over
  // the plane without touching call sites (docs/sharding.md).
  if (const char* env = std::getenv("XD_SHARDS")) {
    const int s = parse_shard_count(env);
    if (s > 1) set_shards(s);
  }
}

void Network::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  threads_ = threads;
}

void Network::set_shards(int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  XD_CHECK_MSG(staged() == 0,
               "cannot reshard while " << staged() << " messages are staged");
  plane_.configure(*graph_, shards);
}

void Network::stage(detail::StagingBuffer& buf, VertexId from,
                    std::uint32_t slot, const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(slot < graph_->degree(from),
               "slot " << slot << " out of range for vertex " << from);
  const VertexId to = graph_->neighbors(from)[slot];
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  // Directed slot index: position of this slot in the global CSR layout.
  // Unique per (from, slot) pair, which is exactly per directed edge use.
  buf.push(graph_->slot_base(from) + slot, from, msg);
}

void Network::stage_to(detail::StagingBuffer& buf, VertexId from, VertexId to,
                       const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  std::uint64_t probes = 0;
  const std::uint32_t slot = graph_->slot_of(from, to, &probes);
  slot_lookup_probes_.fetch_add(probes, std::memory_order_relaxed);
  XD_CHECK_MSG(slot != Graph::kNoSlot,
               "send_to: {" << from << "," << to << "} is not an edge");
  buf.push(graph_->slot_base(from) + slot, from, msg);
}

void Network::stage_sharded(int sender_shard, VertexId from,
                            std::uint32_t slot, const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(slot < graph_->degree(from),
               "slot " << slot << " out of range for vertex " << from);
  const VertexId to = graph_->neighbors(from)[slot];
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  plane_.stage(sender_shard, graph_->slot_base(from) + slot, from, msg);
}

void Network::stage_to_sharded(int sender_shard, VertexId from, VertexId to,
                               const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  std::uint64_t probes = 0;
  const std::uint32_t slot = graph_->slot_of(from, to, &probes);
  slot_lookup_probes_.fetch_add(probes, std::memory_order_relaxed);
  XD_CHECK_MSG(slot != Graph::kNoSlot,
               "send_to: {" << from << "," << to << "} is not an edge");
  plane_.stage(sender_shard, graph_->slot_base(from) + slot, from, msg);
}

void Network::send(VertexId from, std::uint32_t slot, const Message& msg) {
  // Sharded, staging aggregates at the sender: records go straight into the
  // sender shard's per-destination buffers (per-sender staging order -- the
  // only order the canonical delivery sort can observe -- is preserved).
  if (plane_.active()) {
    XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
    stage_sharded(plane_.shard_of(from), from, slot, msg);
    return;
  }
  stage(outbox_, from, slot, msg);
}

void Network::send_to(VertexId from, VertexId to, const Message& msg) {
  if (plane_.active()) {
    XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
    stage_to_sharded(plane_.shard_of(from), from, to, msg);
    return;
  }
  stage_to(outbox_, from, to, msg);
}

std::uint64_t Network::exchange(std::string_view reason) {
  return do_exchange(reason, /*has_override=*/false, 0);
}

std::uint64_t Network::exchange_charging(std::string_view reason,
                                         std::uint64_t rounds_override) {
  return do_exchange(reason, /*has_override=*/true, rounds_override);
}

std::uint64_t Network::do_exchange(std::string_view reason, bool has_override,
                                   std::uint64_t rounds_override) {
  if (plane_.active()) {
    return do_exchange_sharded(reason, has_override, rounds_override);
  }
  const std::size_t n = graph_->num_vertices();
  const std::size_t staged_count = outbox_.size();
  XD_CHECK_MSG(staged_count < (std::uint64_t{1} << 32),
               "too many staged messages for one exchange");

  // Canonical delivery order: ascending (directed slot, staging index).
  // Ties in slot are same-sender re-sends, kept in staging order; distinct
  // senders never share a slot, so the order is independent of how the
  // staging was interleaved across worker buffers.  Both paths below
  // produce exactly this order; they differ only in cost shape.
  const std::uint64_t volume = graph_->volume();
  std::uint64_t max_congestion = 0;
  arena_.resize(staged_count);

  // Fast path: staging order already IS the canonical order (true for
  // every vertex-ascending protocol and for the parallel executor's
  // worker-merge).  One fused pass detects sortedness while computing run
  // congestion and receiver counts; if it survives, one in-order scatter
  // finishes delivery -- no reordering at all.
  bool sorted = true;
  if (staged_count > 0) {
    std::fill(cursor_.begin(), cursor_.end(), 0);
    std::uint64_t run = 0;
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < staged_count; ++i) {
      const std::uint32_t s = outbox_.slot[i];
      if (i > 0 && s < prev) {
        sorted = false;
        break;
      }
      run = i > 0 && s == prev ? run + 1 : 1;
      max_congestion = std::max(max_congestion, run);
      prev = s;
      ++cursor_[graph_->slot_target(s)];
    }
  }

  if (staged_count > 0 && sorted) {
    // cursor_ holds receiver counts; turn it into running start positions
    // while emitting the CSR offsets.
    inbox_offsets_[0] = 0;
    for (std::size_t v = 0; v < n; ++v) {
      inbox_offsets_[v + 1] = inbox_offsets_[v] + cursor_[v];
      cursor_[v] = inbox_offsets_[v];
    }
    for (std::size_t i = 0; i < staged_count; ++i) {
      // Hint the write-allocate for an upcoming destination; the cursor
      // may advance a little more before we get there, but the line it
      // points at now is almost always the line we will touch.
      if (i + 12 < staged_count) {
        const VertexId ahead = graph_->slot_target(outbox_.slot[i + 12]);
        // A tail-heavy receiver's cursor can already sit at the arena end;
        // clamp so the hint address stays inside (or one past) the
        // allocation instead of indexing out of bounds.
        __builtin_prefetch(
            arena_.data() + std::min<std::size_t>(cursor_[ahead], staged_count),
            1, 0);
      }
      const VertexId to = graph_->slot_target(outbox_.slot[i]);
      arena_[cursor_[to]++] = Envelope{outbox_.from[i], outbox_.msg[i]};
    }
  } else if (staged_count * 16 >= volume) {
    max_congestion = 0;  // discard the aborted fused pass's partial value
    // Dense path: pure counting passes, no sort.  Messages grouped by
    // directed slot are already grouped by receiver through the graph's
    // incoming-slot mirror index, so one O(S) count, one O(volume) offset
    // scan, and one O(S) scatter build the CSR inboxes; the counts array is
    // then bulk-zeroed (a streaming memset is cheaper than re-walking the
    // touched slots).
    if (slot_counts_.size() < volume) slot_counts_.resize(volume, 0);
    for (const std::uint32_t s : outbox_.slot) ++slot_counts_[s];
    std::uint32_t running = 0;
    for (std::size_t v = 0; v < n; ++v) {
      inbox_offsets_[v] = running;
      for (const std::uint32_t s : graph_->incoming_slots(v)) {
        const std::uint32_t c = slot_counts_[s];
        max_congestion = std::max<std::uint64_t>(max_congestion, c);
        // Repurpose the count as this slot's scatter cursor.
        slot_counts_[s] = running;
        running += c;
      }
    }
    inbox_offsets_[n] = running;
    for (std::size_t i = 0; i < staged_count; ++i) {
      arena_[slot_counts_[outbox_.slot[i]]++] =
          Envelope{outbox_.from[i], outbox_.msg[i]};
    }
    std::fill(slot_counts_.begin(), slot_counts_.end(), 0);
  } else {
    max_congestion = 0;  // discard the aborted fused pass's partial value
    // Sparse path: sort packed (slot, index) keys; avoids the O(volume)
    // scans when little traffic is staged.
    sort_keys_.resize(staged_count);
    for (std::size_t i = 0; i < staged_count; ++i) {
      sort_keys_[i] = (std::uint64_t{outbox_.slot[i]} << 32) |
                      static_cast<std::uint32_t>(i);
    }
    std::sort(sort_keys_.begin(), sort_keys_.end());
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < staged_count; ++i) {
      run = i > 0 && (sort_keys_[i] >> 32) == (sort_keys_[i - 1] >> 32)
                ? run + 1
                : 1;
      max_congestion = std::max(max_congestion, run);
    }
    std::fill(inbox_offsets_.begin(), inbox_offsets_.end(), 0);
    for (const std::uint32_t s : outbox_.slot) {
      ++inbox_offsets_[graph_->slot_target(s) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) {
      inbox_offsets_[v + 1] += inbox_offsets_[v];
    }
    std::copy(inbox_offsets_.begin(), inbox_offsets_.end(), cursor_.begin());
    for (std::size_t i = 0; i < staged_count; ++i) {
      const auto idx = static_cast<std::size_t>(sort_keys_[i] & 0xffffffffu);
      const VertexId to = graph_->slot_target(outbox_.slot[idx]);
      arena_[cursor_[to]++] = Envelope{outbox_.from[idx], outbox_.msg[idx]};
    }
  }

  outbox_.clear();
  return finish_exchange(reason, staged_count, max_congestion, has_override,
                         rounds_override);
}

std::uint64_t Network::do_exchange_sharded(std::string_view reason,
                                          bool has_override,
                                          std::uint64_t rounds_override) {
  // All staging entry points route into the plane while it is active (and
  // set_shards refuses pending traffic), so the mixed outbox is empty here.
  const int workers = std::min(std::max(threads_, 1), plane_.shards());
  plane_.deliver(inbox_offsets_, workers);
  const ShardDeliveryStats& st = plane_.last_delivery();
  return finish_exchange(reason, st.staged, st.max_congestion, has_override,
                         rounds_override);
}

std::uint64_t Network::finish_exchange(std::string_view reason,
                                       std::size_t staged_count,
                                       std::uint64_t max_congestion,
                                       bool has_override,
                                       std::uint64_t rounds_override) {
  ledger_->count_messages(staged_count);
  std::uint64_t rounds = std::max<std::uint64_t>(max_congestion, 1);
  if (has_override) {
    XD_CHECK_MSG(max_congestion <= std::max<std::uint64_t>(rounds_override, 1),
                 "exchange_charging: congestion " << max_congestion
                     << " exceeds declared rounds " << rounds_override);
    rounds = rounds_override;
  }
  if (rounds > 0) ledger_->charge(rounds, reason);
  return rounds;
}

std::uint64_t Network::run_round(VertexProgram& program,
                                 std::string_view reason) {
  if (plane_.active()) return run_round_sharded(program, reason);
  const std::size_t n = graph_->num_vertices();
  const int workers =
      static_cast<int>(std::min<std::size_t>(std::max(threads_, 1), n ? n : 1));

  if (workers <= 1) {
    Outbox out(this, &outbox_);
    for (VertexId v = 0; v < n; ++v) {
      out.vertex_ = v;
      program.on_send(v, out);
    }
    const std::uint64_t rounds = do_exchange(reason, false, 0);
    for (VertexId v = 0; v < n; ++v) program.on_receive(v, inbox(v));
    return rounds;
  }

  // Parallel executor: contiguous vertex ranges, one staging buffer per
  // worker, run on the shared worker pool (EpochScheduler::run_partitioned,
  // which also rethrows the first worker exception after its join barrier).
  // Merging buffers in worker order keeps each sender's messages contiguous
  // and in send order, which is all the canonical delivery sort needs for
  // bit-identical results at any thread count.  Each phase is one
  // dispatch to the scheduler's persistent worker pool (a wake-up and a
  // barrier, no thread spawn), so tiny rounds stay cheap.
  worker_bufs_.resize(static_cast<std::size_t>(workers));

  EpochScheduler::run_partitioned(
      n, workers, [&](int w, std::size_t lo, std::size_t hi) {
        auto& buf = worker_bufs_[static_cast<std::size_t>(w)];
        buf.clear();
        Outbox out(this, &buf);
        for (auto v = static_cast<VertexId>(lo); v < hi; ++v) {
          out.vertex_ = v;
          program.on_send(v, out);
        }
      });
  for (auto& buf : worker_bufs_) outbox_.append(buf);

  const std::uint64_t rounds = do_exchange(reason, false, 0);

  EpochScheduler::run_partitioned(
      n, workers, [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (auto v = static_cast<VertexId>(lo); v < hi; ++v) {
          program.on_receive(v, inbox(v));
        }
      });
  return rounds;
}

std::uint64_t Network::run_round_sharded(VertexProgram& program,
                                         std::string_view reason) {
  const int S = plane_.shards();
  const int workers = std::min(std::max(threads_, 1), S);

  // Send phase: the shard is the partition unit -- each worker runs whole
  // shards, staging through stage_sharded straight into that sender
  // shard's aggregation buffers (rows are disjoint across shards), so
  // which worker runs a shard can never change what gets staged where.
  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          Outbox out(this, nullptr);
          out.shard_ = static_cast<int>(s);
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            out.vertex_ = v;
            program.on_send(v, out);
          }
        }
      });

  const std::uint64_t rounds = do_exchange(reason, false, 0);

  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            program.on_receive(v, inbox(v));
          }
        }
      });
  return rounds;
}

std::uint64_t Network::run_rounds(VertexProgram& program, int rounds,
                                  std::string_view reason) {
  std::uint64_t total = 0;
  for (int r = 0; r < rounds; ++r) total += run_round(program, reason);
  return total;
}

void Network::tick(std::uint64_t rounds, std::string_view reason) {
  if (rounds > 0) ledger_->charge(rounds, reason);
}

// ---------------------------------------------------------------- Outbox --

void Outbox::send(std::uint32_t slot, const Message& msg) {
  if (shard_ >= 0) {
    net_->stage_sharded(shard_, vertex_, slot, msg);
  } else {
    net_->stage(*buf_, vertex_, slot, msg);
  }
}

void Outbox::send_to(VertexId to, const Message& msg) {
  if (shard_ >= 0) {
    net_->stage_to_sharded(shard_, vertex_, to, msg);
  } else {
    net_->stage_to(*buf_, vertex_, to, msg);
  }
}

Rng& Outbox::rng() const { return net_->rng(vertex_); }

}  // namespace xd::congest
