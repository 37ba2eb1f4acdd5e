#pragma once
/// \file replay_detail.hpp
/// The replay kernel shared by the serial loop (replay.cpp) and the
/// partitioned-clock sequencer (replay_parallel.cpp). The two are
/// contractually bit-identical, so every rule they both apply lives here
/// exactly once: the rank stepper (the only switch over EventKind), the
/// channel table, the heap of pending transfers, and the transfer
/// accounting and final reduction. Both loops pop transfers off that heap
/// in one order and differ only in how far they let ranks run ahead — one
/// rank to its next send in the serial loop, whole shards to quiescence
/// inside a conservative window in the sharded one.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/trace/trace.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::netsim::detail {

/// Per-rank execution state. `ops` is a zero-copy span into the trace's
/// sorted columns (the per-rank offset index makes it O(1) to obtain).
/// `recv_wait` accumulates rank-locally in event order and is reduced over
/// ranks at the end, so the float sum never depends on how ranks
/// interleave.
struct RankState {
  trace::EventSpan ops;
  std::size_t pos = 0;
  double clock = 0.0;
  double recv_wait = 0.0;
  bool blocked = false;

  bool done() const noexcept { return pos >= ops.size(); }
};

/// Arrival-time FIFO backed by a flat vector with a consumed-prefix index:
/// no per-node allocation (unlike std::deque), and an empty channel costs
/// nothing but the struct itself. The consumed prefix is reclaimed whenever
/// it outgrows the live tail, keeping memory proportional to in-flight
/// messages.
struct ChannelFifo {
  std::vector<double> arrivals;
  std::size_t head = 0;

  bool empty() const noexcept { return head == arrivals.size(); }
  void push(double t) { arrivals.push_back(t); }
  double pop() {
    const double t = arrivals[head++];
    if (head > 64 && head * 2 > arrivals.size()) {
      arrivals.erase(arrivals.begin(),
                     arrivals.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    return t;
  }
};

struct ChannelSlot {
  ChannelFifo fifo;
  bool waiting = false;  ///< the receiver is blocked on exactly this channel
};

/// Sparse CSR table of the (sender -> receiver) channels a replay can
/// touch: those the trace's sends and receives name, the seeded ones, and
/// each rank's own. Each receiver's senders are sorted, so a lookup is one
/// binary search over that rank's partners — the paper's point is that
/// TDC << P, so a dense P^2 table would be almost all empty slots. A full
/// row (all-to-all traffic) is indexed directly instead. Slots of one
/// receiver are touched only by that receiver's shard during a round and
/// by the sequencer between rounds, so shards share the table without
/// locks.
class ChannelTable {
 public:
  ChannelTable(const trace::Trace& trace, std::span<const ChannelSeed> seeds);

  ChannelSlot& at(int receiver, int sender) {
    const auto r = static_cast<std::size_t>(receiver);
    std::size_t first = offsets_[r];
    std::size_t len = offsets_[r + 1] - first;
    if (len == offsets_.size() - 1) {  // a full row: every rank sends here
      return slots_[first + static_cast<std::size_t>(sender)];
    }
    // Branch-free binary search (a conditional move per level, no
    // mispredicted jumps): narrows to the last sender <= `sender`.
    while (len > 1) {
      const std::size_t half = len / 2;
      first = senders_[first + half] <= sender ? first + half : first;
      len -= half;
    }
    HFAST_ASSERT(len == 1 && senders_[first] == sender);
    return slots_[first];
  }

 private:
  std::vector<std::size_t> offsets_;  ///< receiver -> first slot, n + 1
  std::vector<int> senders_;          ///< per slot, ascending per receiver
  std::vector<ChannelSlot> slots_;
};

/// One cross-rank message awaiting sequencing: the sender already advanced
/// past it (its only local effect is the send overhead); the network owes
/// it a transfer() at `start` and the receiver an arrival.
struct PendingTransfer {
  double issue = 0.0;  ///< sender clock when the send op was dequeued
  double start = 0.0;  ///< injection time (issue + send overhead)
  int src = -1;
  int dst = -1;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;  ///< sender-local op position, for stable ties

  /// The order transfers reach the network: (issue clock, rank, op), the
  /// order of an event-by-event loop that dequeues ranks by (clock, rank).
  /// The key must be `issue`, not `start`: clock -> clock + overhead is
  /// monotone but not injective in floating point (adding the overhead can
  /// cross a binade and collapse two clocks one ulp apart into the same
  /// start), and sorting such a collapsed group by src would reorder it
  /// against a stateful network. Ordering by `issue` refines the start
  /// order, so the sequencer's window logic — whose safety argument is
  /// about start times — is unaffected.
  bool operator<(const PendingTransfer& o) const {
    if (issue != o.issue) return issue < o.issue;
    if (src != o.src) return src < o.src;
    return seq < o.seq;
  }
};

/// Transfers issued but not yet sequenced, least on top under
/// PendingTransfer's order (std::priority_queue keeps the largest on top,
/// hence `Later`). Both loops sequence what they pop off it.
struct Later {
  bool operator()(const PendingTransfer& a, const PendingTransfer& b) const {
    return b < a;
  }
};
using TransferHeap =
    std::priority_queue<PendingTransfer, std::vector<PendingTransfer>, Later>;

/// Everything one replay mutates, and the three steps both loops share.
struct ReplayState {
  ReplayState(const trace::Trace& trace, const ReplayParams& params,
              std::span<const ChannelSeed> seeds);

  ReplayParams params;
  int nranks;
  std::vector<RankState> ranks;
  ChannelTable channels;
  ReplayResult result;
  double sum_latency = 0.0;
  double sum_hops = 0.0;

  /// Execute rank `self`'s next event. A receive on an empty channel
  /// blocks the rank instead (the arrival that fills the channel wakes
  /// it). A cross-rank send is handed to `send`, which queues it for
  /// sequencing. The sender's clock never depends on its own transfer, so
  /// a rank can run ahead of the sequencer.
  template <typename Send>
  void step(int self, Send&& send) {
    RankState& rs = ranks[static_cast<std::size_t>(self)];
    switch (rs.ops.kind(rs.pos)) {
      case trace::EventKind::kSend: {
        const trace::Rank peer = rs.ops.peer(rs.pos);
        const double issue = rs.clock;
        rs.clock += params.send_overhead_s;
        if (peer != self) {
          send(PendingTransfer{issue, rs.clock, self, peer,
                               rs.ops.bytes(rs.pos),
                               static_cast<std::uint64_t>(rs.pos)});
        } else {
          // Self-send: arrival is the injection time, no network
          // traversal, no message stats.
          channels.at(self, self).fifo.push(rs.clock);
        }
        break;
      }
      case trace::EventKind::kRecv: {
        ChannelSlot& slot = channels.at(self, rs.ops.peer(rs.pos));
        if (slot.fifo.empty()) {
          rs.blocked = true;
          slot.waiting = true;
          return;
        }
        const double arrival = slot.fifo.pop();
        if (arrival > rs.clock) {
          rs.recv_wait += arrival - rs.clock;
          rs.clock = arrival;
        }
        rs.clock += params.recv_overhead_s;
        break;
      }
      case trace::EventKind::kCollective: {
        // The dedicated tree network (paper §2.4): up the log2(P)-depth
        // combine tree and back down, plus payload serialization at tree
        // bandwidth.
        const int levels =
            nranks <= 1 ? 0 : static_cast<int>(std::ceil(std::log2(nranks)));
        rs.clock += params.send_overhead_s +
                    (2.0 * levels * params.tree_hop_latency_s +
                     static_cast<double>(rs.ops.bytes(rs.pos)) /
                         params.tree_bandwidth_bps);
        break;
      }
    }
    ++rs.pos;
  }

  /// Apply one cross-rank transfer to the network, account for it, and
  /// deliver its arrival. Both loops call this in the same global order.
  /// Returns true when the arrival woke its blocked receiver.
  bool sequence(Network& net, const PendingTransfer& t) {
    const double arrival = net.transfer(t.src, t.dst, t.bytes, t.start);
    const double latency = arrival - t.start;
    sum_latency += latency;
    result.max_message_latency_s =
        std::max(result.max_message_latency_s, latency);
    const int hops = net.switch_hops(t.src, t.dst);
    sum_hops += hops;
    result.max_switch_hops = std::max(result.max_switch_hops, hops);
    ++result.messages;
    result.bytes += t.bytes;

    ChannelSlot& slot = channels.at(t.dst, t.src);
    slot.fifo.push(arrival);
    if (!slot.waiting) return false;
    slot.waiting = false;
    ranks[static_cast<std::size_t>(t.dst)].blocked = false;
    return true;
  }

  /// Throw if a rank never finished; otherwise reduce the per-rank clocks
  /// and waits in rank order and return the result.
  ReplayResult finish();
};

/// The sharded loop (replay_parallel.cpp): `shards` >= 2 threads, window
/// width `lookahead` > 0.
void run_sharded(ReplayState& state, Network& net, int shards,
                 std::size_t channel_capacity, double lookahead);

}  // namespace hfast::netsim::detail
