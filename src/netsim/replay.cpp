#include "hfast/netsim/replay.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>

#include "hfast/util/assert.hpp"
#include "replay_detail.hpp"

namespace hfast::netsim {

namespace detail {

ChannelTable::ChannelTable(const trace::Trace& trace,
                           std::span<const ChannelSeed> seeds) {
  const auto n = static_cast<std::size_t>(trace.nranks());
  const auto for_each = [&trace](std::size_t r, trace::EventKind kind,
                                 auto&& visit) {
    const trace::EventSpan ops = trace.rank_events(static_cast<int>(r));
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops.kind(i) == kind) visit(static_cast<std::size_t>(ops.peer(i)));
    }
  };
  // The channels sends name, counted and then filled in place. Senders are
  // visited in rank order, so every receiver's row comes out ascending; a
  // stamp per receiver drops a sender's repeats. Flat arrays only: a
  // vector per receiver scatters small blocks over the heap that the
  // network's route maps later allocate into, which slowed route prewarm
  // on the next replay's network by ~15% on dense P=64 traffic.
  std::vector<std::size_t> stamp(n);
  const auto each_send_channel = [&](auto&& visit) {
    std::fill(stamp.begin(), stamp.end(), n);
    for (std::size_t s = 0; s < n; ++s) {
      // Every rank's own channel, so that a row naming every other
      // sender is full and at() indexes it directly.
      stamp[s] = s;
      visit(s, s);
      for_each(s, trace::EventKind::kSend, [&](std::size_t peer) {
        if (stamp[peer] != s) {
          stamp[peer] = s;
          visit(peer, s);
        }
      });
    }
  };
  offsets_.assign(n + 1, 0);
  each_send_channel(
      [&](std::size_t peer, std::size_t) { ++offsets_[peer + 1]; });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  senders_.resize(offsets_[n]);
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  each_send_channel([&](std::size_t peer, std::size_t s) {
    senders_[next[peer]++] = static_cast<int>(s);
  });

  // Channels only a receive or a seed names: a stall, or traffic carried
  // in from an earlier window. Usually none; merge any into their rows.
  std::vector<std::pair<std::size_t, int>> extra;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = offsets_[r]; i < offsets_[r + 1]; ++i) {
      stamp[static_cast<std::size_t>(senders_[i])] = n + r;
    }
    for_each(r, trace::EventKind::kRecv, [&](std::size_t peer) {
      if (stamp[peer] != n + r) {
        stamp[peer] = n + r;
        extra.emplace_back(r, static_cast<int>(peer));
      }
    });
  }
  for (const ChannelSeed& s : seeds) {
    const auto r = static_cast<std::size_t>(s.receiver);
    const auto row = senders_.begin();
    if (!std::binary_search(row + static_cast<std::ptrdiff_t>(offsets_[r]),
                            row + static_cast<std::ptrdiff_t>(offsets_[r + 1]),
                            s.sender)) {
      extra.emplace_back(r, s.sender);
    }
  }
  if (!extra.empty()) {
    std::sort(extra.begin(), extra.end());
    extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
    std::vector<int> merged;
    merged.reserve(senders_.size() + extra.size());
    auto e = extra.begin();
    for (std::size_t r = 0; r < n; ++r) {
      // offsets_[r + 1] still holds the old row end: it is rewritten only
      // in the next iteration.
      auto row = senders_.begin() + static_cast<std::ptrdiff_t>(offsets_[r]);
      const auto row_end =
          senders_.begin() + static_cast<std::ptrdiff_t>(offsets_[r + 1]);
      offsets_[r] = merged.size();
      for (; e != extra.end() && e->first == r; ++e) {
        while (row != row_end && *row < e->second) merged.push_back(*row++);
        merged.push_back(e->second);
      }
      merged.insert(merged.end(), row, row_end);
    }
    offsets_[n] = merged.size();
    senders_.swap(merged);
  }
  slots_.resize(senders_.size());

  // Seeded arrivals precede every event-produced arrival on their channel.
  for (const ChannelSeed& s : seeds) {
    ChannelFifo& fifo = at(s.receiver, s.sender).fifo;
    for (std::uint64_t k = 0; k < s.count; ++k) fifo.push(0.0);
  }
}

ReplayState::ReplayState(const trace::Trace& trace, const ReplayParams& p,
                         std::span<const ChannelSeed> seeds)
    : params(p),
      nranks(trace.nranks()),
      ranks(static_cast<std::size_t>(trace.nranks())),
      channels(trace, seeds) {
  for (int r = 0; r < nranks; ++r) {
    ranks[static_cast<std::size_t>(r)].ops = trace.rank_events(r);
  }
}

ReplayResult ReplayState::finish() {
  if (!std::all_of(ranks.begin(), ranks.end(),
                   [](const RankState& rs) { return rs.done(); })) {
    throw Error("replay: trace stalled — receive without a matching send");
  }
  // Rank clocks are monotone, so the per-rank final clock is that rank's
  // completion time.
  for (const RankState& rs : ranks) {
    result.makespan_s = std::max(result.makespan_s, rs.clock);
    result.total_recv_wait_s += rs.recv_wait;
  }
  if (result.messages > 0) {
    result.avg_message_latency_s =
        sum_latency / static_cast<double>(result.messages);
    result.avg_switch_hops = sum_hops / static_cast<double>(result.messages);
  }
  return result;
}

}  // namespace detail

namespace {

/// Reject events that index outside the trace's rank space. Traces are
/// runtime data — possibly a hand-edited load_text file — so a malformed
/// event is an Error, not a caller contract violation. Scans the full
/// column range (including events a malformed rank pushed outside every
/// rank's span), reading only the three columns it checks.
void validate_events(const trace::Trace& trace) {
  const int n = trace.nranks();
  const trace::EventColumns& c = trace.columns();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.rank[i] < 0 || c.rank[i] >= n) {
      throw Error("replay: event rank " + std::to_string(c.rank[i]) +
                  " outside [0, " + std::to_string(n) + ")");
    }
    if (c.kind[i] == trace::EventKind::kCollective) {
      // Collectives are peerless by contract; a stray peer means the event
      // stream was corrupted or hand-edited inconsistently.
      if (c.peer[i] != mpisim::kNoPeer) {
        throw Error("replay: collective event with peer " +
                    std::to_string(c.peer[i]) + " (expected " +
                    std::to_string(mpisim::kNoPeer) + ") on rank " +
                    std::to_string(c.rank[i]));
      }
    } else if (c.peer[i] < 0 || c.peer[i] >= n) {
      throw Error("replay: point-to-point peer " + std::to_string(c.peer[i]) +
                  " outside [0, " + std::to_string(n) + ") on rank " +
                  std::to_string(c.rank[i]));
    }
  }
}

void validate_seeds(std::span<const ChannelSeed> seeds, int nranks) {
  for (const ChannelSeed& s : seeds) {
    if (s.receiver < 0 || s.receiver >= nranks || s.sender < 0 ||
        s.sender >= nranks) {
      throw Error("replay: channel seed (" + std::to_string(s.sender) +
                  " -> " + std::to_string(s.receiver) + ") outside [0, " +
                  std::to_string(nranks) + ")");
    }
  }
}

/// Populate the network's route caches for every ordered pair the trace
/// sends on, so replay-time transfer()/switch_hops() queries are pure
/// lookups. The sharded loop requires this (shards share one network for
/// read-only hop queries); the serial loop does it too so both exercise
/// the same network state.
void prewarm_routes(const trace::Trace& trace, Network& net) {
  const trace::EventColumns& c = trace.columns();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i]) {
      net.prewarm_route(c.rank[i], c.peer[i]);
    }
  }
}

/// The serial loop, driven by transfers. Each rank runs on its own until
/// it issues a cross-rank send, blocks or finishes; the least pending send
/// is sequenced next, and then only its sender, and the receiver if it
/// woke, can move. This is the transfer order of an event-by-event loop
/// over (clock, rank) (DESIGN.md has why), at one heap operation per
/// transfer instead of per event.
void run_serial(detail::ReplayState& state, Network& net) {
  detail::TransferHeap sends;
  const auto advance = [&](int r) {
    const detail::RankState& rs = state.ranks[static_cast<std::size_t>(r)];
    bool issued = false;
    const auto submit = [&](const detail::PendingTransfer& t) {
      sends.push(t);
      issued = true;
    };
    while (!issued && !rs.blocked && !rs.done()) state.step(r, submit);
  };
  for (int r = 0; r < state.nranks; ++r) advance(r);
  while (!sends.empty()) {
    const detail::PendingTransfer t = sends.top();
    sends.pop();
    const bool woke = state.sequence(net, t);
    advance(t.src);
    if (woke) advance(t.dst);
  }
}

}  // namespace

ReplayResult replay(const trace::Trace& trace, Network& net,
                    const ReplayParams& params, const ReplayOptions& options) {
  HFAST_EXPECTS_MSG(trace.nranks() <= net.num_endpoints(),
                    "network too small for the trace");
  HFAST_EXPECTS_MSG(options.shards >= 0, "replay: negative shard count");
  HFAST_EXPECTS_MSG(options.channel_capacity > 0,
                    "replay: channel capacity must be positive");
  validate_events(trace);
  validate_seeds(options.seeds, trace.nranks());
  net.reset();
  prewarm_routes(trace, net);
  detail::ReplayState state(trace, params, options.seeds);

  int shards = options.shards;
  if (shards == 0) {
    shards = static_cast<int>(std::thread::hardware_concurrency());
  }
  shards = std::clamp(shards, 1, std::max(1, trace.nranks()));
  // Conservative lookahead: a transfer injected at t cannot deliver before
  // t + min link latency, and the woken receiver cannot inject a new
  // transfer before paying the send overhead on top. With zero lookahead
  // the window never admits more than the front event and ordering ties at
  // equal times cannot be ruled out, so shards could not run ahead of the
  // sequencer — the serial loop is the algorithm for that case.
  const double lookahead =
      net.min_transfer_latency_s() + params.send_overhead_s;
  if (shards > 1 && lookahead > 0.0) {
    detail::run_sharded(state, net, shards, options.channel_capacity,
                        lookahead);
  } else {
    run_serial(state, net);
  }
  return state.finish();
}

}  // namespace hfast::netsim
