/// Differential test of trace replay against an independent reference.
///
/// The serial loop and the sharded sequencer share their rank stepper,
/// their transfer accounting and their transfer order, so the serial-vs-
/// sharded parity suites cannot see a fault in the shared code. The
/// reference below is written from the replay spec in DESIGN.md alone: the
/// plain event-by-event loop that dequeues one rank at a time in (clock,
/// rank) order and sends every cross-rank message to the network the moment
/// it is issued. It shares nothing with the library's replay but the
/// Network interface. Random valid traces — interleaved matched send/recv
/// programs, collectives, self-sends, channel seeds and unmatched sends —
/// must replay to the same ReplayResult, bit for bit, on the reference,
/// the serial loop and the sharded sequencer at K = 2, 3 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_reconfig.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/window.hpp"
#include "hfast/util/random.hpp"

namespace hfast::netsim {
namespace {

using trace::CommEvent;
using trace::EventKind;

/// A generated replay input: each rank's program, and the seeds.
struct Case {
  int nranks = 0;
  std::vector<std::vector<CommEvent>> programs;
  std::vector<ChannelSeed> seeds;

  void append(int rank, EventKind kind, int peer, std::uint64_t bytes) {
    auto& program = programs[static_cast<std::size_t>(rank)];
    CommEvent e;
    e.rank = rank;
    e.op_index = program.size();
    e.kind = kind;
    e.call = kind == EventKind::kCollective ? mpisim::CallType::kAllreduce
                                            : mpisim::CallType::kSend;
    e.peer = peer;
    e.bytes = bytes;
    program.push_back(e);
  }

  trace::Trace trace() const {
    std::vector<CommEvent> all;
    for (const auto& p : programs) all.insert(all.end(), p.begin(), p.end());
    return trace::Trace(nranks, std::move(all), {""});
  }
};

/// What a generated case contains, so the test can check it covered every
/// event shape it claims to.
struct Shapes {
  int sends = 0, recvs = 0, self_sends = 0, collectives = 0, unmatched = 0;
};

/// A random trace that cannot stall. Events are generated in one global
/// order, and that order is itself a valid execution: a receive is only
/// appended to a channel that already holds an undelivered send or seed,
/// so every rank's k-th receive on a channel matches the channel's k-th
/// arrival. Whatever is left undelivered at the end stays unmatched.
/// Unless `seeded`, the case carries no channel seeds.
Case random_case(int nranks, int events, std::uint64_t seed, Shapes* shapes,
                 bool seeded = true) {
  util::Rng rng(seed);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
  };
  const auto pick_bytes = [&rng]() -> std::uint64_t {
    switch (rng.uniform(4)) {
      case 0: return 0;  // arrives exactly at its start on a zero-latency link
      case 1: return 8;  // many equal sizes make many equal clocks
      case 2: return 1 + rng.uniform(4096);
      default: return 1 + rng.uniform(256 * 1024);
    }
  };
  Case c;
  c.nranks = nranks;
  c.programs.resize(static_cast<std::size_t>(nranks));
  // (receiver, sender) -> arrivals not yet received.
  std::map<std::pair<int, int>, int> undelivered;
  const int nseeds = seeded ? pick(2 * nranks) : 0;
  for (int i = 0; i < nseeds; ++i) {
    ChannelSeed s;
    s.receiver = pick(nranks);
    s.sender = rng.uniform(8) == 0 ? s.receiver : pick(nranks);
    s.count = rng.uniform(3);  // a zero-count seed is legal and inert
    c.seeds.push_back(s);
    undelivered[{s.receiver, s.sender}] += static_cast<int>(s.count);
  }
  Shapes local;
  for (int i = 0; i < events; ++i) {
    const auto roll = rng.uniform(100);
    if (roll < 40) {
      const int src = pick(nranks);
      const int dst = (src + 1 + pick(nranks - 1)) % nranks;
      c.append(src, EventKind::kSend, dst, pick_bytes());
      ++undelivered[{dst, src}];
      ++local.sends;
    } else if (roll < 48) {
      const int r = pick(nranks);
      c.append(r, EventKind::kSend, r, pick_bytes());
      ++undelivered[{r, r}];
      ++local.self_sends;
    } else if (roll < 88) {
      // Receive on a random channel that holds an arrival, if any does.
      std::vector<std::pair<int, int>> ready;
      for (const auto& [channel, n] : undelivered) {
        if (n > 0) ready.push_back(channel);
      }
      if (ready.empty()) continue;
      const auto [receiver, sender] =
          ready[static_cast<std::size_t>(pick(static_cast<int>(ready.size())))];
      c.append(receiver, EventKind::kRecv, sender, 0);
      --undelivered[{receiver, sender}];
      ++local.recvs;
    } else if (roll < 97) {
      c.append(pick(nranks), EventKind::kCollective, mpisim::kNoPeer,
             pick_bytes());
      ++local.collectives;
    } else {
      // A world collective: every rank pays the tree at its own clock.
      const std::uint64_t bytes = pick_bytes();
      for (int r = 0; r < nranks; ++r) {
        c.append(r, EventKind::kCollective, mpisim::kNoPeer, bytes);
      }
      local.collectives += nranks;
    }
  }
  for (const auto& [channel, n] : undelivered) local.unmatched += n;
  if (shapes != nullptr) *shapes = local;
  return c;
}

/// The reference replay, from the spec: one event per dequeue, ranks
/// dequeued by (clock, rank); a send pays the send overhead and, to another
/// rank, traverses the network at once; a receive takes its channel's
/// oldest arrival (seeds first, at t = 0), waiting for it if it lies ahead,
/// then pays the receive overhead, and blocks the rank while the channel is
/// empty; a collective costs the send overhead plus a ceil(log2 P)-level
/// tree traversal up and down plus its payload at tree bandwidth. Stats
/// accumulate in transfer order; per-rank waits are summed in rank order.
ReplayResult reference_replay(const Case& c, Network& net,
                              const ReplayParams& p) {
  struct Rank {
    std::size_t pos = 0;
    double clock = 0.0;
    double wait = 0.0;
    int blocked_on = -1;  ///< the sender of the empty channel, or -1
  };
  const int n = c.nranks;
  std::vector<Rank> ranks(static_cast<std::size_t>(n));
  std::map<std::pair<int, int>, std::deque<double>> channels;
  for (const ChannelSeed& s : c.seeds) {
    auto& fifo = channels[{s.receiver, s.sender}];
    for (std::uint64_t k = 0; k < s.count; ++k) fifo.push_back(0.0);
  }
  net.reset();
  using Entry = std::pair<double, int>;  // (clock, rank), least first
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  const auto done = [&](int r) {
    return ranks[static_cast<std::size_t>(r)].pos ==
           c.programs[static_cast<std::size_t>(r)].size();
  };
  for (int r = 0; r < n; ++r) {
    if (!done(r)) queue.push({0.0, r});
  }
  ReplayResult out;
  double sum_latency = 0.0;
  double sum_hops = 0.0;
  const int levels = n <= 1 ? 0 : static_cast<int>(std::ceil(std::log2(n)));
  while (!queue.empty()) {
    const auto [clock, r] = queue.top();
    queue.pop();
    Rank& me = ranks[static_cast<std::size_t>(r)];
    if (me.blocked_on != -1 || done(r) || clock != me.clock) continue;
    const CommEvent& e = c.programs[static_cast<std::size_t>(r)][me.pos];
    if (e.kind == EventKind::kSend) {
      me.clock += p.send_overhead_s;
      double arrival = me.clock;
      if (e.peer != r) {
        arrival = net.transfer(r, e.peer, e.bytes, me.clock);
        const double latency = arrival - me.clock;
        sum_latency += latency;
        out.max_message_latency_s =
            std::max(out.max_message_latency_s, latency);
        const int hops = net.switch_hops(r, e.peer);
        sum_hops += hops;
        out.max_switch_hops = std::max(out.max_switch_hops, hops);
        ++out.messages;
        out.bytes += e.bytes;
      }
      channels[{e.peer, r}].push_back(arrival);
      Rank& dst = ranks[static_cast<std::size_t>(e.peer)];
      if (dst.blocked_on == r) {
        dst.blocked_on = -1;
        queue.push({dst.clock, e.peer});
      }
    } else if (e.kind == EventKind::kRecv) {
      auto& fifo = channels[{r, e.peer}];
      if (fifo.empty()) {
        me.blocked_on = e.peer;
        continue;
      }
      const double arrival = fifo.front();
      fifo.pop_front();
      if (arrival > me.clock) {
        me.wait += arrival - me.clock;
        me.clock = arrival;
      }
      me.clock += p.recv_overhead_s;
    } else {
      me.clock += p.send_overhead_s +
                  (2.0 * levels * p.tree_hop_latency_s +
                   static_cast<double>(e.bytes) / p.tree_bandwidth_bps);
    }
    ++me.pos;
    if (!done(r)) queue.push({me.clock, r});
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(done(r)) << "reference replay stalled on rank " << r;
    out.makespan_s =
        std::max(out.makespan_s, ranks[static_cast<std::size_t>(r)].clock);
    out.total_recv_wait_s += ranks[static_cast<std::size_t>(r)].wait;
  }
  if (out.messages > 0) {
    out.avg_message_latency_s =
        sum_latency / static_cast<double>(out.messages);
    out.avg_switch_hops = sum_hops / static_cast<double>(out.messages);
  }
  return out;
}

struct NamedParams {
  const char* name;
  ReplayParams params;
};

const NamedParams kParams[] = {
    {"default", {}},
    {"zero-overheads",
     {.send_overhead_s = 0.0, .recv_overhead_s = 0.0}},
    {"recv-overhead-only",
     {.send_overhead_s = 0.0, .recv_overhead_s = 0.25e-6}},
};

/// Replays `c` on a fresh network from `make_net` with the reference, the
/// serial loop and K = 2, 3, 4 shards, and expects one result from all.
/// Returns how many replays ran sharded (lookahead > 0).
template <typename MakeNet>
int expect_all_agree(const Case& c, const MakeNet& make_net,
                     const ReplayParams& params, const std::string& context) {
  const trace::Trace t = c.trace();
  auto ref_net = make_net();
  const ReplayResult expected = reference_replay(c, *ref_net, params);
  int sharded = 0;
  for (const int shards : {1, 2, 3, 4}) {
    auto net = make_net();
    const ReplayResult got =
        replay(t, *net, params, {.shards = shards, .seeds = c.seeds});
    const std::string where = context + " shards=" + std::to_string(shards);
    EXPECT_EQ(got.makespan_s, expected.makespan_s) << where;
    EXPECT_EQ(got.total_recv_wait_s, expected.total_recv_wait_s) << where;
    EXPECT_EQ(got.messages, expected.messages) << where;
    EXPECT_EQ(got.avg_message_latency_s, expected.avg_message_latency_s)
        << where;
    EXPECT_EQ(got.max_message_latency_s, expected.max_message_latency_s)
        << where;
    EXPECT_EQ(got.avg_switch_hops, expected.avg_switch_hops) << where;
    EXPECT_TRUE(got == expected) << where;
    if (shards > 1 &&
        net->min_transfer_latency_s() + params.send_overhead_s > 0.0) {
      ++sharded;
    }
  }
  return sharded;
}

constexpr int kRanks = 24;
constexpr int kEvents = 600;
constexpr std::uint64_t kSeeds = 8;

TEST(ReplayOracle, TorusReplaysMatchTheReference) {
  const topo::MeshTorus torus({2, 3, 4}, true);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = random_case(kRanks, kEvents, seed, nullptr);
    for (const auto& [name, params] : kParams) {
      const auto make = [&] {
        return std::make_unique<DirectNetwork>(torus, LinkParams{});
      };
      EXPECT_EQ(expect_all_agree(c, make, params,
                                 "torus seed=" + std::to_string(seed) +
                                     " params=" + name),
                3);
    }
  }
}

TEST(ReplayOracle, ZeroLatencyTorusTiesMatchTheReference) {
  // No link latency and no overheads: zero-byte messages arrive at their
  // issue clock, so a woken receiver's next send ties its waker's clock,
  // and the zero lookahead sends every shard count to the serial loop.
  const topo::MeshTorus torus({4, 6}, true);
  const LinkParams instant{.latency_s = 0.0, .bandwidth_bps = 2e9,
                           .switch_overhead_s = 0.0};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = random_case(kRanks, kEvents, 100 + seed, nullptr);
    const auto make = [&] {
      return std::make_unique<DirectNetwork>(torus, instant);
    };
    EXPECT_EQ(expect_all_agree(c, make, kParams[1].params,
                               "zero-latency torus seed=" +
                                   std::to_string(seed)),
              0);
  }
}

TEST(ReplayOracle, SendStartingAtTheWindowEdgeKeepsItsTieOrder) {
  // Four ranks on a ring, powers of two everywhere so that every clock sum
  // is exact: one hop costs L = 2^-23 s, a send O = 2^-22 s, a receive
  // nothing. Rank 0's empty message wakes rank 1 at O + L, and rank 1's
  // send to 3 issues then; rank 2's send to 3 issues at the same clock,
  // after a collective that costs O + L. Both start at 2O + L, the edge of
  // the sequencer's first window (min start O plus lookahead L + O), and
  // contend for link 2 -> 3. Rank 2's send is withheld when the window
  // closes; the order (issue, src) puts rank 1's first.
  const topo::MeshTorus ring({4}, true);
  const LinkParams link{.latency_s = 0x1p-24, .bandwidth_bps = 0x1p31,
                        .switch_overhead_s = 0x1p-24};
  const ReplayParams params{.send_overhead_s = 0x1p-22,
                            .recv_overhead_s = 0.0,
                            .tree_hop_latency_s = 0.0,
                            .tree_bandwidth_bps = 0x1p28};
  Case c;
  c.nranks = 4;
  c.programs.resize(4);
  c.append(0, EventKind::kSend, 1, 0);
  c.append(1, EventKind::kRecv, 0, 0);
  c.append(1, EventKind::kSend, 3, 2048);  // 2^-20 s on each link
  c.append(2, EventKind::kCollective, mpisim::kNoPeer, 32);  // 2^-23 s
  c.append(2, EventKind::kSend, 3, 2048);
  c.append(3, EventKind::kRecv, 1, 0);
  c.append(3, EventKind::kRecv, 2, 0);
  const auto make = [&] {
    return std::make_unique<DirectNetwork>(ring, link);
  };
  EXPECT_EQ(expect_all_agree(c, make, params, "window edge"), 3);
}

TEST(ReplayOracle, FatTreeReplaysMatchTheReference) {
  const topo::FatTree tree(kRanks, 4);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = random_case(kRanks, kEvents, 200 + seed, nullptr);
    for (const auto& [name, params] : kParams) {
      const auto make = [&] {
        return std::make_unique<FatTreeNetwork>(tree, LinkParams{});
      };
      EXPECT_EQ(expect_all_agree(c, make, params,
                                 "fat-tree seed=" + std::to_string(seed) +
                                     " params=" + name),
                3);
    }
  }
}

TEST(ReplayOracle, ProvisionedFabricReplaysMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = random_case(kRanks, kEvents, 300 + seed, nullptr);
    graph::CommGraph g(kRanks);
    for (const auto& program : c.programs) {
      for (const CommEvent& e : program) {
        if (e.kind == EventKind::kSend && e.peer != e.rank) {
          g.add_message(e.rank, e.peer, e.bytes);
        }
      }
    }
    const auto prov = core::provision_greedy(g, {.cutoff = 0});
    for (const auto& [name, params] : kParams) {
      const auto make = [&] {
        return std::make_unique<FabricNetwork>(prov.fabric, LinkParams{},
                                               50e-9);
      };
      EXPECT_EQ(expect_all_agree(c, make, params,
                                 "fabric seed=" + std::to_string(seed) +
                                     " params=" + name),
                3);
    }
  }
}

TEST(ReplayOracle, OneWindowReconfigurableReplayMatchesTheReference) {
  // With one window, reconfigurable replay provisions its fabric from the
  // whole trace's send-only graph (cutoff 0) and replays the whole trace
  // on it with no seeds, so that window must replay exactly as the
  // reference does on the same fabric.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = random_case(kRanks, kEvents, 400 + seed, nullptr,
                               /*seeded=*/false);
    const trace::Trace t = c.trace();
    ReconfigReplayOptions ropts;
    ropts.config.num_windows = 1;
    trace::WindowOptions sends_only;
    sends_only.expand_collectives = false;
    const graph::CommGraph g = trace::windowed_graphs(t, 1, sends_only).front();
    const auto prov = core::provision_greedy(
        g, {.block_size = ropts.block_size, .cutoff = 0});
    FabricNetwork net(prov.fabric, ropts.circuit, ropts.block_overhead_s);
    for (const auto& [name, params] : kParams) {
      const ReplayResult expected = reference_replay(c, net, params);
      ropts.params = params;
      for (const int shards : {1, 2}) {
        ropts.shards = shards;
        const ReconfigReplayResult got = reconfigurable_replay(t, ropts);
        ASSERT_EQ(got.windows.size(), 1u);
        EXPECT_TRUE(got.windows[0].result == expected)
            << "one-window seed=" << seed << " params=" << name
            << " shards=" << shards;
      }
    }
  }
}

TEST(ReplayOracle, GeneratedCasesCoverEveryEventShape) {
  Shapes total;
  std::size_t seeded = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Shapes s;
    const Case c = random_case(kRanks, kEvents, seed, &s);
    total.sends += s.sends;
    total.recvs += s.recvs;
    total.self_sends += s.self_sends;
    total.collectives += s.collectives;
    total.unmatched += s.unmatched;
    for (const ChannelSeed& cs : c.seeds) seeded += cs.count;
  }
  EXPECT_GT(total.sends, 1000);
  EXPECT_GT(total.recvs, 1000);
  EXPECT_GT(total.self_sends, 100);
  EXPECT_GT(total.collectives, 100);
  EXPECT_GT(total.unmatched, 50);
  EXPECT_GT(seeded, 100u);
}

}  // namespace
}  // namespace hfast::netsim
