/// Parity and error-path tests for the partitioned-clock parallel replay.
/// The contract under test is exact: replay() with K > 1 shards must produce
/// a ReplayResult bitwise equal to the serial replay() — same doubles, same
/// counters — for every shard count, on synthetic traffic (TSan-covered)
/// and on all six application traces from the fiber engine.

#include <gtest/gtest.h>

#include "hfast/util/assert.hpp"

#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/util/random.hpp"

namespace hfast::netsim {
namespace {

using trace::CommEvent;
using trace::EventKind;
using trace::Trace;

constexpr int kShardCounts[] = {1, 2, 4, 7};

/// Random deadlock-free trace: every rank issues all its sends first, then
/// receives (in randomized order) everything destined to it.
Trace random_trace(int nranks, int messages, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<CommEvent>> per_rank(
      static_cast<std::size_t>(nranks));
  std::vector<std::vector<CommEvent>> recvs(static_cast<std::size_t>(nranks));
  for (int m = 0; m < messages; ++m) {
    const int src =
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nranks)));
    int dst = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nranks)));
    if (dst == src) dst = (dst + 1) % nranks;
    const std::uint64_t bytes = 64 + rng.uniform(64 * 1024);
    CommEvent send;
    send.rank = src;
    send.kind = EventKind::kSend;
    send.peer = dst;
    send.bytes = bytes;
    per_rank[static_cast<std::size_t>(src)].push_back(send);
    CommEvent recv;
    recv.rank = dst;
    recv.kind = EventKind::kRecv;
    recv.peer = src;
    recv.bytes = bytes;
    recvs[static_cast<std::size_t>(dst)].push_back(recv);
  }
  std::vector<CommEvent> all;
  for (int r = 0; r < nranks; ++r) {
    auto& mine = per_rank[static_cast<std::size_t>(r)];
    rng.shuffle(recvs[static_cast<std::size_t>(r)]);
    for (CommEvent e : recvs[static_cast<std::size_t>(r)]) mine.push_back(e);
    std::uint64_t op = 0;
    for (CommEvent& e : mine) e.op_index = op++;
    all.insert(all.end(), mine.begin(), mine.end());
  }
  return Trace(nranks, std::move(all), {""});
}

Trace make_trace(int nranks, std::vector<CommEvent> events) {
  std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(nranks), 0);
  for (auto& e : events) {
    e.op_index = per_rank[static_cast<std::size_t>(e.rank)]++;
  }
  return Trace(nranks, std::move(events), {""});
}

CommEvent send(int rank, int peer, std::uint64_t bytes) {
  CommEvent e;
  e.rank = rank;
  e.kind = EventKind::kSend;
  e.peer = peer;
  e.bytes = bytes;
  return e;
}

CommEvent recv(int rank, int peer, std::uint64_t bytes) {
  CommEvent e;
  e.rank = rank;
  e.kind = EventKind::kRecv;
  e.peer = peer;
  e.bytes = bytes;
  return e;
}

/// Field-by-field exact comparison so a parity break names the field.
void expect_identical(const ReplayResult& serial, const ReplayResult& parallel,
                      const std::string& context) {
  EXPECT_EQ(serial.makespan_s, parallel.makespan_s) << context;
  EXPECT_EQ(serial.total_recv_wait_s, parallel.total_recv_wait_s) << context;
  EXPECT_EQ(serial.messages, parallel.messages) << context;
  EXPECT_EQ(serial.bytes, parallel.bytes) << context;
  EXPECT_EQ(serial.avg_message_latency_s, parallel.avg_message_latency_s)
      << context;
  EXPECT_EQ(serial.max_message_latency_s, parallel.max_message_latency_s)
      << context;
  EXPECT_EQ(serial.avg_switch_hops, parallel.avg_switch_hops) << context;
  EXPECT_EQ(serial.max_switch_hops, parallel.max_switch_hops) << context;
  EXPECT_TRUE(serial == parallel) << context;
}

// --- synthetic traffic (runs under TSan; no fibers involved) -----------------

TEST(ParallelReplay, MatchesSerialOnRandomTraces) {
  const topo::MeshTorus torus({4, 4, 4}, true);
  const LinkParams link;
  for (const std::uint64_t seed : {3u, 17u}) {
    const auto t = random_trace(64, 600, seed);
    DirectNetwork serial_net(torus, link);
    const auto serial = replay(t, serial_net);
    for (const int shards : kShardCounts) {
      DirectNetwork net(torus, link);
      const auto parallel =
          replay(t, net, {}, {.shards = shards});
      expect_identical(serial, parallel,
                       "seed=" + std::to_string(seed) +
                           " shards=" + std::to_string(shards));
    }
  }
}

TEST(ParallelReplay, MatchesSerialAtP256) {
  const auto t = random_trace(256, 2000, 99);
  const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(256, 3), true);
  const LinkParams link;
  DirectNetwork serial_net(torus, link);
  const auto serial = replay(t, serial_net);
  DirectNetwork net(torus, link);
  const auto parallel = replay(t, net, {}, {.shards = 4});
  expect_identical(serial, parallel, "P=256 shards=4");
}

TEST(ParallelReplay, MatchesSerialOnFabricNetwork) {
  graph::CommGraph g(64);
  util::Rng rng(7);
  for (int m = 0; m < 300; ++m) {
    const int src = static_cast<int>(rng.uniform(64));
    int dst = static_cast<int>(rng.uniform(64));
    if (dst == src) dst = (dst + 1) % 64;
    g.add_message(src, dst, 64 + rng.uniform(4096));
  }
  const auto t = random_trace(64, 600, 7);
  const auto prov = core::provision_greedy(g, {.cutoff = 0});
  const LinkParams link;
  FabricNetwork serial_net(prov.fabric, link, 50e-9);
  const auto serial = replay(t, serial_net);
  for (const int shards : {2, 4}) {
    FabricNetwork net(prov.fabric, link, 50e-9);
    const auto parallel = replay(t, net, {}, {.shards = shards});
    expect_identical(serial, parallel, "fabric shards=" + std::to_string(shards));
  }
}

TEST(ParallelReplay, TinyChannelCapacityStillExact) {
  // capacity=1 forces maximal producer backpressure: every submission
  // blocks until the sequencer drains. Exercises the no-deadlock design.
  const auto t = random_trace(32, 400, 21);
  topo::FullyConnected fcn(32);
  const LinkParams link;
  DirectNetwork serial_net(fcn, link);
  const auto serial = replay(t, serial_net);
  DirectNetwork net(fcn, link);
  const auto parallel =
      replay(t, net, {}, {.shards = 4, .channel_capacity = 1});
  expect_identical(serial, parallel, "capacity=1");
}

TEST(ParallelReplay, ShardCountClampedToRanks) {
  const auto t = random_trace(8, 60, 5);
  topo::FullyConnected fcn(8);
  const LinkParams link;
  DirectNetwork serial_net(fcn, link);
  const auto serial = replay(t, serial_net);
  DirectNetwork net(fcn, link);
  const auto parallel = replay(t, net, {}, {.shards = 64});
  expect_identical(serial, parallel, "shards=64 on 8 ranks");
}

TEST(ParallelReplay, ZeroLookaheadFallsBackToSerial) {
  // Zero link latency, zero switch overhead, zero send overhead: the
  // conservative window degenerates, so replay() must detect it and
  // produce the serial result anyway.
  const auto t = random_trace(16, 150, 13);
  LinkParams free_link;
  free_link.latency_s = 0.0;
  free_link.switch_overhead_s = 0.0;
  ReplayParams params;
  params.send_overhead_s = 0.0;
  topo::FullyConnected fcn(16);
  DirectNetwork serial_net(fcn, free_link);
  const auto serial = replay(t, serial_net, params);
  DirectNetwork net(fcn, free_link);
  const auto parallel = replay(t, net, params, {.shards = 4});
  expect_identical(serial, parallel, "zero lookahead");
}

TEST(ParallelReplay, UnmatchedSendsStillCountedLikeSerial) {
  // A send nobody receives must still traverse the network for the stats,
  // exactly as in serial replay.
  const auto t = make_trace(4, {send(0, 3, 512), send(1, 2, 256),
                                recv(2, 1, 256)});
  topo::FullyConnected fcn(4);
  const LinkParams link;
  DirectNetwork serial_net(fcn, link);
  const auto serial = replay(t, serial_net);
  EXPECT_EQ(serial.messages, 2u);
  DirectNetwork net(fcn, link);
  const auto parallel = replay(t, net, {}, {.shards = 2});
  expect_identical(serial, parallel, "unmatched send");

  // Many unmatched sends contending for the ring links into rank 0: the
  // final flush must apply them in the serial order too.
  std::vector<CommEvent> burst;
  for (int k = 1; k <= 4; ++k) {
    for (int r = 1; r < 4; ++r) burst.push_back(send(r, 0, 1000u * k * r));
  }
  const auto tb = make_trace(4, burst);
  const topo::MeshTorus ring(topo::MeshTorus::balanced_dims(4, 1), true);
  DirectNetwork serial_ring(ring, link);
  const auto serial_burst = replay(tb, serial_ring);
  EXPECT_EQ(serial_burst.messages, 12u);
  for (const int shards : {2, 4}) {
    DirectNetwork ring_net(ring, link);
    expect_identical(serial_burst,
                     replay(tb, ring_net, {}, {.shards = shards}),
                     "unmatched burst, shards=" + std::to_string(shards));
  }
}

TEST(ParallelReplay, StalledTraceThrows) {
  const auto t = make_trace(4, {recv(1, 0, 64), send(2, 3, 64),
                                recv(3, 2, 64)});
  topo::FullyConnected fcn(4);
  const LinkParams link;
  for (const int shards : {1, 2, 4}) {
    DirectNetwork net(fcn, link);
    EXPECT_THROW((void)replay(t, net, {}, {.shards = shards}), Error)
        << "shards=" << shards;
  }
}

TEST(ParallelReplay, MalformedRankThrows) {
  auto events = std::vector<CommEvent>{send(0, 1, 64), recv(1, 0, 64)};
  events.push_back(send(0, 1, 64));
  events.back().rank = 9;  // outside [0, 4)
  const auto t = Trace(4, std::move(events), {""});
  topo::FullyConnected fcn(4);
  const LinkParams link;
  DirectNetwork serial_net(fcn, link);
  EXPECT_THROW((void)replay(t, serial_net), Error);
  DirectNetwork net(fcn, link);
  EXPECT_THROW((void)replay(t, net, {}, {.shards = 2}), Error);
}

TEST(ParallelReplay, MalformedPeerThrows) {
  const auto t = make_trace(4, {send(0, 7, 64)});  // peer outside [0, 4)
  topo::FullyConnected fcn(4);
  const LinkParams link;
  DirectNetwork serial_net(fcn, link);
  EXPECT_THROW((void)replay(t, serial_net), Error);
  DirectNetwork net(fcn, link);
  EXPECT_THROW((void)replay(t, net, {}, {.shards = 2}), Error);
}

TEST(ParallelReplay, InvalidOptionsRejected) {
  const auto t = random_trace(4, 10, 1);
  topo::FullyConnected fcn(4);
  const LinkParams link;
  DirectNetwork net(fcn, link);
  EXPECT_THROW((void)replay(t, net, {}, {.shards = -1}),
               ContractViolation);
  EXPECT_THROW(
      (void)replay(t, net, {}, {.shards = 2, .channel_capacity = 0}),
      ContractViolation);
}

TEST(ParallelReplay, SerialResultByteStableAcrossRuns) {
  // The (issue clock, rank, op) order pins the serial schedule to a total
  // order: repeated runs must agree exactly, not approximately.
  const auto t = random_trace(24, 400, 31);
  const topo::MeshTorus torus({4, 3, 2}, true);
  const LinkParams link;
  DirectNetwork a(torus, link);
  DirectNetwork b(torus, link);
  const auto ra = replay(t, a);
  const auto rb = replay(t, b);
  EXPECT_TRUE(ra == rb);
  // And replaying on the same network after reset() is just as stable.
  const auto rc = replay(t, a);
  EXPECT_TRUE(ra == rc);
}

// --- application traces (fiber engine; skips where fibers are unsupported) ---

class ParallelReplayParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelReplayParity, AppTraceMatchesSerialAtEveryShardCount) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  for (const int nranks : {64, 256}) {
    analysis::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = nranks;
    cfg.engine = mpisim::EngineKind::kFibers;
    const auto r = analysis::run_experiment(cfg);
    ASSERT_FALSE(r.trace.events().empty()) << app;

    const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(nranks, 3),
                                true);
    const LinkParams link;
    DirectNetwork serial_net(torus, link);
    const auto serial = replay(r.trace, serial_net);
    for (const int shards : kShardCounts) {
      DirectNetwork net(torus, link);
      const auto parallel =
          replay(r.trace, net, {}, {.shards = shards});
      expect_identical(serial, parallel,
                       app + " P=" + std::to_string(nranks) +
                           " shards=" + std::to_string(shards));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelReplayParity,
                         ::testing::Values("cactus", "gtc", "lbmhd", "superlu",
                                           "pmemd", "paratec"));

}  // namespace
}  // namespace hfast::netsim
