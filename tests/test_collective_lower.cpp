/// CollectiveLower — the trace lowering pass and the peerless-collective
/// trace validation (all three loaders plus replay's validate_events):
///
///   * analytic lowering is the identity: same columns, zero stats;
///   * a synthetic trace lowers to a collective-free trace with dense
///     per-rank op_index, inherited regions, and stats that match the
///     emitted rows;
///   * collective sequences that are misaligned across ranks (different
///     counts, or different call types at the same position) are an Error;
///   * lowered traces of the six paper applications replay without
///     stalling on every network model (fcn, torus, fat-tree, and the
///     provisioned HFAST fabric), and the serial and K-shard
///     partitioned-clock replays of the lowered trace agree bit-for-bit;
///   * a collective event whose peer is not kNoPeer is rejected by
///     replay validation, by the text loader, and by the HTRC binary
///     decoder (satellite hardening of this PR).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast {
namespace {

using collective::CollectiveConfig;
using collective::LowerOptions;
using collective::ScheduleKind;
using mpisim::CallType;
using trace::CommEvent;
using trace::EventKind;

trace::Trace synthetic_trace() {
  // P=4: a P2P ring exchange, one allreduce, then a second P2P leg and a
  // barrier, with ranks 2 and 3 inside a named region for inheritance
  // checks.
  std::vector<CommEvent> ev;
  const int n = 4;
  for (int r = 0; r < n; ++r) {
    const auto rk = static_cast<trace::Rank>(r);
    const auto next = static_cast<trace::Rank>((r + 1) % n);
    const auto prev = static_cast<trace::Rank>((r + n - 1) % n);
    const std::uint16_t region = r >= 2 ? 1 : 0;
    std::uint64_t op = 0;
    ev.push_back({rk, op++, EventKind::kSend, CallType::kSend, next, 256, 0});
    ev.push_back({rk, op++, EventKind::kRecv, CallType::kRecv, prev, 256, 0});
    ev.push_back({rk, op++, EventKind::kCollective, CallType::kAllreduce,
                  mpisim::kNoPeer, 64, region});
    ev.push_back({rk, op++, EventKind::kSend, CallType::kSend, prev, 128, 0});
    ev.push_back({rk, op++, EventKind::kRecv, CallType::kRecv, next, 128, 0});
    ev.push_back({rk, op++, EventKind::kCollective, CallType::kBarrier,
                  mpisim::kNoPeer, 0, region});
  }
  return trace::Trace(n, std::move(ev), {"", "steady"});
}

TEST(CollectiveLower, AnalyticLoweringIsTheIdentity) {
  const trace::Trace t = synthetic_trace();
  const auto lowered = collective::lower_trace(t, {});
  EXPECT_TRUE(lowered.trace.columns() == t.columns());
  EXPECT_EQ(lowered.trace.region_names(), t.region_names());
  EXPECT_EQ(lowered.stats.instances, 0u);
  EXPECT_EQ(lowered.stats.p2p_events, 0u);
  EXPECT_EQ(lowered.stats.bytes, 0u);
}

TEST(CollectiveLower, RingLoweringExpandsEveryCollective) {
  const trace::Trace t = synthetic_trace();
  LowerOptions opts;
  opts.config.schedule = ScheduleKind::kRing;
  const auto lowered = collective::lower_trace(t, opts);

  EXPECT_EQ(lowered.stats.instances, 2u);
  EXPECT_EQ(lowered.stats.collective_events, 8u);
  EXPECT_EQ(lowered.stats.schedules, 2u);
  EXPECT_GT(lowered.stats.p2p_events, 0u);
  EXPECT_EQ(lowered.trace.events().size(),
            t.events().size() - lowered.stats.collective_events +
                lowered.stats.p2p_events);

  std::uint64_t lowered_bytes = 0;
  for (int r = 0; r < lowered.trace.nranks(); ++r) {
    const trace::EventSpan s = lowered.trace.rank_events(r);
    bool seen_region1 = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_NE(s.kind(i), EventKind::kCollective);
      EXPECT_EQ(s.op_index(i), i) << "op_index must be dense per rank";
      if (s.kind(i) == EventKind::kSend) lowered_bytes += s.bytes(i);
      if (s.region(i) == 1) seen_region1 = true;
    }
    // Ranks 2 and 3 recorded their collectives inside region 1; the
    // derived P2P events must inherit it.
    EXPECT_EQ(seen_region1, r >= 2);
  }
  // stats.bytes counts only the injected collective traffic; the original
  // P2P legs move 4 * (256 + 128) bytes on top.
  EXPECT_EQ(lowered_bytes, lowered.stats.bytes + 4u * (256u + 128u));
}

TEST(CollectiveLower, MisalignedCollectiveSequencesThrow) {
  {  // rank 1 records fewer collectives than rank 0
    std::vector<CommEvent> ev;
    ev.push_back({0, 0, EventKind::kCollective, CallType::kAllreduce,
                  mpisim::kNoPeer, 8, 0});
    trace::Trace t(2, std::move(ev), {""});
    LowerOptions opts;
    opts.config.schedule = ScheduleKind::kRing;
    EXPECT_THROW(collective::lower_trace(t, opts), Error);
  }
  {  // same counts, different call type at position 0
    std::vector<CommEvent> ev;
    ev.push_back({0, 0, EventKind::kCollective, CallType::kAllreduce,
                  mpisim::kNoPeer, 8, 0});
    ev.push_back({1, 0, EventKind::kCollective, CallType::kBcast,
                  mpisim::kNoPeer, 8, 0});
    trace::Trace t(2, std::move(ev), {""});
    LowerOptions opts;
    opts.config.schedule = ScheduleKind::kBinomial;
    EXPECT_THROW(collective::lower_trace(t, opts), Error);
  }
}

TEST(CollectiveLower, LoweredSyntheticTraceReplaysWithParity) {
  const trace::Trace t = synthetic_trace();
  topo::FullyConnected fcn(t.nranks());
  netsim::DirectNetwork net(fcn, {});
  for (ScheduleKind kind :
       {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
        ScheduleKind::kBinomial, ScheduleKind::kAuto}) {
    LowerOptions opts;
    opts.config.schedule = kind;
    const auto lowered = collective::lower_trace(t, opts);
    const auto serial = netsim::replay(lowered.trace, net);
    EXPECT_GT(serial.makespan_s, 0.0);
    for (int shards : {2, 4}) {
      const auto parallel =
          netsim::replay(lowered.trace, net, {}, {.shards = shards});
      EXPECT_TRUE(serial == parallel)
          << collective::schedule_name(kind) << " K=" << shards;
    }
  }
}

// Regression: lowered ring schedules put every rank in lockstep, so the
// replay sees bursts of sends whose pre-overhead clocks differ by one ulp
// yet collapse to the *same* start time when the send overhead pushes them
// across a binade. The parallel sequencer used to order such a collapsed
// burst by source rank, diverging from the serial (clock, rank) order
// against the torus's stateful links — visible only as a last-ulp
// avg-latency drift. A single ring-lowered allreduce at P=64 on the
// 4x4x4 torus reproduces the collapse deterministically.
TEST(CollectiveLower, EqualStartBurstsKeepParityOnTheTorus) {
  const int n = 64;
  std::vector<CommEvent> ev;
  for (int r = 0; r < n; ++r) {
    ev.push_back({static_cast<trace::Rank>(r), 0, EventKind::kCollective,
                  CallType::kAllreduce, mpisim::kNoPeer, 768, 0});
  }
  const trace::Trace t(n, std::move(ev), {""});
  LowerOptions opts;
  opts.config.schedule = ScheduleKind::kRing;
  const auto lowered = collective::lower_trace(t, opts);
  topo::MeshTorus torus(topo::MeshTorus::balanced_dims(n, 3), true);
  netsim::DirectNetwork net(torus, {});
  const auto serial = netsim::replay(lowered.trace, net);
  for (int shards : {2, 4}) {
    const auto parallel =
        netsim::replay(lowered.trace, net, {}, {.shards = shards});
    EXPECT_TRUE(serial == parallel) << "K=" << shards;
  }
}

// --- peerless-collective hardening (all three validation sites) ------------

trace::Trace bad_peer_trace() {
  std::vector<CommEvent> ev;
  ev.push_back({0, 0, EventKind::kCollective, CallType::kAllreduce,
                /*peer=*/1, 8, 0});
  ev.push_back({1, 0, EventKind::kCollective, CallType::kAllreduce,
                mpisim::kNoPeer, 8, 0});
  return trace::Trace(2, std::move(ev), {""});
}

TEST(CollectiveLower, ReplayRejectsCollectiveWithPeer) {
  const trace::Trace t = bad_peer_trace();
  topo::FullyConnected fcn(2);
  netsim::DirectNetwork net(fcn, {});
  EXPECT_THROW(netsim::replay(t, net), Error);
  EXPECT_THROW(netsim::replay(t, net, {}, {.shards = 2}), Error);
}

TEST(CollectiveLower, TextLoaderRejectsCollectiveWithPeer) {
  // A hand-edited trace whose collective line names peer 1 instead of the
  // kNoPeer sentinel (-2).
  std::ostringstream os;
  bad_peer_trace().save_text(os);
  std::istringstream is(os.str());
  try {
    trace::Trace::load_text(is);
    FAIL() << "load_text accepted a collective event with a peer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("collective event with peer"),
              std::string::npos)
        << e.what();
  }
}

TEST(CollectiveLower, BinaryLoaderRejectsCollectiveWithPeer) {
  // The encoder writes whatever columns it is given (and stamps a valid
  // CRC), so the decode-side structural check is what stands between a
  // forged file and the replays.
  const auto image = bad_peer_trace().save_binary_bytes();
  try {
    trace::Trace::load_binary(image);
    FAIL() << "load_binary accepted a collective event with a peer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("collective event with peer"),
              std::string::npos)
        << e.what();
  }
}

// --- the six applications on every network model ---------------------------

struct AppNetworks {
  std::unique_ptr<topo::FullyConnected> fcn;
  std::unique_ptr<topo::MeshTorus> torus;
  std::unique_ptr<topo::FatTree> tree;
  std::optional<core::Provisioned> prov;
  std::vector<std::unique_ptr<netsim::Network>> nets;
};

/// The four replay substrates of the paper's comparison, with the HFAST
/// fabric provisioned from the ORIGINAL trace's P2P topology (the lowered
/// collective traffic then rides those circuits).
AppNetworks build_networks(const trace::Trace& t) {
  const int n = t.nranks();
  const netsim::LinkParams link;
  AppNetworks b;
  b.fcn = std::make_unique<topo::FullyConnected>(n);
  b.nets.push_back(std::make_unique<netsim::DirectNetwork>(*b.fcn, link));
  b.torus = std::make_unique<topo::MeshTorus>(
      topo::MeshTorus::balanced_dims(n, 3), true);
  b.nets.push_back(std::make_unique<netsim::DirectNetwork>(*b.torus, link));
  b.tree = std::make_unique<topo::FatTree>(n, 16);
  b.nets.push_back(std::make_unique<netsim::FatTreeNetwork>(*b.tree, link));
  graph::CommGraph g(n);
  for (const CommEvent& e : t.events()) {
    if (e.kind == EventKind::kSend && e.peer != e.rank && e.peer >= 0) {
      g.add_message(e.rank, e.peer, e.bytes);
    }
  }
  b.prov = core::provision_greedy(g, {.cutoff = 0});
  b.nets.push_back(
      std::make_unique<netsim::FabricNetwork>(b.prov->fabric, link, 50e-9));
  return b;
}

trace::Trace capture(const std::string& app, int nranks) {
  analysis::ExperimentConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks;
  cfg.engine = mpisim::EngineKind::kFibers;
  return analysis::run_experiment(cfg).trace;
}

class CollectiveLowerApps : public ::testing::TestWithParam<const char*> {};

TEST_P(CollectiveLowerApps, LoweredReplayParityOnEveryNetworkAtP64) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  const trace::Trace t = capture(app, 64);
  ASSERT_FALSE(t.events().empty());
  const AppNetworks nets = build_networks(t);
  for (const auto& net : nets.nets) {
    for (ScheduleKind kind : {ScheduleKind::kRing, ScheduleKind::kAuto}) {
      LowerOptions opts;
      opts.config.schedule = kind;
      opts.hops = [&net](int a, int b) {
        net->prewarm_route(a, b);
        return net->switch_hops(a, b);
      };
      const auto lowered = collective::lower_trace(t, opts);
      // Every app's steady state uses collectives; lowering must expand
      // them, not pass them through.
      EXPECT_GT(lowered.stats.p2p_events, 0u) << app << " on " << net->name();
      const auto serial = netsim::replay(lowered.trace, *net);
      EXPECT_GT(serial.makespan_s, 0.0);
      for (int shards : {2, 4}) {
        const auto parallel = netsim::replay(lowered.trace, *net, {},
                                                      {.shards = shards});
        EXPECT_TRUE(serial == parallel)
            << app << " on " << net->name() << " ["
            << collective::schedule_name(kind) << "] K=" << shards;
      }
    }
  }
}

TEST_P(CollectiveLowerApps, LoweredReplayParityAtP256) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  const trace::Trace t = capture(app, 256);
  ASSERT_FALSE(t.events().empty());
  topo::MeshTorus torus(topo::MeshTorus::balanced_dims(256, 3), true);
  netsim::DirectNetwork net(torus, {});
  LowerOptions opts;
  opts.config.schedule = ScheduleKind::kRing;
  const auto lowered = collective::lower_trace(t, opts);
  EXPECT_GT(lowered.stats.p2p_events, 0u);
  const auto serial = netsim::replay(lowered.trace, net);
  const auto parallel =
      netsim::replay(lowered.trace, net, {}, {.shards = 4});
  EXPECT_TRUE(serial == parallel) << app;
}

INSTANTIATE_TEST_SUITE_P(Apps, CollectiveLowerApps,
                         ::testing::Values("cactus", "gtc", "lbmhd", "superlu",
                                           "pmemd", "paratec"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace hfast
