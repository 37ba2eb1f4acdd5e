/// Time-windowed reconfigurable replay: channel seeds, cross-window
/// traffic, stall accounting, and the serial-vs-sharded parity contract
/// extended across window boundaries. All tests are named ReconfigReplay so
/// the CI TSan job exercises the threaded per-window replays.

#include <gtest/gtest.h>

#include <vector>

#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_reconfig.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast::netsim {
namespace {

using trace::CallType;
using trace::Trace;
using trace::TraceRecorder;

/// P=4, two phases of 8192-byte traffic: {0->1, 2->3} then {0->2, 1->3}.
/// Every channel's sends and receives balance at the mid-stream boundary,
/// so the stride partition is already consistent at W=2.
Trace phase_shift_trace(int msgs_per_phase = 10) {
  TraceRecorder r0(0), r1(1), r2(2), r3(3);
  for (int i = 0; i < msgs_per_phase; ++i) r0.on_message(1, 8192, true);
  for (int i = 0; i < msgs_per_phase; ++i) r1.on_message(0, 8192, false);
  for (int i = 0; i < msgs_per_phase; ++i) r2.on_message(3, 8192, true);
  for (int i = 0; i < msgs_per_phase; ++i) r3.on_message(2, 8192, false);
  // Phase B.
  for (int i = 0; i < msgs_per_phase; ++i) r0.on_message(2, 8192, true);
  for (int i = 0; i < msgs_per_phase; ++i) r2.on_message(0, 8192, false);
  for (int i = 0; i < msgs_per_phase; ++i) r1.on_message(3, 8192, true);
  for (int i = 0; i < msgs_per_phase; ++i) r3.on_message(1, 8192, false);
  const TraceRecorder* recs[] = {&r0, &r1, &r2, &r3};
  return Trace::merge(recs);
}

TEST(ReconfigReplay, ChannelSeedsSatisfyReceives) {
  // A receive with no matching send stalls — unless a seed carries the
  // arrival in, which is exactly how window boundaries hand off traffic.
  TraceRecorder r0(0), r1(1);
  r1.on_message(0, 64, false);
  const TraceRecorder* recs[] = {&r0, &r1};
  const auto t = Trace::merge(recs);

  const topo::FullyConnected fcn(2);
  const LinkParams link;
  DirectNetwork net(fcn, link);
  EXPECT_THROW(replay(t, net), Error);

  const std::vector<ChannelSeed> seeds{{/*receiver=*/1, /*sender=*/0, 1}};
  const auto seeded = replay(t, net, {}, {.seeds = seeds});
  EXPECT_EQ(seeded.messages, 0u);  // messages are counted at the sender
  EXPECT_GT(seeded.makespan_s, 0.0);

  const auto parallel = replay(t, net, {}, {.shards = 2, .seeds = seeds});
  EXPECT_TRUE(seeded == parallel);

  const std::vector<ChannelSeed> bad{{/*receiver=*/5, /*sender=*/0, 1}};
  EXPECT_THROW(replay(t, net, {}, {.seeds = bad}), Error);
  EXPECT_THROW(replay(t, net, {}, {.shards = 2, .seeds = bad}), Error);

  // A seed on a channel no event touches — what a window's trailing
  // unmatched send leaves for the next window. It is never received, so
  // serial and sharded replays both match the unseeded result exactly.
  TraceRecorder s0(0), s1(1);
  s0.on_message(1, 64, true);
  s1.on_message(0, 64, false);
  const TraceRecorder* matched_recs[] = {&s0, &s1};
  const auto matched = Trace::merge(matched_recs);
  const auto unseeded = replay(matched, net);
  const std::vector<ChannelSeed> idle{{/*receiver=*/0, /*sender=*/1, 1}};
  const auto idle_serial = replay(matched, net, {}, {.seeds = idle});
  const auto idle_sharded =
      replay(matched, net, {}, {.shards = 2, .seeds = idle});
  EXPECT_EQ(unseeded.messages, 1u);
  EXPECT_TRUE(idle_serial == idle_sharded);
  EXPECT_TRUE(idle_serial == unseeded);
}

TEST(ReconfigReplay, CrossWindowTrafficCompletes) {
  // Rank 0 sends early, rank 1 receives late: with two windows every
  // receive's send lands in the previous window and rides in as a seed.
  TraceRecorder r0(0), r1(1);
  for (int i = 0; i < 4; ++i) r0.on_message(1, 4096, true);
  for (int i = 0; i < 4; ++i) {
    r0.on_call(CallType::kBarrier, mpisim::kNoPeer, 0, 0.0);
  }
  for (int i = 0; i < 4; ++i) {
    r1.on_call(CallType::kBarrier, mpisim::kNoPeer, 0, 0.0);
  }
  for (int i = 0; i < 4; ++i) r1.on_message(0, 4096, false);
  const TraceRecorder* recs[] = {&r0, &r1};
  const auto t = Trace::merge(recs);

  ReconfigReplayOptions opts;
  opts.config.num_windows = 2;
  const auto rr = reconfigurable_replay(t, opts);
  ASSERT_EQ(rr.windows.size(), 2u);
  EXPECT_EQ(rr.total.messages, 4u);
  EXPECT_EQ(rr.total.bytes, 4u * 4096u);
  EXPECT_GT(rr.total.makespan_s, 0.0);
}

TEST(ReconfigReplay, StallAccountingMatchesWindowSum) {
  const auto t = phase_shift_trace();
  ReconfigReplayOptions opts;
  opts.config.num_windows = 2;
  opts.config.hysteresis_windows = 0;
  opts.config.reconfig_seconds = 1e-3;
  const auto rr = reconfigurable_replay(t, opts);
  ASSERT_EQ(rr.windows.size(), 2u);

  // The phase shift forces exactly one runtime reconfiguration (window 1
  // patches in circuits window 0 never used).
  EXPECT_EQ(rr.reconfigurations, 1);
  EXPECT_TRUE(rr.windows[1].reconfigured);
  EXPECT_DOUBLE_EQ(rr.stall_seconds, 1e-3);
  EXPECT_EQ(rr.plan.total_reconfigurations, 1);

  // Total time folds window makespans and stalls in window order.
  double expected = 0.0;
  for (const auto& w : rr.windows) {
    expected += w.result.makespan_s;
    if (w.reconfigured) expected += opts.config.reconfig_seconds;
  }
  EXPECT_DOUBLE_EQ(rr.total.makespan_s, expected);
  EXPECT_GT(rr.total.makespan_s, opts.config.reconfig_seconds);

  // Conservation: adaptation never changes what was sent.
  EXPECT_EQ(rr.total.messages, 40u);
  EXPECT_EQ(rr.total.bytes, 40u * 8192u);
}

TEST(ReconfigReplay, SerialAndShardedBitIdentical) {
  const auto t = phase_shift_trace();
  for (int windows : {2, 4}) {
    ReconfigReplayOptions serial;
    serial.config.num_windows = windows;
    const auto base = reconfigurable_replay(t, serial);
    for (int shards : {2, 4}) {
      ReconfigReplayOptions sharded = serial;
      sharded.shards = shards;
      const auto r = reconfigurable_replay(t, sharded);
      EXPECT_TRUE(r.total == base.total)
          << windows << " windows, " << shards << " shards";
      ASSERT_EQ(r.windows.size(), base.windows.size());
      for (std::size_t w = 0; w < r.windows.size(); ++w) {
        EXPECT_TRUE(r.windows[w].result == base.windows[w].result)
            << "window " << w << " at " << shards << " shards";
      }
    }
  }
}

TEST(ReconfigReplay, ReplayIsDeterministic) {
  const auto t = phase_shift_trace();
  ReconfigReplayOptions opts;
  opts.config.num_windows = 4;
  const auto a = reconfigurable_replay(t, opts);
  const auto b = reconfigurable_replay(t, opts);
  EXPECT_TRUE(a.total == b.total);
  EXPECT_DOUBLE_EQ(a.stall_seconds, b.stall_seconds);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
}

}  // namespace
}  // namespace hfast::netsim
