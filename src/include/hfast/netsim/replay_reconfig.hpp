#pragma once
/// \file replay_reconfig.hpp
/// Time-windowed reconfigurable replay (paper §6): partition the trace into
/// windows, plan per-window circuit sets with core::plan_reconfigurations
/// over the windowed communication graphs, and replay each window on a
/// fabric provisioned from exactly the circuits active in that window —
/// stalling every rank for reconfig_seconds at each window boundary whose
/// delta re-patches the MEMS switch. This converts the simulator from
/// "price a fixed fabric" into the adaptive system the paper proposes, and
/// prices the adaptation honestly.
///
/// Model (see DESIGN.md "Time-windowed reconfiguration"):
///  * Windows come from trace::consistent_partition, so no window boundary
///    separates a receive from the send that feeds it; traffic that does
///    cross a boundary is carried as ChannelSeeds (the boundary is a
///    barrier — the millisecond reconfiguration dwarfs link latencies, so
///    in-flight messages have drained by the time the next window starts).
///  * Planning graphs keep collectives off the circuits
///    (expand_collectives = false): analytic collectives ride the
///    dedicated tree network, exactly as in the static baseline. Traces
///    lowered by hfast::collective carry their collective traffic as P2P
///    sends, which the windows then see — lower first to adapt circuits to
///    collective phases.
///  * Each window's fabric is greedily provisioned (cutoff 0, like the
///    static HFAST baseline) from the active circuit set plus any window
///    edge the planner's cutoff declined — the fabric must route all
///    window traffic even when it does not earn a *planned* circuit.
///  * Total time = sum of window makespans + reconfig_seconds per
///    reconfiguration event. Counters sum, maxima max, averages reweight
///    by message count. Window replays use the serial or the
///    partitioned-clock parallel algorithm; their bit-identical contract
///    (now including seeds) extends to the aggregate, so serial and
///    sharded reconfigurable replays agree exactly.

#include <cstdint>
#include <vector>

#include "hfast/core/reconfigure.hpp"
#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast::netsim {

struct ReconfigReplayOptions {
  /// Window count, hysteresis, reconfiguration cost, planner cutoff.
  /// config.adapts() (num_windows >= 1) is required.
  core::ReconfigConfig config;
  ReplayParams params;
  /// Per-window fabric construction — the same knobs the static HFAST
  /// baseline uses (provision_greedy + FabricNetwork).
  LinkParams circuit;
  double block_overhead_s = 50e-9;
  int block_size = 16;
  /// Replay shards per window (ReplayOptions::shards): 1 = serial loop,
  /// otherwise the partitioned-clock sequencer (0 = hardware concurrency).
  int shards = 1;
};

/// One window's replay, for per-phase reporting.
struct WindowReplay {
  std::size_t window = 0;
  ReplayResult result;
  int circuits_active = 0;
  bool reconfigured = false;
};

struct ReconfigReplayResult {
  /// The aggregate, shaped like a whole-trace ReplayResult; makespan_s
  /// includes stall_seconds.
  ReplayResult total;
  /// The circuit plan the replay executed.
  core::ReconfigReport plan;
  /// reconfig_seconds * reconfigurations, already inside total.makespan_s.
  double stall_seconds = 0.0;
  int reconfigurations = 0;
  std::vector<WindowReplay> windows;
};

/// Replay `trace` adaptively under `options`. The trace is replayed as-is:
/// lower collectives first (hfast::collective) if they should ride the
/// circuits instead of the analytic tree.
ReconfigReplayResult reconfigurable_replay(const trace::Trace& trace,
                                           const ReconfigReplayOptions& options);

}  // namespace hfast::netsim
