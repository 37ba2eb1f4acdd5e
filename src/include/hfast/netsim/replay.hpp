#pragma once
/// \file replay.hpp
/// Trace replay on a network model: every rank's recorded operation stream
/// is re-executed against simulated link state, respecting per-rank program
/// order and receive->send dependencies (FIFO channel matching, as MPI
/// guarantees per (source, destination) ordering).
///
/// Collectives ride the dedicated low-bandwidth tree network (paper §2.4):
/// each collective costs a log2(P)-depth tree traversal plus payload
/// serialization at tree bandwidth, applied to the local rank clock.
///
/// With ReplayOptions::shards > 1 the ranks are split into K contiguous
/// shards, each advancing its own ranks' clocks on a dedicated thread.
/// Cross-rank transfers go to a central sequencer, which applies them to
/// the shared network in the serial loop's exact total order — `(issue
/// clock, rank, op)` lexicographic — inside a conservative lookahead
/// window derived from the network's minimum transfer latency (the classic
/// conservative PDES recipe of SST/macro and LogGOPSim). The result is
/// bit-identical to the serial loop's; DESIGN.md has the argument.

#include <cstddef>
#include <cstdint>
#include <span>

#include "hfast/netsim/network.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast::netsim {

struct ReplayParams {
  double send_overhead_s = 0.5e-6;  ///< per-op MPI software cost at sender
  double recv_overhead_s = 0.5e-6;
  double tree_hop_latency_s = 100e-9;   ///< collective tree per level
  double tree_bandwidth_bps = 350e6;    ///< low-bandwidth collective network
};

struct ReplayResult {
  double makespan_s = 0.0;        ///< max rank completion time
  double total_recv_wait_s = 0.0; ///< sum of blocking time in receives
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double avg_message_latency_s = 0.0;
  double max_message_latency_s = 0.0;
  double avg_switch_hops = 0.0;
  int max_switch_hops = 0;

  /// Bitwise field equality — the serial-vs-sharded parity contract is
  /// exact double equality, not approximate.
  bool operator==(const ReplayResult&) const = default;
};

/// Messages already in flight on one (sender -> receiver) channel when the
/// replay starts: `count` arrivals at t = 0, queued ahead of any arrival
/// the replayed events produce (FIFO order is preserved). The windowed
/// reconfigurable replay uses seeds to carry traffic that crosses a window
/// boundary — the boundary is a barrier, so in-flight messages have
/// drained by the time the next window's clocks start.
struct ChannelSeed {
  trace::Rank receiver = 0;
  trace::Rank sender = 0;
  std::uint64_t count = 0;
};

/// How replay() runs. No setting changes the ReplayResult, bit for bit.
struct ReplayOptions {
  /// Rank shards (= threads, counting the calling thread, which runs shard
  /// 0 and the sequencer). 0 picks the hardware concurrency; any value is
  /// clamped to [1, nranks]. One shard — or a network with zero lookahead
  /// (no link latency and zero send overhead) — runs the serial loop;
  /// more run the partitioned-clock sequencer.
  int shards = 1;

  /// Bounded capacity of each worker shard's transfer submission queue.
  /// Pure backpressure: any positive value is correct, smaller values just
  /// block producers earlier. Exercised directly by tests.
  std::size_t channel_capacity = std::size_t{1} << 15;

  /// Pre-seeded channel arrivals. Seeds referencing ranks outside the
  /// trace are an Error (seeds are runtime data, like the trace itself).
  std::span<const ChannelSeed> seeds = {};
};

/// Replay the point-to-point + collective event stream of `trace` on `net`.
/// The network's link occupancy is reset first. Throws Error on malformed
/// events or seeds, and on a stalled trace (a receive without a send).
ReplayResult replay(const trace::Trace& trace, Network& net,
                    const ReplayParams& params = {},
                    const ReplayOptions& options = {});

}  // namespace hfast::netsim
