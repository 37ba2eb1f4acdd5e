#include "hfast/netsim/replay_reconfig.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "hfast/core/provision.hpp"
#include "hfast/trace/window.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::netsim {

namespace {

/// First column index of each rank in the trace's (rank, op_index)-sorted
/// columns, so window slices can be copied with push_row by global index.
/// (Trace keeps its offset table private; the columns are public and
/// sorted, so one linear scan rebuilds it.)
std::vector<std::size_t> rank_offsets(const trace::Trace& t) {
  const trace::EventColumns& c = t.columns();
  const std::size_t n = static_cast<std::size_t>(t.nranks());
  std::vector<std::size_t> offsets(n + 1, c.size());
  std::size_t r = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    while (r <= static_cast<std::size_t>(c.rank[i])) offsets[r++] = i;
  }
  while (r <= n) offsets[r++] = c.size();
  return offsets;
}

}  // namespace

ReconfigReplayResult reconfigurable_replay(const trace::Trace& trace,
                                           const ReconfigReplayOptions& options) {
  HFAST_EXPECTS_MSG(options.config.adapts(),
                    "reconfigurable_replay requires num_windows >= 1");
  const int n = trace.nranks();
  const std::size_t num_windows =
      static_cast<std::size_t>(options.config.num_windows);

  // Consistent cuts: no boundary separates a receive from the send that
  // feeds it, so window slices (plus carried seeds) can never stall.
  const trace::WindowPartition part =
      trace::consistent_partition(trace, num_windows);

  // Planning graphs keep collectives off the circuits — they ride the
  // dedicated tree network in the replay cost model, not the fabric.
  trace::WindowOptions wopts;
  wopts.expand_collectives = false;
  const std::vector<graph::CommGraph> window_graphs =
      trace::windowed_graphs(trace, part, wopts);

  ReconfigReplayResult out;
  out.plan = core::plan_reconfigurations(window_graphs, options.config.params());

  // Union edge statistics: the stats a static provisioning of the whole
  // trace would see, used for circuits that are active in a window beyond
  // the traffic that window itself carries (hysteresis survivors).
  graph::CommGraph union_graph(n);
  for (const graph::CommGraph& g : window_graphs) {
    for (const auto& [edge, stats] : g.edges()) {
      union_graph.add_edge_stats(edge.first, edge.second, stats);
    }
  }

  const std::vector<std::size_t> offsets = rank_offsets(trace);
  const trace::EventColumns& cols = trace.columns();

  // Channel occupancy carried across window boundaries: (receiver, sender)
  // -> sends not yet received. Consistent cuts guarantee the count never
  // goes negative at a boundary. std::map keeps seed order deterministic.
  std::map<std::pair<int, int>, std::uint64_t> outstanding;

  std::set<core::CircuitEdge> active;
  double sum_latency = 0.0;
  double sum_hops = 0.0;

  out.windows.reserve(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    const core::WindowDelta& delta = out.plan.deltas[w];
    for (const core::CircuitEdge& e : delta.added) active.insert(e);
    for (const core::CircuitEdge& e : delta.removed) active.erase(e);

    // The window's fabric: every active circuit (carrying its union-graph
    // statistics) plus any window edge the planner's cutoff declined — the
    // fabric must route all window traffic even when it does not earn a
    // *planned* circuit. Provisioned with cutoff 0, like the static HFAST
    // baseline.
    graph::CommGraph fabric_graph(n);
    for (const core::CircuitEdge& e : active) {
      fabric_graph.add_edge_stats(e.first, e.second,
                                  *union_graph.edge(e.first, e.second));
    }
    for (const auto& [edge, stats] : window_graphs[w].edges()) {
      if (!active.contains(edge)) {
        fabric_graph.add_edge_stats(edge.first, edge.second, stats);
      }
    }
    core::ProvisionParams pparams;
    pparams.block_size = options.block_size;
    pparams.cutoff = 0;
    const core::Provisioned prov = core::provision_greedy(fabric_graph, pparams);
    FabricNetwork net(prov.fabric, options.circuit, options.block_overhead_s);

    // Slice the window's events (global column indices via the per-rank
    // offsets; ranks ascend, positions ascend, so the slice is already
    // (rank, op_index)-sorted) and seed the channels that carry traffic in
    // from earlier windows.
    trace::EventColumns wcols;
    for (int r = 0; r < n; ++r) {
      const std::size_t base = offsets[static_cast<std::size_t>(r)];
      const std::size_t first = part.boundaries[static_cast<std::size_t>(r)][w];
      const std::size_t last =
          part.boundaries[static_cast<std::size_t>(r)][w + 1];
      for (std::size_t i = first; i < last; ++i) {
        wcols.push_row(cols, base + i);
      }
    }
    const trace::Trace window_trace(n, std::move(wcols), trace.region_names());

    std::vector<ChannelSeed> seeds;
    seeds.reserve(outstanding.size());
    for (const auto& [chan, count] : outstanding) {
      if (count > 0) seeds.push_back({chan.first, chan.second, count});
    }

    WindowReplay wr;
    wr.window = w;
    wr.circuits_active = delta.circuits_active;
    wr.reconfigured = delta.reconfigured;
    wr.result = replay(window_trace, net, options.params,
                       {.shards = options.shards, .seeds = seeds});

    // Advance the carried channel occupancy past this window's events. The
    // columns are rank-major, not time-ordered, so tally the window's net
    // flow per channel first: consistency guarantees the carried count is
    // non-negative at every boundary, not mid-scan.
    const trace::EventColumns& wc = window_trace.columns();
    std::map<std::pair<int, int>, std::int64_t> net_flow;
    for (std::size_t i = 0; i < wc.size(); ++i) {
      if (wc.kind[i] == trace::EventKind::kSend) {
        ++net_flow[{wc.peer[i], wc.rank[i]}];
      } else if (wc.kind[i] == trace::EventKind::kRecv) {
        --net_flow[{wc.rank[i], wc.peer[i]}];
      }
    }
    for (const auto& [chan, flow] : net_flow) {
      std::uint64_t& carried = outstanding[chan];
      const std::int64_t next = static_cast<std::int64_t>(carried) + flow;
      HFAST_ASSERT(next >= 0);
      carried = static_cast<std::uint64_t>(next);
    }

    // Window boundaries are barriers: the next window's clocks start after
    // this window completes (plus the reconfiguration stall, if any). The
    // millisecond-scale stall dwarfs link latencies, so in-flight traffic
    // has drained — which is exactly what the seeds' t = 0 arrival models.
    out.total.makespan_s += wr.result.makespan_s;
    if (delta.reconfigured) {
      out.total.makespan_s += options.config.reconfig_seconds;
      out.stall_seconds += options.config.reconfig_seconds;
      ++out.reconfigurations;
    }
    out.total.total_recv_wait_s += wr.result.total_recv_wait_s;
    out.total.messages += wr.result.messages;
    out.total.bytes += wr.result.bytes;
    out.total.max_message_latency_s = std::max(
        out.total.max_message_latency_s, wr.result.max_message_latency_s);
    out.total.max_switch_hops =
        std::max(out.total.max_switch_hops, wr.result.max_switch_hops);
    sum_latency += wr.result.avg_message_latency_s *
                   static_cast<double>(wr.result.messages);
    sum_hops +=
        wr.result.avg_switch_hops * static_cast<double>(wr.result.messages);
    out.windows.push_back(std::move(wr));
  }

  if (out.total.messages > 0) {
    out.total.avg_message_latency_s =
        sum_latency / static_cast<double>(out.total.messages);
    out.total.avg_switch_hops =
        sum_hops / static_cast<double>(out.total.messages);
  }
  return out;
}

}  // namespace hfast::netsim
