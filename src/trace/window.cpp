#include "hfast/trace/window.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "hfast/collective/generate.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::trace {

namespace {

/// Expansion templates for collective events, one per (call, bytes)
/// signature: per source rank, the (dst, bytes) messages the schedule
/// assigns it. Each scheduled send is charged exactly once, by its source.
class CollectiveExpander {
 public:
  CollectiveExpander(const WindowOptions& options, int nranks)
      : options_(options), nranks_(nranks) {}

  const std::vector<std::pair<int, std::uint64_t>>& sends_of(
      mpisim::CallType call, std::uint64_t bytes, int rank) {
    auto [it, inserted] = cache_.try_emplace({call, bytes});
    if (inserted) {
      const std::vector<int>* map =
          options_.node_of_rank.empty() ? nullptr : &options_.node_of_rank;
      const collective::Schedule schedule =
          options_.collective.schedule == collective::ScheduleKind::kAuto
              ? collective::select_schedule(call, nranks_, bytes,
                                            options_.cost, options_.hops, map)
              : collective::resolve_schedule(options_.collective.schedule,
                                             call, nranks_, bytes, map);
      it->second.resize(static_cast<std::size_t>(nranks_));
      for (const collective::SendOp& op : schedule.sends) {
        it->second[static_cast<std::size_t>(op.src)].push_back(
            {op.dst, op.bytes});
      }
    }
    return it->second[static_cast<std::size_t>(rank)];
  }

 private:
  const WindowOptions& options_;
  int nranks_;
  std::map<std::pair<mpisim::CallType, std::uint64_t>,
           std::vector<std::vector<std::pair<int, std::uint64_t>>>>
      cache_;
};

/// Add one event's edges to `g`. Expansion is per event with the event's
/// own byte count (see WindowOptions); kind/peer filtering matches the
/// whole-trace communication graph builders.
void add_event(graph::CommGraph& g, const EventSpan& s, std::size_t i, int rank,
               const WindowOptions& options, CollectiveExpander& expander) {
  switch (s.kind(i)) {
    case EventKind::kSend: {
      const Rank peer = s.peer(i);
      if (peer >= 0 && peer != rank) g.add_message(rank, peer, s.bytes(i));
      break;
    }
    case EventKind::kCollective: {
      if (!options.expand_collectives) break;
      if (!options.collective.lowers()) {
        // Analytic dedicated tree (paper §2.4): rank r's contribution is
        // the edge to its binomial-tree parent (lowest set bit cleared,
        // root 0), carrying the event's payload once — consistent with the
        // ceil(log2 P)-level traversal the analytic replay formula prices.
        if (rank > 0) g.add_message(rank, rank & (rank - 1), s.bytes(i));
        break;
      }
      for (const auto& [dst, bytes] :
           expander.sends_of(s.call(i), s.bytes(i), rank)) {
        if (dst != rank) g.add_message(rank, dst, bytes);
      }
      break;
    }
    case EventKind::kRecv:
      break;  // the matching send counts the transfer
  }
}

}  // namespace

WindowPartition stride_partition(const Trace& trace, std::size_t num_windows) {
  HFAST_EXPECTS(num_windows >= 1);
  WindowPartition part;
  part.num_windows = num_windows;
  const int n = trace.nranks();
  part.boundaries.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const EventSpan s = trace.rank_events(r);
    auto& b = part.boundaries[static_cast<std::size_t>(r)];
    b.assign(num_windows + 1, s.size());
    b[0] = 0;
    if (s.empty()) {
      std::fill(b.begin(), b.end(), std::size_t{0});
      continue;
    }
    // Events are op_index-sorted within the span, so each window is a
    // contiguous range; boundary w is the first position with
    // (op_index * num_windows) / stream_len >= w.
    const std::uint64_t len = s.op_index(s.size() - 1) + 1;
    std::size_t p = 0;
    for (std::size_t w = 1; w < num_windows; ++w) {
      while (p < s.size() &&
             static_cast<__uint128_t>(s.op_index(p)) * num_windows <
                 static_cast<__uint128_t>(w) * len) {
        ++p;
      }
      b[w] = p;
    }
  }
  return part;
}

WindowPartition consistent_partition(const Trace& trace,
                                     std::size_t num_windows) {
  WindowPartition part = stride_partition(trace, num_windows);
  const int n = trace.nranks();
  if (n == 0 || num_windows < 2) return part;

  std::vector<EventSpan> spans;
  spans.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) spans.push_back(trace.rank_events(r));

  // Per-rank channel counters over the current prefix [0, cut[r]).
  std::vector<std::map<Rank, std::uint64_t>> sends_to(
      static_cast<std::size_t>(n));
  std::vector<std::map<Rank, std::uint64_t>> recvs_from(
      static_cast<std::size_t>(n));
  std::vector<std::size_t> cut(static_cast<std::size_t>(n), 0);
  std::vector<std::size_t> floor(static_cast<std::size_t>(n), 0);

  std::vector<int> stack;
  std::vector<char> queued(static_cast<std::size_t>(n), 0);
  const auto push = [&](int r) {
    if (!queued[static_cast<std::size_t>(r)]) {
      queued[static_cast<std::size_t>(r)] = 1;
      stack.push_back(r);
    }
  };

  for (std::size_t w = 1; w < num_windows; ++w) {
    // Advance every rank's prefix to this boundary's stride target (the
    // committed previous boundary is never above it).
    for (int r = 0; r < n; ++r) {
      const std::size_t target =
          part.boundaries[static_cast<std::size_t>(r)][w];
      const EventSpan& s = spans[static_cast<std::size_t>(r)];
      auto& c = cut[static_cast<std::size_t>(r)];
      HFAST_ASSERT(c <= target);
      for (; c < target; ++c) {
        const Rank peer = s.peer(c);
        if (s.kind(c) == EventKind::kSend && peer >= 0) {
          ++sends_to[static_cast<std::size_t>(r)][peer];
        } else if (s.kind(c) == EventKind::kRecv && peer >= 0) {
          ++recvs_from[static_cast<std::size_t>(r)][peer];
        }
      }
      push(r);
    }

    // Fixpoint: while some channel's prefix receives outrun its prefix
    // sends, retreat the receiver's cut to just before the first unmatched
    // receive. Retreating removes sends too, which can re-violate other
    // receivers — they go back on the worklist. Cuts only move earlier and
    // (by induction on boundaries) never reach the previous boundary while
    // still violated, so this terminates at a consistent cut.
    while (!stack.empty()) {
      const int d = stack.back();
      stack.pop_back();
      queued[static_cast<std::size_t>(d)] = 0;
      auto& recvs = recvs_from[static_cast<std::size_t>(d)];
      bool changed = true;
      while (changed) {
        changed = false;
        for (const auto& [s_rank, count] : recvs) {
          const auto& peer_sends = sends_to[static_cast<std::size_t>(s_rank)];
          const auto avail_it = peer_sends.find(static_cast<Rank>(d));
          const std::uint64_t avail =
              avail_it == peer_sends.end() ? 0 : avail_it->second;
          if (count <= avail) continue;
          const EventSpan& span = spans[static_cast<std::size_t>(d)];
          auto& c = cut[static_cast<std::size_t>(d)];
          while (recvs[s_rank] > avail) {
            HFAST_ASSERT(c > floor[static_cast<std::size_t>(d)]);
            --c;
            const Rank peer = span.peer(c);
            if (span.kind(c) == EventKind::kSend && peer >= 0) {
              --sends_to[static_cast<std::size_t>(d)][peer];
              push(peer);
            } else if (span.kind(c) == EventKind::kRecv && peer >= 0) {
              --recvs[peer];
            }
          }
          changed = true;
          break;  // counters moved; restart the channel scan
        }
      }
    }

    for (int r = 0; r < n; ++r) {
      part.boundaries[static_cast<std::size_t>(r)][w] =
          cut[static_cast<std::size_t>(r)];
      floor[static_cast<std::size_t>(r)] = cut[static_cast<std::size_t>(r)];
    }
  }
  return part;
}

std::vector<graph::CommGraph> windowed_graphs(const Trace& trace,
                                              const WindowPartition& partition,
                                              const WindowOptions& options) {
  HFAST_EXPECTS(partition.num_windows >= 1);
  HFAST_EXPECTS(partition.boundaries.size() ==
                static_cast<std::size_t>(trace.nranks()));
  const int n = trace.nranks();
  std::vector<graph::CommGraph> out;
  out.reserve(partition.num_windows);
  for (std::size_t w = 0; w < partition.num_windows; ++w) {
    out.emplace_back(n);
  }
  CollectiveExpander expander(options, n);
  for (int r = 0; r < n; ++r) {
    const EventSpan s = trace.rank_events(r);
    const auto& b = partition.boundaries[static_cast<std::size_t>(r)];
    HFAST_EXPECTS(b.size() == partition.num_windows + 1);
    HFAST_EXPECTS(b.back() == s.size());
    for (std::size_t w = 0; w < partition.num_windows; ++w) {
      for (std::size_t i = b[w]; i < b[w + 1]; ++i) {
        add_event(out[w], s, i, r, options, expander);
      }
    }
  }
  return out;
}

std::vector<graph::CommGraph> windowed_graphs(const Trace& trace,
                                              std::size_t num_windows,
                                              const WindowOptions& options) {
  return windowed_graphs(trace, stride_partition(trace, num_windows), options);
}

std::vector<WindowStats> windowed_tdc(const Trace& trace,
                                      std::size_t num_windows,
                                      std::uint64_t cutoff_bytes,
                                      const WindowOptions& options) {
  std::vector<WindowStats> out;
  const auto graphs = windowed_graphs(trace, num_windows, options);
  out.reserve(graphs.size());
  for (std::size_t w = 0; w < graphs.size(); ++w) {
    const auto stats = graph::tdc(graphs[w], cutoff_bytes);
    out.push_back({w, graphs[w].total_bytes(), stats.max, stats.avg});
  }
  return out;
}

}  // namespace hfast::trace
