/// \file generate.cpp
/// The collective algorithm generators. Each family is built from a small
/// set of primitives over an ordered rank list `r` (a subset of world
/// ranks: the whole world for flat schedules, the node leaders for the
/// inter-node leg of hierarchical ones). Primitives append whole steps, so
/// sequential composition is concatenation and the hierarchical family's
/// "all nodes in parallel" intra-node legs are single steps touching every
/// node at once.
///
/// Chunk id conventions (what the validator checks against, see
/// verify.cpp):
///  * vector ops (bcast/reduce/allreduce/barrier/comm-split/scan): one
///    chunk unless the algorithm pipelines; ring allreduce splits the
///    vector into nranks near-equal chunks.
///  * per-origin ops (gather/allgather) and per-destination ops
///    (scatter/reduce-scatter): chunk id = world rank, each chunk one
///    payload-sized block.
///  * alltoall(v): chunk id = origin * nranks + destination, each block
///    payload bytes.

#include "hfast/collective/generate.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "hfast/util/assert.hpp"

namespace hfast::collective {
namespace {

using mpisim::CallType;

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Near-equal split of `payload` into `num` chunks: chunk c's share.
std::uint64_t split_bytes(std::uint64_t payload, int num, int c) {
  const std::uint64_t q = payload / static_cast<std::uint64_t>(num);
  const std::uint64_t r = payload % static_cast<std::uint64_t>(num);
  return q + (static_cast<std::uint64_t>(c) < r ? 1 : 0);
}

/// Appends one send carrying the chunk sets of positions lo, lo + 1, ...
/// (cnt of them, wrapping at n), charging `unit` bytes per chunk. `set(j)`
/// is position j's chunk set: {r[j]} for flat schedules, a node's members
/// for the leader schedules of hierarchical ones.
template <typename Sets>
void add_sets(Schedule& s, int src, int dst, const Sets& set, int lo, int cnt,
              int n, std::uint64_t unit) {
  s.add_send(src, dst, 0);
  for (int j = 0; j < cnt; ++j) {
    for (int id : set((lo + j) % n)) s.add_chunk(id);
  }
  s.sends.back().bytes = unit * s.sends.back().chunk_count;
}

// --- ring family -----------------------------------------------------------

/// Relay chain from r[0] down the ring: n-1 steps, full payload per hop.
void ring_bcast(Schedule& s, const std::vector<int>& r, std::uint64_t payload) {
  for (std::size_t i = 0; i + 1 < r.size(); ++i) {
    s.begin_step();
    s.add_send(r[i], r[i + 1], payload, 0);
  }
}

/// Reverse relay: contributions accumulate down the chain into r[0].
void ring_reduce(Schedule& s, const std::vector<int>& r,
                 std::uint64_t payload) {
  for (std::size_t i = r.size(); i > 1; --i) {
    s.begin_step();
    s.add_send(r[i - 1], r[i - 2], payload, 0);
  }
}

/// Chunked ring reduce-scatter: n-1 steps; afterwards rank index i holds
/// chunk i fully reduced. `chunk_bytes(c)` decouples the two users: the
/// allreduce splits one vector, reduce-scatter moves payload-sized shares.
template <typename ChunkBytes>
void ring_reduce_scatter_steps(Schedule& s, const std::vector<int>& r,
                               const ChunkBytes& chunk_bytes) {
  const int n = static_cast<int>(r.size());
  for (int t = 0; t + 1 < n; ++t) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const int c = ((i - t - 1) % n + n) % n;
      s.add_send(r[i], r[(i + 1) % n], chunk_bytes(c), c);
    }
  }
}

/// Chunked ring allgather: n-1 steps; rank index i starts owning chunk i
/// and forwards its newest chunk each step.
template <typename ChunkBytes>
void ring_allgather_steps(Schedule& s, const std::vector<int>& r,
                          const ChunkBytes& chunk_bytes) {
  const int n = static_cast<int>(r.size());
  for (int t = 0; t + 1 < n; ++t) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const int c = ((i - t) % n + n) % n;
      s.add_send(r[i], r[(i + 1) % n], chunk_bytes(c), c);
    }
  }
}

/// The classic bandwidth-optimal 2(n-1)-step ring allreduce: chunked
/// reduce-scatter then chunked allgather over the same ring.
void ring_allreduce(Schedule& s, const std::vector<int>& r,
                    std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  const auto chunk = [&](int c) { return split_bytes(payload, n, c); };
  ring_reduce_scatter_steps(s, r, chunk);
  ring_allgather_steps(s, r, chunk);
}

// --- recursive doubling family ---------------------------------------------

/// Recursive-doubling allreduce for any n: fold the n - 2^floor(log2 n)
/// extra ranks onto the power-of-two core, butterfly-exchange within the
/// core, unfold the results back out.
void rd_allreduce(Schedule& s, const std::vector<int>& r,
                  std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  int m = 1;
  while (m * 2 <= n) m *= 2;
  const int rem = n - m;
  if (rem > 0) {
    s.begin_step();
    for (int j = 0; j < rem; ++j) s.add_send(r[m + j], r[j], payload, 0);
  }
  for (int bit = 1; bit < m; bit *= 2) {
    s.begin_step();
    for (int i = 0; i < m; ++i) s.add_send(r[i], r[i ^ bit], payload, 0);
  }
  if (rem > 0) {
    s.begin_step();
    for (int j = 0; j < rem; ++j) s.add_send(r[j], r[m + j], payload, 0);
  }
}

/// Dissemination exchange (any n): ceil(log2 n) rounds of i -> i + 2^k;
/// full contribution coverage — the barrier/comm-split schedule.
void dissemination(Schedule& s, const std::vector<int>& r,
                   std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int i = 0; i < n; ++i) s.add_send(r[i], r[(i + bit) % n], payload, 0);
  }
}

/// Recursive-doubling allgather (power-of-two n): at step k each rank
/// holds the aligned 2^k-origin block containing itself and swaps it with
/// its 2^k-distant partner.
void rd_allgather(Schedule& s, const std::vector<int>& r,
                  std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      s.add_send(r[i], r[i ^ bit], payload * static_cast<std::uint64_t>(bit),
                 std::span(r).subspan(i & ~(bit - 1), bit));
    }
  }
}

/// Recursive-halving reduce-scatter (power-of-two n): exchange ever-smaller
/// chunk blocks with ever-nearer partners; rank index i ends with chunk
/// r[i] fully reduced.
void rh_reduce_scatter(Schedule& s, const std::vector<int>& r,
                       std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  for (int b = n / 2; b >= 1; b /= 2) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const int partner = i ^ b;
      s.add_send(r[i], r[partner], payload * static_cast<std::uint64_t>(b),
                 std::span(r).subspan(partner & ~(b - 1), b));
    }
  }
}

/// Hillis–Steele inclusive scan: step k sends the running prefix 2^k ranks
/// forward.
void rd_scan(Schedule& s, const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int i = 0; i + bit < n; ++i) s.add_send(r[i], r[i + bit], payload, 0);
  }
}

// --- binomial family -------------------------------------------------------

/// Binomial broadcast from index 0: at step k every informed offset
/// d < 2^k forwards to d + 2^k.
void binomial_bcast(Schedule& s, const std::vector<int>& r,
                    std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int d = 0; d < bit && d + bit < n; ++d) {
      s.add_send(r[d], r[d + bit], payload, 0);
    }
  }
}

/// Binomial fan-in to index 0: at step k, offsets with bit k set (lower
/// bits clear) forward everything gathered from their subtree [d, d+2^k).
/// grow=false is reduce semantics — one accumulated vector, chunk {0},
/// constant `unit` bytes per hop; grow=true is gather semantics — messages
/// carry the subtree's chunk sets and grow by `unit` bytes per chunk.
template <typename Sets>
void binomial_collect(Schedule& s, const std::vector<int>& r, const Sets& set,
                      std::uint64_t unit, bool grow) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int d = bit; d < n; d += 2 * bit) {
      if (grow) {
        add_sets(s, r[d], r[d - bit], set, d, std::min(bit, n - d), n, unit);
      } else {
        s.add_send(r[d], r[d - bit], unit, 0);
      }
    }
  }
}

/// Binomial scatter from index 0 with per-index chunk sets: descending
/// strides; each internal node hands its far child that child's whole
/// subtree worth of chunks.
template <typename Sets>
void binomial_scatter(Schedule& s, const std::vector<int>& r, const Sets& set,
                      std::uint64_t unit) {
  const int n = static_cast<int>(r.size());
  int top = 1;
  while (top < n) top *= 2;
  for (int bit = top / 2; bit >= 1; bit /= 2) {
    s.begin_step();
    for (int d = 0; d + bit < n; d += 2 * bit) {
      add_sets(s, r[d], r[d + bit], set, d + bit, std::min(bit, n - d - bit),
               n, unit);
    }
    if (s.step(s.num_steps() - 1).empty()) s.pop_step();
  }
}

// --- Bruck family ----------------------------------------------------------

/// Bruck allgather (any n) with per-index chunk sets: at round k index i
/// ships its lowest min(2^k, n - 2^k) accumulated origin blocks to
/// i - 2^k; ceil(log2 n) rounds.
template <typename Sets>
void bruck_allgather(Schedule& s, const std::vector<int>& r, const Sets& set,
                     std::uint64_t unit) {
  const int n = static_cast<int>(r.size());
  for (int bit = 1; bit < n; bit *= 2) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      add_sets(s, r[i], r[((i - bit) % n + n) % n], set, i,
               std::min(bit, n - bit), n, unit);
    }
  }
}

/// Bruck alltoall (any n) in ceil(log2 n) rounds: a block destined d hops
/// from its current holder h to h + 2^k exactly when bit k of its
/// remaining ring distance (d - h) mod n is set; rounds clear bits in
/// ascending order so every block lands after the last round. Blocks
/// co-resident at a rank with the same set bit travel as one message, in
/// block id order (a counting sort by holder).
void bruck_alltoall(Schedule& s, int n, std::uint64_t payload) {
  const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<int> holder(cells);
  std::vector<int> sorted(cells);
  std::vector<std::size_t> first(static_cast<std::size_t>(n) + 1);
  std::vector<std::size_t> next(static_cast<std::size_t>(n));
  for (int bit = 1; bit < n; bit *= 2) {
    std::fill(first.begin(), first.end(), 0);
    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < n; ++d) {
        const int r0 = ((d - o) % n + n) % n;
        const int remaining = r0 & ~(bit - 1);  // bits below k already done
        const int h = (r0 & bit) == 0 ? -1 : ((d - remaining) % n + n) % n;
        holder[static_cast<std::size_t>(o * n + d)] = h;
        if (h >= 0) ++first[static_cast<std::size_t>(h) + 1];
      }
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::copy(first.begin(), first.end() - 1, next.begin());
    for (std::size_t id = 0; id < cells; ++id) {
      if (holder[id] >= 0) {
        sorted[next[static_cast<std::size_t>(holder[id])]++] =
            static_cast<int>(id);
      }
    }
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const std::size_t lo = first[static_cast<std::size_t>(i)];
      const std::size_t cnt = first[static_cast<std::size_t>(i) + 1] - lo;
      if (cnt == 0) continue;
      s.add_send(i, (i + bit) % n, payload * cnt,
                 std::span(sorted).subspan(lo, cnt));
    }
  }
}

/// Pairwise-exchange alltoall: n-1 rounds of exactly one block per rank —
/// XOR partners at power-of-two n (perfectly matched exchanges), ring
/// offsets otherwise.
void pairwise_alltoall(Schedule& s, int n, std::uint64_t payload) {
  for (int t = 1; t < n; ++t) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const int dst = is_pow2(n) ? (i ^ t) : (i + t) % n;
      s.add_send(i, dst, payload, i * n + dst);
    }
  }
}

// --- hierarchical (two-level SMP) family -----------------------------------

struct NodeGroups {
  std::vector<std::vector<int>> members;  ///< per node, ranks ascending
  std::vector<int> leaders;               ///< members[g][0], one per node
  bool aggregates = false;                ///< any node with > 1 rank
};

/// Bucket world ranks by node id. Groups are ordered by leader (= minimum
/// member) rank, so the group containing rank 0 is groups[0] and its
/// leader is rank 0 — which is why the rooted hierarchical schedules never
/// need a root-to-leader hand-off step.
NodeGroups make_groups(int n, const std::vector<int>* node_of_rank) {
  NodeGroups g;
  if (node_of_rank == nullptr ||
      static_cast<int>(node_of_rank->size()) != n) {
    for (int i = 0; i < n; ++i) g.members.push_back({i});
  } else {
    std::map<int, std::vector<int>> by_node;
    for (int i = 0; i < n; ++i) by_node[(*node_of_rank)[i]].push_back(i);
    for (auto& [node, ranks] : by_node) g.members.push_back(std::move(ranks));
    std::sort(g.members.begin(), g.members.end(),
              [](const auto& a, const auto& b) { return a[0] < b[0]; });
  }
  for (const auto& m : g.members) {
    g.leaders.push_back(m[0]);
    if (m.size() > 1) g.aggregates = true;
  }
  return g;
}

/// One step of intra-node legs, all nodes in parallel (they ride the node
/// backplane under SMP replay): `leg(leader, member)` adds each
/// non-leader's send. A step no node needs is not emitted.
template <typename Leg>
void intra_step(Schedule& s, const NodeGroups& g, const Leg& leg) {
  s.begin_step();
  for (const auto& members : g.members) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      leg(members[0], members[i]);
    }
  }
  if (s.step(s.num_steps() - 1).empty()) s.pop_step();
}

/// Two-level split: intra-node star legs around each node leader, flat
/// schedules over the leaders in between. With a non-aggregating node map
/// the stars are empty and this degenerates to the flat leader schedule
/// over all ranks.
bool hierarchical(Schedule& s, CallType call, int n, std::uint64_t payload,
                  const NodeGroups& g) {
  const std::vector<int>& leaders = g.leaders;
  const auto members = [&g](int j) {
    return std::span<const int>(g.members[static_cast<std::size_t>(j)]);
  };
  const auto collect = [&](int leader, int m) {
    s.add_send(m, leader, payload, 0);
  };
  const auto spread = [&](int leader, int m) {
    s.add_send(leader, m, payload, 0);
  };
  const auto collect_own = [&](int leader, int m) {
    s.add_send(m, leader, payload, m);
  };
  switch (call) {
    case CallType::kBarrier:
    case CallType::kCommSplit:
      intra_step(s, g, collect);
      dissemination(s, leaders, payload);
      intra_step(s, g, spread);
      return true;
    case CallType::kBcast:
      binomial_bcast(s, leaders, payload);
      intra_step(s, g, spread);
      return true;
    case CallType::kReduce:
      intra_step(s, g, collect);
      binomial_collect(s, leaders, members, payload, /*grow=*/false);
      return true;
    case CallType::kAllreduce:
      intra_step(s, g, collect);
      rd_allreduce(s, leaders, payload);
      intra_step(s, g, spread);
      return true;
    case CallType::kGather:
      intra_step(s, g, collect_own);
      binomial_collect(s, leaders, members, payload, /*grow=*/true);
      return true;
    case CallType::kScatter:
      binomial_scatter(s, leaders, members, payload);
      intra_step(s, g, [&](int leader, int m) {
        s.add_send(leader, m, payload, m);
      });
      return true;
    case CallType::kAllgather: {
      intra_step(s, g, collect_own);
      bruck_allgather(s, leaders, members, payload);
      std::vector<int> all(static_cast<std::size_t>(n));
      std::iota(all.begin(), all.end(), 0);
      intra_step(s, g, [&](int leader, int m) {
        s.add_send(leader, m, payload * static_cast<std::uint64_t>(n), all);
      });
      return true;
    }
    default:
      return false;  // alltoall(v)/reduce-scatter/scan stay flat
  }
}

/// Chunk-space size per call (see file header for the conventions).
int chunk_space(CallType call, ScheduleKind algo, int n) {
  switch (call) {
    case CallType::kAlltoall:
    case CallType::kAlltoallv:
      return n * n;
    case CallType::kGather:
    case CallType::kAllgather:
    case CallType::kScatter:
    case CallType::kReduceScatter:
      return n;
    case CallType::kAllreduce:
      return algo == ScheduleKind::kRing ? n : 1;
    default:
      return 1;
  }
}

/// Appends `algo`'s steps for `call` to `s`; false when it has none.
bool generate_steps(Schedule& s, ScheduleKind algo, CallType call, int n,
                    std::uint64_t payload,
                    const std::vector<int>* node_of_rank) {
  std::vector<int> world(static_cast<std::size_t>(n));
  std::iota(world.begin(), world.end(), 0);
  const auto single = [&world](int j) {
    return std::span<const int>(&world[static_cast<std::size_t>(j)], 1);
  };
  const auto share = [payload](int) { return payload; };
  switch (algo) {
    case ScheduleKind::kRing:
      switch (call) {
        case CallType::kBcast: ring_bcast(s, world, payload); return true;
        case CallType::kReduce: ring_reduce(s, world, payload); return true;
        case CallType::kAllreduce:
          ring_allreduce(s, world, payload);
          return true;
        case CallType::kAllgather:
          ring_allgather_steps(s, world, share);
          return true;
        case CallType::kReduceScatter:
          ring_reduce_scatter_steps(s, world, share);
          return true;
        default: return false;
      }
    case ScheduleKind::kRecursiveDoubling:
      switch (call) {
        case CallType::kAllreduce: rd_allreduce(s, world, payload); return true;
        case CallType::kBarrier:
        case CallType::kCommSplit:
          dissemination(s, world, payload);
          return true;
        case CallType::kAllgather:
          if (!is_pow2(n)) return false;
          rd_allgather(s, world, payload);
          return true;
        case CallType::kReduceScatter:
          if (!is_pow2(n)) return false;
          rh_reduce_scatter(s, world, payload);
          return true;
        case CallType::kScan: rd_scan(s, world, payload); return true;
        default: return false;
      }
    case ScheduleKind::kBinomial:
      switch (call) {
        case CallType::kBcast: binomial_bcast(s, world, payload); return true;
        case CallType::kReduce:
          binomial_collect(s, world, single, payload, /*grow=*/false);
          return true;
        case CallType::kGather:
          binomial_collect(s, world, single, payload, /*grow=*/true);
          return true;
        case CallType::kScatter:
          binomial_scatter(s, world, single, payload);
          return true;
        case CallType::kAllreduce:
        case CallType::kBarrier:
        case CallType::kCommSplit:
          binomial_collect(s, world, single, payload, /*grow=*/false);
          binomial_bcast(s, world, payload);
          return true;
        default: return false;
      }
    case ScheduleKind::kBruck:
      switch (call) {
        case CallType::kAllgather:
          bruck_allgather(s, world, single, payload);
          return true;
        case CallType::kAlltoall:
        case CallType::kAlltoallv: bruck_alltoall(s, n, payload); return true;
        default: return false;
      }
    case ScheduleKind::kPairwise:
      switch (call) {
        case CallType::kAlltoall:
        case CallType::kAlltoallv:
          pairwise_alltoall(s, n, payload);
          return true;
        default: return false;
      }
    case ScheduleKind::kHierarchical:
      return hierarchical(s, call, n, payload, make_groups(n, node_of_rank));
    case ScheduleKind::kAnalytic:
    case ScheduleKind::kAuto:
    case ScheduleKind::kSynth:
      break;
  }
  HFAST_EXPECTS_MSG(
      false,
      "generate_schedule: kAnalytic/kAuto/kSynth are not generators");
  return false;  // unreachable
}

}  // namespace

bool generate_into(Schedule& out, ScheduleKind algo, CallType call,
                   int nranks, std::uint64_t payload,
                   const std::vector<int>* node_of_rank) {
  HFAST_EXPECTS_MSG(mpisim::is_collective(call),
                    "generate_schedule: not a collective call");
  HFAST_EXPECTS(nranks >= 1);
  out.clear();
  out.call = call;
  out.algo = algo;
  out.nranks = nranks;
  out.payload = payload;
  out.num_chunks = chunk_space(call, algo, nranks);
  return generate_steps(out, algo, call, nranks, payload, node_of_rank);
}

std::optional<Schedule> generate_schedule(
    ScheduleKind algo, CallType call, int nranks, std::uint64_t payload,
    const std::vector<int>* node_of_rank) {
  Schedule s;
  if (!generate_into(s, algo, call, nranks, payload, node_of_rank)) {
    return std::nullopt;
  }
  return s;
}

ScheduleKind default_algorithm(CallType call) noexcept {
  switch (call) {
    case CallType::kBcast:
    case CallType::kReduce:
    case CallType::kGather:
    case CallType::kScatter:
      return ScheduleKind::kBinomial;
    case CallType::kAllreduce:
    case CallType::kAllgather:
    case CallType::kReduceScatter:
      return ScheduleKind::kRing;
    case CallType::kAlltoall:
    case CallType::kAlltoallv:
      return ScheduleKind::kBruck;
    default:
      return ScheduleKind::kRecursiveDoubling;  // barrier/comm-split/scan
  }
}

Schedule resolve_schedule(ScheduleKind algo, CallType call, int nranks,
                          std::uint64_t payload,
                          const std::vector<int>* node_of_rank) {
  if (auto s = generate_schedule(algo, call, nranks, payload, node_of_rank)) {
    return std::move(*s);
  }
  auto fallback = generate_schedule(default_algorithm(call), call, nranks,
                                    payload, node_of_rank);
  HFAST_ASSERT_MSG(fallback.has_value(),
                   "every collective call must have a default schedule");
  return std::move(*fallback);
}

}  // namespace hfast::collective
