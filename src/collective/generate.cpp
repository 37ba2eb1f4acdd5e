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
#include <utility>

#include "hfast/util/assert.hpp"

namespace hfast::collective {
namespace {

using mpisim::CallType;
using Steps = std::vector<Step>;

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Near-equal split of `payload` into `num` chunks: chunk c's share.
std::uint64_t split_bytes(std::uint64_t payload, int num, int c) {
  const std::uint64_t q = payload / static_cast<std::uint64_t>(num);
  const std::uint64_t r = payload % static_cast<std::uint64_t>(num);
  return q + (static_cast<std::uint64_t>(c) < r ? 1 : 0);
}

void add_send(Step& step, int src, int dst, std::uint64_t bytes,
              std::vector<int> chunks) {
  step.sends.push_back(SendOp{src, dst, bytes, std::move(chunks)});
}

// --- ring family -----------------------------------------------------------

/// Relay chain from r[0] down the ring: n-1 steps, full payload per hop.
Steps ring_bcast(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int s = 0; s + 1 < n; ++s) {
    Step st;
    add_send(st, r[s], r[s + 1], payload, {0});
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Reverse relay: contributions accumulate down the chain into r[0].
Steps ring_reduce(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int s = 0; s + 1 < n; ++s) {
    Step st;
    add_send(st, r[n - 1 - s], r[n - 2 - s], payload, {0});
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Chunked ring reduce-scatter: n-1 steps; afterwards rank index i holds
/// chunk i fully reduced. `chunk_bytes(c)` decouples the two users: the
/// allreduce splits one vector, reduce-scatter moves payload-sized shares.
template <typename ChunkBytes>
Steps ring_reduce_scatter_steps(const std::vector<int>& r,
                                const ChunkBytes& chunk_bytes) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int s = 0; s + 1 < n; ++s) {
    Step st;
    for (int i = 0; i < n; ++i) {
      const int c = ((i - s - 1) % n + n) % n;
      add_send(st, r[i], r[(i + 1) % n], chunk_bytes(c), {c});
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Chunked ring allgather: n-1 steps; rank index i starts owning chunk i
/// and forwards its newest chunk each step.
template <typename ChunkBytes>
Steps ring_allgather_steps(const std::vector<int>& r,
                           const ChunkBytes& chunk_bytes) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int s = 0; s + 1 < n; ++s) {
    Step st;
    for (int i = 0; i < n; ++i) {
      const int c = ((i - s) % n + n) % n;
      add_send(st, r[i], r[(i + 1) % n], chunk_bytes(c), {c});
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// The classic bandwidth-optimal 2(n-1)-step ring allreduce: chunked
/// reduce-scatter then chunked allgather over the same ring.
Steps ring_allreduce(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  const auto chunk = [&](int c) { return split_bytes(payload, n, c); };
  Steps steps = ring_reduce_scatter_steps(r, chunk);
  Steps tail = ring_allgather_steps(r, chunk);
  steps.insert(steps.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));
  return steps;
}

// --- recursive doubling family ---------------------------------------------

/// Recursive-doubling allreduce for any n: fold the n - 2^floor(log2 n)
/// extra ranks onto the power-of-two core, butterfly-exchange within the
/// core, unfold the results back out.
Steps rd_allreduce(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  int m = 1;
  while (m * 2 <= n) m *= 2;
  const int rem = n - m;
  Steps steps;
  if (rem > 0) {
    Step st;
    for (int j = 0; j < rem; ++j) add_send(st, r[m + j], r[j], payload, {0});
    steps.push_back(std::move(st));
  }
  for (int bit = 1; bit < m; bit *= 2) {
    Step st;
    for (int i = 0; i < m; ++i) add_send(st, r[i], r[i ^ bit], payload, {0});
    steps.push_back(std::move(st));
  }
  if (rem > 0) {
    Step st;
    for (int j = 0; j < rem; ++j) add_send(st, r[j], r[m + j], payload, {0});
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Dissemination exchange (any n): ceil(log2 n) rounds of i -> i + 2^k;
/// full contribution coverage — the barrier/comm-split schedule.
Steps dissemination(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    Step st;
    for (int i = 0; i < n; ++i) {
      add_send(st, r[i], r[(i + bit) % n], payload, {0});
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Recursive-doubling allgather (power-of-two n): at step k each rank
/// holds the aligned 2^k-origin block containing itself and swaps it with
/// its 2^k-distant partner.
Steps rd_allgather(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    Step st;
    for (int i = 0; i < n; ++i) {
      const int start = i & ~(bit - 1);
      std::vector<int> chunks;
      chunks.reserve(static_cast<std::size_t>(bit));
      for (int c = start; c < start + bit; ++c) chunks.push_back(r[c]);
      add_send(st, r[i], r[i ^ bit], payload * static_cast<std::uint64_t>(bit),
               std::move(chunks));
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Recursive-halving reduce-scatter (power-of-two n): exchange ever-smaller
/// chunk blocks with ever-nearer partners; rank index i ends with chunk
/// r[i] fully reduced.
Steps rh_reduce_scatter(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int b = n / 2; b >= 1; b /= 2) {
    Step st;
    for (int i = 0; i < n; ++i) {
      const int partner = i ^ b;
      const int start = partner & ~(b - 1);
      std::vector<int> chunks;
      chunks.reserve(static_cast<std::size_t>(b));
      for (int c = start; c < start + b; ++c) chunks.push_back(r[c]);
      add_send(st, r[i], r[partner], payload * static_cast<std::uint64_t>(b),
               std::move(chunks));
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Hillis–Steele inclusive scan: step k sends the running prefix 2^k ranks
/// forward.
Steps rd_scan(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    Step st;
    for (int i = 0; i + bit < n; ++i) {
      add_send(st, r[i], r[i + bit], payload, {0});
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

// --- binomial family -------------------------------------------------------

/// Binomial broadcast from index 0: at step k every informed offset
/// d < 2^k forwards to d + 2^k.
Steps binomial_bcast(const std::vector<int>& r, std::uint64_t payload) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    Step st;
    for (int d = 0; d < bit && d + bit < n; ++d) {
      add_send(st, r[d], r[d + bit], payload, {0});
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Binomial fan-in to index 0: at step k, offsets with bit k set (lower
/// bits clear) forward everything gathered from their subtree [d, d+2^k).
/// grow=false is reduce semantics — one accumulated vector, chunk {0},
/// constant `unit` bytes per hop; grow=true is gather semantics — messages
/// carry the subtree's chunk sets and grow by `unit` bytes per chunk.
Steps binomial_collect(const std::vector<int>& r,
                       const std::vector<std::vector<int>>& sets,
                       std::uint64_t unit, bool grow) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    Step st;
    for (int d = bit; d < n; d += 2 * bit) {
      std::vector<int> chunks;
      std::uint64_t bytes = unit;
      if (grow) {
        for (int j = d; j < std::min(d + bit, n); ++j) {
          chunks.insert(chunks.end(),
                        sets[static_cast<std::size_t>(j)].begin(),
                        sets[static_cast<std::size_t>(j)].end());
        }
        bytes = unit * static_cast<std::uint64_t>(chunks.size());
      } else {
        chunks = {0};
      }
      add_send(st, r[d], r[d - bit], bytes, std::move(chunks));
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Binomial scatter from index 0 with per-index chunk sets: descending
/// strides; each internal node hands its far child that child's whole
/// subtree worth of chunks.
Steps binomial_scatter(const std::vector<int>& r,
                       const std::vector<std::vector<int>>& sets,
                       std::uint64_t unit) {
  const int n = static_cast<int>(r.size());
  int top = 1;
  while (top < n) top *= 2;
  Steps steps;
  for (int bit = top / 2; bit >= 1; bit /= 2) {
    Step st;
    for (int d = 0; d + bit < n; d += 2 * bit) {
      std::vector<int> chunks;
      for (int j = d + bit; j < std::min(d + 2 * bit, n); ++j) {
        chunks.insert(chunks.end(), sets[static_cast<std::size_t>(j)].begin(),
                      sets[static_cast<std::size_t>(j)].end());
      }
      // Size the message before the move: `bytes` and `chunks` are function
      // arguments, and argument evaluation order is unspecified — reading
      // chunks.size() inline would race the move-from.
      const std::uint64_t bytes =
          unit * static_cast<std::uint64_t>(chunks.size());
      add_send(st, r[d], r[d + bit], bytes, std::move(chunks));
    }
    if (!st.sends.empty()) steps.push_back(std::move(st));
  }
  return steps;
}

std::vector<std::vector<int>> singleton_sets(const std::vector<int>& r) {
  std::vector<std::vector<int>> sets;
  sets.reserve(r.size());
  for (int id : r) sets.push_back({id});
  return sets;
}

// --- Bruck family ----------------------------------------------------------

/// Bruck allgather (any n) with per-index chunk sets: at round k index i
/// ships its lowest min(2^k, n - 2^k) accumulated origin blocks to
/// i - 2^k; ceil(log2 n) rounds.
Steps bruck_allgather(const std::vector<int>& r,
                      const std::vector<std::vector<int>>& sets,
                      std::uint64_t unit) {
  const int n = static_cast<int>(r.size());
  Steps steps;
  for (int bit = 1; bit < n; bit *= 2) {
    const int cnt = std::min(bit, n - bit);
    Step st;
    for (int i = 0; i < n; ++i) {
      std::vector<int> chunks;
      for (int j = 0; j < cnt; ++j) {
        const auto& s = sets[static_cast<std::size_t>((i + j) % n)];
        chunks.insert(chunks.end(), s.begin(), s.end());
      }
      // Sized before the move — argument evaluation order is unspecified.
      const std::uint64_t bytes =
          unit * static_cast<std::uint64_t>(chunks.size());
      add_send(st, r[i], r[((i - bit) % n + n) % n], bytes,
               std::move(chunks));
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Bruck alltoall (any n) in ceil(log2 n) rounds: a block destined d hops
/// from its current holder h to h + 2^k exactly when bit k of its
/// remaining ring distance (d - h) mod n is set; rounds clear bits in
/// ascending order so every block lands after the last round. Blocks
/// co-resident at a rank with the same set bit travel as one message.
Steps bruck_alltoall(int n, std::uint64_t payload) {
  Steps steps;
  for (int k = 0, bit = 1; bit < n; ++k, bit *= 2) {
    // chunk lists per source rank for this round
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < n; ++d) {
        const int r0 = ((d - o) % n + n) % n;
        if ((r0 & bit) == 0) continue;
        const int remaining = r0 & ~(bit - 1);  // bits below k already done
        const int holder = ((d - remaining) % n + n) % n;
        outgoing[static_cast<std::size_t>(holder)].push_back(o * n + d);
      }
    }
    Step st;
    for (int i = 0; i < n; ++i) {
      auto& chunks = outgoing[static_cast<std::size_t>(i)];
      if (chunks.empty()) continue;
      // Sized before the move — argument evaluation order is unspecified.
      const std::uint64_t bytes =
          payload * static_cast<std::uint64_t>(chunks.size());
      add_send(st, i, (i + bit) % n, bytes, std::move(chunks));
    }
    steps.push_back(std::move(st));
  }
  return steps;
}

/// Pairwise-exchange alltoall: n-1 rounds of exactly one block per rank —
/// XOR partners at power-of-two n (perfectly matched exchanges), ring
/// offsets otherwise.
Steps pairwise_alltoall(int n, std::uint64_t payload) {
  Steps steps;
  for (int s = 1; s < n; ++s) {
    Step st;
    for (int i = 0; i < n; ++i) {
      const int dst = is_pow2(n) ? (i ^ s) : (i + s) % n;
      add_send(st, i, dst, payload, {i * n + dst});
    }
    steps.push_back(std::move(st));
  }
  return steps;
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

/// One step: every non-leader sends to its node leader (all nodes in
/// parallel, riding the node backplane under SMP replay).
template <typename PerMember>
void intra_collect(Steps& steps, const NodeGroups& g, const PerMember& fn) {
  Step st;
  for (const auto& members : g.members) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      auto [bytes, chunks] = fn(members[i]);
      add_send(st, members[i], members[0], bytes, std::move(chunks));
    }
  }
  if (!st.sends.empty()) steps.push_back(std::move(st));
}

/// One step: every node leader sends to each of its non-leader members.
template <typename PerMember>
void intra_spread(Steps& steps, const NodeGroups& g, const PerMember& fn) {
  Step st;
  for (const auto& members : g.members) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      auto [bytes, chunks] = fn(members[i]);
      add_send(st, members[0], members[i], bytes, std::move(chunks));
    }
  }
  if (!st.sends.empty()) steps.push_back(std::move(st));
}

void append(Steps& steps, Steps tail) {
  steps.insert(steps.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));
}

using BytesChunks = std::pair<std::uint64_t, std::vector<int>>;

/// Two-level split: intra-node star legs around each node leader, flat
/// schedules over the leaders in between. With a non-aggregating node map
/// the stars are empty and this degenerates to the flat leader schedule
/// over all ranks.
std::optional<Steps> hierarchical(CallType call, int n, std::uint64_t payload,
                                  const NodeGroups& g) {
  const std::vector<int>& leaders = g.leaders;
  Steps steps;
  const auto whole = [payload](int) -> BytesChunks { return {payload, {0}}; };
  switch (call) {
    case CallType::kBarrier:
    case CallType::kCommSplit:
      intra_collect(steps, g, whole);
      append(steps, dissemination(leaders, payload));
      intra_spread(steps, g, whole);
      return steps;
    case CallType::kBcast:
      append(steps, binomial_bcast(leaders, payload));
      intra_spread(steps, g, whole);
      return steps;
    case CallType::kReduce:
      intra_collect(steps, g, whole);
      append(steps, binomial_collect(leaders, singleton_sets(leaders),
                                     payload, /*grow=*/false));
      return steps;
    case CallType::kAllreduce:
      intra_collect(steps, g, whole);
      append(steps, rd_allreduce(leaders, payload));
      intra_spread(steps, g, whole);
      return steps;
    case CallType::kGather:
      intra_collect(steps, g, [payload](int m) -> BytesChunks {
        return {payload, {m}};
      });
      append(steps,
             binomial_collect(leaders, g.members, payload, /*grow=*/true));
      return steps;
    case CallType::kScatter:
      append(steps, binomial_scatter(leaders, g.members, payload));
      intra_spread(steps, g, [payload](int m) -> BytesChunks {
        return {payload, {m}};
      });
      return steps;
    case CallType::kAllgather: {
      intra_collect(steps, g, [payload](int m) -> BytesChunks {
        return {payload, {m}};
      });
      append(steps, bruck_allgather(leaders, g.members, payload));
      std::vector<int> all(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
      intra_spread(steps, g, [&](int) -> BytesChunks {
        return {payload * static_cast<std::uint64_t>(n), all};
      });
      return steps;
    }
    default:
      return std::nullopt;  // alltoall(v)/reduce-scatter/scan stay flat
  }
}

std::vector<int> iota_ranks(int n) {
  std::vector<int> r(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) r[static_cast<std::size_t>(i)] = i;
  return r;
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

std::optional<Steps> generate_steps(ScheduleKind algo, CallType call, int n,
                                    std::uint64_t payload,
                                    const std::vector<int>* node_of_rank) {
  const std::vector<int> world = iota_ranks(n);
  const auto share = [payload](int) { return payload; };
  switch (algo) {
    case ScheduleKind::kRing:
      switch (call) {
        case CallType::kBcast: return ring_bcast(world, payload);
        case CallType::kReduce: return ring_reduce(world, payload);
        case CallType::kAllreduce: return ring_allreduce(world, payload);
        case CallType::kAllgather: return ring_allgather_steps(world, share);
        case CallType::kReduceScatter:
          return ring_reduce_scatter_steps(world, share);
        default: return std::nullopt;
      }
    case ScheduleKind::kRecursiveDoubling:
      switch (call) {
        case CallType::kAllreduce: return rd_allreduce(world, payload);
        case CallType::kBarrier:
        case CallType::kCommSplit: return dissemination(world, payload);
        case CallType::kAllgather:
          if (!is_pow2(n)) return std::nullopt;
          return rd_allgather(world, payload);
        case CallType::kReduceScatter:
          if (!is_pow2(n)) return std::nullopt;
          return rh_reduce_scatter(world, payload);
        case CallType::kScan: return rd_scan(world, payload);
        default: return std::nullopt;
      }
    case ScheduleKind::kBinomial:
      switch (call) {
        case CallType::kBcast: return binomial_bcast(world, payload);
        case CallType::kReduce:
          return binomial_collect(world, singleton_sets(world), payload,
                                  /*grow=*/false);
        case CallType::kGather:
          return binomial_collect(world, singleton_sets(world), payload,
                                  /*grow=*/true);
        case CallType::kScatter:
          return binomial_scatter(world, singleton_sets(world), payload);
        case CallType::kAllreduce: {
          Steps steps = binomial_collect(world, singleton_sets(world),
                                         payload, /*grow=*/false);
          append(steps, binomial_bcast(world, payload));
          return steps;
        }
        case CallType::kBarrier:
        case CallType::kCommSplit: {
          Steps steps = binomial_collect(world, singleton_sets(world),
                                         payload, /*grow=*/false);
          append(steps, binomial_bcast(world, payload));
          return steps;
        }
        default: return std::nullopt;
      }
    case ScheduleKind::kBruck:
      switch (call) {
        case CallType::kAllgather:
          return bruck_allgather(world, singleton_sets(world), payload);
        case CallType::kAlltoall:
        case CallType::kAlltoallv: return bruck_alltoall(n, payload);
        default: return std::nullopt;
      }
    case ScheduleKind::kPairwise:
      switch (call) {
        case CallType::kAlltoall:
        case CallType::kAlltoallv: return pairwise_alltoall(n, payload);
        default: return std::nullopt;
      }
    case ScheduleKind::kHierarchical:
      return hierarchical(call, n, payload, make_groups(n, node_of_rank));
    case ScheduleKind::kAnalytic:
    case ScheduleKind::kAuto:
    case ScheduleKind::kSynth:
      break;
  }
  HFAST_EXPECTS_MSG(
      false,
      "generate_schedule: kAnalytic/kAuto/kSynth are not generators");
  return std::nullopt;  // unreachable
}

}  // namespace

std::optional<Schedule> generate_schedule(
    ScheduleKind algo, CallType call, int nranks, std::uint64_t payload,
    const std::vector<int>* node_of_rank) {
  HFAST_EXPECTS_MSG(mpisim::is_collective(call),
                    "generate_schedule: not a collective call");
  HFAST_EXPECTS(nranks >= 1);
  auto steps = generate_steps(algo, call, nranks, payload, node_of_rank);
  if (!steps.has_value()) return std::nullopt;
  Schedule s;
  s.call = call;
  s.algo = algo;
  s.nranks = nranks;
  s.payload = payload;
  s.num_chunks = chunk_space(call, algo, nranks);
  s.steps = std::move(*steps);
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
