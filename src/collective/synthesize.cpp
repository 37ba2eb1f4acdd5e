/// \file synthesize.cpp
/// Bounded search over step-structured collective schedules. See
/// synthesize.hpp for the contracts (frontier seeded from the canned
/// families, every admitted candidate validator-proven, deterministic
/// tie-break).
///
/// Search space, concretely:
///  * canned seeds: exactly select_schedule's candidate set, so the
///    frontier winner can never cost more than the kAuto pick;
///  * parametric skeletons over a rank order `r` (a permutation of world
///    ranks; position semantics, chunk ids mapped back to world ranks):
///      - k-nomial broadcast / reduce / allreduce trees (k up to P gives
///        the 1-step star — wins when latency dominates),
///      - radix-r dissemination (reduction ops; r = P is the 1-step
///        direct exchange),
///      - radix-r Bruck allgather (r = P is direct allgather),
///      - radix-r digit Bruck alltoall (r = 2 is the canned Bruck, r = P
///        the 1-step direct alltoall, in between interpolates steps vs
///        volume), and a permuted pairwise alltoall,
///      - permuted rings (allreduce / allgather / reduce-scatter) — on a
///        torus a hop-greedy tour cuts the per-step hop latency;
///  * rank orders: identity, hop-greedy nearest-neighbor tour,
///    root-distance sort, and two LCG-seeded random orders.

#include "hfast/collective/synthesize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "hfast/collective/generate.hpp"
#include "hfast/collective/verify.hpp"
#include "hfast/util/assert.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::collective {
namespace {

using mpisim::CallType;

/// Above this much validator state (bytes), proving candidates is no
/// longer affordable and synthesize() falls back to the kAuto pick.
constexpr std::uint64_t kMaxValidatorBytes = std::uint64_t{64} << 20;
/// Deriving rank orders is O(P^2) hop queries, the budget of a dense hop
/// table; skip permutations above.
constexpr int kMaxPermRanks = HopTable::kMaxRanks;

// -------------------------------------------------------------------------
// Deterministic PRNG (never std::mt19937: the byte-stable-per-seed contract
// must survive toolchain changes).

struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed ^ 0x9e3779b97f4a7c15ULL) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  /// Uniform-ish draw in [0, bound); bound >= 1.
  std::uint64_t below(std::uint64_t bound) { return (next() >> 33) % bound; }
};

// -------------------------------------------------------------------------
// Key hashing.

void feed_u64(std::uint64_t& h, std::uint64_t v) {
  std::array<std::byte, 8> b;
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
  h = util::fnv1a64(b, h);
}

void feed_f64(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  feed_u64(h, bits);
}

bool reduce_semantics(CallType call) {
  switch (call) {
    case CallType::kReduce:
    case CallType::kAllreduce:
    case CallType::kReduceScatter:
    case CallType::kBarrier:
    case CallType::kCommSplit:
    case CallType::kScan:
      return true;
    default:
      return false;
  }
}

/// Upper bound on verify.cpp's state for any candidate this search emits:
/// chunk space is n^2 for alltoall(v), else at most n.
std::uint64_t validator_bytes(CallType call, int nranks) {
  const auto n = static_cast<std::uint64_t>(nranks);
  const std::uint64_t chunks =
      (call == CallType::kAlltoall || call == CallType::kAlltoallv) ? n * n
                                                                    : n;
  if (reduce_semantics(call)) {
    const std::uint64_t words = (n + 63) / 64;
    return n * chunks * words * 8;
  }
  return n * chunks;
}

// -------------------------------------------------------------------------
// Parametric generators. All take a rank order `r` (r[position] = world
// rank); rooted calls require r[0] == 0 (the canonical root, see
// generate.hpp). Chunk ids follow the per-call conventions of verify.cpp,
// mapped through `r` back to world ids where the convention is rank-keyed.

/// Resets the reused buffer `s` to an empty kSynth schedule.
void shell(Schedule& s, CallType call, int n, std::uint64_t payload,
           int num_chunks) {
  s.clear();
  s.call = call;
  s.algo = ScheduleKind::kSynth;
  s.nranks = n;
  s.payload = payload;
  s.num_chunks = num_chunks;
}

int order_size(const std::vector<int>& r) { return static_cast<int>(r.size()); }

/// One k-nomial tree level at `stride`: positions [stride, min(k * stride,
/// n)) each hear from one sender; `up` flips every edge (fan-in).
void knomial_level(Schedule& s, const std::vector<int>& r,
                   std::uint64_t payload, int k, std::int64_t stride,
                   bool up) {
  const int n = order_size(r);
  s.begin_step();
  for (std::int64_t i = 0; i < std::min<std::int64_t>(stride, n); ++i) {
    for (int j = 1; j < k; ++j) {
      const std::int64_t dst = i + static_cast<std::int64_t>(j) * stride;
      if (dst >= n) break;
      const int a = r[static_cast<std::size_t>(i)];
      const int b = r[static_cast<std::size_t>(dst)];
      s.add_send(up ? b : a, up ? a : b, payload, 0);
    }
  }
}

void knomial_bcast_over(Schedule& s, const std::vector<int>& r,
                        std::uint64_t payload, int k) {
  for (std::int64_t stride = 1; stride < order_size(r); stride *= k) {
    knomial_level(s, r, payload, k, stride, /*up=*/false);
  }
}

/// Fan-in tree: the broadcast tree with level order reversed and every
/// edge flipped — each send folds a child subtree's partial into its parent.
void knomial_reduce_over(Schedule& s, const std::vector<int>& r,
                         std::uint64_t payload, int k) {
  std::int64_t stride = 1;
  while (stride * k < order_size(r)) stride *= k;
  for (; stride >= 1 && stride < order_size(r); stride /= k) {
    knomial_level(s, r, payload, k, stride, /*up=*/true);
  }
}

/// Radix-r dissemination: each round multiplies every rank's contribution
/// window by r; r = n degenerates to the 1-step direct exchange.
void dissemination_over(Schedule& s, const std::vector<int>& r,
                        std::uint64_t payload, int radix) {
  const int n = order_size(r);
  for (std::int64_t h = 1; h < n; h *= radix) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      for (int j = 1; j < radix; ++j) {
        const std::int64_t dist = static_cast<std::int64_t>(j) * h;
        if (dist >= n) break;
        const int dst = static_cast<int>((i + dist) % n);
        s.add_send(r[static_cast<std::size_t>(i)],
                   r[static_cast<std::size_t>(dst)], payload, 0);
      }
    }
  }
}

/// Ring steps over the order: at step t position i sends to i + 1 the
/// chunk `chunk(i, t)`, charging `bytes` (allgather, reduce-scatter, and
/// the two halves of the ring allreduce).
template <typename Chunk>
void ring_over(Schedule& s, const std::vector<int>& r, std::uint64_t bytes,
               const Chunk& chunk) {
  const int n = order_size(r);
  for (int t = 0; t + 1 < n; ++t) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      s.add_send(r[static_cast<std::size_t>(i)],
                 r[static_cast<std::size_t>((i + 1) % n)], bytes, chunk(i, t));
    }
  }
}

int ring_mod(int v, int n) { return (v % n + n) % n; }

/// Radix-r Bruck allgather by simulation: every position holds a window of
/// origin blocks; each round, up to r-1 partners at strides j*h forward
/// ship the blocks the receiver lacks. Sends are computed against the
/// pre-round held sets, matching the validator's parallel-step semantics.
void bruck_allgather_over(Schedule& s, const std::vector<int>& r,
                          std::uint64_t payload, int radix) {
  const int n = order_size(r);
  if (n <= 1) return;
  // Bit q of row p: position p holds position q's block.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> held(static_cast<std::size_t>(n) * words, 0);
  const auto at = [words](int p, std::size_t w) {
    return static_cast<std::size_t>(p) * words + w;
  };
  for (int p = 0; p < n; ++p) {
    held[at(p, static_cast<std::size_t>(p) / 64)] |= std::uint64_t{1}
                                                     << (p % 64);
  }
  std::vector<std::uint64_t> next;
  int h = 1;
  while (h < n) {
    s.begin_step();
    // next starts as held and only gains blocks, so "the receiver lacks
    // it, before and during the round" is one test against next.
    next = held;
    for (int j = 1; j < radix; ++j) {
      const std::int64_t dist = static_cast<std::int64_t>(j) * h;
      if (dist >= n) break;
      for (int p = 0; p < n; ++p) {
        const int src = static_cast<int>((p + dist) % n);
        s.add_send(r[static_cast<std::size_t>(src)],
                   r[static_cast<std::size_t>(p)], 0);
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t fresh = held[at(src, w)] & ~next[at(p, w)];
          next[at(p, w)] |= fresh;
          for (; fresh != 0; fresh &= fresh - 1) {
            s.add_chunk(r[w * 64 + static_cast<std::size_t>(
                                       std::countr_zero(fresh))]);
          }
        }
        SendOp& op = s.sends.back();
        if (op.chunk_count == 0) s.sends.pop_back();
        else op.bytes = payload * op.chunk_count;
      }
    }
    held.swap(next);
    if (s.step(s.num_steps() - 1).empty()) {  // defensive; j=1 progresses
      s.pop_step();
      break;
    }
    int count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += std::popcount(held[at(0, w)]);
    }
    h = count;
  }
}

/// Radix-r digit Bruck alltoall: block (o -> d) travels its ring distance
/// one base-r digit per round (v * r^t positions for digit v at weight
/// r^t); r = 2 is the canned Bruck, r >= n the 1-step direct exchange.
/// Each round counting-sorts the moving blocks by (holder position, digit
/// value) and ships each bucket, in block order, as one send.
void bruck_alltoall_over(Schedule& s, const std::vector<int>& r,
                         std::uint64_t payload, int radix) {
  const int n = order_size(r);
  const auto buckets = static_cast<std::size_t>(n) * radix;
  std::vector<int> digit(static_cast<std::size_t>(n));
  std::vector<int> below(static_cast<std::size_t>(n));
  std::vector<std::size_t> first(buckets + 1);
  std::vector<std::size_t> next(buckets);
  std::vector<int> sorted;
  for (std::int64_t h = 1; h < n; h *= radix) {
    // Per ring distance: its digit at weight h, and its remainder below h.
    for (int dist = 0; dist < n; ++dist) {
      digit[static_cast<std::size_t>(dist)] =
          static_cast<int>((dist / h) % radix);
      below[static_cast<std::size_t>(dist)] = static_cast<int>(dist % h);
    }
    // The bucket of block (o, d) this round, or `buckets` if it stays put.
    const auto bucket_of = [&](int o, int d) {
      const int dist = d >= o ? d - o : d - o + n;
      const int v = digit[static_cast<std::size_t>(dist)];
      if (v == 0) return buckets;  // dist 0 has digit 0 too
      int holder = o + below[static_cast<std::size_t>(dist)];
      if (holder >= n) holder -= n;
      return static_cast<std::size_t>(holder) * radix + v;
    };
    std::fill(first.begin(), first.end(), 0);
    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < n; ++d) {
        if (const std::size_t b = bucket_of(o, d); b < buckets) ++first[b + 1];
      }
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::copy(first.begin(), first.end() - 1, next.begin());
    sorted.resize(first.back());
    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < n; ++d) {
        if (const std::size_t b = bucket_of(o, d); b < buckets) {
          sorted[next[b]++] = r[static_cast<std::size_t>(o)] * n +
                              r[static_cast<std::size_t>(d)];
        }
      }
    }
    s.begin_step();
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t cnt = first[b + 1] - first[b];
      if (cnt == 0) continue;
      const auto holder = static_cast<std::int64_t>(b / radix);
      const auto v = static_cast<std::int64_t>(b % radix);
      s.add_send(r[static_cast<std::size_t>(holder)],
                 r[static_cast<std::size_t>((holder + v * h) % n)],
                 payload * cnt, std::span(sorted).subspan(first[b], cnt));
    }
    if (s.step(s.num_steps() - 1).empty()) s.pop_step();
  }
}

void pairwise_alltoall_over(Schedule& s, const std::vector<int>& r,
                            std::uint64_t payload) {
  const int n = order_size(r);
  for (int off = 1; off < n; ++off) {
    s.begin_step();
    for (int i = 0; i < n; ++i) {
      const int src = r[static_cast<std::size_t>(i)];
      const int dst = r[static_cast<std::size_t>((i + off) % n)];
      s.add_send(src, dst, payload, src * n + dst);
    }
  }
}

// -------------------------------------------------------------------------
// Rank orders.

std::vector<int> iota_order(int n) {
  std::vector<int> r(static_cast<std::size_t>(n));
  std::iota(r.begin(), r.end(), 0);
  return r;
}

/// Nearest-neighbor tour under the hop function, from rank 0; hop ties
/// break toward the lower rank so the tour is deterministic.
std::vector<int> greedy_tour(int n, const HopFn& hops) {
  std::vector<int> r;
  r.reserve(static_cast<std::size_t>(n));
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  int cur = 0;
  r.push_back(0);
  used[0] = 1;
  for (int picked = 1; picked < n; ++picked) {
    int best = -1;
    int best_h = 0;
    for (int x = 0; x < n; ++x) {
      if (used[static_cast<std::size_t>(x)]) continue;
      const int h = hops(cur, x);
      if (best < 0 || h < best_h) {
        best = x;
        best_h = h;
      }
    }
    r.push_back(best);
    used[static_cast<std::size_t>(best)] = 1;
    cur = best;
  }
  return r;
}

/// Ranks sorted by (hop distance from the root, rank): a tree built over
/// this order reaches nearby ranks in the big early strides.
std::vector<int> distance_sorted(int n, const HopFn& hops) {
  std::vector<int> r = iota_order(n);
  std::stable_sort(r.begin() + 1, r.end(), [&](int a, int b) {
    const int ha = hops(0, a);
    const int hb = hops(0, b);
    return ha != hb ? ha < hb : a < b;
  });
  return r;
}

/// Root-pinned Fisher-Yates shuffle of positions [1, n).
std::vector<int> random_order(int n, Lcg& lcg) {
  std::vector<int> r = iota_order(n);
  for (int i = n - 1; i > 1; --i) {
    const auto j =
        1 + static_cast<int>(lcg.below(static_cast<std::uint64_t>(i)));
    std::swap(r[static_cast<std::size_t>(i)], r[static_cast<std::size_t>(j)]);
  }
  return r;
}

// -------------------------------------------------------------------------
// The search.

enum class Gen : int {
  kCanned = 0,  // seeded from a canned family; has no skeleton
  kKnomialBcast,
  kKnomialReduce,
  kKnomialAllreduce,
  kDissemination,
  kRingAllreduce,
  kRingAllgather,
  kRingReduceScatter,
  kBruckAllgather,
  kBruckAlltoall,
  kPairwiseAlltoall,
};

/// Instantiates a parametric skeleton into the reused buffer `s`.
void build(Schedule& s, Gen gen, int param, const std::vector<int>& r,
           CallType call, std::uint64_t payload) {
  const int n = order_size(r);
  switch (gen) {
    case Gen::kKnomialBcast:
      shell(s, call, n, payload, 1);
      knomial_bcast_over(s, r, payload, param);
      return;
    case Gen::kKnomialReduce:
      shell(s, call, n, payload, 1);
      knomial_reduce_over(s, r, payload, param);
      return;
    case Gen::kKnomialAllreduce:
      shell(s, call, n, payload, 1);
      knomial_reduce_over(s, r, payload, param);
      knomial_bcast_over(s, r, payload, param);
      return;
    case Gen::kDissemination:
      shell(s, call, n, payload, 1);
      dissemination_over(s, r, payload, param);
      return;
    case Gen::kRingAllreduce: {
      // Chunk c is a position-labeled vector segment: it accumulates
      // around the ring to position c, then circulates to every position.
      shell(s, CallType::kAllreduce, n, payload, std::max(n, 1));
      const auto un = static_cast<std::uint64_t>(n);
      const std::uint64_t share = (payload + un - 1) / un;
      ring_over(s, r, share, [n](int i, int t) {
        return ring_mod(i - t - 1, n);
      });
      ring_over(s, r, share, [n](int i, int t) { return ring_mod(i - t, n); });
      return;
    }
    case Gen::kRingAllgather:  // forwards the block received t steps ago
      shell(s, CallType::kAllgather, n, payload, n);
      ring_over(s, r, payload, [&r, n](int i, int t) {
        return r[static_cast<std::size_t>(ring_mod(i - t, n))];
      });
      return;
    case Gen::kRingReduceScatter:
      // Chunk for position c circulates from position c+1 to its home c,
      // folding every position's contribution on the way.
      shell(s, CallType::kReduceScatter, n, payload, n);
      ring_over(s, r, payload, [&r, n](int i, int t) {
        return r[static_cast<std::size_t>(ring_mod(i - t - 1, n))];
      });
      return;
    case Gen::kBruckAllgather:
      shell(s, CallType::kAllgather, n, payload, n);
      bruck_allgather_over(s, r, payload, param);
      return;
    case Gen::kBruckAlltoall:
      shell(s, call, n, payload, std::max(n * n, 1));
      bruck_alltoall_over(s, r, payload, param);
      return;
    case Gen::kPairwiseAlltoall:
      shell(s, call, n, payload, std::max(n * n, 1));
      pairwise_alltoall_over(s, r, payload);
      return;
    case Gen::kCanned:
      break;
  }
  HFAST_EXPECTS_MSG(false, "instantiate: canned seeds have no skeleton");
}

Skeleton skeleton(Gen gen, int param) {
  return {static_cast<int>(gen), param};
}

/// Dedup-append `value` (>= 2, <= n) to a parameter list.
void add_param(std::vector<int>& params, int value, int n) {
  if (value < 2 || value > n) return;
  if (std::find(params.begin(), params.end(), value) == params.end()) {
    params.push_back(value);
  }
}

/// A candidate's place in the search order (better()); the best one's
/// schedule is kept beside it.
struct Entry {
  double cost = 0.0;
  std::size_t steps = 0;
  std::size_t sends = 0;
  std::size_t index = 0;  // generation order; final tie-break
};

/// Tie-break contract: (cost, fewer steps, fewer sends, earlier generation
/// index) — total and deterministic, so a fixed seed is byte-stable.
bool better(const Entry& a, const Entry& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.steps != b.steps) return a.steps < b.steps;
  if (a.sends != b.sends) return a.sends < b.sends;
  return a.index < b.index;
}

/// What pricing needs of an unproven schedule: every endpoint a rank and
/// no self-send (estimate_cost tallies bytes per endpoint, and network hop
/// oracles reject u == v). The validator rejects both as well.
bool priceable(const Schedule& s) {
  return std::all_of(s.sends.begin(), s.sends.end(), [&s](const SendOp& op) {
    return op.src >= 0 && op.src < s.nranks && op.dst >= 0 &&
           op.dst < s.nranks && op.src != op.dst;
  });
}

/// Every candidate is instantiated into one reused scratch schedule, whose
/// capacity survives from candidate to candidate; only a candidate that
/// becomes the best is copied out, into a buffer that is reused as well.
class Searcher {
 public:
  Searcher(CallType call, int n, std::uint64_t payload,
           const SynthesisOptions& opts, const HopFn& hops)
      : call_(call), n_(n), payload_(payload), opts_(opts), hops_(hops) {}

  /// Price a structure, then prove it only if it would become the best.
  /// Exactness: better() is a strict total order (the index is unique), so
  /// a candidate that would not leaves the best as it was, valid or not,
  /// and one that fails its proof is dropped, which also leaves it as it
  /// was. The winner is that of proving every candidate first; and every
  /// admitted candidate is proved.
  void consider(const Schedule& s) {
    const std::size_t index = candidates_++;
    if (priceable(s)) admit(s, estimate_cost(s, opts_.cost, hops_), index);
  }

  /// consider() once `s` is priced at `cost`.
  void admit(const Schedule& s, double cost, std::size_t index) {
    const Entry e{cost, s.num_steps(), s.total_sends(), index};
    if (best_.has_value() && !better(e, *best_)) return;
    try {
      validate_schedule(s);
    } catch (const Error&) {
      return;  // structurally or semantically invalid: not admissible
    }
    ++validated_;
    best_ = e;
    best_schedule_ = s;
  }

  void seed_canned() {
    bool smp = false;
    const std::vector<int>& nodes_in = opts_.node_of_rank;
    if (static_cast<int>(nodes_in.size()) == n_ && n_ > 1) {
      std::vector<int> nodes(nodes_in);
      std::sort(nodes.begin(), nodes.end());
      smp = std::unique(nodes.begin(), nodes.end()) - nodes.begin() < n_;
    }
    const std::vector<int>* node_map = nodes_in.empty() ? nullptr : &nodes_in;
    for (ScheduleKind kind :
         {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
          ScheduleKind::kBinomial, ScheduleKind::kBruck,
          ScheduleKind::kPairwise, ScheduleKind::kHierarchical}) {
      if (kind == ScheduleKind::kHierarchical && !smp) continue;
      if (!generate_into(scratch_, kind, call_, n_, payload_, node_map)) {
        continue;
      }
      // Track the kAuto baseline from the same candidates (same tie-break
      // as select_schedule: lowest enum on equal cost).
      const std::size_t index = candidates_++;
      const double cost = estimate_cost(scratch_, opts_.cost, hops_);
      if (!auto_cost_.has_value() || cost < *auto_cost_ ||
          (cost == *auto_cost_ &&
           static_cast<int>(kind) < static_cast<int>(auto_algo_))) {
        auto_cost_ = cost;
        auto_algo_ = kind;
      }
      if (priceable(scratch_)) admit(scratch_, cost, index);
    }
  }

  void seed_parametric() {
    Lcg lcg(opts_.seed);
    std::vector<std::vector<int>> orders;
    orders.push_back(iota_order(n_));
    if (n_ >= 3 && n_ <= kMaxPermRanks) {
      if (hops_) {
        orders.push_back(greedy_tour(n_, hops_));
        orders.push_back(distance_sorted(n_, hops_));
      }
      orders.push_back(random_order(n_, lcg));
      orders.push_back(random_order(n_, lcg));
      // Drop duplicate orders (e.g. a tour that rediscovers identity).
      std::vector<std::vector<int>> unique;
      for (auto& o : orders) {
        if (std::find(unique.begin(), unique.end(), o) == unique.end()) {
          unique.push_back(std::move(o));
        }
      }
      orders = std::move(unique);
    }
    for (const Skeleton& sk : skeletons(call_, n_)) {
      for (const std::vector<int>& order : orders) {
        instantiate(scratch_, sk, order, call_, payload_);
        consider(scratch_);
      }
    }
  }

  std::size_t candidates() const { return candidates_; }
  std::size_t validated() const { return validated_; }
  const std::optional<Entry>& best() const { return best_; }
  /// The best schedule, moved out; the search is over after this.
  Schedule take_best() { return std::move(best_schedule_); }
  double auto_cost() const { return auto_cost_.value_or(0.0); }
  ScheduleKind auto_algo() const { return auto_algo_; }

 private:
  CallType call_;
  int n_;
  std::uint64_t payload_;
  const SynthesisOptions& opts_;
  const HopFn& hops_;  // opts_.hops, read through a HopTable
  std::size_t candidates_ = 0;
  std::size_t validated_ = 0;
  std::optional<Entry> best_;
  Schedule best_schedule_;
  Schedule scratch_;
  std::optional<double> auto_cost_;
  ScheduleKind auto_algo_ = ScheduleKind::kRing;
};

}  // namespace

std::vector<Skeleton> skeletons(CallType call, int n) {
  std::vector<Skeleton> gens;
  std::vector<int> radii;
  const auto radix_set = [&](std::initializer_list<int> base) {
    radii.clear();
    for (int v : base) add_param(radii, v, n);
    add_param(radii, n, n);  // the 1-step direct variant
    return radii;
  };
  switch (call) {
    case CallType::kBcast:
      for (int k : radix_set({2, 3, 4, 8})) {
        gens.push_back(skeleton(Gen::kKnomialBcast, k));
      }
      break;
    case CallType::kReduce:
      for (int k : radix_set({2, 3, 4, 8})) {
        gens.push_back(skeleton(Gen::kKnomialReduce, k));
      }
      break;
    case CallType::kAllreduce:
    case CallType::kBarrier:
    case CallType::kCommSplit:
      for (int k : radix_set({2, 3, 4, 8})) {
        gens.push_back(skeleton(Gen::kKnomialAllreduce, k));
      }
      for (int r : radix_set({2, 3, 4, 8})) {
        gens.push_back(skeleton(Gen::kDissemination, r));
      }
      if (call == CallType::kAllreduce) {
        gens.push_back(skeleton(Gen::kRingAllreduce, 0));
      }
      break;
    case CallType::kAllgather:
      for (int r : radix_set({2, 3, 4, 8})) {
        gens.push_back(skeleton(Gen::kBruckAllgather, r));
      }
      gens.push_back(skeleton(Gen::kRingAllgather, 0));
      break;
    case CallType::kReduceScatter:
      gens.push_back(skeleton(Gen::kRingReduceScatter, 0));
      break;
    case CallType::kAlltoall:
    case CallType::kAlltoallv:
      for (int r : radix_set({2, 3, 4, 8, 16, 64})) {
        gens.push_back(skeleton(Gen::kBruckAlltoall, r));
      }
      gens.push_back(skeleton(Gen::kPairwiseAlltoall, 0));
      break;
    case CallType::kScan:
      break;  // canned seeds only
    default:
      break;
  }
  return gens;
}

void instantiate(Schedule& out, Skeleton skeleton,
                 const std::vector<int>& order, mpisim::CallType call,
                 std::uint64_t payload) {
  build(out, static_cast<Gen>(skeleton.gen), skeleton.param, order, call,
        payload);
}

std::uint64_t topology_hash(int nranks, const HopFn& hops) {
  std::uint64_t h = util::kFnv1a64Offset;
  feed_u64(h, 0x48465459504f31ULL);  // "HFTYPO1" salt
  feed_u64(h, static_cast<std::uint64_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    for (int j = 0; j < nranks; ++j) {
      // Self-distance is definitionally 0 and never queried: network hop
      // oracles (e.g. FabricNetwork route prewarming) reject u == v.
      feed_u64(h, i == j ? 0
                         : static_cast<std::uint64_t>(hops ? hops(i, j) : 1));
    }
  }
  return h;
}

std::uint64_t synth_key(mpisim::CallType call, int nranks,
                        std::uint64_t payload, const SynthesisOptions& opts) {
  std::uint64_t h = util::kFnv1a64Offset;
  feed_u64(h, 0x484653594e313ULL);  // "HFSYN1" format salt
  feed_u64(h, static_cast<std::uint64_t>(call));
  feed_u64(h, static_cast<std::uint64_t>(nranks));
  feed_u64(h, payload);
  feed_u64(h, opts.topology_digest);
  feed_f64(h, opts.cost.base_latency_s);
  feed_f64(h, opts.cost.per_hop_s);
  feed_f64(h, opts.cost.bandwidth_bps);
  feed_u64(h, opts.seed);
  feed_u64(h, opts.node_of_rank.size());
  for (int node : opts.node_of_rank) {
    feed_u64(h, static_cast<std::uint64_t>(node));
  }
  return h;
}

SynthesisResult synthesize(mpisim::CallType call, int nranks,
                           std::uint64_t payload,
                           const SynthesisOptions& opts) {
  HFAST_EXPECTS_MSG(mpisim::is_collective(call),
                    "synthesize: not a collective call");
  HFAST_EXPECTS_MSG(nranks >= 1, "synthesize: nranks must be >= 1");

  SynthesisResult result;

  // Affordability guard: proving candidates needs O(P x chunk-space)
  // validator state; beyond the cap, return the canned selector's pick
  // unsearched (still a valid, property-tested schedule — just not a
  // searched one). Never memoized: recomputing it is cheap.
  if (validator_bytes(call, nranks) > kMaxValidatorBytes) {
    const std::vector<int>* node_map =
        opts.node_of_rank.empty() ? nullptr : &opts.node_of_rank;
    Schedule pick = select_schedule(call, nranks, payload, opts.cost,
                                    opts.hops, node_map);
    result.auto_algo = pick.algo;
    result.auto_cost = estimate_cost(pick, opts.cost, opts.hops);
    result.cost = result.auto_cost;
    result.schedule = std::move(pick);
    result.schedule.algo = ScheduleKind::kSynth;
    result.searched = false;
    return result;
  }

  const std::uint64_t key =
      opts.memo != nullptr ? synth_key(call, nranks, payload, opts) : 0;

  // Price through a HopTable: the caller's when opts.hops holds one
  // (lower_trace builds one per lowering), else one of our own.
  const HopFn hops = tabulate_hops(nranks, opts.hops);
  Searcher search(call, nranks, payload, opts, hops);
  if (opts.memo != nullptr) {
    if (auto cached = opts.memo->load(key);
        cached.has_value() && cached->call == call &&
        cached->nranks == nranks) {
      // Re-derive the baseline so the result carries honest costs, and
      // verify the cached winner still beats it (a stale or colliding
      // entry falls through to a fresh search).
      search.seed_canned();
      const double cost = estimate_cost(*cached, opts.cost, hops);
      if (cost <= search.auto_cost()) {
        result.schedule = std::move(*cached);
        result.schedule.algo = ScheduleKind::kSynth;
        result.cost = cost;
        result.auto_cost = search.auto_cost();
        result.auto_algo = search.auto_algo();
        result.candidates = search.candidates();
        result.validated = search.validated();
        result.from_memo = true;
        return result;
      }
    } else {
      search.seed_canned();
    }
  } else {
    search.seed_canned();
  }

  search.seed_parametric();

  HFAST_ASSERT_MSG(search.best().has_value(),
                   "synthesize: canned seeds must yield a candidate");
  result.cost = search.best()->cost;
  result.schedule = search.take_best();
  result.schedule.algo = ScheduleKind::kSynth;
  result.auto_cost = search.auto_cost();
  result.auto_algo = search.auto_algo();
  result.candidates = search.candidates();
  result.validated = search.validated();
  if (opts.memo != nullptr) opts.memo->save(key, result.schedule);
  return result;
}

}  // namespace hfast::collective
