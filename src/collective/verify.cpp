/// \file verify.cpp
/// Schedule validator: replays chunk movement under parallel-step
/// semantics and checks the per-call postcondition. Two data models, split
/// so alltoall-scale chunk spaces stay affordable:
///  * presence ops (bcast/scatter/gather/allgather/alltoall) track one
///    boolean per (rank, chunk) — "does this rank hold this block yet";
///    a send may only carry blocks its source already holds.
///  * reduction ops (reduce/allreduce/reduce-scatter/barrier/comm-split/
///    scan) track a contribution bitset per (rank, chunk) — which ranks'
///    inputs have been folded into this partial; a send ORs the source's
///    pre-step partial into the destination.

#include "hfast/collective/verify.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "hfast/util/assert.hpp"

namespace hfast::collective {
namespace {

using mpisim::CallType;

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

std::string where(const Schedule& s, std::size_t step) {
  return std::string(mpisim::call_name(s.call)) + "/" +
         std::string(schedule_name(s.algo)) + " P=" +
         std::to_string(s.nranks) + " step " + std::to_string(step);
}

[[noreturn]] void bad(const Schedule& s, std::size_t step,
                      const std::string& what) {
  throw Error("collective schedule " + where(s, step) + ": " + what);
}

/// The ordered pairs (src * P + dst, never negative) sent on in one step:
/// open addressing over at least twice the step's sends, so memory stays
/// O(sends) whatever P is.
class PairSet {
 public:
  /// Empties the set and sizes it for `count` insertions.
  void reset(std::size_t count) {
    bits_ = 4;
    while ((std::size_t{1} << bits_) < 2 * count) ++bits_;
    slots_.assign(std::size_t{1} << bits_, kEmpty);
  }
  /// False when `key` was already present.
  bool insert(std::int64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
        (64 - bits_));
    for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    return true;
  }

 private:
  static constexpr std::int64_t kEmpty = -1;
  unsigned bits_ = 4;
  std::vector<std::int64_t> slots_;
};

void check_structure(const Schedule& s) {
  const int n = s.nranks;
  if (n < 1) throw Error("collective schedule: nranks must be >= 1");
  if (s.num_chunks < 1) throw Error("collective schedule: empty chunk space");
  PairSet pairs;
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    pairs.reset(s.step(si).size());
    for (const SendOp& op : s.step(si)) {
      if (op.src < 0 || op.src >= n || op.dst < 0 || op.dst >= n) {
        bad(s, si, "send endpoint (" + std::to_string(op.src) + " -> " +
                       std::to_string(op.dst) + ") outside [0, " +
                       std::to_string(n) + ")");
      }
      if (op.src == op.dst) {
        bad(s, si, "self-send on rank " + std::to_string(op.src));
      }
      if (!pairs.insert(static_cast<std::int64_t>(op.src) * n + op.dst)) {
        bad(s, si, "two sends on ordered pair " + std::to_string(op.src) +
                       " -> " + std::to_string(op.dst));
      }
      if (op.chunk_count == 0) {
        bad(s, si, "send " + std::to_string(op.src) + " -> " +
                       std::to_string(op.dst) + " carries no chunks");
      }
      for (int c : s.chunks_of(op)) {
        if (c < 0 || c >= s.num_chunks) {
          bad(s, si, "chunk id " + std::to_string(c) + " outside [0, " +
                         std::to_string(s.num_chunks) + ")");
        }
      }
    }
  }
}

std::size_t row(const Schedule& s, int rank, int chunk) {
  return static_cast<std::size_t>(rank) *
             static_cast<std::size_t>(s.num_chunks) +
         static_cast<std::size_t>(chunk);
}

void check_presence(const Schedule& s) {
  const int n = s.nranks;
  const int C = s.num_chunks;
  constexpr char kAbsent = 0;
  constexpr char kArriving = 1;
  constexpr char kHeld = 2;
  std::vector<char> has(static_cast<std::size_t>(n) * C, kAbsent);
  switch (s.call) {
    case CallType::kBcast:
      has[row(s, 0, 0)] = kHeld;
      break;
    case CallType::kScatter:
      HFAST_ASSERT(C == n);
      for (int c = 0; c < C; ++c) has[row(s, 0, c)] = kHeld;
      break;
    case CallType::kGather:
    case CallType::kAllgather:
      HFAST_ASSERT(C == n);
      for (int r = 0; r < n; ++r) has[row(s, r, r)] = kHeld;
      break;
    case CallType::kAlltoall:
    case CallType::kAlltoallv:
      HFAST_ASSERT(C == n * n);
      for (int o = 0; o < n; ++o) {
        for (int d = 0; d < n; ++d) has[row(s, o, o * n + d)] = kHeld;
      }
      break;
    default:
      HFAST_ASSERT_MSG(false, "presence check on a reduction op");
  }
  // Parallel-step semantics: reads see the pre-step state. Instead of
  // copying the whole (rank, chunk) table per step (O(P*C), which at
  // alltoall scale is P^3 bytes per step), a chunk that lands during a
  // step is marked kArriving and becomes readable (kHeld) when it ends.
  std::vector<std::size_t> arrived;
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    for (const SendOp& op : s.step(si)) {
      for (int c : s.chunks_of(op)) {
        if (has[row(s, op.src, c)] != kHeld) {
          bad(s, si, "rank " + std::to_string(op.src) + " sends chunk " +
                         std::to_string(c) + " it does not hold yet");
        }
        const std::size_t dst = row(s, op.dst, c);
        if (has[dst] == kAbsent) {
          has[dst] = kArriving;
          arrived.push_back(dst);
        }
      }
    }
    for (std::size_t r : arrived) has[r] = kHeld;
    arrived.clear();
  }
  // `what` builds the diagnostic only when the check fails.
  const auto require = [&](int r, int c, const auto& what) {
    if (has[row(s, r, c)] != kHeld) {
      bad(s, s.num_steps(), "after the last step " + what());
    }
  };
  switch (s.call) {
    case CallType::kBcast:
      for (int r = 0; r < n; ++r) {
        require(r, 0, [&] {
          return "rank " + std::to_string(r) + " lacks the payload";
        });
      }
      break;
    case CallType::kScatter:
      for (int r = 0; r < n; ++r) {
        require(r, r, [&] {
          return "rank " + std::to_string(r) + " lacks its block";
        });
      }
      break;
    case CallType::kGather:
      for (int c = 0; c < n; ++c) {
        require(0, c, [&] {
          return "the root lacks rank " + std::to_string(c) + "'s block";
        });
      }
      break;
    case CallType::kAllgather:
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          require(r, c, [&] {
            return "rank " + std::to_string(r) + " lacks rank " +
                   std::to_string(c) + "'s block";
          });
        }
      }
      break;
    default:  // alltoall(v)
      for (int o = 0; o < n; ++o) {
        for (int d = 0; d < n; ++d) {
          require(d, o * n + d, [&] {
            return "block (" + std::to_string(o) + " -> " +
                   std::to_string(d) + ") never arrived";
          });
        }
      }
      break;
  }
}

void check_reduction(const Schedule& s) {
  const int n = s.nranks;
  const int C = s.num_chunks;
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  const std::size_t rows = static_cast<std::size_t>(n) * C;
  // contrib[row * words .. ]: bitset over contributing ranks
  std::vector<std::uint64_t> contrib(rows * words, 0);
  const auto set_bit = [&](std::size_t r, int bit) {
    contrib[r * words + static_cast<std::size_t>(bit) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(bit) % 64);
  };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < C; ++c) set_bit(row(s, r, c), r);
  }
  // Parallel-step semantics: a send ORs the source's PRE-step partial into
  // the destination. Stage every partial a step reads before applying any
  // of its writes (OR is order-free), so reads see the pre-step state
  // without copying the table: O(words) per chunk the step carries.
  std::vector<std::uint64_t> staged;
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    staged.clear();
    for (const SendOp& op : s.step(si)) {
      for (int c : s.chunks_of(op)) {
        const auto src = contrib.begin() +
                         static_cast<std::ptrdiff_t>(row(s, op.src, c) * words);
        staged.insert(staged.end(), src,
                      src + static_cast<std::ptrdiff_t>(words));
      }
    }
    const std::uint64_t* next = staged.data();
    for (const SendOp& op : s.step(si)) {
      for (int c : s.chunks_of(op)) {
        const std::size_t dst = row(s, op.dst, c) * words;
        for (std::size_t w = 0; w < words; ++w) contrib[dst + w] |= *next++;
      }
    }
  }
  // expect[] reused: the required contribution set per checked cell.
  std::vector<std::uint64_t> expect(words);
  // `what` builds the diagnostic only when the check fails.
  const auto require = [&](int r, int c, const auto& what) {
    for (std::size_t w = 0; w < words; ++w) {
      if (contrib[row(s, r, c) * words + w] != expect[w]) {
        bad(s, s.num_steps(), "after the last step " + what());
      }
    }
  };
  const auto expect_all = [&] {
    for (int b = 0; b < n; ++b) {
      expect[static_cast<std::size_t>(b) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(b) % 64);
    }
  };
  switch (s.call) {
    case CallType::kReduce:
      expect_all();
      require(0, 0, [] {
        return std::string("the root's reduction misses contributions");
      });
      break;
    case CallType::kAllreduce:
    case CallType::kBarrier:
    case CallType::kCommSplit:
      expect_all();
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < C; ++c) {
          require(r, c, [&] {
            return "rank " + std::to_string(r) +
                   "'s reduction misses contributions";
          });
        }
      }
      break;
    case CallType::kReduceScatter:
      HFAST_ASSERT(C == n);
      expect_all();
      for (int r = 0; r < n; ++r) {
        require(r, r, [&] {
          return "rank " + std::to_string(r) + "'s share misses contributions";
        });
      }
      break;
    case CallType::kScan:
      for (int r = 0; r < n; ++r) {
        std::fill(expect.begin(), expect.end(), 0);
        for (int b = 0; b <= r; ++b) {
          expect[static_cast<std::size_t>(b) / 64] |=
              std::uint64_t{1} << (static_cast<std::size_t>(b) % 64);
        }
        require(r, 0, [&] {
          return "rank " + std::to_string(r) +
                 "'s prefix is not exactly ranks [0, " + std::to_string(r) +
                 "]";
        });
      }
      break;
    default:
      HFAST_ASSERT_MSG(false, "reduction check on a presence op");
  }
}

}  // namespace

void validate_schedule(const Schedule& schedule) {
  HFAST_EXPECTS_MSG(mpisim::is_collective(schedule.call),
                    "validate_schedule: not a collective call");
  check_structure(schedule);
  if (reduce_semantics(schedule.call)) {
    check_reduction(schedule);
  } else {
    check_presence(schedule);
  }
}

}  // namespace hfast::collective
