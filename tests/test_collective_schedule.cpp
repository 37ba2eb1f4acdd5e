/// CollectiveSchedule — the schedule IR, the algorithm generators, the
/// correctness validator, and the cost-based selector:
///
///   * name round-trips and the parse error path;
///   * every schedule any generator emits passes validate_schedule, across
///     all families x all collective calls x a world-size set that covers
///     1, powers of two, and awkward non-powers (the paper's schedules must
///     be correct at P=63 as much as at P=64);
///   * the pinned step-count properties: ring allreduce is exactly
///     2*(P-1) steps, Bruck alltoall and the dissemination barrier are
///     exactly ceil(log2 P) rounds;
///   * the validator actually rejects: each class of tampering (dropped
///     step, duplicate ordered pair in a step, self-send, out-of-range
///     endpoint, out-of-range chunk, send of an unheld chunk) throws;
///   * the hierarchical family really splits legs: with an SMP node map
///     every send is either intra-node or leader-to-leader;
///   * the selector returns a valid schedule at least as cheap as every
///     flat candidate, deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "collective_edit.hpp"
#include "hfast/collective/cost.hpp"
#include "hfast/collective/generate.hpp"
#include "hfast/collective/verify.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::collective {
namespace {

using mpisim::CallType;
using tamper::edited;
using tamper::Steps;

const std::vector<CallType> kCollectiveCalls = {
    CallType::kBarrier,   CallType::kBcast,     CallType::kReduce,
    CallType::kAllreduce, CallType::kGather,    CallType::kAllgather,
    CallType::kScatter,   CallType::kAlltoall,  CallType::kAlltoallv,
    CallType::kReduceScatter, CallType::kScan,  CallType::kCommSplit,
};

const std::vector<int> kWorldSizes = {1, 2, 3, 4, 5, 8, 16, 63, 64};

int ceil_log2(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

std::string label(ScheduleKind algo, CallType call, int n) {
  return std::string(schedule_name(algo)) + "/" +
         std::string(mpisim::call_name(call)) + "/P=" + std::to_string(n);
}

TEST(CollectiveSchedule, NamesRoundTrip) {
  for (ScheduleKind kind : all_schedule_kinds()) {
    EXPECT_EQ(parse_schedule(schedule_name(kind)), kind);
  }
  EXPECT_THROW(parse_schedule("treefrog"), Error);
  EXPECT_THROW(parse_schedule(""), Error);
}

TEST(CollectiveSchedule, ConfigLowersOnlyWhenNotAnalytic) {
  CollectiveConfig c;
  EXPECT_FALSE(c.lowers());
  for (ScheduleKind kind : all_schedule_kinds()) {
    c.schedule = kind;
    EXPECT_EQ(c.lowers(), kind != ScheduleKind::kAnalytic);
  }
}

TEST(CollectiveSchedule, EveryGeneratedScheduleValidates) {
  const std::vector<ScheduleKind> families = {
      ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
      ScheduleKind::kBinomial, ScheduleKind::kBruck, ScheduleKind::kPairwise};
  for (ScheduleKind algo : families) {
    for (CallType call : kCollectiveCalls) {
      for (int n : kWorldSizes) {
        const auto s = generate_schedule(algo, call, n, 1024);
        if (!s.has_value()) continue;
        EXPECT_EQ(s->call, call);
        EXPECT_EQ(s->algo, algo);
        EXPECT_EQ(s->nranks, n);
        EXPECT_NO_THROW(validate_schedule(*s)) << label(algo, call, n);
      }
    }
  }
}

TEST(CollectiveSchedule, ResolveAlwaysYieldsAValidSchedule) {
  // resolve_schedule falls back to the call's default family, so every
  // (family, call, P) combination must come back valid — including the
  // hierarchical family under an SMP node map.
  for (ScheduleKind algo :
       {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
        ScheduleKind::kBinomial, ScheduleKind::kBruck, ScheduleKind::kPairwise,
        ScheduleKind::kHierarchical}) {
    for (CallType call : kCollectiveCalls) {
      for (int n : kWorldSizes) {
        std::vector<int> node_of_rank(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
          node_of_rank[static_cast<std::size_t>(r)] = r / 4;
        }
        const Schedule s =
            resolve_schedule(algo, call, n, 512, &node_of_rank);
        EXPECT_NO_THROW(validate_schedule(s)) << label(algo, call, n);
      }
    }
  }
}

TEST(CollectiveSchedule, ResolveRejectsNonGenerators) {
  EXPECT_THROW(
      resolve_schedule(ScheduleKind::kAnalytic, CallType::kAllreduce, 8, 64),
      ContractViolation);
  EXPECT_THROW(
      resolve_schedule(ScheduleKind::kAuto, CallType::kAllreduce, 8, 64),
      ContractViolation);
  EXPECT_THROW(resolve_schedule(ScheduleKind::kRing, CallType::kSend, 8, 64),
               ContractViolation);
}

TEST(CollectiveSchedule, RingAllreduceIsTwoPMinusOneSteps) {
  for (int n : kWorldSizes) {
    if (n < 2) continue;
    const auto s =
        generate_schedule(ScheduleKind::kRing, CallType::kAllreduce, n, 4096);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->num_steps(), static_cast<std::size_t>(2 * (n - 1)))
        << "P=" << n;
    // Bandwidth optimality: each rank sends ~1/P of the vector per step.
    EXPECT_EQ(s->num_chunks, n);
  }
}

TEST(CollectiveSchedule, BruckAlltoallIsCeilLog2Rounds) {
  for (int n : kWorldSizes) {
    if (n < 2) continue;
    const auto s =
        generate_schedule(ScheduleKind::kBruck, CallType::kAlltoall, n, 64);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->num_steps(), static_cast<std::size_t>(ceil_log2(n)))
        << "P=" << n;
    EXPECT_EQ(s->num_chunks, n * n);
  }
}

TEST(CollectiveSchedule, DisseminationBarrierIsCeilLog2Rounds) {
  for (int n : kWorldSizes) {
    if (n < 2) continue;
    const auto s = generate_schedule(ScheduleKind::kRecursiveDoubling,
                                     CallType::kBarrier, n, 0);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->num_steps(), static_cast<std::size_t>(ceil_log2(n)))
        << "P=" << n;
  }
}

TEST(CollectiveSchedule, ValidatorRejectsEveryTamperingClass) {
  const auto fresh = [] {
    return resolve_schedule(ScheduleKind::kBinomial, CallType::kBcast, 8, 64);
  };
  ASSERT_NO_THROW(validate_schedule(fresh()));

  {  // dropped final step: some rank never receives the vector
    Schedule s = fresh();
    s.pop_step();
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // duplicate ordered (src, dst) pair within one step
    const Schedule s =
        edited(fresh(), [](Steps& st) { st[0].push_back(st[0][0]); });
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // self-send
    const Schedule s =
        edited(fresh(), [](Steps& st) { st[0][0].dst = st[0][0].src; });
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // endpoint outside [0, nranks)
    const int n = fresh().nranks;
    const Schedule s =
        edited(fresh(), [n](Steps& st) { st[0][0].dst = n; });
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // chunk id outside [0, num_chunks)
    const int c = fresh().num_chunks;
    const Schedule s =
        edited(fresh(), [c](Steps& st) { st[0][0].chunks = {c}; });
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // a rank sends data it does not hold yet (bcast step 0 from rank 5)
    const Schedule s = edited(fresh(), [](Steps& st) {
      st[0][0].src = 5;
      st[0][0].dst = 6;
    });
    EXPECT_THROW(validate_schedule(s), Error);
  }
  {  // empty chunk list carries no semantics
    const Schedule s =
        edited(fresh(), [](Steps& st) { st[0][0].chunks.clear(); });
    EXPECT_THROW(validate_schedule(s), Error);
  }
}

TEST(CollectiveSchedule, HierarchicalSplitsLegsAcrossNodeBoundary) {
  // P=16, 4 ranks per node: every send must be intra-node (it rides the
  // SMP backplane under replay) or between two node leaders (it rides the
  // provisioned circuits). Leaders are the minimum rank of each node.
  const int n = 16, per_node = 4;
  std::vector<int> node_of_rank(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    node_of_rank[static_cast<std::size_t>(r)] = r / per_node;
  }
  const auto is_leader = [&](int r) { return r % per_node == 0; };
  for (CallType call :
       {CallType::kBarrier, CallType::kBcast, CallType::kReduce,
        CallType::kAllreduce, CallType::kGather, CallType::kScatter,
        CallType::kAllgather, CallType::kCommSplit}) {
    const auto s = generate_schedule(ScheduleKind::kHierarchical, call, n, 256,
                                     &node_of_rank);
    ASSERT_TRUE(s.has_value()) << mpisim::call_name(call);
    EXPECT_NO_THROW(validate_schedule(*s)) << mpisim::call_name(call);
    bool saw_intra = false, saw_inter = false;
    for (const SendOp& op : s->sends) {
      const bool same_node = node_of_rank[static_cast<std::size_t>(op.src)] ==
                             node_of_rank[static_cast<std::size_t>(op.dst)];
      if (same_node) {
        saw_intra = true;
      } else {
        saw_inter = true;
        EXPECT_TRUE(is_leader(op.src) && is_leader(op.dst))
            << mpisim::call_name(call) << ": inter-node send " << op.src
            << "->" << op.dst << " not between leaders";
      }
    }
    EXPECT_TRUE(saw_intra) << mpisim::call_name(call);
    EXPECT_TRUE(saw_inter) << mpisim::call_name(call);
  }
}

TEST(CollectiveSchedule, HierarchicalDegeneratesWithoutAggregation) {
  // A one-rank-per-node map has empty intra legs; the result is just the
  // flat leader schedule over all ranks, and still validates.
  std::vector<int> identity = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto s = generate_schedule(ScheduleKind::kHierarchical,
                                   CallType::kAllreduce, 8, 64, &identity);
  ASSERT_TRUE(s.has_value());
  EXPECT_NO_THROW(validate_schedule(*s));
  const auto flat = generate_schedule(ScheduleKind::kRecursiveDoubling,
                                      CallType::kAllreduce, 8, 64);
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(s->step_begin, flat->step_begin);
  EXPECT_EQ(s->sends, flat->sends);
  EXPECT_EQ(s->chunks, flat->chunks);
}

TEST(CollectiveSchedule, EstimateCostIsPositiveAndHopSensitive) {
  const auto s =
      resolve_schedule(ScheduleKind::kRing, CallType::kAllreduce, 8, 4096);
  const double flat = estimate_cost(s);
  EXPECT_GT(flat, 0.0);
  // A topology where every pair is 10 hops apart must cost strictly more.
  const double far = estimate_cost(s, {}, [](int, int) { return 10; });
  EXPECT_GT(far, flat);
}

TEST(CollectiveSchedule, SelectorPicksTheCheapestValidSchedule) {
  const CostParams params;
  for (CallType call : kCollectiveCalls) {
    for (int n : {4, 16, 63}) {
      const Schedule best = select_schedule(call, n, 2048, params);
      EXPECT_NO_THROW(validate_schedule(best)) << mpisim::call_name(call);
      const double best_cost = estimate_cost(best, params);
      for (ScheduleKind algo :
           {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
            ScheduleKind::kBinomial, ScheduleKind::kBruck,
            ScheduleKind::kPairwise}) {
        const auto candidate = generate_schedule(algo, call, n, 2048);
        if (!candidate.has_value()) continue;
        EXPECT_LE(best_cost, estimate_cost(*candidate, params))
            << label(algo, call, n);
      }
      // Determinism: selection is a pure function of its inputs.
      const Schedule again = select_schedule(call, n, 2048, params);
      EXPECT_EQ(best.algo, again.algo) << mpisim::call_name(call);
      EXPECT_EQ(best, again) << mpisim::call_name(call);
    }
  }
}

TEST(CollectiveSchedule, SelectorOffersHierarchicalOnlyUnderAggregation) {
  // P=64, 8 ranks per node. A flat dissemination barrier crosses the node
  // boundary in every one of its 6 rounds (some send in each round spans
  // nodes, and a step costs its slowest send), while the hierarchical
  // barrier pays only log2(8) = 3 leader rounds plus two cheap backplane
  // stars — so under a hop oracle that makes cross-node traffic expensive
  // the selector must pick hierarchical.
  const int n = 64, per_node = 8;
  std::vector<int> packed(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    packed[static_cast<std::size_t>(r)] = r / per_node;
  }
  const HopFn expensive = [&packed](int a, int b) {
    return packed[static_cast<std::size_t>(a)] ==
                   packed[static_cast<std::size_t>(b)]
               ? 1
               : 100;
  };
  const Schedule s =
      select_schedule(CallType::kBarrier, n, 0, {}, expensive, &packed);
  EXPECT_EQ(s.algo, ScheduleKind::kHierarchical);
  // Without a node map the hierarchical family is not even a candidate.
  const Schedule flat =
      select_schedule(CallType::kBarrier, n, 0, {}, expensive, nullptr);
  EXPECT_NE(flat.algo, ScheduleKind::kHierarchical);
}

TEST(CollectiveSchedule, TotalsMatchTheStepList) {
  const auto s =
      resolve_schedule(ScheduleKind::kBinomial, CallType::kGather, 8, 128);
  std::size_t sends = 0;
  std::uint64_t bytes = 0;
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    sends += s.step(si).size();
    for (const SendOp& op : s.step(si)) bytes += op.bytes;
  }
  EXPECT_EQ(s.total_sends(), sends);
  EXPECT_EQ(s.total_bytes(), bytes);
  // Binomial gather at P=8 moves n/2 blocks' worth of payload per level
  // across log2(8) = 3 levels (blocks relay through subtree roots).
  EXPECT_EQ(bytes, 128u * 4u * 3u);
}

}  // namespace
}  // namespace hfast::collective
