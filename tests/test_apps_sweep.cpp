/// Parameterized concurrency sweeps: each kernel's structural invariants
/// must hold at every supported P, not just the paper's 64/256.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "hfast/util/assert.hpp"

#include "hfast/analysis/experiment.hpp"
#include "hfast/graph/metrics.hpp"
#include "hfast/graph/tdc.hpp"

namespace hfast::apps {
namespace {

using analysis::run_experiment;

class CactusSweep : public ::testing::TestWithParam<int> {};
TEST_P(CactusSweep, MaxSixNeighborsAnyP) {
  const auto r = run_experiment("cactus", GetParam());
  const auto t = graph::tdc(r.comm_graph, graph::kBdpCutoffBytes);
  EXPECT_LE(t.max, 6);
  EXPECT_GT(t.avg, 0.0);
  // Threshold-insensitive.
  EXPECT_EQ(t.max, graph::tdc(r.comm_graph, 0).max);
}
INSTANTIATE_TEST_SUITE_P(P, CactusSweep, ::testing::Values(8, 16, 27, 48, 64));

class LbmhdSweep : public ::testing::TestWithParam<int> {};
TEST_P(LbmhdSweep, ExactlyTwelvePartnersAnySquareP) {
  const auto r = run_experiment("lbmhd", GetParam());
  const auto t = graph::tdc(r.comm_graph, graph::kBdpCutoffBytes);
  EXPECT_EQ(t.max, 12);
  EXPECT_EQ(t.min, 12);
}
INSTANTIATE_TEST_SUITE_P(P, LbmhdSweep, ::testing::Values(25, 36, 49, 64, 81));

class SuperluSweep : public ::testing::TestWithParam<int> {};
TEST_P(SuperluSweep, ThresholdedDegreeIsTwiceSqrtPMinusOne) {
  const int p = GetParam();
  const auto r = run_experiment("superlu", p);
  int side = 1;
  while (side * side < p) ++side;
  const auto cut = graph::tdc(r.comm_graph, graph::kBdpCutoffBytes);
  EXPECT_EQ(cut.max, 2 * (side - 1));
  EXPECT_EQ(cut.min, 2 * (side - 1));
  // Tiny pivot messages reach everyone across the run.
  EXPECT_EQ(graph::tdc(r.comm_graph, 0).max, p - 1);
}
INSTANTIATE_TEST_SUITE_P(P, SuperluSweep, ::testing::Values(16, 25, 36, 64));

class PmemdSweep : public ::testing::TestWithParam<int> {};
TEST_P(PmemdSweep, EveryPairExchangesAndMasterStaysHot) {
  const int p = GetParam();
  const auto r = run_experiment("pmemd", p);
  EXPECT_EQ(graph::tdc(r.comm_graph, 0).max, p - 1);
  EXPECT_EQ(graph::tdc(r.comm_graph, 0).min, p - 1);
  // Rank 0's edges never fall below the threshold (master floor).
  EXPECT_EQ(r.comm_graph.partners(0, graph::kBdpCutoffBytes).size(),
            static_cast<std::size_t>(p - 1));
}
INSTANTIATE_TEST_SUITE_P(P, PmemdSweep, ::testing::Values(8, 16, 32, 64));

class ParatecSweep : public ::testing::TestWithParam<int> {};
TEST_P(ParatecSweep, FullConnectivityUpTo32K) {
  const int p = GetParam();
  const auto r = run_experiment("paratec", p);
  EXPECT_EQ(graph::tdc(r.comm_graph, graph::kBdpCutoffBytes).max, p - 1);
  EXPECT_EQ(graph::tdc(r.comm_graph, 32 * 1024).max, p - 1);
  EXPECT_LT(graph::tdc(r.comm_graph, 64 * 1024).max, p - 1);
  EXPECT_EQ(r.steady.median_ptp_buffer(), 64u);
}
INSTANTIATE_TEST_SUITE_P(P, ParatecSweep, ::testing::Values(12, 16, 32, 64));

class GtcSweep : public ::testing::TestWithParam<int> {};
TEST_P(GtcSweep, RingBelowToroidalExtentLeadersAbove) {
  const int p = GetParam();
  const auto r = run_experiment("gtc", p);
  const auto cut = graph::tdc(r.comm_graph, graph::kBdpCutoffBytes);
  if (p <= 64) {
    EXPECT_EQ(cut.max, 2);
    EXPECT_DOUBLE_EQ(cut.avg, 2.0);
  } else {
    EXPECT_GT(cut.max, 2);
    EXPECT_LT(cut.avg, static_cast<double>(cut.max));
  }
}
INSTANTIATE_TEST_SUITE_P(P, GtcSweep, ::testing::Values(16, 32, 64, 128));

// Collective-plumbing conservation: whatever the kernel, no unmatched
// messages remain (the runtime's leak check throws otherwise) and the
// steady profile is nonempty. The name is a std::string, not a
// const char*, so the printed parameter (and with it the discovered test
// name) holds the text and not the literal's address.
class AllAppsSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};
TEST_P(AllAppsSweep, RunsCleanAndProfiles) {
  const auto [name, p] = GetParam();
  const auto r = run_experiment(name, p);
  EXPECT_GT(r.steady.total_calls(), 0u);
  EXPECT_GT(r.comm_graph.num_edges(), 0u);
  EXPECT_EQ(r.steady.dropped(), 0u);  // IPM hash never overflows here
  // Steady-state point-to-point graphs of real codes are connected; a
  // split graph signals a kernel modeling bug.
  EXPECT_TRUE(graph::is_connected(r.comm_graph)) << name;
}
INSTANTIATE_TEST_SUITE_P(
    Matrix, AllAppsSweep,
    ::testing::Values(std::tuple{"cactus", 36}, std::tuple{"lbmhd", 49},
                      std::tuple{"gtc", 32}, std::tuple{"superlu", 25},
                      std::tuple{"pmemd", 24}, std::tuple{"paratec", 24}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hfast::apps
