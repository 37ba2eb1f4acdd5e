/// CollectiveParity — the subsystem's opt-in contract: with the default
/// `analytic` schedule, the collective-lowering path must be invisible.
/// For each of the six paper applications at P=64 and P=256, replaying
/// lower_trace(trace, analytic).trace yields a ReplayResult bit-identical
/// (bitwise double equality, via ReplayResult::operator==) to replaying
/// the original trace — on the serial replay and on the K-shard
/// partitioned-clock replay for K in {2, 4}. This is the same guarantee
/// SmpParity pins for cores_per_node = 1: a new provisioning axis defaults
/// to exactly the old pipeline.

#include <gtest/gtest.h>

#include <string>

#include "hfast/analysis/experiment.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast {
namespace {

class CollectiveParity : public ::testing::TestWithParam<const char*> {};

TEST_P(CollectiveParity, AnalyticScheduleIsBitIdenticalToBaselineReplay) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  for (const int nranks : {64, 256}) {
    analysis::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = nranks;
    cfg.engine = mpisim::EngineKind::kFibers;
    const trace::Trace t = analysis::run_experiment(cfg).trace;
    ASSERT_FALSE(t.events().empty()) << app;

    collective::LowerOptions opts;  // default config: kAnalytic
    const auto lowered = collective::lower_trace(t, opts);
    EXPECT_EQ(lowered.stats.p2p_events, 0u);

    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(nranks, 3), true);
    netsim::DirectNetwork net(torus, {});

    const auto baseline = netsim::replay(t, net);
    const auto via_lowering = netsim::replay(lowered.trace, net);
    EXPECT_TRUE(baseline == via_lowering)
        << app << " P=" << nranks << ": analytic lowering perturbed the "
        << "serial replay";

    for (const int shards : {2, 4}) {
      const auto base_par =
          netsim::replay(t, net, {}, {.shards = shards});
      const auto low_par =
          netsim::replay(lowered.trace, net, {}, {.shards = shards});
      EXPECT_TRUE(baseline == base_par) << app << " P=" << nranks;
      EXPECT_TRUE(base_par == low_par)
          << app << " P=" << nranks << " K=" << shards
          << ": analytic lowering perturbed the parallel replay";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, CollectiveParity,
                         ::testing::Values("cactus", "gtc", "lbmhd", "superlu",
                                           "pmemd", "paratec"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace hfast
