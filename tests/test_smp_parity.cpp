/// SmpParity — the cores_per_node = 1 contract: promoting SMP packing to a
/// first-class provisioning mode must leave the classic per-task pipeline
/// bit-identical. At one core per node every packing policy is the
/// identity, so for all six paper applications:
///   * the recorded trace is byte-identical to the default pipeline's
///     (packing is post-simulation and never perturbs the run),
///   * the node-level ProvisionStats equal the task-level greedy
///     provisioning (same block sizing rule) field for field,
///   * replaying on the SMP fabric network equals replaying on the plain
///     FabricNetwork exactly — bitwise-equal ReplayResult under the serial
///     replay and the partitioned-clock parallel replay at K in {2, 4}.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/analysis/smp.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/netsim/replay.hpp"

namespace hfast {
namespace {

constexpr const char* kApps[] = {"cactus",  "gtc",   "lbmhd",
                                 "superlu", "pmemd", "paratec"};

/// Fibers when supported: single-threaded and deterministic, so two runs of
/// one config produce identical traces (the byte-identity half of the
/// contract needs a deterministic engine).
mpisim::EngineKind test_engine() {
  return mpisim::fibers_supported() ? mpisim::EngineKind::kFibers
                                    : mpisim::EngineKind::kThreads;
}

std::string trace_text(const trace::Trace& t) {
  std::ostringstream os;
  t.save_text(os);
  return os.str();
}

/// The communication graph replay provisions from: every send the trace
/// contains (replay_traces' hfast path).
graph::CommGraph send_graph(const trace::Trace& t) {
  graph::CommGraph g(t.nranks());
  for (const trace::CommEvent& e : t.events()) {
    if (e.kind == trace::EventKind::kSend && e.peer != e.rank && e.peer >= 0) {
      g.add_message(e.rank, e.peer, e.bytes);
    }
  }
  return g;
}

/// The pre-SMP derivation of provisioning stats (what sec53_cost_model
/// computed by hand before the mode existed): blocks sized to the task
/// graph's thresholded TDC, greedy provisioning at the BDP cutoff.
core::ProvisionStats pre_smp_stats(const graph::CommGraph& g) {
  const auto t = graph::tdc(g, graph::kBdpCutoffBytes);
  core::ProvisionParams pp;
  pp.block_size = t.max < 8 ? 8 : 16;
  return core::provision_greedy(g, pp).stats;
}

analysis::ExperimentResult run(const char* app, int nranks,
                               const core::SmpConfig& smp) {
  analysis::ExperimentConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks;
  cfg.engine = test_engine();
  cfg.smp = smp;
  return analysis::run_experiment(cfg);
}

void expect_identity_artifacts(const analysis::ExperimentResult& r) {
  const auto& smp = r.smp;
  EXPECT_EQ(smp.num_nodes, r.config.nranks);
  EXPECT_EQ(smp.backplane_bytes, 0u);
  std::vector<int> identity(static_cast<std::size_t>(r.config.nranks));
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(smp.node_of_task, identity);
  EXPECT_EQ(smp.node_graph.num_nodes(), r.comm_graph.num_nodes());
  EXPECT_EQ(smp.node_graph.edges(), r.comm_graph.edges());
  EXPECT_TRUE(smp.provision == pre_smp_stats(r.comm_graph));
  const auto t = graph::tdc(r.comm_graph, graph::kBdpCutoffBytes);
  EXPECT_EQ(smp.node_tdc_max, t.max);
  EXPECT_EQ(smp.node_tdc_avg, t.avg);
}

void expect_trace_and_provision_parity(int nranks) {
  for (const char* app : kApps) {
    SCOPED_TRACE(std::string(app) + " P=" + std::to_string(nranks));
    const auto base = run(app, nranks, {});  // today's default pipeline
    expect_identity_artifacts(base);
    for (const core::SmpPacking packing :
         {core::SmpPacking::kRankOrder, core::SmpPacking::kAffinity}) {
      SCOPED_TRACE(core::packing_name(packing));
      const auto smp = run(app, nranks, {1, packing});
      EXPECT_EQ(trace_text(base.trace), trace_text(smp.trace))
          << "cores_per_node = 1 perturbed the recorded trace";
      expect_identity_artifacts(smp);
    }
  }
}

TEST(SmpParity, TraceAndProvisionIdenticalAtP64) {
  expect_trace_and_provision_parity(64);
}

TEST(SmpParity, TraceAndProvisionIdenticalAtP256) {
  expect_trace_and_provision_parity(256);
}

/// Replay parity at P=64: serial and K in {2, 4} parallel shards, both
/// packings, all six applications.
TEST(SmpParity, ReplayIdenticalAtP64SerialAndSharded) {
  const netsim::LinkParams link;
  for (const char* app : kApps) {
    SCOPED_TRACE(app);
    const auto base = run(app, 64, {});
    const auto g = send_graph(base.trace);
    const auto pre = core::provision_greedy(g, {.cutoff = 0});
    netsim::FabricNetwork fab(pre.fabric, link, 50e-9);
    const auto serial_pre = netsim::replay(base.trace, fab);
    EXPECT_GT(serial_pre.messages, 0u);

    for (const core::SmpPacking packing :
         {core::SmpPacking::kRankOrder, core::SmpPacking::kAffinity}) {
      SCOPED_TRACE(core::packing_name(packing));
      auto bundle = analysis::make_smp_network(g, {1, packing}, link);
      EXPECT_EQ(bundle.backplane_bytes, 0u);
      const auto serial_smp = netsim::replay(base.trace, *bundle.net);
      EXPECT_TRUE(serial_pre == serial_smp)
          << "serial replay diverged: makespan " << serial_pre.makespan_s
          << " vs " << serial_smp.makespan_s;
      for (int shards : {2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const auto par = netsim::replay(base.trace, *bundle.net, {},
                                                 {.shards = shards});
        EXPECT_TRUE(serial_pre == par)
            << "parallel replay diverged: makespan " << serial_pre.makespan_s
            << " vs " << par.makespan_s;
      }
    }
  }
}

/// Replay parity at P=256 under the serial algorithm (the parallel replay's
/// serial-equivalence is its own suite's contract and is exercised against
/// the SMP network at P=64 above; the all-to-all codes' parallel replay at
/// P=256 is minutes of wall clock for no additional coverage).
TEST(SmpParity, ReplayIdenticalAtP256Serial) {
  const netsim::LinkParams link;
  for (const char* app : kApps) {
    SCOPED_TRACE(app);
    const auto base = run(app, 256, {});
    const auto g = send_graph(base.trace);
    const auto pre = core::provision_greedy(g, {.cutoff = 0});
    netsim::FabricNetwork fab(pre.fabric, link, 50e-9);
    const auto serial_pre = netsim::replay(base.trace, fab);
    EXPECT_GT(serial_pre.messages, 0u);
    auto bundle =
        analysis::make_smp_network(g, {1, core::SmpPacking::kRankOrder}, link);
    const auto serial_smp = netsim::replay(base.trace, *bundle.net);
    EXPECT_TRUE(serial_pre == serial_smp)
        << "serial replay diverged: makespan " << serial_pre.makespan_s
        << " vs " << serial_smp.makespan_s;
  }
}

}  // namespace
}  // namespace hfast
