/// \file netsim_comparison.cpp
/// Executes each application's steady-state trace on three modeled
/// interconnects — the greedily provisioned HFAST fabric, a 3D torus, and
/// a full-bisection fat-tree — and compares makespan, message latency, and
/// packet-switch hops. This mechanizes the paper's §2.3 latency argument:
/// HFAST routes cross 1-2 packet blocks where a large fat-tree crosses
/// 2L-1 layers, while a torus pays dilation for patterns that do not embed.
/// Traces come from the fiber engine, so every run prints the same table.

#include <iostream>

#include "hfast/analysis/experiment.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/util/format.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

int main() {
  constexpr int kRanks = 64;
  const netsim::LinkParams link;  // 50ns/2GB/s defaults, both fabrics

  util::print_banner(
      std::cout,
      "Trace replay: HFAST vs 3D torus vs fat-tree (P=64, steady state)");
  util::Table t({"App", "Network", "Makespan", "Avg msg latency",
                 "Max msg latency", "Avg switch hops", "Max hops",
                 "Recv wait (sum)"});

  for (const char* app :
       {"cactus", "gtc", "lbmhd", "superlu", "pmemd", "paratec"}) {
    analysis::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = kRanks;
    cfg.engine = mpisim::EngineKind::kFibers;
    const auto r = analysis::run_experiment(cfg);
    const auto steady = r.trace.filter_region(apps::kSteadyRegion);

    const auto prov = core::provision_greedy(r.comm_graph);
    netsim::FabricNetwork hfast_net(prov.fabric, link, 50e-9);
    const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(kRanks, 3),
                                true);
    netsim::DirectNetwork torus_net(torus, link);
    const topo::FatTree ft(kRanks, 16);
    netsim::FatTreeNetwork ft_net(ft, link);

    for (netsim::Network* net :
         {static_cast<netsim::Network*>(&hfast_net),
          static_cast<netsim::Network*>(&torus_net),
          static_cast<netsim::Network*>(&ft_net)}) {
      const auto rr = netsim::replay(steady, *net);
      t.row()
          .add(app)
          .add(net->name())
          .add(util::time_label(rr.makespan_s))
          .add(util::time_label(rr.avg_message_latency_s))
          .add(util::time_label(rr.max_message_latency_s))
          .add(rr.avg_switch_hops, 2)
          .add(rr.max_switch_hops)
          .add(util::time_label(rr.total_recv_wait_s));
    }
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: HFAST tracks the fat-tree for bounded-TDC "
               "codes with fewer\nswitch hops; the torus wins only when the "
               "pattern embeds (cactus) and loses\nbadly on scattered/global "
               "patterns (lbmhd, paratec). PARATEC saturates any\nnon-FCN "
               "fabric (paper case iv).\n";
  return 0;
}
