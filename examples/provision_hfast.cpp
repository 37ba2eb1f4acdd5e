/// \file provision_hfast.cpp
/// Provision an HFAST fabric for one application's measured topology and
/// inspect the result: switch-block pool size, port usage, route lengths,
/// and the cost comparison against fat-tree / mesh / ICN alternatives.

#include <iostream>

#include "hfast/analysis/experiment.hpp"
#include "hfast/core/cost_model.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

int main(int argc, char** argv) {
  std::string app = "gtc";
  int nranks = 64;
  store::Cli cli("provision_hfast",
                 "Provision an HFAST fabric for one app and compare its "
                 "cost.");
  cli.positional("app", app, "application kernel (default gtc)", false)
      .ranks(nranks, "concurrency (default 64)");
  return cli.run(argc, argv, [&] {

    const auto result = analysis::run_experiment(app, nranks);
    const auto tdc = graph::tdc(result.comm_graph, graph::kBdpCutoffBytes);
    std::cout << app << " @ P=" << nranks << ": TDC@2KB max=" << tdc.max
              << " avg=" << tdc.avg << "\n";

    util::Table t({"Strategy", "Blocks", "Trunks", "Internal edges",
                   "Free ports", "Avg circuit traversals", "Max"});
    const core::ProvisionParams params;
    for (auto strategy : {core::ProvisionStrategy::kGreedyPerNode,
                          core::ProvisionStrategy::kCliqueShared}) {
      const auto prov = core::provision(result.comm_graph, params, strategy);
      prov.fabric.validate();
      if (!prov.fabric.serves(result.comm_graph, params.cutoff)) {
        std::cerr << "provisioned fabric does not serve the graph!\n";
        return 1;
      }
      t.row()
          .add(strategy == core::ProvisionStrategy::kGreedyPerNode
                   ? "greedy per-node (paper 5.3)"
                   : "clique-shared (paper 6)")
          .add(prov.stats.num_blocks)
          .add(prov.stats.num_trunks)
          .add(prov.stats.internal_edges)
          .add(prov.fabric.total_free_ports())
          .add(prov.stats.avg_circuit_traversals, 2)
          .add(prov.stats.max_circuit_traversals);
    }
    t.print(std::cout);

    const auto greedy = core::provision_greedy(result.comm_graph, params);
    const core::CostParams costs;
    util::Table ct({"Network", "Packet ports", "Circuit ports", "Total cost"});
    for (const auto& c :
         {core::hfast_cost(nranks, greedy.stats.num_blocks, costs),
          core::fat_tree_cost(nranks, costs), core::mesh_cost(nranks, 3, costs),
          core::icn_cost(nranks, costs.block_size, costs)}) {
      ct.row().add(c.network).add(c.packet_ports).add(c.circuit_ports)
          .add(c.total(), 1);
    }
    util::print_banner(std::cout,
                       "Cost comparison (normalized packet-port = 1.0)");
    ct.print(std::cout);
    return 0;
  });
}
