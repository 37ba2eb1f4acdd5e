/// \file sec53_cost_model.cpp
/// Regenerates the paper's §5.3 cost analysis:
///  (1) fat-tree port growth — P*(1+2(L-1)) switch ports (the paper's
///      "6-layer fat-tree of 8-port switches needs 11 ports/processor for
///      2048 processors" example),
///  (2) HFAST vs fat-tree vs mesh vs ICN total cost across system sizes,
///      with HFAST block counts coming from actual greedy provisioning of
///      each application's measured topology,
///  (3) per-application cost at P=256 (the Cactus worked example:
///      avg/max TDC 6 -> one block per node, Nactive = P).
/// With --cores-per-node > 1 the per-application section prices the
/// node-level quotient graph the SMP packing leaves on the interconnect
/// (the block pool the paper's §5 simplification hides).

#include <cstdlib>
#include <iostream>

#include "hfast/analysis/batch.hpp"
#include "hfast/core/cost_model.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

int main(int argc, char** argv) {
  mpisim::EngineKind engine = mpisim::EngineKind::kThreads;
  core::SmpConfig smp;
  store::CacheCli cache;
  store::Cli cli("sec53_cost_model",
                 "The paper's 5.3 cost analysis: fat-tree port growth, "
                 "HFAST block demand,\nand the extrapolated cost curves.");
  cli.engine(engine).smp(smp);
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);

    // (1) Fat-tree growth, radix 8 (the paper's worked example).
    util::print_banner(std::cout,
                       "Fat-tree port scaling, 8-port switches (paper 5.3)");
    util::Table ft({"P", "Levels L", "Capacity", "Ports/processor",
                    "Total switch ports", "Worst-case switch layers"});
    for (int p : {8, 32, 128, 512, 2048, 8192}) {
      const topo::FatTree t(p, 8);
      ft.row()
          .add(p)
          .add(t.levels())
          .add(t.capacity())
          .add(t.ports_per_processor())
          .add(t.total_switch_ports())
          .add(t.worst_case_traversals());
    }
    ft.print(std::cout);
    std::cout << "paper: quotes 11 ports/processor for a 6-level tree of "
                 "8-port switches (its\n2048-processor figure needs only L=5 "
                 "under P=2*(N/2)^L — see EXPERIMENTS.md).\n";

    // (2) Per-application packet-switch demand: the HFAST pool is sized by
    // the measured (thresholded) topology, so the relevant quantity is packet
    // ports per processor — constant in P for bounded-TDC codes, versus the
    // fat-tree's 1+2(L-1) growth. Blocks here are sized to the workload
    // (8-port blocks suffice below TDC 8).
    util::print_banner(std::cout,
                       "Packet ports per processor: HFAST (greedy blocks, "
                       "sized to TDC) vs fat-tree");
    util::Table ct({"P", "App", "TDC@2KB max", "Block size", "HFAST blocks",
                    "HFAST pkt ports/proc", "Fat-tree(8) ports/proc",
                    "Fat-tree(16) ports/proc"});
    // All twelve (P, app) experiments run as one parallel batch; results come
    // back in input order, so the table below reads them off sequentially.
    const std::vector<std::string> kApps{"cactus", "gtc",    "lbmhd",
                                         "superlu", "pmemd", "paratec"};
    std::vector<analysis::ExperimentConfig> configs;
    for (int p : {64, 256}) {
      for (const std::string& app : kApps) {
        analysis::ExperimentConfig cfg;
        cfg.app = app;
        cfg.nranks = p;
        cfg.engine = engine;
        cfg.smp = smp;
        configs.push_back(cfg);
      }
    }
    const auto batch =
        analysis::BatchRunner({.result_store = cache_store.get()}).run(configs);
    if (!store::CacheCli::report_failures(std::cerr, batch)) {
      return EXIT_FAILURE;
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const int p = configs[i].nranks;
      const std::string& app = configs[i].app;
      const auto& r = *batch.results[i];
      // run_experiment already sized and provisioned the interconnect-visible
      // graph (the task graph itself at cores_per_node = 1): blocks sized to
      // the workload, counts from the greedy provisioning of r.smp.node_graph.
      const std::uint64_t packet_ports =
          static_cast<std::uint64_t>(r.smp.provision.num_blocks) *
          static_cast<std::uint64_t>(r.smp.block_size);
      const topo::FatTree ft8(p, 8);
      const topo::FatTree ft16(p, 16);
      ct.row()
          .add(p)
          .add(app)
          .add(r.smp.node_tdc_max)
          .add(r.smp.block_size)
          .add(r.smp.provision.num_blocks)
          .add(static_cast<double>(packet_ports) / p, 2)
          .add(ft8.ports_per_processor())
          .add(ft16.ports_per_processor());
    }
    ct.print(std::cout);

    // (3) Extrapolated total cost for a bounded-TDC workload (Cactus-like,
    // one 8-port block per node) against a radix-8 fat-tree, with MEMS
    // circuit ports at a quarter of packet-port price. HFAST's per-processor
    // cost is flat; the fat-tree adds 2 ports/processor per level, so the
    // curves cross in the multi-thousand-processor range — exactly the
    // "peta-scale era" argument of the paper.
    core::CostParams costs;
    costs.block_size = 8;
    costs.fat_tree_radix = 8;
    util::print_banner(std::cout,
                       "Extrapolation: bounded TDC=6 workload, one 8-port "
                       "block per node vs radix-8 fat-tree");
    util::Table ex({"P", "HFAST cost/proc", "Fat-tree cost/proc",
                    "HFAST/fat-tree"});
    for (int p : {512, 2048, 8192, 32768, 131072, 1048576}) {
      const auto h = core::hfast_cost(p, p, costs);
      const auto f = core::fat_tree_cost(p, costs, /*include_collective=*/true);
      ex.row()
          .add(p)
          .add(h.total() / p, 2)
          .add(f.total() / p, 2)
          .add(h.total() / f.total(), 2);
    }
    ex.print(std::cout);
    std::cout << "The expensive component (packet switches) scales linearly "
                 "with P for HFAST;\nfat-tree ports grow by 2 per processor "
                 "per added level, so beyond ~10k\nprocessors the hybrid "
                 "fabric is cheaper (paper conclusion).\n";
    store::CacheCli::report(std::cerr, cache_store.get());
    return 0;
  });
}
