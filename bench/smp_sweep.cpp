/// \file smp_sweep.cpp
/// The SMP provisioning-mode headline artifact: a Table-3-style sweep of
/// all six paper applications over cores per node, showing how much
/// traffic the node backplanes absorb and how far the switch-block pool
/// shrinks as tasks aggregate — with the paper's case-iv caveat (pmemd's
/// all-to-all keeps node-level TDC = nodes-1 at every aggregation, so SMP
/// packing cannot rescue fully-connected codes).
///
/// --check validates the paper-reproduction invariants and exits nonzero
/// on violation (the CI smoke contract):
///   * cactus localizes a nonzero byte fraction at 2+ cores and strictly
///     more under affinity packing;
///   * the block pool never grows as cores per node grow (same packing,
///     same app);
///   * pmemd's node graph stays fully connected: node TDC = nodes - 1 at
///     every aggregation level.
///
/// Every (app, cores, packing) cell is an independent ExperimentConfig, so
/// the sweep fans out under BatchRunner and persists per-cell in the
/// durable store — a killed sweep resumes instead of recomputing.

#include <cstdlib>
#include <iostream>
#include <map>
#include <tuple>

#include "hfast/analysis/batch.hpp"
#include "hfast/analysis/paper_tables.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

int main(int argc, char** argv) {
  int nranks = 64;
  bool check = false;
  analysis::BatchOptions opts;
  mpisim::EngineKind engine = mpisim::EngineKind::kThreads;
  store::CacheCli cache;
  store::Cli cli("smp_sweep",
                 "SMP provisioning sweep of the six paper apps over cores "
                 "per node.");
  cli.ranks(nranks, "tasks per application (default 64)")
      .engine(engine)
      .threads(opts.thread_budget)
      .flag("--check", check,
            "validate the paper-reproduction invariants; exit 1 on "
            "violation");
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);
    opts.result_store = cache_store.get();

    const std::vector<std::string> kApps{"cactus", "gtc",   "lbmhd",
                                         "superlu", "pmemd", "paratec"};
    const std::vector<int> kCores{1, 2, 4, 8};

    std::vector<analysis::ExperimentConfig> configs;
    for (const std::string& app : kApps) {
      if (!apps::valid_concurrency(apps::find(app), nranks)) {
        std::cout << app << ": skipped (P=" << nranks << " unsupported)\n";
        continue;
      }
      for (int cores : kCores) {
        for (core::SmpPacking packing :
             {core::SmpPacking::kRankOrder, core::SmpPacking::kAffinity}) {
          // At one core per node every packing is the identity; keep only
          // the rank-order row as the per-task baseline.
          if (cores == 1 && packing != core::SmpPacking::kRankOrder) continue;
          analysis::ExperimentConfig cfg;
          cfg.app = app;
          cfg.nranks = nranks;
          cfg.engine = engine;
          cfg.capture_trace = false;
          cfg.smp = {cores, packing};
          configs.push_back(cfg);
        }
      }
    }

    const analysis::BatchRunner runner(opts);
    const auto batch = runner.run(configs);
    if (!store::CacheCli::report_failures(std::cerr, batch)) {
      return EXIT_FAILURE;
    }

    std::vector<analysis::SmpSweepRow> rows;
    rows.reserve(configs.size());
    for (const auto& r : batch.results) {
      rows.push_back(analysis::smp_sweep_row(*r));
    }

    util::print_banner(
        std::cout, "SMP provisioning sweep @ P=" + std::to_string(nranks) +
                       ": backplane absorption and block-pool shrinkage");
    analysis::render_smp_sweep(rows).print(std::cout);
    std::cout << "\nStencil codes (cactus, lbmhd) localize neighbor traffic "
                 "on the backplane and\nshed switch blocks as cores per node "
                 "grow; pmemd's all-to-all keeps node TDC\n= nodes-1 at every "
                 "aggregation (the paper's case-iv finding) — SMP packing\n"
                 "cannot rescue fully-connected codes.\n";
    std::cout << "batch: " << configs.size() << " experiments in "
              << batch.wall_seconds << " s under a " << runner.thread_budget()
              << "-thread budget\n";
    store::CacheCli::report_batch(std::cout, std::cerr, batch,
                                  cache_store.get());

    if (!check) return 0;

    // --- paper-reproduction invariants (the CI smoke contract) -------------
    int failures = 0;
    const auto fail = [&failures](const std::string& what) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ++failures;
    };

    // Index rows by (app, cores, packing) for the cross-row assertions.
    std::map<std::tuple<std::string, int, core::SmpPacking>,
             const analysis::SmpSweepRow*>
        by_cell;
    for (const auto& row : rows) {
      by_cell[{row.code, row.cores_per_node, row.packing}] = &row;
    }
    const auto cell = [&](const std::string& app, int cores,
                          core::SmpPacking packing) {
      // cores = 1 has only the rank-order baseline row.
      const auto it = by_cell.find(
          {app, cores, cores == 1 ? core::SmpPacking::kRankOrder : packing});
      return it == by_cell.end() ? nullptr : it->second;
    };

    for (const auto& row : rows) {
      // Nonzero backplane absorption for the stencil headline code.
      if (row.code == "cactus" && row.cores_per_node > 1 &&
          row.backplane_bytes == 0) {
        fail("cactus absorbs no backplane traffic at " +
             std::to_string(row.cores_per_node) + " cores/node");
      }
      // Affinity never localizes fewer bytes than rank order.
      if (row.packing == core::SmpPacking::kAffinity) {
        const auto* naive =
            cell(row.code, row.cores_per_node, core::SmpPacking::kRankOrder);
        if (naive != nullptr && row.backplane_bytes < naive->backplane_bytes) {
          fail(row.code +
               " affinity localizes fewer bytes than rank order at " +
               std::to_string(row.cores_per_node) + " cores/node");
        }
      }
      // pmemd stays fully connected at node level (paper case iv).
      if (row.code == "pmemd" && row.node_tdc_max != row.num_nodes - 1) {
        fail("pmemd node TDC " + std::to_string(row.node_tdc_max) +
             " != nodes-1 = " + std::to_string(row.num_nodes - 1) + " at " +
             std::to_string(row.cores_per_node) + " cores/node");
      }
      // Block-pool monotonicity: aggregating more tasks per node never needs
      // more switch blocks.
      const auto* prev = cell(row.code, row.cores_per_node / 2, row.packing);
      if (prev != nullptr && row.num_blocks > prev->num_blocks) {
        fail(row.code + " (" + std::string(core::packing_name(row.packing)) +
             "): block pool grew " + std::to_string(prev->num_blocks) + " -> " +
             std::to_string(row.num_blocks) + " going to " +
             std::to_string(row.cores_per_node) + " cores/node");
      }
    }

    if (failures != 0) {
      std::cerr << failures << " invariant(s) violated\n";
      return EXIT_FAILURE;
    }
    std::cout << "check: all SMP invariants hold\n";
    return 0;
  });
}
