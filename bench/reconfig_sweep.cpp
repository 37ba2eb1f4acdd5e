/// \file reconfig_sweep.cpp
/// The adaptive-interconnect headline artifact (paper §2.3/§6): every paper
/// application replayed on three static substrates (the HFAST fabric
/// provisioned from the whole trace, a 16-port fat-tree, and a 3-D torus)
/// and then adaptively with the time-windowed reconfigurable replay at
/// several window counts. Each adaptive cell reports the total replay time
/// (reconfiguration stalls included), how many reconfigurations were paid,
/// and the peak simultaneous circuit count against the static union — the
/// trade the paper proposes MEMS switching buys: fewer patched ports, paid
/// for in milliseconds of re-patching.
///
/// Two plan tables follow, computed from the same traces: the circuits the
/// adaptive plan keeps against a static union at 8 windows for every app
/// (windowed graphs include collective traffic via the analytic-tree
/// expansion), and superlu's hysteresis sweep (how teardown patience trades
/// reconfiguration count against held circuits).
///
/// --app NAME restricts the sweep to one application and adds its §6 loop
/// end to end: the time-windowed TDC, the incremental circuit plan at
/// --windows/--hysteresis, and the reconfigurable replay that pays for it
/// window by window.
///
/// --check validates the adaptive-replay invariants and exits nonzero on
/// violation (the CI smoke contract):
///   * on every app x window-count cell, adaptive peak circuits <= static
///     union circuits;
///   * re-running an adaptive cell reproduces the total replay time
///     bit-for-bit;
///   * the serial and K in {2,4} sharded adaptive replays agree exactly
///     (the parity contract, extended across window boundaries);
///   * at least one cell of the six-app sweep saves circuit ports while
///     paying nonzero reconfiguration time — adaptation does something,
///     and is charged for it. A phase-stable app alone never reconfigures,
///     so with --app this invariant is not checked.

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hfast/analysis/batch.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/core/reconfigure.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_reconfig.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/window.hpp"
#include "hfast/util/format.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

namespace {

/// Window count of the plan-summary table and the hysteresis sweep.
constexpr std::size_t kPlanWindows = 8;

/// One app's §6 loop: windowed TDC, the incremental circuit plan under
/// `rc`, and the reconfigurable replay that pays for it.
void print_app_detail(const std::string& app, int nranks,
                      const trace::Trace& steady,
                      const core::ReconfigConfig& rc) {
  const auto w = static_cast<std::size_t>(rc.num_windows);
  util::print_banner(std::cout, "Windowed TDC (" + app + ", P=" +
                                    std::to_string(nranks) + ")");
  util::Table wt({"Window", "Bytes", "max TDC@2KB", "avg TDC@2KB"});
  for (const auto& ws :
       trace::windowed_tdc(steady, w, graph::kBdpCutoffBytes)) {
    wt.row().add(ws.window).add(ws.bytes).add(ws.max_tdc).add(ws.avg_tdc, 2);
  }
  wt.print(std::cout);

  const auto report =
      core::plan_reconfigurations(trace::windowed_graphs(steady, w),
                                  rc.params());
  util::print_banner(std::cout, "Incremental circuit reconfiguration plan");
  util::Table rt({"Window", "Added", "Removed", "Active", "Reconfig?"});
  for (const auto& d : report.deltas) {
    rt.row()
        .add(d.window)
        .add(d.circuits_added)
        .add(d.circuits_removed)
        .add(d.circuits_active)
        .add(d.reconfigured ? "yes" : "-");
  }
  rt.print(std::cout);
  std::cout << "reconfigurations: " << report.total_reconfigurations
            << " (total switch time "
            << util::time_label(report.reconfig_time_seconds) << "), drain "
            << "tears down " << report.drain_removed << " at end of trace\n"
            << "peak simultaneous circuits: " << report.peak_circuits
            << " vs static union provisioning: " << report.static_circuits
            << "\n";

  // Pay for the plan: replay the steady state adaptively, stalling at
  // every reconfiguration boundary.
  netsim::ReconfigReplayOptions ropts;
  ropts.config = rc;
  const auto rr = netsim::reconfigurable_replay(steady, ropts);
  util::print_banner(std::cout, "Time-windowed reconfigurable replay");
  util::Table pt({"Window", "Makespan", "Messages", "Circuits", "Reconfig?"});
  for (const auto& wr : rr.windows) {
    pt.row()
        .add(wr.window)
        .add(util::time_label(wr.result.makespan_s))
        .add(wr.result.messages)
        .add(wr.circuits_active)
        .add(wr.reconfigured ? "yes" : "-");
  }
  pt.print(std::cout);
  std::cout << "adaptive total: " << util::time_label(rr.total.makespan_s)
            << " (" << rr.reconfigurations << " reconfigurations stall "
            << util::time_label(rr.stall_seconds) << "), "
            << rr.total.messages << " messages, " << rr.total.bytes
            << " bytes\n";
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 64;
  bool check = false;
  std::string only_app;
  core::ReconfigConfig detail;
  detail.num_windows = 8;
  analysis::BatchOptions opts;
  mpisim::EngineKind engine = mpisim::EngineKind::kFibers;
  store::CacheCli cache;
  store::Cli cli("reconfig_sweep",
                 "Static vs adaptive replay of the six paper apps, with the "
                 "circuit-plan tables.");
  cli.ranks(nranks, "tasks per application (default 64)")
      .engine(engine)
      .threads(opts.thread_budget)
      .flag("--check", check,
            "validate the adaptive-replay invariants; exit 1 on violation")
      .option("--app", only_app,
              [](std::string_view name) { return apps::find(name).info.name; },
              "NAME",
              "sweep only NAME, adding its windowed TDC, circuit plan and "
              "per-window replay")
      .option("--windows", detail.num_windows, 1, store::Cli::kMaxCount, "W",
              "trace windows of the --app tables (default 8)")
      .option("--hysteresis", detail.hysteresis_windows, 0,
              store::Cli::kMaxCount, "H",
              "windows an idle circuit survives in the --app tables "
              "(default 1)");
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);
    opts.result_store = cache_store.get();

    const std::vector<std::string> kApps{"cactus",  "gtc",   "lbmhd",
                                         "superlu", "pmemd", "paratec"};
    const std::vector<int> kWindowCounts{4, 8, 16};

    std::vector<analysis::ExperimentConfig> configs;
    std::vector<std::string> names;
    for (const std::string& app : kApps) {
      if (!only_app.empty() && app != only_app) continue;
      if (!apps::valid_concurrency(apps::find(app), nranks)) {
        std::cout << app << ": skipped (P=" << nranks << " unsupported)\n";
        continue;
      }
      analysis::ExperimentConfig cfg;
      cfg.app = app;
      cfg.nranks = nranks;
      cfg.engine = engine;
      cfg.capture_trace = true;
      configs.push_back(cfg);
      names.push_back(app);
    }

    const analysis::BatchRunner runner(opts);
    const auto batch = runner.run(configs);
    if (!store::CacheCli::report_failures(std::cerr, batch)) {
      return EXIT_FAILURE;
    }

    int failures = 0;
    const auto fail = [&failures](const std::string& what) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ++failures;
    };

    const netsim::LinkParams link;
    util::Table table({"app", "mode", "windows", "total ms", "reconfigs",
                       "stall ms", "peak circ", "static circ"});
    util::Table plans({"App", "Peak circuits", "Static circuits", "Saving",
                       "Reconfigs", "Switch time", "Drain"});
    util::Table hysteresis({"Hysteresis (windows)", "Reconfigs",
                            "Peak circuits", "Total adds", "Total removes",
                            "Drain"});
    bool has_superlu = false;
    bool any_saving_with_stall = false;

    for (std::size_t a = 0; a < names.size(); ++a) {
      const trace::Trace steady =
          batch.results[a]->trace.filter_region(apps::kSteadyRegion);

      // Static baselines: the whole-trace HFAST fabric, fat-tree, torus.
      {
        trace::WindowOptions sends_only;
        sends_only.expand_collectives = false;
        const core::Provisioned prov = core::provision_greedy(
            trace::windowed_graphs(steady, 1, sends_only).front(),
            {.cutoff = 0});
        netsim::FabricNetwork net(prov.fabric, link, 50e-9);
        const auto r = netsim::replay(steady, net);
        table.row().add(names[a]).add("static hfast").add("-")
            .add(r.makespan_s * 1e3, 3).add(0).add(0.0, 3)
            .add(prov.stats.edges_provisioned)
            .add(prov.stats.edges_provisioned);
      }
      {
        const topo::FatTree tree(steady.nranks(), 16);
        netsim::FatTreeNetwork net(tree, link);
        const auto r = netsim::replay(steady, net);
        table.row().add(names[a]).add("fat-tree").add("-")
            .add(r.makespan_s * 1e3, 3).add(0).add(0.0, 3).add("-").add("-");
      }
      {
        const topo::MeshTorus torus(
            topo::MeshTorus::balanced_dims(steady.nranks(), 3), true);
        netsim::DirectNetwork net(torus, link);
        const auto r = netsim::replay(steady, net);
        table.row().add(names[a]).add("torus").add("-")
            .add(r.makespan_s * 1e3, 3).add(0).add(0.0, 3).add("-").add("-");
      }

      for (int w : kWindowCounts) {
        netsim::ReconfigReplayOptions ropts;
        ropts.config.num_windows = w;
        const auto rr = netsim::reconfigurable_replay(steady, ropts);
        table.row().add(names[a]).add("adaptive").add(w)
            .add(rr.total.makespan_s * 1e3, 3).add(rr.reconfigurations)
            .add(rr.stall_seconds * 1e3, 3).add(rr.plan.peak_circuits)
            .add(rr.plan.static_circuits);
        if (rr.plan.peak_circuits < rr.plan.static_circuits &&
            rr.stall_seconds > 0.0) {
          any_saving_with_stall = true;
        }

        if (check) {
          const std::string cell =
              names[a] + " W=" + std::to_string(w);
          if (rr.plan.peak_circuits > rr.plan.static_circuits) {
            fail(cell + ": adaptive peak exceeds static union circuits");
          }
          // Bit-determinism: the same cell replayed again is identical.
          const auto again = netsim::reconfigurable_replay(steady, ropts);
          if (!(again.total == rr.total)) {
            fail(cell + ": adaptive replay is not deterministic");
          }
          // Serial vs sharded parity across window boundaries.
          for (int shards : {2, 4}) {
            netsim::ReconfigReplayOptions sopts = ropts;
            sopts.shards = shards;
            const auto sharded = netsim::reconfigurable_replay(steady, sopts);
            if (!(sharded.total == rr.total)) {
              fail(cell + ": " + std::to_string(shards) +
                   "-shard adaptive replay differs from serial");
            }
          }
        }
      }

      // The plan at kPlanWindows with default teardown patience, and
      // superlu's hysteresis sweep. Piggyback teardown makes the
      // reconfiguration count non-increasing in hysteresis by construction
      // (the ReconfigureProperties contract); the sweep shows the
      // circuit-held price of that patience.
      const auto graphs = trace::windowed_graphs(steady, kPlanWindows);
      const auto report = core::plan_reconfigurations(graphs);
      const double saving =
          report.static_circuits == 0
              ? 0.0
              : 100.0 * (1.0 - static_cast<double>(report.peak_circuits) /
                                   static_cast<double>(report.static_circuits));
      plans.row()
          .add(names[a])
          .add(report.peak_circuits)
          .add(report.static_circuits)
          .add(std::to_string(static_cast<int>(saving)) + "%")
          .add(report.total_reconfigurations)
          .add(util::time_label(report.reconfig_time_seconds))
          .add(report.drain_removed);
      if (names[a] == "superlu") {
        has_superlu = true;
        for (int h : {0, 1, 2, 4, 8}) {
          core::ReconfigParams params;
          params.hysteresis_windows = h;
          const auto r = core::plan_reconfigurations(graphs, params);
          hysteresis.row()
              .add(h)
              .add(r.total_reconfigurations)
              .add(r.peak_circuits)
              .add(r.total_added)
              .add(r.total_removed)
              .add(r.drain_removed);
        }
      }
    }

    const std::string at_p = "P=" + std::to_string(nranks);
    util::print_banner(std::cout, "Adaptive vs static replay @ " + at_p);
    table.print(std::cout);
    std::cout << "\nAdaptive cells replay on per-window fabrics built from "
                 "the planned circuit set\n(window stride partition repaired "
                 "to consistent cuts); each reconfiguration\nstalls all ranks "
                 "for the MEMS re-patch. Static hfast provisions the union\n"
                 "topology once and never stalls.\n";
    util::print_banner(std::cout, "Adaptive vs static circuits (" + at_p +
                                      ", " + std::to_string(kPlanWindows) +
                                      " windows)");
    plans.print(std::cout);
    if (has_superlu) {
      util::print_banner(std::cout,
                         "Hysteresis sweep (superlu @ " + at_p + ")");
      hysteresis.print(std::cout);
      std::cout << "More hysteresis -> fewer millisecond-scale MEMS events at "
                   "the price of holding more circuits.\n";
    }
    if (!only_app.empty() && !names.empty()) {
      print_app_detail(
          names[0], nranks,
          batch.results[0]->trace.filter_region(apps::kSteadyRegion), detail);
    }
    std::cerr << "batch: " << names.size() << " captures in "
              << batch.wall_seconds << " s under a " << runner.thread_budget()
              << "-thread budget\n";
    store::CacheCli::report_batch(std::cout, std::cerr, batch,
                                  cache_store.get());

    if (!check) return 0;
    if (only_app.empty() && !any_saving_with_stall) {
      fail("no app x window cell saves circuits while paying reconfiguration "
           "time");
    }
    if (failures != 0) {
      std::cerr << failures << " invariant(s) violated\n";
      return EXIT_FAILURE;
    }
    std::cout << "check: all adaptive-replay invariants hold\n";
    return 0;
  });
}
