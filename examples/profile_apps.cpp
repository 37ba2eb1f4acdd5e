/// \file profile_apps.cpp
/// Profile the six paper applications at a chosen concurrency and print
/// the per-app communication characteristics (the paper's §4 study in one
/// command). The experiments run as one parallel batch.
///
/// --collective-schedule, --synth-seed and --reconfig-* are recorded in
/// each experiment's config (its cache key and JSON export). With
/// --save-traces and a lowering schedule, each captured trace's expansion
/// stats (collective events -> P2P events) are printed too; the saved
/// files stay un-lowered so any schedule can replay them later. synth here
/// searches topology-blind (the batch has no replay substrate);
/// replay_traces prices the search under the actual network's hop
/// function. The reconfiguration windows are consumed by the adaptive
/// replay drivers (replay_traces, bench/reconfig_sweep).

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "hfast/analysis/batch.hpp"
#include "hfast/analysis/paper_tables.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/classify.hpp"
#include "hfast/ipm/text_report.hpp"
#include "hfast/mpisim/runtime.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

int main(int argc, char** argv) {
  int nranks = 64;
  analysis::BatchOptions opts;
  mpisim::EngineKind engine = mpisim::EngineKind::kThreads;
  core::SmpConfig smp;
  collective::CollectiveConfig coll;
  core::ReconfigConfig reconfig;
  store::CacheCli cache;
  std::string save_traces_dir;
  trace::TraceFormat trace_format = trace::TraceFormat::kBinary;
  int iterations = 0;
  store::Cli cli("profile_apps",
                 "Profile the six paper apps at one concurrency (Table 3 "
                 "columns per app).");
  cli.ranks(nranks, "concurrency per application (default 64)")
      .threads(opts.thread_budget)
      .engine(engine)
      .smp(smp)
      .collective(coll)
      .reconfig(reconfig)
      .option("--save-traces", save_traces_dir, "DIR",
              "capture traces and write DIR/<app>_p<nranks>.<ext>")
      .option("--trace-format", trace_format, store::trace_format_arg,
              "text|bin", "format of --save-traces files (default bin)")
      .option("--iterations", iterations, 0, store::Cli::kMaxCount, "N",
              "steady-state iterations per app (0 = each kernel's default; "
              "the all-to-all kernels record O(P^2) events per iteration)");
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);
    opts.result_store = cache_store.get();

    std::vector<std::string> names;
    for (const apps::App& app : apps::registry()) {
      if (!apps::valid_concurrency(app, nranks)) {
        std::cout << app.info.name << ": skipped (P=" << nranks
                  << " unsupported)\n";
        continue;
      }
      names.push_back(app.info.name);
    }

    auto configs = analysis::sweep_configs(names, {nranks}, {1}, engine);
    // The tables below reduce profiles and graphs only; skipping trace
    // capture keeps the wide-P sweeps (1024+) within memory. --save-traces
    // re-enables capture so the traces can be written out.
    for (auto& c : configs) {
      c.capture_trace = !save_traces_dir.empty();
      c.iterations = iterations;
      c.smp = smp;
      c.collective = coll;
      c.reconfig = reconfig;
    }

    const analysis::BatchRunner runner(opts);
    const auto batch = runner.run(configs);
    store::CacheCli::report_failures(std::cerr, batch);

    if (!save_traces_dir.empty()) {
      std::filesystem::create_directories(save_traces_dir);
      const char* ext =
          trace_format == trace::TraceFormat::kBinary ? ".htrc" : ".trace";
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (!batch.results[i].has_value()) continue;
        const std::string path = save_traces_dir + "/" + names[i] + "_p" +
                                 std::to_string(nranks) + ext;
        trace::save_trace_file(batch.results[i]->trace, path, trace_format);
        std::cout << "trace: " << path << " ("
                  << batch.results[i]->trace.events().size() << " events, "
                  << std::filesystem::file_size(path) << " bytes)\n";
        if (coll.lowers()) {
          collective::LowerOptions lopts;
          lopts.config = coll;
          if (smp.aggregates()) {
            const int n = batch.results[i]->trace.nranks();
            lopts.node_of_rank.resize(static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) {
              lopts.node_of_rank[static_cast<std::size_t>(r)] =
                  r / smp.cores_per_node;
            }
          }
          const auto lowered =
              collective::lower_trace(batch.results[i]->trace, lopts);
          std::cout << "  lowering ["
                    << collective::schedule_name(coll.schedule)
                    << "]: " << lowered.stats.collective_events
                    << " collective events -> " << lowered.stats.p2p_events
                    << " P2P events (" << lowered.stats.instances
                    << " instances, " << lowered.stats.schedules
                    << " schedules, " << lowered.stats.bytes << " bytes)\n";
        }
      }
    }

    std::vector<analysis::Table3Row> rows;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (!batch.results[i].has_value()) continue;
      const auto& result = *batch.results[i];
      rows.push_back(analysis::table3_row(result));

      const auto cls = core::classify(result.comm_graph);
      util::print_banner(std::cout,
                         names[i] + " @ P=" + std::to_string(nranks));
      analysis::render_call_breakdown(result).print(std::cout);
      std::cout << "classification: " << core::to_string(cls.comm_case) << "\n"
                << "  (" << cls.rationale << ")\n";
    }

    util::print_banner(std::cout, "Summary (paper Table 3 columns)");
    analysis::render_table3(rows).print(std::cout);

    if (smp.aggregates()) {
      std::vector<analysis::SmpSweepRow> smp_rows;
      for (const auto& r : batch.results) {
        if (r.has_value()) smp_rows.push_back(analysis::smp_sweep_row(*r));
      }
      util::print_banner(std::cout,
                         "SMP provisioning (" +
                             std::to_string(smp.cores_per_node) +
                             " cores/node, " +
                             std::string(core::packing_name(smp.packing)) +
                             " packing)");
      analysis::render_smp_sweep(smp_rows).print(std::cout);
    }
    std::cout << "batch: " << names.size() << " experiments ("
              << mpisim::engine_name(engine) << " engine) in "
              << batch.wall_seconds << " s under a "
              << runner.thread_budget() << "-thread budget\n";
    store::CacheCli::report_batch(std::cout, std::cerr, batch,
                                  cache_store.get());
    if (!batch.ok()) return EXIT_FAILURE;

    // Full IPM-style banner for one representative code (gtc), run with
    // direct access to the per-rank profiles.
    if (apps::valid_concurrency(apps::find("gtc"), nranks)) {
      mpisim::Runtime rt(
          mpisim::RuntimeConfig{.nranks = nranks, .engine = engine});
      std::vector<std::unique_ptr<ipm::RankProfile>> profiles;
      for (int r = 0; r < nranks; ++r) {
        profiles.push_back(std::make_unique<ipm::RankProfile>(r));
      }
      apps::AppParams params;
      params.nranks = nranks;
      rt.run(apps::find("gtc").program(params), [&profiles](mpisim::Rank r) {
        return profiles[static_cast<std::size_t>(r)].get();
      });
      std::vector<const ipm::RankProfile*> ptrs;
      for (const auto& p : profiles) ptrs.push_back(p.get());
      ipm::write_text_report(std::cout, ptrs, {.job_name = "gtc"});
    }
    return 0;
  });
}
