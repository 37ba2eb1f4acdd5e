/// \file table3_summary.cpp
/// Regenerates paper Table 3: the full summary of code characteristics —
/// point-to-point vs collective call percentages, median buffer sizes,
/// TDC at the 2 KB cutoff, and FCN utilization — at P=64 and P=256, plus
/// the §5.2 case classification of every code.

#include <cstdlib>
#include <iostream>

#include "hfast/analysis/batch.hpp"
#include "hfast/analysis/paper_tables.hpp"
#include "hfast/core/classify.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

namespace {

struct PaperRow {
  const char* code;
  int procs;
  double ptp, col;
  const char* tdc;
  const char* util;
};

constexpr PaperRow kPaper[] = {
    {"gtc", 64, 42.0, 58.0, "2, 2", "3%"},
    {"gtc", 256, 40.2, 59.8, "10, 4", "2%"},
    {"cactus", 64, 99.4, 0.6, "6, 5", "9%"},
    {"cactus", 256, 99.5, 0.5, "6, 5", "2%"},
    {"lbmhd", 64, 99.8, 0.2, "12, 11.5", "19%"},
    {"lbmhd", 256, 99.9, 0.1, "12, 11.8", "5%"},
    {"superlu", 64, 89.8, 10.2, "14, 14", "22%"},
    {"superlu", 256, 92.8, 7.2, "30, 30", "25%"},
    {"pmemd", 64, 99.1, 0.9, "63, 63", "100%"},
    {"pmemd", 256, 98.6, 1.4, "255, 55", "22%"},
    {"paratec", 64, 99.5, 0.5, "63, 63", "100%"},
    {"paratec", 256, 99.9, 0.1, "255, 255", "100%"},
};

}  // namespace

int main(int argc, char** argv) {
  mpisim::EngineKind engine = mpisim::EngineKind::kThreads;
  store::CacheCli cache;
  store::Cli cli("table3_summary",
                 "Paper Table 3 at P=64 and P=256, and the 5.2 case "
                 "classification.");
  cli.engine(engine);
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);

    // One parallel sweep produces every (app, P) experiment; configs come
    // back in input order, so app i owns results [2i] (P=64) and [2i+1]
    // (P=256).
    std::vector<std::string> names;
    for (const apps::App& a : apps::registry()) names.push_back(a.info.name);
    const auto configs = analysis::sweep_configs(names, {64, 256}, {1}, engine);
    const auto batch =
        analysis::BatchRunner({.result_store = cache_store.get()}).run(configs);
    if (!store::CacheCli::report_failures(std::cerr, batch)) {
      return EXIT_FAILURE;
    }

    std::vector<analysis::Table3Row> rows;
    std::vector<std::string> classifications;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& small = *batch.results[2 * i];
      const auto& large = *batch.results[2 * i + 1];
      rows.push_back(analysis::table3_row(small));
      rows.push_back(analysis::table3_row(large));
      const auto cls = core::classify(small.comm_graph, large.comm_graph);
      classifications.push_back(names[i] + ": " +
                                core::to_string(cls.comm_case) + " — " +
                                cls.rationale);
    }

    util::print_banner(std::cout, "Table 3 — measured (this reproduction)");
    analysis::render_table3(rows).print(std::cout);

    util::print_banner(std::cout, "Table 3 — paper reference values");
    util::Table p({"Code", "Procs", "% PTP", "% Col.", "TDC@2KB (max,avg)",
                   "FCN util"});
    for (const auto& r : kPaper) {
      p.row().add(r.code).add(r.procs).add(r.ptp, 1).add(r.col, 1).add(r.tdc)
          .add(r.util);
    }
    p.print(std::cout);
    std::cout << "(paper prints 25% utilization for SuperLU@256; avg-TDC/(P-1)"
                 " gives ~12% — see EXPERIMENTS.md.)\n";

    util::print_banner(std::cout, "5.2 case classification");
    for (const auto& c : classifications) std::cout << "  " << c << "\n";

    // Cache traffic goes to stderr so resumed runs stay byte-identical on
    // stdout (the CI resume smoke job diffs stdout across runs).
    store::CacheCli::report(std::cerr, cache_store.get());
    return 0;
  });
}
