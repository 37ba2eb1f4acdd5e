/// \file perf_micro.cpp
/// google-benchmark microbenchmarks of the core kernels: communication
/// graph construction, TDC cutoff sweeps, both provisioners, fabric
/// routing, the runtime's messaging path, the batch sweep engine, trace
/// loading and collective lowering. Trace replay is measured by perfbench/
/// instead.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "hfast/analysis/batch.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/clique.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/mpisim/runtime.hpp"
#include "hfast/trace/io.hpp"

using namespace hfast;

namespace {

graph::CommGraph make_graph(int p, int partners_per_node) {
  graph::CommGraph g(p);
  for (int u = 0; u < p; ++u) {
    for (int k = 1; k <= partners_per_node; ++k) {
      const int v = (u + k) % p;
      g.add_message(u, v, 1024ULL << (k % 8), 4);
    }
  }
  return g;
}

void BM_graph_build(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_graph(p, 12));
  }
  state.SetItemsProcessed(state.iterations() * p * 12);
}
BENCHMARK(BM_graph_build)->Arg(64)->Arg(256)->Arg(1024);

void BM_tdc_sweep(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::tdc_sweep(g));
  }
}
BENCHMARK(BM_tdc_sweep)->Arg(64)->Arg(256)->Arg(1024);

void BM_provision_greedy(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::provision_greedy(g));
  }
}
BENCHMARK(BM_provision_greedy)->Arg(64)->Arg(256)->Arg(1024);

void BM_provision_clique(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::provision_clique(g));
  }
}
BENCHMARK(BM_provision_clique)->Arg(64)->Arg(256);

void BM_clique_cover(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::greedy_edge_clique_cover(g, 15));
  }
}
BENCHMARK(BM_clique_cover)->Arg(64)->Arg(256);

void BM_fabric_route(benchmark::State& state) {
  const auto g = make_graph(256, 12);
  const auto prov = core::provision_greedy(g);
  int u = 0;
  for (auto _ : state) {
    const int v = (u + 7) % 256;
    benchmark::DoNotOptimize(prov.fabric.route(u, v == u ? (u + 1) % 256 : v));
    u = (u + 1) % 256;
  }
}
BENCHMARK(BM_fabric_route);

void BM_runtime_ring(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  mpisim::Runtime rt(mpisim::RuntimeConfig{.nranks = p});
  for (auto _ : state) {
    rt.run([](mpisim::RankContext& ctx) {
      const int n = ctx.nranks();
      for (int i = 0; i < 20; ++i) {
        (void)ctx.sendrecv((ctx.rank() + 1) % n, 4096,
                           (ctx.rank() + n - 1) % n, 4096, i);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * p * 20);
}
BENCHMARK(BM_runtime_ring)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

/// The experiment sweep every paper artifact hammers, at two thread
/// budgets: Arg(1) degenerates to a strictly sequential sweep (the
/// pre-BatchRunner baseline), Arg(0) uses the default budget (4x cores).
/// lbmhd is absent because it needs a >= 5x5 square grid — too wide for a
/// bench meant to keep several jobs in flight under small budgets.
std::vector<analysis::ExperimentConfig> sweep_jobs() {
  return analysis::sweep_configs({"cactus", "gtc", "superlu"}, {8, 16},
                                 {1, 2});
}

void BM_batch_sweep(benchmark::State& state) {
  const auto configs = sweep_jobs();
  const analysis::BatchRunner runner(
      {.thread_budget = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    auto r = runner.run(configs);
    if (!r.ok()) {
      state.SkipWithError("batch job failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_batch_sweep)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

/// The engine face-off in the regime the fiber engine was built for: wide
/// jobs (P=256), where the threaded engine pays 256 thread spawns plus
/// kernel-arbitrated context switches per experiment and the fiber engine
/// runs the whole job on one OS thread with user-space switches. Trace
/// capture is off — these jobs exist for their reductions.
std::vector<analysis::ExperimentConfig> engine_jobs(mpisim::EngineKind engine) {
  auto configs =
      analysis::sweep_configs({"cactus", "gtc"}, {256}, {1}, engine);
  for (auto& c : configs) c.capture_trace = false;
  return configs;
}

void BM_batch_sweep_engine(benchmark::State& state) {
  const auto engine = state.range(0) == 0 ? mpisim::EngineKind::kThreads
                                          : mpisim::EngineKind::kFibers;
  if (engine == mpisim::EngineKind::kFibers && !mpisim::fibers_supported()) {
    state.SkipWithError("fiber engine unavailable in this build");
    return;
  }
  const auto configs = engine_jobs(engine);
  const analysis::BatchRunner runner;
  for (auto _ : state) {
    auto r = runner.run(configs);
    if (!r.ok()) {
      state.SkipWithError("batch job failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(mpisim::engine_name(engine)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_batch_sweep_engine)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

/// Trace load path face-off at the P=1024 scale the formats were built
/// for: text parse vs HTRC stream decode vs HTRC mmap decode of the same
/// cactus fiber trace. Arg: 0 = text, 1 = binary (stream), 2 = binary
/// (mmap via load_trace_file).
void BM_trace_load(benchmark::State& state) {
  if (!mpisim::fibers_supported()) {
    state.SkipWithError("fiber engine unavailable in this build");
    return;
  }
  analysis::ExperimentConfig cfg;
  cfg.app = "cactus";
  cfg.nranks = 1024;
  cfg.engine = mpisim::EngineKind::kFibers;
  const auto trace = analysis::run_experiment(cfg).trace;
  const auto dir = std::filesystem::temp_directory_path();
  const auto mode = state.range(0);
  const std::string path =
      (dir / (mode == 0 ? "hfast_bm_trace.trace" : "hfast_bm_trace.htrc"))
          .string();
  trace::save_trace_file(trace, path);
  for (auto _ : state) {
    if (mode == 1) {
      std::ifstream in(path, std::ios::binary);
      benchmark::DoNotOptimize(trace::Trace::load_binary(in));
    } else {
      benchmark::DoNotOptimize(trace::load_trace_file(path));
    }
  }
  state.SetLabel(mode == 0 ? "text" : mode == 1 ? "binary" : "binary+mmap");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events().size()));
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_trace_load)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Collective-lowering pass throughput on the collective-heavy pmemd trace
/// at P=256: trace scan, positional instance matching, schedule generation
/// (template-cached per (call, payload)), and columnar re-emission.
/// Arg: 0 = ring, 1 = bruck, 2 = auto (the 1-hop-default selector).
void BM_collective_lowering(benchmark::State& state) {
  if (!mpisim::fibers_supported()) {
    state.SkipWithError("fiber engine unavailable in this build");
    return;
  }
  analysis::ExperimentConfig cfg;
  cfg.app = "pmemd";
  cfg.nranks = 256;
  cfg.engine = mpisim::EngineKind::kFibers;
  const auto trace = analysis::run_experiment(cfg).trace;
  const collective::ScheduleKind kinds[] = {collective::ScheduleKind::kRing,
                                            collective::ScheduleKind::kBruck,
                                            collective::ScheduleKind::kAuto};
  collective::LowerOptions opts;
  opts.config.schedule = kinds[state.range(0)];
  std::uint64_t out_events = 0;
  for (auto _ : state) {
    auto lowered = collective::lower_trace(trace, opts);
    out_events = lowered.trace.events().size();
    benchmark::DoNotOptimize(lowered);
  }
  state.SetLabel(std::string(collective::schedule_name(opts.config.schedule)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out_events));
}
BENCHMARK(BM_collective_lowering)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
