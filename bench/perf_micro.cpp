/// \file perf_micro.cpp
/// google-benchmark microbenchmarks of the core kernels: communication
/// graph construction, TDC cutoff sweeps, both provisioners, fabric
/// routing and the runtime's messaging path. Trace replay is measured by
/// perfbench/ instead.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

#include "hfast/analysis/batch.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/clique.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/mpisim/runtime.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/store/store.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/util/json.hpp"

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

/// Emit the sweep-engine datapoint the roadmap tracks: sequential vs
/// batched wall time for the standard job set, as BENCH_batch_sweep.json
/// in the working directory.
void write_batch_sweep_datapoint() {
  const auto configs = sweep_jobs();
  const auto time_sweep = [&configs](int budget) {
    const analysis::BatchRunner runner({.thread_budget = budget});
    const auto start = std::chrono::steady_clock::now();
    const auto r = runner.run(configs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return r.ok() ? wall : -1.0;
  };
  const double seq = time_sweep(1);
  const double par = time_sweep(0);
  if (seq < 0.0 || par < 0.0) {
    std::cerr << "BENCH_batch_sweep: sweep failed, no datapoint written\n";
    return;
  }
  // Engine comparison at P=256: same jobs, same default budget, only the
  // execution engine differs. Fibers may be unavailable (TSan builds) —
  // report -1 there rather than dropping the datapoint.
  const auto time_engine = [](mpisim::EngineKind engine) {
    if (engine == mpisim::EngineKind::kFibers && !mpisim::fibers_supported()) {
      return -1.0;
    }
    const auto jobs = engine_jobs(engine);
    const analysis::BatchRunner runner;
    const auto start = std::chrono::steady_clock::now();
    const auto r = runner.run(jobs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return r.ok() ? wall : -1.0;
  };
  const double threads256 = time_engine(mpisim::EngineKind::kThreads);
  const double fibers256 = time_engine(mpisim::EngineKind::kFibers);

  // Cold-vs-warm store datapoint: the same P=256 sweep against an empty
  // result store (every job computes and persists) and again against the
  // populated one (every job is a cache hit — the resumable-sweep payoff).
  // -1 seconds means the pass could not run.
  const auto store_dir =
      std::filesystem::temp_directory_path() / "hfast_bench_store_p256";
  double cold = -1.0, warm = -1.0;
  std::uint64_t warm_hits = 0;
  {
    const auto jobs = engine_jobs(mpisim::fibers_supported()
                                      ? mpisim::EngineKind::kFibers
                                      : mpisim::EngineKind::kThreads);
    try {
      store::ResultStore cache(store_dir);
      cache.evict_all();
      const analysis::BatchRunner runner({.result_store = &cache});
      const auto time_pass = [&]() {
        const auto start = std::chrono::steady_clock::now();
        const auto r = runner.run(jobs);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        warm_hits = r.cache.hits;
        return r.ok() ? wall : -1.0;
      };
      cold = time_pass();
      warm_hits = 0;
      warm = time_pass();
    } catch (const std::exception& e) {
      std::cerr << "BENCH store datapoint skipped: " << e.what() << "\n";
    }
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }

  // Trace-format datapoint: the six-app P=1024 fiber traces saved as text
  // and HTRC, with load wall times for text parse, binary stream decode,
  // and binary mmap decode — the acceptance wall for the columnar trace
  // pipeline is binary/mmap >= 10x faster than text. -1 seconds means
  // fibers are unavailable.
  double trace_text_save = -1.0, trace_bin_save = -1.0;
  double trace_text_load = -1.0, trace_bin_load = -1.0, trace_mmap_load = -1.0;
  std::uint64_t trace_text_bytes = 0, trace_bin_bytes = 0, trace_events = 0;
  if (mpisim::fibers_supported()) {
    try {
      const std::vector<std::string> apps = {"cactus", "gtc",   "lbmhd",
                                             "superlu", "pmemd", "paratec"};
      auto jobs = analysis::sweep_configs(apps, {1024}, {1},
                                          mpisim::EngineKind::kFibers);
      const analysis::BatchRunner runner;
      const auto batch = runner.run(jobs);
      if (batch.ok()) {
        const auto dir = std::filesystem::temp_directory_path() /
                         "hfast_bench_traces_p1024";
        std::filesystem::create_directories(dir);
        std::vector<std::string> text_paths, bin_paths;
        trace_text_save = trace_bin_save = 0.0;
        trace_text_load = trace_bin_load = trace_mmap_load = 0.0;
        const auto timed = [](auto&& fn) {
          const auto start = std::chrono::steady_clock::now();
          fn();
          return std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
              .count();
        };
        for (std::size_t i = 0; i < apps.size(); ++i) {
          const auto& t = batch.results[i]->trace;
          trace_events += t.events().size();
          const auto text_path = (dir / (apps[i] + ".trace")).string();
          const auto bin_path = (dir / (apps[i] + ".htrc")).string();
          trace_text_save += timed([&] { trace::save_trace_file(t, text_path); });
          trace_bin_save += timed([&] { trace::save_trace_file(t, bin_path); });
          trace_text_bytes += std::filesystem::file_size(text_path);
          trace_bin_bytes += std::filesystem::file_size(bin_path);
          text_paths.push_back(text_path);
          bin_paths.push_back(bin_path);
        }
        for (std::size_t i = 0; i < apps.size(); ++i) {
          trace_text_load +=
              timed([&] { (void)trace::load_trace_file(text_paths[i]); });
          trace_bin_load += timed([&] {
            std::ifstream in(bin_paths[i], std::ios::binary);
            (void)trace::Trace::load_binary(in);
          });
          trace_mmap_load +=
              timed([&] { (void)trace::load_trace_file(bin_paths[i]); });
        }
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    } catch (const std::exception& e) {
      std::cerr << "BENCH trace datapoint skipped: " << e.what() << "\n";
    }
  }

  // Collective-lowering datapoint: the six-app P=256 fiber traces replayed
  // on the torus with the analytic baseline vs the ring and Bruck lowerings
  // — what pricing collectives on the actual links (instead of the
  // dedicated-tree formula) costs in replay wall time, plus the lowering
  // pass's own wall time. -1 seconds means fibers are unavailable.
  double coll_lower = -1.0;
  double coll_analytic = -1.0, coll_ring = -1.0, coll_bruck = -1.0;
  std::uint64_t coll_events = 0, coll_ring_p2p = 0, coll_bruck_p2p = 0;
  if (mpisim::fibers_supported()) {
    try {
      const std::vector<std::string> apps = {"cactus",  "gtc",   "lbmhd",
                                             "superlu", "pmemd", "paratec"};
      auto jobs = analysis::sweep_configs(apps, {256}, {1},
                                          mpisim::EngineKind::kFibers);
      const analysis::BatchRunner runner;
      const auto batch = runner.run(jobs);
      if (batch.ok()) {
        const auto timed = [](auto&& fn) {
          const auto start = std::chrono::steady_clock::now();
          fn();
          return std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
              .count();
        };
        coll_lower = coll_analytic = coll_ring = coll_bruck = 0.0;
        const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(256, 3),
                                    true);
        const netsim::LinkParams link;
        for (std::size_t i = 0; i < apps.size(); ++i) {
          const auto& t = batch.results[i]->trace;
          coll_events += t.events().size();
          collective::LowerOptions ring_opts, bruck_opts;
          ring_opts.config.schedule = collective::ScheduleKind::kRing;
          bruck_opts.config.schedule = collective::ScheduleKind::kBruck;
          collective::LowerResult ring, bruck;
          coll_lower += timed([&] { ring = collective::lower_trace(t, ring_opts); });
          coll_lower += timed([&] { bruck = collective::lower_trace(t, bruck_opts); });
          coll_ring_p2p += ring.stats.p2p_events;
          coll_bruck_p2p += bruck.stats.p2p_events;
          netsim::DirectNetwork net(torus, link);
          coll_analytic += timed([&] { (void)netsim::replay(t, net); });
          coll_ring += timed([&] { (void)netsim::replay(ring.trace, net); });
          coll_bruck += timed([&] { (void)netsim::replay(bruck.trace, net); });
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "BENCH collective datapoint skipped: " << e.what() << "\n";
    }
  }

  // Schedule-synthesis datapoint: pmemd (the alltoall-heavy code) at P=256
  // on the torus. Records the per-signature search wall time, the modeled
  // cost delta of the synthesized schedules vs the auto selector's picks
  // under the same hop function, and the replay-makespan delta once each
  // lowering rides the torus. -1 seconds means fibers are unavailable.
  double synth_search = -1.0;
  double synth_model_cost = 0.0, synth_auto_model_cost = 0.0;
  double synth_makespan = -1.0, synth_auto_makespan = -1.0;
  std::uint64_t synth_signatures = 0;
  if (mpisim::fibers_supported()) {
    try {
      analysis::ExperimentConfig cfg;
      cfg.app = "pmemd";
      cfg.nranks = 256;
      cfg.engine = mpisim::EngineKind::kFibers;
      const trace::Trace t = analysis::run_experiment(cfg).trace;
      const auto timed = [](auto&& fn) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
      };
      const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(256, 3),
                                  true);
      netsim::DirectNetwork net(torus, netsim::LinkParams{});
      const collective::HopFn hops = [&net](int a, int b) {
        net.prewarm_route(a, b);
        return net.switch_hops(a, b);
      };
      // Distinct (call, payload) signatures, matched positionally across
      // ranks exactly as lower_trace matches instances.
      std::vector<std::pair<mpisim::CallType, std::uint64_t>> sigs;
      {
        std::vector<trace::EventSpan> spans;
        std::vector<std::vector<std::size_t>> at(256);
        for (int r = 0; r < 256; ++r) {
          spans.push_back(t.rank_events(r));
          for (std::size_t i = 0; i < spans.back().size(); ++i) {
            if (spans.back().kind(i) == trace::EventKind::kCollective) {
              at[static_cast<std::size_t>(r)].push_back(i);
            }
          }
        }
        for (std::size_t k = 0; k < at[0].size(); ++k) {
          const mpisim::CallType call = spans[0].call(at[0][k]);
          std::uint64_t payload = 0;
          for (int r = 0; r < 256; ++r) {
            payload = std::max(payload, spans[static_cast<std::size_t>(r)]
                                            .bytes(at[static_cast<
                                                std::size_t>(r)][k]));
          }
          const auto sig = std::make_pair(call, payload);
          if (std::find(sigs.begin(), sigs.end(), sig) == sigs.end()) {
            sigs.push_back(sig);
          }
        }
      }
      synth_signatures = sigs.size();
      synth_search = 0.0;
      for (const auto& [call, payload] : sigs) {
        collective::SynthesisOptions sopts;
        sopts.hops = hops;
        collective::SynthesisResult r;
        synth_search +=
            timed([&] { r = collective::synthesize(call, 256, payload, sopts); });
        synth_model_cost += r.cost;
        synth_auto_model_cost += r.auto_cost;
      }
      collective::LowerOptions auto_opts, synth_opts;
      auto_opts.config.schedule = collective::ScheduleKind::kAuto;
      auto_opts.hops = hops;
      synth_opts.config.schedule = collective::ScheduleKind::kSynth;
      synth_opts.hops = hops;
      const auto auto_lowered = collective::lower_trace(t, auto_opts);
      const auto synth_lowered = collective::lower_trace(t, synth_opts);
      synth_auto_makespan = netsim::replay(auto_lowered.trace, net).makespan_s;
      synth_makespan = netsim::replay(synth_lowered.trace, net).makespan_s;
    } catch (const std::exception& e) {
      std::cerr << "BENCH synth datapoint skipped: " << e.what() << "\n";
    }
  }

  std::ofstream ofs("BENCH_batch_sweep.json");
  util::JsonWriter json(ofs);
  json.begin_object();
  json.field("bench", "batch_sweep");
  json.field("jobs", static_cast<std::uint64_t>(configs.size()));
  json.field("hardware_concurrency", std::thread::hardware_concurrency());
  json.field("thread_budget",
             analysis::BatchRunner({.thread_budget = 0}).thread_budget());
  json.field("sequential_seconds", seq);
  json.field("batched_seconds", par);
  json.field("speedup", par > 0.0 ? seq / par : 0.0);
  json.key("engine_p256");
  json.begin_object();
  json.field("threads_seconds", threads256);
  json.field("fibers_seconds", fibers256);
  json.field("fibers_speedup",
             threads256 > 0.0 && fibers256 > 0.0 ? threads256 / fibers256 : 0.0);
  json.end_object();
  json.key("store_p256");
  json.begin_object();
  json.field("cold_seconds", cold);
  json.field("warm_seconds", warm);
  json.field("warm_hits", warm_hits);
  json.field("warm_speedup", cold > 0.0 && warm > 0.0 ? cold / warm : 0.0);
  json.end_object();
  json.key("trace_p1024");
  json.begin_object();
  json.field("apps", std::uint64_t{6});
  json.field("events", trace_events);
  json.field("text_bytes", trace_text_bytes);
  json.field("binary_bytes", trace_bin_bytes);
  json.field("text_save_seconds", trace_text_save);
  json.field("binary_save_seconds", trace_bin_save);
  json.field("text_load_seconds", trace_text_load);
  json.field("binary_load_seconds", trace_bin_load);
  json.field("mmap_load_seconds", trace_mmap_load);
  json.field("binary_load_speedup",
             trace_text_load > 0.0 && trace_bin_load > 0.0
                 ? trace_text_load / trace_bin_load
                 : 0.0);
  json.field("mmap_load_speedup",
             trace_text_load > 0.0 && trace_mmap_load > 0.0
                 ? trace_text_load / trace_mmap_load
                 : 0.0);
  json.end_object();
  json.key("collective_p256");
  json.begin_object();
  json.field("apps", std::uint64_t{6});
  json.field("events", coll_events);
  json.field("ring_p2p_events", coll_ring_p2p);
  json.field("bruck_p2p_events", coll_bruck_p2p);
  json.field("lower_seconds", coll_lower);
  json.field("analytic_replay_seconds", coll_analytic);
  json.field("ring_replay_seconds", coll_ring);
  json.field("bruck_replay_seconds", coll_bruck);
  json.field("ring_replay_overhead",
             coll_analytic > 0.0 && coll_ring >= 0.0 ? coll_ring / coll_analytic
                                                     : 0.0);
  json.field("bruck_replay_overhead",
             coll_analytic > 0.0 && coll_bruck >= 0.0
                 ? coll_bruck / coll_analytic
                 : 0.0);
  json.end_object();
  json.key("synth_p256");
  json.begin_object();
  json.field("app", "pmemd");
  json.field("signatures", synth_signatures);
  json.field("search_seconds", synth_search);
  json.field("synth_model_cost_s", synth_model_cost);
  json.field("auto_model_cost_s", synth_auto_model_cost);
  json.field("model_cost_delta",
             synth_auto_model_cost > 0.0
                 ? (synth_auto_model_cost - synth_model_cost) /
                       synth_auto_model_cost
                 : 0.0);
  json.field("synth_replay_makespan_s", synth_makespan);
  json.field("auto_replay_makespan_s", synth_auto_makespan);
  json.field("replay_delta",
             synth_auto_makespan > 0.0 && synth_makespan >= 0.0
                 ? (synth_auto_makespan - synth_makespan) /
                       synth_auto_makespan
                 : 0.0);
  json.end_object();
  json.end_object();
  json.finish();
  std::cout << "BENCH_batch_sweep.json: " << configs.size() << " jobs, "
            << seq << " s sequential, " << par << " s batched ("
            << (par > 0.0 ? seq / par : 0.0) << "x); P=256 engines: "
            << threads256 << " s threads vs " << fibers256
            << " s fibers; store: " << cold << " s cold vs " << warm
            << " s warm (" << warm_hits << " hits); trace P=1024 load: "
            << trace_text_load << " s text vs " << trace_bin_load
            << " s binary vs " << trace_mmap_load << " s mmap ("
            << (trace_text_load > 0.0 && trace_mmap_load > 0.0
                    ? trace_text_load / trace_mmap_load
                    : 0.0)
            << "x); collective P=256 torus replay: " << coll_analytic
            << " s analytic vs " << coll_ring << " s ring vs " << coll_bruck
            << " s bruck (+" << coll_ring_p2p << "/+" << coll_bruck_p2p
            << " P2P events, lowering " << coll_lower
            << " s); synth pmemd P=256: " << synth_signatures
            << " signatures searched in " << synth_search
            << " s, model cost " << synth_model_cost << " s vs auto "
            << synth_auto_model_cost << " s, replay " << synth_makespan
            << " s vs auto " << synth_auto_makespan << " s\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_batch_sweep_datapoint();
  return 0;
}
