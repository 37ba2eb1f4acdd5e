/// \file replay_traces.cpp
/// Trace a paper application, then replay its communication stream on a
/// chosen network model with the partitioned-clock parallel replay — the
/// driver that opens the P=1024/4096 traces the fiber engine produces.
///
/// With --network hfast the fabric is provisioned from the trace's own P2P
/// topology. --cores-per-node > 1 packs tasks onto nodes, provisions the
/// node-level quotient fabric and prices co-resident traffic on the node
/// backplane. A lowering --collective-schedule expands each collective into
/// P2P events that ride (and contend on) that fabric, which stays
/// provisioned from the original trace; synth searches the schedule IR per
/// (call, payload) under the target topology's hop function and is never
/// worse than auto's pick. --reconfig-windows W (task-level hfast only)
/// partitions the trace into W windows, re-provisions the fabric from each
/// window's active circuit set, and stalls every rank for the
/// reconfiguration cost at each window boundary whose circuit set changed.
/// --trace-format defaults by extension (".htrc" is binary, anything else
/// text), with the file's leading magic as a load-time tiebreaker.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "hfast/analysis/experiment.hpp"
#include "hfast/analysis/smp.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_reconfig.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/trace/window.hpp"

using namespace hfast;

namespace {

/// Owns the topology/fabric a network model borrows, so the model can
/// outlive this scope safely.
struct NetworkBundle {
  std::unique_ptr<topo::FullyConnected> fcn;
  std::unique_ptr<topo::MeshTorus> torus;
  std::unique_ptr<topo::FatTree> tree;
  std::optional<core::Provisioned> prov;
  std::optional<analysis::SmpNetworkBundle> smp;
  std::unique_ptr<netsim::Network> net;
};

NetworkBundle build_network(const std::string& kind, const trace::Trace& t,
                            const core::SmpConfig& smp) {
  const int n = t.nranks();
  const netsim::LinkParams link;
  NetworkBundle b;
  if (kind == "fcn") {
    b.fcn = std::make_unique<topo::FullyConnected>(n);
    b.net = std::make_unique<netsim::DirectNetwork>(*b.fcn, link);
  } else if (kind == "torus") {
    b.torus = std::make_unique<topo::MeshTorus>(
        topo::MeshTorus::balanced_dims(n, 3), true);
    b.net = std::make_unique<netsim::DirectNetwork>(*b.torus, link);
  } else if (kind == "fattree") {
    b.tree = std::make_unique<topo::FatTree>(n, 16);
    b.net = std::make_unique<netsim::FatTreeNetwork>(*b.tree, link);
  } else if (kind == "hfast") {
    // Provision the fabric from the trace's own communication topology —
    // exactly what the paper's HFAST evaluation does with IPM data.
    trace::WindowOptions sends_only;
    sends_only.expand_collectives = false;
    const graph::CommGraph g =
        std::move(trace::windowed_graphs(t, 1, sends_only).front());
    if (smp.aggregates()) {
      // SMP mode: pack tasks onto nodes, provision the quotient fabric,
      // and replay with co-resident traffic priced on the node backplane.
      b.smp = analysis::make_smp_network(g, smp, link);
      std::cout << "smp: " << smp.cores_per_node << " cores/node ("
                << core::packing_name(smp.packing) << " packing), "
                << b.smp->net->num_nodes() << " nodes, backplane absorbs "
                << b.smp->backplane_bytes << " bytes\n";
      b.net = std::move(b.smp->net);
    } else {
      b.prov = core::provision_greedy(g, {.cutoff = 0});
      b.net = std::make_unique<netsim::FabricNetwork>(b.prov->fabric, link,
                                                      50e-9);
    }
  }
  return b;
}

std::string parse_network(std::string_view name) {
  for (const char* kind : {"fcn", "torus", "fattree", "hfast"}) {
    if (name == kind) return kind;
  }
  throw Error("unknown network model '" + std::string(name) +
              "' (expected fcn|torus|fattree|hfast)");
}

void print_result(const char* label, const netsim::ReplayResult& r,
                  double seconds) {
  // max_digits10 so result lines from separate invocations (e.g. the same
  // trace loaded from text vs HTRC) can be diffed for exact parity.
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << label << ": makespan=" << r.makespan_s
            << " s, recv_wait=" << r.total_recv_wait_s
            << " s, messages=" << r.messages << ", bytes=" << r.bytes
            << ",\n  avg_latency=" << r.avg_message_latency_s
            << " s, max_latency=" << r.max_message_latency_s
            << " s, avg_hops=" << r.avg_switch_hops
            << ", max_hops=" << r.max_switch_hops << "\n";
  std::cerr << label << ": " << seconds << " s wall\n";
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 64;
  std::string app = "cactus";
  std::string network = "torus";
  std::string save_file, load_file, schedule_cache_dir;
  std::optional<trace::TraceFormat> trace_format;
  mpisim::EngineKind engine = mpisim::EngineKind::kFibers;
  core::SmpConfig smp;
  collective::CollectiveConfig coll;
  core::ReconfigConfig reconfig;
  int replay_threads = 0;
  bool verify = false;
  std::uint64_t seed = 1;
  int iterations = 0;
  store::Cli cli("replay_traces",
                 "Trace one paper app (or load a saved trace) and replay it "
                 "on a network model.");
  cli.ranks(nranks, "trace concurrency (default 64)")
      .option("--app", app,
              [](std::string_view name) { return apps::find(name).info.name; },
              "NAME", "application kernel to trace (default cactus)")
      .engine(engine)
      .option("--network", network, parse_network, "fcn|torus|fattree|hfast",
              "replay substrate (default torus)")
      .smp(smp)
      .collective(coll)
      .option("--schedule-cache", schedule_cache_dir, "DIR",
              "durable memo for synthesized schedules (with "
              "--collective-schedule synth)")
      .reconfig(reconfig)
      .option("--replay-threads", replay_threads, 0, 1024, "K",
              "replay shards: 1 = serial, >1 = partitioned-clock parallel, "
              "0 = hardware concurrency (default 0)")
      .flag("--verify", verify,
            "also run the serial replay and require an exactly equal "
            "ReplayResult (bitwise double equality)")
      .option("--seed", seed, "S", "experiment seed (default 1)")
      .option("--iterations", iterations, 0, store::Cli::kMaxCount, "N",
              "steady-state iterations (0 = the kernel's default)")
      .option("--save", save_file, "FILE",
              "write the generated trace and continue")
      .option("--load", load_file, "FILE",
              "replay a saved trace instead of generating one")
      .option("--trace-format", trace_format, store::trace_format_arg,
              "text|bin", "format for --save/--load (default by extension)");
  return cli.run(argc, argv, [&] {
    if (smp.aggregates() && network != "hfast") {
      throw Error("--cores-per-node > 1 requires --network hfast");
    }
    if (reconfig.adapts()) {
      if (network != "hfast") {
        throw Error("--reconfig-windows requires --network hfast");
      }
      if (smp.aggregates()) {
        throw Error(
            "--reconfig-windows models the task-level fabric; it cannot be "
            "combined with --cores-per-node > 1");
      }
    }
    trace::Trace t;
    if (!load_file.empty()) {
      t = trace::load_trace_file(load_file, trace_format);
      std::cout << "loaded " << load_file << ": P=" << t.nranks() << ", "
                << t.events().size() << " events\n";
    } else {
      if (engine == mpisim::EngineKind::kFibers &&
          !mpisim::fibers_supported()) {
        std::cerr << "fibers unsupported in this build; using threads\n";
        engine = mpisim::EngineKind::kThreads;
      }
      analysis::ExperimentConfig cfg;
      cfg.app = app;
      cfg.nranks = nranks;
      cfg.engine = engine;
      cfg.seed = seed;
      cfg.iterations = iterations;
      const auto started = std::chrono::steady_clock::now();
      auto result = analysis::run_experiment(cfg);
      const double trace_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      t = std::move(result.trace);
      std::cout << app << " @ P=" << nranks << " ("
                << mpisim::engine_name(engine) << "): " << t.events().size()
                << " events traced\n";
      std::cerr << "traced in " << trace_s << " s\n";
    }
    if (!save_file.empty()) {
      trace::save_trace_file(t, save_file, trace_format);
      std::cout << "saved trace to " << save_file << " ("
                << trace::trace_format_name(trace_format.value_or(
                       trace::format_for_path(save_file)))
                << ")\n";
    }

    auto bundle = build_network(network, t, smp);
    netsim::Network& net = *bundle.net;
    if (coll.lowers()) {
      // The fabric above was provisioned from the ORIGINAL trace (matching
      // the paper's IPM-driven evaluation); the lowered P2P collective
      // traffic then rides that fabric.
      collective::LowerOptions opts;
      opts.config = coll;
      if (smp.aggregates()) {
        opts.node_of_rank.resize(static_cast<std::size_t>(t.nranks()));
        for (int r = 0; r < t.nranks(); ++r) {
          opts.node_of_rank[static_cast<std::size_t>(r)] =
              r / smp.cores_per_node;
        }
      }
      opts.hops = [&net](int a, int b) {
        net.prewarm_route(a, b);
        return net.switch_hops(a, b);
      };
      std::unique_ptr<store::ScheduleCache> sched_cache;
      if (!schedule_cache_dir.empty() &&
          coll.schedule == collective::ScheduleKind::kSynth) {
        sched_cache = std::make_unique<store::ScheduleCache>(schedule_cache_dir);
        opts.synth_memo = sched_cache.get();
      }
      auto lowered = collective::lower_trace(t, opts);
      std::cout << "lowered " << lowered.stats.collective_events
                << " collective events (" << lowered.stats.instances
                << " instances, " << lowered.stats.schedules
                << " schedules) into " << lowered.stats.p2p_events
                << " P2P events, " << lowered.stats.bytes << " bytes ["
                << collective::schedule_name(coll.schedule) << "]\n";
      if (sched_cache) {
        const store::CacheCounters c = sched_cache->counters();
        std::cout << "schedule cache: " << c.hits << " hits, " << c.misses
                  << " misses (" << c.corrupt_misses << " corrupt), "
                  << c.stores << " stores\n";
      }
      t = std::move(lowered.trace);
    }
    if (reconfig.adapts()) {
      // The adaptive path builds its own per-window fabrics; the static
      // bundle above only served as the lowering hops oracle.
      netsim::ReconfigReplayOptions ropts;
      ropts.config = reconfig;
      ropts.shards = replay_threads;
      std::cout << "reconfigurable replay: " << reconfig.num_windows
                << " windows, hysteresis " << reconfig.hysteresis_windows
                << ", "
                << (replay_threads == 1
                        ? std::string("serial windows")
                        : std::to_string(replay_threads) +
                              " shards per window (0 = auto)")
                << "\n";
      const auto [rr, rr_s] = [&] {
        const auto start = std::chrono::steady_clock::now();
        netsim::ReconfigReplayResult r = netsim::reconfigurable_replay(t, ropts);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return std::pair<netsim::ReconfigReplayResult, double>(std::move(r), s);
      }();
      std::cout.precision(std::numeric_limits<double>::max_digits10);
      for (const netsim::WindowReplay& w : rr.windows) {
        std::cout << "  window " << w.window << ": makespan="
                  << w.result.makespan_s << " s, messages="
                  << w.result.messages << ", circuits=" << w.circuits_active
                  << (w.reconfigured ? " (reconfigured)" : "") << "\n";
      }
      std::cout << "plan: " << rr.reconfigurations << " reconfigurations, "
                << rr.stall_seconds << " s stalled, peak "
                << rr.plan.peak_circuits << " circuits vs static "
                << rr.plan.static_circuits << " (drain tears down "
                << rr.plan.drain_removed << ")\n";
      print_result("adaptive total", rr.total, rr_s);
      if (verify) {
        ropts.shards = 1;
        const netsim::ReconfigReplayResult serial =
            netsim::reconfigurable_replay(t, ropts);
        if (!(serial.total == rr.total)) {
          std::cerr << "PARITY FAILURE: sharded reconfigurable replay differs "
                       "from serial\n";
          return EXIT_FAILURE;
        }
        std::cout << "verify: exact match across window shard counts\n";
      }
      return 0;
    }

    std::cout << "replaying on " << net.name() << " with "
              << (replay_threads == 1 ? std::string("the serial replay")
                                      : std::to_string(replay_threads) +
                                            " shards (0 = auto)")
              << "\n";

    const auto run = [&](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      netsim::ReplayResult r = fn();
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      return std::pair<netsim::ReplayResult, double>(r, s);
    };

    const auto [parallel, parallel_s] = run(
        [&] { return netsim::replay(t, net, {}, {.shards = replay_threads}); });
    print_result(replay_threads == 1 ? "serial" : "parallel", parallel,
                 parallel_s);

    if (verify) {
      const auto [serial, serial_s] = run([&] { return netsim::replay(t, net); });
      print_result("serial (verify)", serial, serial_s);
      if (!(serial == parallel)) {
        std::cerr << "PARITY FAILURE: parallel result differs from serial\n";
        return EXIT_FAILURE;
      }
      std::cout << "verify: exact match\n";
      std::cerr << "verify: serial " << serial_s << " s vs parallel "
                << parallel_s << " s\n";
    }
    return 0;
  });
}
