/// \file collective_sweep.cpp
/// The collective-lowering headline artifact: every schedule family applied
/// to all six paper applications, replayed on the four network substrates
/// (FCN, 3-D torus, fat-tree, and the HFAST fabric provisioned from each
/// app's own P2P topology). Two effects the analytic dedicated-tree formula
/// cannot show:
///
///   * lowering puts collective traffic on the *provisioned circuits*, so
///     the communication graph gains edges — the TDC columns show how much
///     circuit demand each schedule family adds over the paper's P2P-only
///     graph (at the standard 2 KB cutoff);
///   * schedule choice changes replay time per topology — ring trades
///     latency for contiguity, butterflies the reverse — and `auto` picks
///     per collective from the topology's own hop function.
///
/// The stats/TDC columns come from a topology-blind lowering (`auto` there
/// uses the 1-hop default cost); the per-network replay columns re-lower
/// `auto` and `synth` against each network's hop function, which is the
/// whole point of the selector/search.
///
/// --check validates the lowering invariants and exits nonzero on
/// violation (the CI smoke contract):
///   * analytic lowering is the identity (same event columns, zero
///     expansion stats);
///   * every lowering schedule expands at least one collective into P2P
///     events;
///   * on every network, the serial and 4-shard partitioned-clock replays
///     of every lowered trace agree bit-for-bit;
///   * per distinct (call, payload) signature and network: the synthesized
///     schedule passes the chunk-algebra validator and its modeled cost is
///     <= the auto selector's pick under the same hop function.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hfast/analysis/batch.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/collective/verify.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/window.hpp"
#include "hfast/util/table.hpp"

using namespace hfast;

namespace {

/// The four replay substrates, with the HFAST fabric provisioned from the
/// ORIGINAL trace's P2P topology — lowered collective traffic then rides
/// (or misses) those circuits.
struct AppNetworks {
  std::unique_ptr<topo::FullyConnected> fcn;
  std::unique_ptr<topo::MeshTorus> torus;
  std::unique_ptr<topo::FatTree> tree;
  std::optional<core::Provisioned> prov;
  std::vector<std::unique_ptr<netsim::Network>> nets;
};

/// Graph options that keep only point-to-point sends: one window of them
/// is a trace's send graph.
trace::WindowOptions sends_only() {
  trace::WindowOptions o;
  o.expand_collectives = false;
  return o;
}

/// Distinct (call, payload) collective signatures of a trace, matched
/// positionally across ranks exactly as lower_trace matches them (payload =
/// max event bytes across ranks at the same instance position).
std::vector<std::pair<mpisim::CallType, std::uint64_t>> collective_signatures(
    const trace::Trace& t) {
  const int n = t.nranks();
  std::vector<std::vector<std::size_t>> at(static_cast<std::size_t>(n));
  std::vector<trace::EventSpan> spans;
  for (int r = 0; r < n; ++r) {
    spans.push_back(t.rank_events(r));
    const trace::EventSpan& s = spans.back();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.kind(i) == trace::EventKind::kCollective) {
        at[static_cast<std::size_t>(r)].push_back(i);
      }
    }
  }
  std::vector<std::pair<mpisim::CallType, std::uint64_t>> out;
  for (std::size_t k = 0; k < at[0].size(); ++k) {
    const mpisim::CallType call = spans[0].call(at[0][k]);
    std::uint64_t payload = 0;
    for (int r = 0; r < n; ++r) {
      payload = std::max(
          payload,
          spans[static_cast<std::size_t>(r)].bytes(at[static_cast<std::size_t>(
              r)][k]));
    }
    const auto sig = std::make_pair(call, payload);
    if (std::find(out.begin(), out.end(), sig) == out.end()) {
      out.push_back(sig);
    }
  }
  return out;
}

AppNetworks build_networks(const trace::Trace& t) {
  const int n = t.nranks();
  const netsim::LinkParams link;
  AppNetworks b;
  b.fcn = std::make_unique<topo::FullyConnected>(n);
  b.nets.push_back(std::make_unique<netsim::DirectNetwork>(*b.fcn, link));
  b.torus = std::make_unique<topo::MeshTorus>(
      topo::MeshTorus::balanced_dims(n, 3), true);
  b.nets.push_back(std::make_unique<netsim::DirectNetwork>(*b.torus, link));
  b.tree = std::make_unique<topo::FatTree>(n, 16);
  b.nets.push_back(std::make_unique<netsim::FatTreeNetwork>(*b.tree, link));
  b.prov = core::provision_greedy(
      trace::windowed_graphs(t, 1, sends_only()).front(), {.cutoff = 0});
  b.nets.push_back(
      std::make_unique<netsim::FabricNetwork>(b.prov->fabric, link, 50e-9));
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 64;
  int cores_per_node = 4;
  bool check = false;
  analysis::BatchOptions opts;
  mpisim::EngineKind engine = mpisim::EngineKind::kFibers;
  store::CacheCli cache;
  std::string schedule_cache_dir;
  store::Cli cli("collective_sweep",
                 "Every collective schedule family on the six paper apps, "
                 "replayed on FCN,\ntorus, fat-tree and the provisioned "
                 "HFAST fabric.");
  cli.ranks(nranks, "tasks per application (default 64)")
      .engine(engine)
      .threads(opts.thread_budget)
      .option("--cores-per-node", cores_per_node, 1, store::Cli::kMaxCount,
              "C",
              "SMP node map fed to the hierarchical family and the selector "
              "(default 4; 1 degenerates hierarchical to the flat defaults)")
      .option("--schedule-cache", schedule_cache_dir, "DIR",
              "durable memo for the synth rows; a second run loads every "
              "synthesized schedule instead of re-searching")
      .flag("--check", check,
            "validate the lowering invariants; exit 1 on violation");
  cache.bind(cli);
  return cli.run(argc, argv, [&] {
    const auto cache_store = cache.open(std::cerr);
    opts.result_store = cache_store.get();
    std::unique_ptr<store::ScheduleCache> sched_cache;
    if (!schedule_cache_dir.empty()) {
      sched_cache = std::make_unique<store::ScheduleCache>(schedule_cache_dir);
    }

    const std::vector<std::string> kApps{"cactus",  "gtc",   "lbmhd",
                                         "superlu", "pmemd", "paratec"};

    std::vector<analysis::ExperimentConfig> configs;
    std::vector<std::string> names;
    for (const std::string& app : kApps) {
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

    // Lowering schedules in sweep order: everything but the analytic baseline
    // (which is row 0 of each app's group) and with `auto` last.
    std::vector<collective::ScheduleKind> kinds;
    for (collective::ScheduleKind k : collective::all_schedule_kinds()) {
      if (k != collective::ScheduleKind::kAnalytic) kinds.push_back(k);
    }

    std::vector<int> node_of_rank;
    if (cores_per_node > 1) {
      node_of_rank.resize(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        node_of_rank[static_cast<std::size_t>(r)] = r / cores_per_node;
      }
    }

    util::Table table({"app", "schedule", "+p2p events", "+bytes", "TDC@2k",
                       "dTDC", "fcn ms", "d%", "torus ms", "d%", "fattree ms",
                       "d%", "hfast ms", "d%"});

    for (std::size_t a = 0; a < names.size(); ++a) {
      const trace::Trace& t = batch.results[a]->trace;
      const AppNetworks nets = build_networks(t);

      if (check) {
        collective::LowerOptions identity;  // default config: kAnalytic
        const auto lowered = collective::lower_trace(t, identity);
        if (lowered.stats.p2p_events != 0 || !(lowered.trace.events() ==
                                               t.events())) {
          fail(names[a] + ": analytic lowering is not the identity");
        }
      }

      // Baseline: the analytic replay of the original trace.
      const graph::TdcStats base_tdc =
          graph::tdc(trace::windowed_graphs(t, 1, sends_only()).front(),
                     graph::kBdpCutoffBytes);
      std::vector<double> base_ms;
      table.row().add(names[a]).add("analytic").add(std::uint64_t{0})
          .add(std::uint64_t{0}).add(base_tdc.max).add(0);
      for (const auto& net : nets.nets) {
        const auto r = netsim::replay(t, *net);
        base_ms.push_back(r.makespan_s);
        table.add(r.makespan_s * 1e3, 3).add("-");
        if (check) {
          const auto par = netsim::replay(t, *net, {}, {.shards = 4});
          if (!(r == par)) {
            fail(names[a] + " analytic on " + net->name() +
                 ": serial/parallel parity");
          }
        }
      }

      if (check) {
        // Synth contract per distinct (call, payload) signature and network:
        // the synthesized schedule proves out under the chunk-algebra
        // validator, and its modeled cost never exceeds the auto selector's
        // pick under the same hop function.
        const auto sigs = collective_signatures(t);
        for (std::size_t ni = 0; ni < nets.nets.size(); ++ni) {
          netsim::Network& net = *nets.nets[ni];
          collective::SynthesisOptions sopts;
          sopts.node_of_rank = node_of_rank;
          sopts.hops = [&net](int x, int y) {
            net.prewarm_route(x, y);
            return net.switch_hops(x, y);
          };
          for (const auto& [call, payload] : sigs) {
            const auto synth =
                collective::synthesize(call, t.nranks(), payload, sopts);
            const std::string cell = names[a] + " " +
                                     std::string(mpisim::call_name(call)) +
                                     "/" + std::to_string(payload) + "B on " +
                                     net.name();
            try {
              collective::validate_schedule(synth.schedule);
            } catch (const std::exception& e) {
              fail(cell + ": synthesized schedule invalid: " + e.what());
            }
            if (synth.cost > synth.auto_cost) {
              fail(cell + ": synth cost " + std::to_string(synth.cost) +
                   " exceeds auto cost " + std::to_string(synth.auto_cost));
            }
          }
        }
      }

      for (collective::ScheduleKind kind : kinds) {
        collective::LowerOptions lopts;
        lopts.config.schedule = kind;
        lopts.node_of_rank = node_of_rank;
        // Topology-blind lowering for the stats/TDC columns (and the replay
        // of every concrete family — their schedules don't read the network).
        const auto lowered = collective::lower_trace(t, lopts);
        if (check && lowered.stats.p2p_events == 0) {
          fail(names[a] + " [" +
               std::string(collective::schedule_name(kind)) +
               "]: lowering expanded nothing");
        }
        const graph::TdcStats tdc = graph::tdc(
            trace::windowed_graphs(lowered.trace, 1, sends_only()).front(),
            graph::kBdpCutoffBytes);
        table.row().add(names[a]).add(
            std::string(collective::schedule_name(kind)));
        table.add(lowered.stats.p2p_events).add(lowered.stats.bytes)
            .add(tdc.max).add(tdc.max - base_tdc.max);

        for (std::size_t ni = 0; ni < nets.nets.size(); ++ni) {
          netsim::Network& net = *nets.nets[ni];
          const trace::Trace* replayed = &lowered.trace;
          collective::LowerResult per_net;
          if (kind == collective::ScheduleKind::kAuto ||
              kind == collective::ScheduleKind::kSynth) {
            // The selector's (and the synthesizer's) output depends on the
            // topology: re-lower with this network's hop function.
            collective::LowerOptions aopts = lopts;
            aopts.hops = [&net](int x, int y) {
              net.prewarm_route(x, y);
              return net.switch_hops(x, y);
            };
            if (kind == collective::ScheduleKind::kSynth) {
              aopts.synth_memo = sched_cache.get();
            }
            per_net = collective::lower_trace(t, aopts);
            replayed = &per_net.trace;
          }
          const auto r = netsim::replay(*replayed, net);
          table.add(r.makespan_s * 1e3, 3)
              .add((r.makespan_s / base_ms[ni] - 1.0) * 100.0, 1);
          if (check) {
            const auto par =
                netsim::replay(*replayed, net, {}, {.shards = 4});
            if (!(r == par)) {
              fail(names[a] + " [" +
                   std::string(collective::schedule_name(kind)) + "] on " +
                   net.name() + ": serial/parallel parity");
            }
          }
        }
      }
    }

    util::print_banner(
        std::cout, "Collective lowering sweep @ P=" + std::to_string(nranks) +
                       ", " + std::to_string(cores_per_node) +
                       " cores/node: schedule x topology");
    table.print(std::cout);
    std::cout << "\nd% is replay-makespan change vs the analytic baseline on "
                 "the same network;\ndTDC is max-TDC growth of the 2 KB-cutoff "
                 "communication graph once collective\ntraffic rides the "
                 "circuits. `auto` and `synth` re-lower per network via its "
                 "hop\nfunction (synth searches the schedule IR, never worse "
                 "than auto's pick).\n";
    if (sched_cache) {
      const store::CacheCounters sc = sched_cache->counters();
      std::cout << "schedule cache: " << sc.hits << " hits, " << sc.misses
                << " misses (" << sc.corrupt_misses << " corrupt), "
                << sc.stores << " stores\n";
    }
    std::cerr << "batch: " << names.size() << " captures in "
              << batch.wall_seconds << " s under a " << runner.thread_budget()
              << "-thread budget\n";
    store::CacheCli::report_batch(std::cout, std::cerr, batch,
                                  cache_store.get());

    if (!check) return 0;
    if (failures != 0) {
      std::cerr << failures << " invariant(s) violated\n";
      return EXIT_FAILURE;
    }
    std::cout << "check: all collective-lowering invariants hold\n";
    return 0;
  });
}
