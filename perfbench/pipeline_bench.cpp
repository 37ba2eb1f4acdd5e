/// \file pipeline_bench.cpp
/// Benchmark of record for the trace -> provision -> lower -> replay
/// pipeline. README.md in this directory says why each workload exists,
/// which layer metric should move which end-to-end metric, and how to run
/// the traced mode.
///
/// One process runs one workload. Set-up generates the workload's traces
/// with the fiber engine (one OS thread, deterministic) several times,
/// keeping the last set. The measured phase then runs the workload's fixed
/// batch of cells — a cell is one (app, P, fabric, replay mode) — in passes
/// of a second or two until --seconds have elapsed; --seed picks the order
/// of the apps in a pass. Every call into a library layer is timed from
/// here; no library code is instrumented. Every cell's outputs are checked:
/// sharded replays against the serial result, warm schedule-cache lowerings
/// against the cold one, and the cell's digest against the one pinned in
/// digests.txt. A cell that throws or fails a check is a failed operation.
///
/// Usage: pipeline_bench --workload NAME --seed N --seconds S [--trace 0|1]
///                       [--smoke] [--digests FILE] [--work-dir DIR]
///                       [--commit TEXT] [--print-digests]
///
/// Prints two JSON lines on stdout: the run's record (noise diagnostics,
/// per-pass times, cell digests), then the result {"correct", "attempted",
/// "failed", "metrics"}. A traced run (--trace 1) also writes its spans to
/// <work-dir>/spans-<workload>-<seed>-<pid>.json.

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/graph/tdc.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_parallel.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/util/hash.hpp"
#include "hfast/util/json.hpp"

using namespace hfast;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: pipeline_bench --workload NAME --seed N --seconds S "
    "[--trace 0|1]\n"
    "                      [--smoke] [--digests FILE] [--work-dir DIR]\n"
    "                      [--commit TEXT] [--print-digests]\n"
    "workloads: hfast_dense wide_sparse dense_sharded collective_synth\n";

// ---------------------------------------------------------------- workloads

enum class Workload { kHfastDense, kWideSparse, kDenseSharded, kCollectiveSynth };

struct WorkloadSpec {
  Workload id;
  std::string_view name;
  std::vector<std::string> apps;
  int nranks = 0;        ///< full size: a cell takes 0.02-0.2 s
  int smoke_nranks = 0;  ///< --smoke size
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {Workload::kHfastDense, "hfast_dense", {"superlu", "pmemd"}, 64, 16},
      {Workload::kWideSparse, "wide_sparse", {"cactus", "gtc"}, 512, 64},
      {Workload::kDenseSharded, "dense_sharded", {"superlu", "pmemd"}, 64, 16},
      {Workload::kCollectiveSynth,
       "collective_synth",
       {"gtc", "superlu", "pmemd"},
       64,
       16},
  };
  return specs;
}

/// Replay shards of every sharded cell. Two threads at most, so a phase
/// never competes with itself for the cores of a small host.
constexpr int kShards = 2;

/// Set-up generates the traces at least kSetups times and until
/// kSetupSeconds have passed; setup_s is the median generation.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 2.0;

/// Fiber scheduler seed of trace generation. It is fixed so that every
/// --seed does the same work: other scheduler seeds give gtc other traces,
/// whose P=2048 replays cost a third more CPU and 128 MiB more peak RSS.
/// --seed picks the order in which a pass runs the workload's apps.
constexpr std::uint64_t kFiberSeed = 1;

// ---------------------------------------------------------------- CLI

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool smoke = false;
  bool print_digests = false;
  std::string digests;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "pipeline_bench: " << message << "\n" << kUsage;
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < lo || v > hi) {
    usage_error("malformed " + std::string(flag) + " '" + std::string(text) +
                "' (expected an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "])");
  }
  return v;
}

Options parse_cli(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage_error("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string_view name = value();
      for (const WorkloadSpec& w : workloads()) {
        if (w.name == name) o.workload = &w;
      }
      if (o.workload == nullptr) {
        usage_error("unknown workload '" + std::string(name) + "'");
      }
    } else if (arg == "--seed") {
      o.seed = parse_number<std::uint64_t>(arg, value(), 0, UINT64_MAX);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = parse_number<int>(arg, value(), 1, 3600);
    } else if (arg == "--trace") {
      o.trace = parse_number<int>(arg, value(), 0, 1) == 1;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--print-digests") {
      o.print_digests = true;
    } else if (arg == "--digests") {
      o.digests = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else {
      usage_error("unexpected argument '" + std::string(arg) + "'");
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (o.seconds == 0) usage_error("--seconds is required");
  return o;
}

// ---------------------------------------------------------------- host probes

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// VmHWM (peak resident set) in MiB, from /proc/self/status.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw Error("VmHWM not found in /proc/self/status");
}

/// Start a fresh peak-RSS window: "5" resets VmHWM to the current RSS.
void reset_vm_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw Error("cannot reset VmHWM through /proc/self/clear_refs");
}

/// Aggregate "cpu" line of /proc/stat: total and steal jiffies.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += field < 8 ? v : 0;  // guest time is already inside user/nice
    if (field == 7) t.steal = v;
  }
  return t;
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double v = -1.0;
  in >> v;
  return v;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. A span covers one call into a library layer
/// (or a whole cell); spans are written out when the run ends.
class Tracer {
 public:
  static constexpr int kSetupPass = -2;      ///< first trace generation;
                                             ///< generation g is -2 - g
  static constexpr int kReferencePass = -1;  ///< serial references

  struct Span {
    std::string_view name;
    int pass = 0;
    int cell = -1;
    int parent = -1;
    double start_s = 0.0;  ///< since the tracer was created
    double end_s = 0.0;
    double cpu_s = 0.0;  ///< process CPU consumed inside the span
  };

  int open(std::string_view name, int cell) {
    Span s;
    s.name = name;
    s.pass = pass_;
    s.cell = cell;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cpu_s = process_cpu_s();
    s.start_s = since_origin();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = since_origin();
    s.cpu_s = process_cpu_s() - s.cpu_s;
    stack_.pop_back();
  }

  void set_pass(int pass) { pass_ = pass; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double since_origin() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int pass_ = 0;
};

/// RAII span; a no-op when tracing is off for the current pass.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, int cell)
      : tracer_(tracer), id_(tracer ? tracer->open(name, cell) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

template <typename F>
auto timed(Tracer* tracer, std::string_view name, int cell, F&& fn) {
  Scope scope(tracer, name, cell);
  return fn();
}

// ---------------------------------------------------------------- checking

/// FNV-1a over the simulated outputs of one cell.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::array<std::byte, 8> b{};
    for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = std::byte(v >> (8 * i));
    state_ = util::fnv1a64(b, state_);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }

  void add(const netsim::ReplayResult& r) {
    add(r.makespan_s);
    add(r.total_recv_wait_s);
    add(r.messages);
    add(r.bytes);
    add(r.avg_message_latency_s);
    add(r.max_message_latency_s);
    add(r.avg_switch_hops);
    add(r.max_switch_hops);
  }
  void add(const collective::LowerStats& s) {
    add(static_cast<std::uint64_t>(s.instances));
    add(static_cast<std::uint64_t>(s.collective_events));
    add(static_cast<std::uint64_t>(s.p2p_events));
    add(static_cast<std::uint64_t>(s.schedules));
    add(s.bytes);
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = util::kFnv1a64Offset;
};

/// An exactness violation fails the cell like an exception from the library.
void check(bool ok, const std::string& what) {
  if (!ok) throw Error(what);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- cells

struct AppTrace {
  std::string app;
  trace::Trace trace;
};

/// A network model with the topology or fabric it borrows.
struct Net {
  std::unique_ptr<topo::MeshTorus> torus;
  std::unique_ptr<topo::FatTree> tree;
  std::unique_ptr<netsim::Network> net;
};

Net build_torus(int n) {
  Net b;
  b.torus = std::make_unique<topo::MeshTorus>(
      topo::MeshTorus::balanced_dims(n, 3), true);
  b.net = std::make_unique<netsim::DirectNetwork>(*b.torus, netsim::LinkParams{});
  return b;
}

Net build_fat_tree(int n) {
  Net b;
  b.tree = std::make_unique<topo::FatTree>(n, 16);
  b.net = std::make_unique<netsim::FatTreeNetwork>(*b.tree, netsim::LinkParams{});
  return b;
}

/// Distinct (src, dst) pairs with a traced cross-rank send.
std::vector<std::pair<int, int>> traced_pairs(const trace::Trace& t) {
  const int n = t.nranks();
  std::vector<char> seen(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  std::vector<std::pair<int, int>> pairs;
  const trace::EventColumns& c = t.columns();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] != trace::EventKind::kSend || c.peer[i] == c.rank[i] ||
        c.peer[i] < 0) {
      continue;
    }
    char& s = seen[static_cast<std::size_t>(c.rank[i]) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(c.peer[i])];
    if (s == 0) {
      s = 1;
      pairs.emplace_back(c.rank[i], c.peer[i]);
    }
  }
  return pairs;
}

/// Deterministic work counts of one pass (the same on every pass).
struct Counts {
  std::uint64_t fabric_blocks = 0;
  std::uint64_t routes = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t replay_events = 0;  ///< events fed to serial netsim::replay
  std::uint64_t schedules = 0;
  std::uint64_t p2p_events = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stores = 0;

  void add_replay(const netsim::ReplayResult& r) {
    messages += r.messages;
    bytes += r.bytes;
  }
};

struct CellRecord {
  std::string label;
  std::uint64_t digest = 0;
  std::string error;  ///< empty when the cell ran and passed its checks
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One pass over a workload's batch of cells.
class Pass {
 public:
  Pass(const Options& opts, Tracer* tracer) : opts_(opts), tracer_(tracer) {}

  Tracer* tracer() const { return tracer_; }
  Counts& counts() { return counts_; }
  double wall_s() const { return wall_s_; }  ///< summed over the cells
  double cpu_s() const { return cpu_s_; }
  const std::vector<CellRecord>& cells() const { return cells_; }
  const Options& opts() const { return opts_; }

  /// Run one cell; `body(digest, cell_id)` records the cell's outputs into
  /// the digest and throws on any failure.
  template <typename Body>
  void run_cell(std::string label, Body&& body) {
    const int id = static_cast<int>(cells_.size());
    CellRecord rec;
    rec.label = std::move(label);
    Digest digest;
    // Every cell starts, untimed, from a trimmed heap as a fresh process
    // would; otherwise a cell's allocations may land in memory an earlier
    // cell freed, and the order of the cells would move peak_rss_mb.
    malloc_trim(0);
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    {
      Scope cell(tracer_, "cell", id);
      try {
        body(digest, id);
      } catch (const std::exception& e) {
        rec.error = *e.what() != '\0' ? e.what() : "unnamed exception";
      }
    }
    rec.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    rec.cpu_s = process_cpu_s() - c0;
    wall_s_ += rec.wall_s;
    cpu_s_ += rec.cpu_s;
    rec.digest = digest.value();
    cells_.push_back(std::move(rec));
  }

 private:
  const Options& opts_;
  Tracer* tracer_;
  Counts counts_;
  std::vector<CellRecord> cells_;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

std::string cell_label(const AppTrace& a, std::string_view fabric,
                       std::string_view mode) {
  return a.app + "/" + std::to_string(a.trace.nranks()) + "/" +
         std::string(fabric) + "/" + std::string(mode);
}

/// hfast_dense: the `replay_traces --network hfast` path, layer by layer.
void hfast_dense_pass(Pass& pass, const std::vector<AppTrace>& traces) {
  Tracer* tr = pass.tracer();
  for (const AppTrace& a : traces) {
    pass.run_cell(cell_label(a, "hfast", "serial"), [&](Digest& d, int cell) {
      const trace::Trace& t = a.trace;
      const graph::CommGraph g = timed(tr, "graph.comm_graph", cell, [&] {
        graph::CommGraph out(t.nranks());
        const trace::EventColumns& c = t.columns();
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
              c.peer[i] >= 0) {
            out.add_message(c.rank[i], c.peer[i], c.bytes[i]);
          }
        }
        return out;
      });
      const graph::TdcStats tdc = timed(tr, "graph.tdc", cell, [&] {
        return graph::tdc(g, graph::kBdpCutoffBytes);
      });
      // Cutoff 0, as `replay_traces --network hfast` provisions: every
      // traced partner gets a circuit.
      const core::Provisioned prov = timed(tr, "core.provision", cell, [&] {
        return core::provision_greedy(g, {.cutoff = 0});
      });
      const auto net = timed(tr, "netsim.network_build", cell, [&] {
        return std::make_unique<netsim::FabricNetwork>(
            prov.fabric, netsim::LinkParams{}, 50e-9);
      });
      const auto pairs = traced_pairs(t);
      timed(tr, "netsim.route_prewarm", cell, [&] {
        for (const auto& [src, dst] : pairs) net->prewarm_route(src, dst);
      });
      const netsim::ReplayResult r =
          timed(tr, "netsim.replay", cell, [&] { return netsim::replay(t, *net); });

      d.add(tdc.max);
      d.add(tdc.avg);
      d.add(tdc.median);
      d.add(tdc.min);
      d.add(prov.stats.num_blocks);
      d.add(prov.stats.num_trunks);
      d.add(prov.stats.edges_provisioned);
      d.add(prov.stats.avg_switch_hops);
      d.add(prov.stats.max_switch_hops);
      d.add(static_cast<std::uint64_t>(pairs.size()));
      d.add(r);
      Counts& n = pass.counts();
      n.fabric_blocks += static_cast<std::uint64_t>(prov.stats.num_blocks);
      n.routes += pairs.size();
      n.replay_events += t.events().size();
      n.add_replay(r);
    });
  }
}

/// wide_sparse: serial replay on the torus and the fat-tree, then the
/// K-shard replay on the torus, which must equal the serial torus result.
void wide_sparse_pass(Pass& pass, const std::vector<AppTrace>& traces) {
  Tracer* tr = pass.tracer();
  for (const AppTrace& a : traces) {
    const trace::Trace& t = a.trace;
    std::optional<netsim::ReplayResult> serial_torus;
    for (const bool torus : {true, false}) {
      pass.run_cell(cell_label(a, torus ? "torus" : "fattree", "serial"),
                    [&](Digest& d, int cell) {
                      const Net b = timed(tr, "netsim.network_build", cell, [&] {
                        return torus ? build_torus(t.nranks())
                                     : build_fat_tree(t.nranks());
                      });
                      const netsim::ReplayResult r = timed(
                          tr, "netsim.replay", cell, [&] { return netsim::replay(t, *b.net); });
                      if (torus) serial_torus = r;
                      d.add(r);
                      pass.counts().replay_events += t.events().size();
                      pass.counts().add_replay(r);
                    });
    }
    pass.run_cell(cell_label(a, "torus", "sharded"), [&](Digest& d, int cell) {
      const Net b = timed(tr, "netsim.network_build", cell,
                          [&] { return build_torus(t.nranks()); });
      const netsim::ReplayResult r = timed(tr, "netsim.parallel_replay", cell, [&] {
        return netsim::parallel_replay(t, *b.net, {}, {.shards = kShards});
      });
      check(serial_torus.has_value(), "serial torus reference failed");
      check(r == *serial_torus, "sharded replay differs from serial");
      d.add(r);
      pass.counts().add_replay(r);
    });
  }
}

/// dense_sharded: K-shard replay on the torus, checked bit-for-bit against
/// a serial reference computed before the phase.
void dense_sharded_pass(Pass& pass, const std::vector<AppTrace>& traces,
                        const std::vector<netsim::ReplayResult>& references) {
  Tracer* tr = pass.tracer();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const AppTrace& a = traces[i];
    pass.run_cell(cell_label(a, "torus", "sharded"), [&](Digest& d, int cell) {
      const Net b = timed(tr, "netsim.network_build", cell,
                          [&] { return build_torus(a.trace.nranks()); });
      const netsim::ReplayResult r = timed(tr, "netsim.parallel_replay", cell, [&] {
        return netsim::parallel_replay(a.trace, *b.net, {}, {.shards = kShards});
      });
      check(r == references[i], "sharded replay differs from serial reference");
      d.add(r);
      pass.counts().add_replay(r);
    });
  }
}

/// collective_synth: cold synth lowering into a fresh schedule cache, warm
/// re-lowering from it, auto lowering, and serial replays of both.
void collective_synth_pass(Pass& pass, const std::vector<AppTrace>& traces) {
  Tracer* tr = pass.tracer();
  for (const AppTrace& a : traces) {
    pass.run_cell(cell_label(a, "torus", "lowered"), [&](Digest& d, int cell) {
      const trace::Trace& t = a.trace;
      const Net b = timed(tr, "netsim.network_build", cell,
                          [&] { return build_torus(t.nranks()); });
      netsim::Network& net = *b.net;

      collective::LowerOptions synth;
      synth.config.schedule = collective::ScheduleKind::kSynth;
      synth.hops = [&net](int x, int y) {
        net.prewarm_route(x, y);
        return net.switch_hops(x, y);
      };
      const fs::path dir = fs::path(pass.opts().work_dir) / ("schedule-cache-" + a.app);
      fs::remove_all(dir);
      store::ScheduleCache cache(dir);
      synth.synth_memo = &cache;

      const collective::LowerResult cold = timed(
          tr, "collective.synth_lower", cell, [&] { return collective::lower_trace(t, synth); });
      const store::CacheCounters after_cold = cache.counters();
      const collective::LowerResult warm = timed(
          tr, "store.warm_lower", cell, [&] { return collective::lower_trace(t, synth); });
      const store::CacheCounters after_warm = cache.counters();
      check(after_warm.misses == after_cold.misses,
            "warm schedule-cache pass missed " +
                std::to_string(after_warm.misses - after_cold.misses) + " times");
      check(after_warm.hits - after_cold.hits == after_cold.misses,
            "warm schedule-cache hits differ from the cold pass's misses");
      check(after_warm.store_failures == 0, "schedule cache failed to store");
      check(warm.stats.schedules == cold.stats.schedules &&
                warm.stats.p2p_events == cold.stats.p2p_events &&
                warm.stats.bytes == cold.stats.bytes &&
                warm.trace.columns() == cold.trace.columns(),
            "warm lowering differs from the cold lowering");

      collective::LowerOptions autolower;
      autolower.config.schedule = collective::ScheduleKind::kAuto;
      autolower.hops = synth.hops;
      const collective::LowerResult au = timed(
          tr, "collective.auto_lower", cell, [&] { return collective::lower_trace(t, autolower); });

      const netsim::ReplayResult r_synth = timed(
          tr, "collective.lowered_replay", cell, [&] { return netsim::replay(cold.trace, net); });
      const netsim::ReplayResult r_auto = timed(
          tr, "collective.lowered_replay", cell, [&] { return netsim::replay(au.trace, net); });

      d.add(cold.stats);
      d.add(au.stats);
      d.add(r_synth);
      d.add(r_auto);
      Counts& n = pass.counts();
      n.schedules += cold.stats.schedules + au.stats.schedules;
      n.p2p_events += cold.stats.p2p_events + au.stats.p2p_events;
      n.cache_hits += after_warm.hits;
      n.cache_misses += after_warm.misses;
      n.cache_stores += after_warm.stores;
      n.add_replay(r_synth);
      n.add_replay(r_auto);
    });
  }
}

// ---------------------------------------------------------------- set-up

/// The workload's apps in the order --seed picks: permutation
/// seed mod n! in lexicographic order.
std::vector<std::string> app_order(const WorkloadSpec& w, std::uint64_t seed) {
  std::vector<std::string> apps = w.apps;
  std::sort(apps.begin(), apps.end());
  std::uint64_t orders = 1;
  for (std::size_t i = 2; i <= apps.size(); ++i) orders *= i;
  for (std::uint64_t k = seed % orders; k > 0; --k) {
    std::next_permutation(apps.begin(), apps.end());
  }
  return apps;
}

std::vector<AppTrace> generate_traces(const std::vector<std::string>& apps, int nranks,
                                      std::uint64_t seed, Tracer* tracer) {
  std::vector<AppTrace> out;
  for (const std::string& app : apps) {
    analysis::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = nranks;
    cfg.engine = mpisim::EngineKind::kFibers;
    cfg.seed = seed;
    analysis::ExperimentResult res = timed(tracer, "mpisim.run_experiment", -1,
                                           [&] { return analysis::run_experiment(cfg); });
    out.push_back({app, std::move(res.trace)});
  }
  return out;
}

// ---------------------------------------------------------------- pinned digests

/// digests.txt: "<workload> <size> <cell-label> <hex digest>" lines; '#'
/// starts a comment.
std::map<std::string, std::string> load_pinned(const std::string& path,
                                               const std::string& prefix) {
  std::map<std::string, std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) throw Error("cannot open digest file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size, label, digest;
    if (!(fields >> workload >> size >> label >> digest)) {
      throw Error("malformed digest line: " + line);
    }
    const std::string key = workload + " " + size;
    if (key == prefix) out[label] = digest;
  }
  return out;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of the traced passes: the median over traced passes
/// of each layer's total span time, plus the pass's work counts. Set-up
/// times are the median over the trace generations.
std::vector<Metric> layer_metrics(const Tracer& tracer, const std::vector<int>& traced,
                                  const std::vector<std::string>& labels,
                                  const Counts& counts, double setup_events,
                                  double tracing_overhead_s) {
  std::map<int, std::map<std::string_view, double>> wall;   // pass -> name -> s
  std::map<int, std::map<std::string_view, double>> cpu;
  for (const Tracer::Span& s : tracer.spans()) {
    wall[s.pass][s.name] += s.end_s - s.start_s;
    cpu[s.pass][s.name] += s.cpu_s;
  }
  const auto med = [&](auto& table, std::string_view name) {
    std::vector<double> v;
    for (int p : traced) v.push_back(table[p][name]);
    return median(v);
  };
  std::vector<double> setup_runs;
  for (const auto& [p, names] : wall) {
    if (p <= Tracer::kSetupPass) setup_runs.push_back(names.at("mpisim.run_experiment"));
  }
  const double replay_s = med(wall, "netsim.replay");
  const double parallel_s = med(wall, "netsim.parallel_replay");
  // Serial work the sharded replays are compared with: the references
  // (dense_sharded) or the phase's serial torus replays (wide_sparse).
  double serial_s = wall[Tracer::kReferencePass]["netsim.replay"];
  if (serial_s == 0.0) {
    std::vector<double> v;
    for (int p : traced) {
      double sum = 0.0;
      for (const Tracer::Span& s : tracer.spans()) {
        if (s.pass == p && s.name == "netsim.replay" &&
            labels[static_cast<std::size_t>(s.cell)].ends_with("/torus/serial")) {
          sum += s.end_s - s.start_s;
        }
      }
      v.push_back(sum);
    }
    serial_s = median(v);
  }

  std::vector<Metric> m;
  const auto add = [&](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit)});
  };
  add("mpisim.run_experiment_s", median(setup_runs), "s");
  add("trace.events", setup_events, "count");
  add("graph.comm_graph_s", med(wall, "graph.comm_graph"), "s");
  add("graph.tdc_s", med(wall, "graph.tdc"), "s");
  add("core.provision_s", med(wall, "core.provision"), "s");
  add("core.fabric_blocks", static_cast<double>(counts.fabric_blocks), "count");
  add("netsim.network_build_s", med(wall, "netsim.network_build"), "s");
  add("netsim.route_prewarm_s", med(wall, "netsim.route_prewarm"), "s");
  add("netsim.routes", static_cast<double>(counts.routes), "count");
  add("netsim.replay_s", replay_s, "s");
  add("netsim.replay_events_per_s",
      replay_s > 0.0 ? static_cast<double>(counts.replay_events) / replay_s : 0.0, "1/s");
  add("netsim.parallel_replay_s", parallel_s, "s");
  add("netsim.parallel_replay_cpu_s", med(cpu, "netsim.parallel_replay"), "s");
  add("netsim.shard_speedup", parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
      "ratio");
  add("netsim.messages", static_cast<double>(counts.messages), "count");
  add("netsim.bytes", static_cast<double>(counts.bytes), "bytes");
  add("collective.synth_lower_s", med(wall, "collective.synth_lower"), "s");
  add("collective.auto_lower_s", med(wall, "collective.auto_lower"), "s");
  add("collective.lowered_replay_s", med(wall, "collective.lowered_replay"), "s");
  add("collective.schedules", static_cast<double>(counts.schedules), "count");
  add("collective.p2p_events", static_cast<double>(counts.p2p_events), "count");
  add("store.warm_lower_s", med(wall, "store.warm_lower"), "s");
  add("store.cache_hits", static_cast<double>(counts.cache_hits), "count");
  add("store.cache_misses", static_cast<double>(counts.cache_misses), "count");
  add("store.cache_stores", static_cast<double>(counts.cache_stores), "count");
  add("bench.tracing_overhead_s", tracing_overhead_s, "s");
  return m;
}

void write_spans(const std::string& path, const Tracer& tracer,
                 const std::vector<std::string>& labels) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write spans to " + path);
  util::JsonWriter w(out);
  w.begin_array();
  for (const Tracer::Span& s : tracer.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("pass", s.pass);
    w.field("cell", s.cell >= 0 && static_cast<std::size_t>(s.cell) < labels.size()
                        ? std::string_view(labels[static_cast<std::size_t>(s.cell)])
                        : std::string_view("none"));
    w.field("parent", s.parent);
    w.field("start_s", s.start_s);
    w.field("end_s", s.end_s);
    w.field("cpu_s", s.cpu_s);
    w.end_object();
  }
  w.end_array();
}

/// Writes one JSON document on one stdout line. JsonWriter indents; its
/// line breaks and indentation never occur inside a string, so dropping
/// them leaves the same document.
template <typename Body>
void print_json_line(Body&& body) {
  std::ostringstream doc;
  {
    util::JsonWriter j(doc);
    body(j);
  }
  std::string line;
  bool indent = false;
  for (const char ch : doc.str()) {
    if (ch == '\n') {
      indent = true;
    } else if (!(indent && ch == ' ')) {
      indent = false;
      line += ch;
    }
  }
  std::cout << line << std::endl;
}

int run(const Options& opts) {
  if (!mpisim::fibers_supported()) {
    throw Error("the fiber engine is unavailable in this build");
  }
  const WorkloadSpec& w = *opts.workload;
  const int nranks = opts.smoke ? w.smoke_nranks : w.nranks;
  const std::vector<std::string> apps = app_order(w, opts.seed);
  Tracer tracer;
  Tracer* const setup_tracer = opts.trace ? &tracer : nullptr;
  fs::create_directories(opts.work_dir);

  // ---- set-up: trace generation, several times; the last set is kept.
  std::vector<double> setup_walls;
  std::vector<AppTrace> traces;
  const auto setup0 = Clock::now();
  for (int s = 0;; ++s) {
    tracer.set_pass(Tracer::kSetupPass - s);
    traces.clear();
    mpisim::trim_fiber_stack_pool();  // every generation maps its own stacks
    const auto t0 = Clock::now();
    traces = generate_traces(apps, nranks, kFiberSeed, setup_tracer);
    setup_walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    const double elapsed = std::chrono::duration<double>(Clock::now() - setup0).count();
    if (opts.smoke || (s + 1 >= kSetups && elapsed >= kSetupSeconds)) break;
  }
  const double setup_rss_mb = vm_hwm_mb();
  std::uint64_t setup_events = 0;
  for (const AppTrace& a : traces) setup_events += a.trace.events().size();

  // Serial references for the sharded-only workload, outside the phase.
  std::vector<netsim::ReplayResult> references;
  if (w.id == Workload::kDenseSharded) {
    tracer.set_pass(Tracer::kReferencePass);
    for (const AppTrace& a : traces) {
      const Net b = build_torus(a.trace.nranks());
      references.push_back(timed(setup_tracer, "netsim.replay", -1,
                                 [&] { return netsim::replay(a.trace, *b.net); }));
    }
  }

  // ---- measured phase. Fiber stacks and the heap that set-up freed are
  // released and the peak-RSS window restarted, so peak_rss_mb sees the
  // phase alone.
  mpisim::trim_fiber_stack_pool();
  malloc_trim(0);
  reset_vm_hwm();
  const CpuTimes cpu_stat0 = read_cpu_times();
  const double load0 = load_average_1m();
  const auto phase0 = Clock::now();
  std::vector<double> pass_wall, pass_cpu;
  std::vector<int> traced_passes, untraced_passes;
  std::vector<Pass> passes;
  const int min_passes = opts.trace ? 2 : 1;
  for (int p = 0;; ++p) {
    // The traced run alternates untraced and traced passes so that it can
    // report its own tracing overhead.
    const bool traced = opts.trace && p % 2 == 1;
    tracer.set_pass(p);
    passes.emplace_back(opts, traced ? &tracer : nullptr);
    Pass& pass = passes.back();
    switch (w.id) {
      case Workload::kHfastDense: hfast_dense_pass(pass, traces); break;
      case Workload::kWideSparse: wide_sparse_pass(pass, traces); break;
      case Workload::kDenseSharded: dense_sharded_pass(pass, traces, references); break;
      case Workload::kCollectiveSynth: collective_synth_pass(pass, traces); break;
    }
    pass_wall.push_back(pass.wall_s());
    pass_cpu.push_back(pass.cpu_s());
    (traced ? traced_passes : untraced_passes).push_back(p);
    const double elapsed = std::chrono::duration<double>(Clock::now() - phase0).count();
    if (p + 1 >= min_passes && (opts.smoke || elapsed >= opts.seconds)) break;
  }
  const double peak_rss_mb = vm_hwm_mb();
  const CpuTimes cpu_stat1 = read_cpu_times();
  const double load1 = load_average_1m();

  // ---- exactness: every pass reproduces pass 0, which matches the pins.
  const std::string pin_key = std::string(w.name) + " " + (opts.smoke ? "smoke" : "full");
  const auto pinned = load_pinned(opts.digests, pin_key);
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const std::vector<CellRecord>& first = passes.front().cells();
  for (const Pass& pass : passes) {
    for (std::size_t c = 0; c < pass.cells().size(); ++c) {
      const CellRecord& rec = pass.cells()[c];
      ++attempted;
      std::string error = rec.error;
      if (error.empty() && rec.digest != first[c].digest) {
        error = "digest differs from the first pass";
      }
      if (error.empty() && !opts.print_digests) {
        const auto it = pinned.find(rec.label);
        if (it == pinned.end()) {
          error = "no digest pinned for " + pin_key;
        } else if (it->second != hex64(rec.digest)) {
          error = "digest " + hex64(rec.digest) + " != pinned " + it->second;
        }
      }
      if (!error.empty()) {
        ++failed;
        errors.push_back(rec.label + ": " + error);
      }
    }
  }
  if (opts.print_digests) {
    for (const CellRecord& rec : first) {
      std::cout << pin_key << " " << rec.label << " " << hex64(rec.digest) << "\n";
    }
  }
  for (const std::string& e : errors) std::cerr << "pipeline_bench: FAILED " << e << "\n";

  // ---- metrics.
  // A pass's time is the sum over its cells of each cell's fastest time
  // over the given passes: the shared host only ever slows a cell down, so
  // the fastest of a short cell's many runs is the least disturbed one.
  const auto fastest = [&](const std::vector<int>& idx, double CellRecord::*field) {
    double sum = 0.0;
    for (std::size_t c = 0; c < first.size(); ++c) {
      double best = std::numeric_limits<double>::infinity();
      for (int p : idx) {
        best = std::min(best, passes[static_cast<std::size_t>(p)].cells()[c].*field);
      }
      sum += best;
    }
    return sum;
  };
  std::vector<std::string> labels;
  for (const CellRecord& rec : first) labels.push_back(rec.label);
  std::vector<Metric> metrics;
  if (opts.trace) {
    const double overhead = fastest(traced_passes, &CellRecord::wall_s) -
                            fastest(untraced_passes, &CellRecord::wall_s);
    metrics = layer_metrics(tracer, traced_passes, labels, passes.back().counts(),
                            static_cast<double>(setup_events), overhead);
  } else {
    metrics = {
        {"wall_s", fastest(untraced_passes, &CellRecord::wall_s), "s"},
        {"cpu_s", fastest(untraced_passes, &CellRecord::cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"setup_s", median(setup_walls), "s"},
        {"setup_rss_mb", setup_rss_mb, "MiB"},
    };
  }
  if (opts.trace) {
    write_spans((fs::path(opts.work_dir) /
                 ("spans-" + std::string(w.name) + "-" + std::to_string(opts.seed) + "-" +
                  std::to_string(getpid()) + ".json"))
                    .string(),
                tracer, labels);
  }

  // ---- report: the record line, then the result as the last line.
  print_json_line([&](util::JsonWriter& j) {
    j.begin_object();
    j.key("record");
    j.begin_object();
    j.field("workload", w.name);
    j.field("seed", opts.seed);
    j.field("fiber_seed", kFiberSeed);
    j.key("app_order");
    j.begin_array();
    for (const std::string& app : apps) j.value(app);
    j.end_array();
    j.field("size", opts.smoke ? "smoke" : "full");
    j.field("traced", opts.trace);
    j.field("commit", opts.commit);
    j.field("build_type", HFAST_BENCH_BUILD_TYPE);
    j.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    const double jiffies = static_cast<double>(cpu_stat1.total - cpu_stat0.total);
    j.field("steal_pct",
            jiffies > 0 ? 100.0 * static_cast<double>(cpu_stat1.steal - cpu_stat0.steal) / jiffies
                        : 0.0);
    j.field("loadavg_1m_before", load0);
    j.field("loadavg_1m_after", load1);
    j.field("passes", static_cast<std::uint64_t>(passes.size()));
    j.key("pass_wall_s");
    j.begin_array();
    for (double v : pass_wall) j.value(v);
    j.end_array();
    j.key("pass_cpu_s");
    j.begin_array();
    for (double v : pass_cpu) j.value(v);
    j.end_array();
    j.key("cell_wall_s");
    j.begin_object();
    for (std::size_t c = 0; c < first.size(); ++c) {
      j.key(first[c].label);
      j.begin_array();
      for (const Pass& pass : passes) j.value(pass.cells()[c].wall_s);
      j.end_array();
    }
    j.end_object();
    j.key("setup_wall_s");
    j.begin_array();
    for (double v : setup_walls) j.value(v);
    j.end_array();
    j.key("cells");
    j.begin_object();
    for (const CellRecord& rec : first) j.field(rec.label, hex64(rec.digest));
    j.end_object();
    j.key("errors");
    j.begin_array();
    for (const std::string& e : errors) j.value(e);
    j.end_array();
    j.end_object();
    j.end_object();
  });
  print_json_line([&](util::JsonWriter& j) {
    j.begin_object();
    j.field("correct", failed == 0);
    j.field("attempted", attempted);
    j.field("failed", failed);
    j.key("metrics");
    j.begin_object();
    for (const Metric& m : metrics) {
      j.key(m.name);
      j.begin_object();
      j.field("value", m.value);
      j.field("unit", m.unit);
      j.end_object();
    }
    j.end_object();
    j.end_object();
  });
  for (const std::string& app : w.apps) {
    fs::remove_all(fs::path(opts.work_dir) / ("schedule-cache-" + app));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_cli(argc, argv);
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 1;
  }
}
