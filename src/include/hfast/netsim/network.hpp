#pragma once
/// \file network.hpp
/// Link-level network models used for trace replay. A transfer streams
/// through its path cut-through style: at each link the head waits for the
/// link to go idle, occupies it for the serialization time, and propagates
/// after the link latency (plus any switching overhead at the entry
/// element). Link occupancy persists across transfers — that is where
/// contention comes from.
///
/// State is split in two:
///  * routing (vertices, links, route table) is structurally immutable
///    once built and — after a prewarm_route() pass over the pairs a
///    replay will use — served through genuinely read-only query paths, so
///    several replay shards may safely share one network for route/hop
///    lookups;
///  * per-replay occupancy (when each link next goes idle) lives in a
///    separate `free_at` array cleared by reset(), and is only touched by
///    transfer(). Replays serialize transfer() calls (see
///    replay_parallel.cpp for how the parallel replay keeps that total
///    order deterministic).
///
/// Three concrete models:
///  * DirectNetwork  — a DirectTopology (mesh/torus/hypercube/FCN) with one
///    router per node; every inter-router link is a contended resource.
///  * FabricNetwork  — a provisioned HFAST fabric; host links and trunks are
///    contended, circuit hops add propagation only, packet-switch blocks add
///    per-hop switching overhead.
///  * FatTreeNetwork — full-bisection fat-tree modeled charitably: only the
///    endpoint injection/ejection links contend; the interior contributes
///    the analytic (2l-1)-switch latency. This biases *against* HFAST, so
///    latency wins reported for HFAST are conservative.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hfast/core/fabric.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/topology.hpp"

namespace hfast::netsim {

struct LinkParams {
  double latency_s = 50e-9;        ///< propagation + transit per link
  double bandwidth_bps = 2e9;      ///< serialization rate
  double switch_overhead_s = 50e-9;  ///< per-hop switching decision cost
};

class Network {
 public:
  virtual ~Network() = default;

  virtual std::string name() const = 0;
  virtual int num_endpoints() const = 0;

  /// Simulate an s-byte transfer injected at `start`; returns tail-arrival
  /// time. Mutates link occupancy (call reset() between experiments).
  virtual double transfer(int src, int dst, std::uint64_t bytes,
                          double start) = 0;

  /// Clear per-replay mutable state (link occupancy). Routing caches are
  /// deliberately kept: routes are a pure function of the topology.
  virtual void reset() = 0;

  /// Packet switches traversed on the src->dst path (latency accounting
  /// and the paper's layer-count comparison). Read-only: never mutates
  /// caches, so it is safe to call concurrently once routes are prewarmed
  /// (un-prewarmed pairs are recomputed on the fly instead of memoized).
  virtual int switch_hops(int src, int dst) const = 0;

  /// Populate the route cache for one ordered pair so later transfer() /
  /// switch_hops() queries are pure lookups. Replay calls this for every
  /// (src, dst) a trace contains before simulating a single event; models
  /// with closed-form routing (fat trees) need no warmup and keep the
  /// default no-op.
  virtual void prewarm_route(int /*src*/, int /*dst*/) {}

  /// Conservative lower bound on (arrival - injection) for any transfer
  /// between distinct endpoints. The partitioned-clock parallel replay
  /// derives its lookahead from this: no message can arrive (and therefore
  /// wake a blocked rank) sooner than this after its injection time.
  virtual double min_transfer_latency_s() const { return 0.0; }
};

/// Flat route store: entries in one vector, their link ids in one arena,
/// and an open-addressing hash index on the key src * n + dst. Memory grows
/// with the routes stored, never with n^2, and lookups do not depend on
/// where the allocator placed anything.
class RouteTable {
 public:
  /// A route: its key, where its link ids sit in the arena, its hops.
  struct Entry { std::uint64_t key; std::uint32_t first, count; int hops; };

  const Entry* find(std::uint64_t key) const;
  /// Stores a route for a key not yet in the table.
  const Entry& insert(std::uint64_t key, std::span<const int> links, int hops);
  std::span<const int> links(const Entry& e) const {
    return {arena_.data() + e.first, e.count};
  }

 private:
  std::size_t home_slot(std::uint64_t key) const {  // Fibonacci hashing
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  std::vector<Entry> entries_;
  std::vector<int> arena_;
  std::vector<std::uint32_t> slots_;  ///< entry + 1, 0 = empty; size 2^k
};

/// Shared machinery: a vertex/link store with occupancy tracking and the
/// route table. Link structure (endpoints, parameters) is immutable after
/// construction; the only mutable replay state is the parallel `free_at_`
/// occupancy array.
class LinkNetwork : public Network {
 public:
  void reset() override;
  double min_transfer_latency_s() const override;
  /// Streams along the route table's path (built on first use); models
  /// that route in closed form override this and prewarm_route().
  double transfer(int src, int dst, std::uint64_t bytes, double start) override;
  void prewarm_route(int src, int dst) override { (void)route_entry(src, dst); }

 protected:
  int add_vertex() {
    out_links_.emplace_back();
    return num_vertices_++;
  }
  /// Adds the two directed links of a full-duplex connection; returns the
  /// forward link id (the reverse is id+1).
  int add_duplex_link(int a, int b, const LinkParams& params);

  /// Registers one directed link (derived constructors that need
  /// asymmetric parameters); returns its id.
  int add_directed_link(int from, int to, const LinkParams& params);

  /// Stream a message along the link-id path.
  double traverse(std::span<const int> link_path, std::uint64_t bytes,
                  double start);

  /// Directed link id from a to b (must exist). Of parallel links, the
  /// first added wins; occupancy is still per link.
  int link_between(int a, int b) const;

  /// The stored route of (src, dst), built by build_route() on a miss.
  const RouteTable::Entry& route_entry(int src, int dst);
  /// Fills `links` with the src -> dst link path; returns its switch hops.
  virtual int build_route(int src, int dst, std::vector<int>& links);

  std::uint64_t route_key(int src, int dst) const {
    return static_cast<std::uint64_t>(src) *
               static_cast<std::uint64_t>(num_vertices_) +
           static_cast<std::uint64_t>(dst);
  }

  int num_vertices_ = 0;
  std::vector<LinkParams> links_;  ///< link id -> its parameters
  RouteTable routes_;

 private:
  /// vertex -> (head vertex, link id) of its out-links, sorted.
  std::vector<std::vector<std::pair<int, int>>> out_links_;
  /// Per-replay mutable state, kept apart from the immutable link table:
  /// when each directed link next goes idle. Sized on first use so derived
  /// constructors may keep adding links after base construction.
  std::vector<double> free_at_;
};

class DirectNetwork final : public LinkNetwork {
 public:
  DirectNetwork(const topo::DirectTopology& topo, const LinkParams& params);

  std::string name() const override { return "direct:" + topo_.name(); }
  int num_endpoints() const override { return topo_.num_nodes(); }
  int switch_hops(int src, int dst) const override;

 private:
  int build_route(int src, int dst, std::vector<int>& links) override;

  const topo::DirectTopology& topo_;
};

class FabricNetwork : public LinkNetwork {
 public:
  /// `circuit` parameterizes node-fabric and trunk links (no switching
  /// logic: zero overhead is typical); `block_overhead_s` is the packet
  /// switch decision time per block traversed.
  FabricNetwork(const core::Fabric& fabric, const LinkParams& circuit,
                double block_overhead_s);

  std::string name() const override { return "hfast-fabric"; }
  int num_endpoints() const override {
    return static_cast<int>(node_of_task_.size());
  }
  int switch_hops(int src, int dst) const override;

 protected:
  /// Endpoints are tasks, `node_of_task` places them on the fabric's nodes,
  /// and a node hosting several tasks reaches them through a backplane hub
  /// (see SmpFabricNetwork). One task per node builds no hub and no
  /// backplane link, leaving exactly the network of the public constructor.
  FabricNetwork(const core::Fabric& fabric, std::vector<int> node_of_task,
                const LinkParams& circuit, const LinkParams& backplane,
                double block_overhead_s);

  bool is_hub(int vertex) const {
    return vertex >= static_cast<int>(node_of_task_.size());
  }

  const core::Fabric& fabric_;
  std::vector<int> node_of_task_;
  /// node -> the vertex standing in for it on the fabric tier: its
  /// backplane hub when it hosts several tasks, else its lone task.
  std::vector<int> node_vertex_;

 private:
  int build_route(int src, int dst, std::vector<int>& links) override;
  int block_vertex(int block_id) const { return first_block_vertex_ + block_id; }

  int first_block_vertex_ = 0;
  /// BFS route tree of the last source block routed from. Prewarm loops run
  /// source-major (trace columns are sorted by rank), so this one slot
  /// serves nearly every route; any other order is only slower. A tree per
  /// block would hold P x blocks ints at scale.
  int tree_block_ = -1;
  std::vector<int> tree_;
};

class FatTreeNetwork final : public LinkNetwork {
 public:
  FatTreeNetwork(const topo::FatTree& tree, const LinkParams& params);

  std::string name() const override { return tree_.name(); }
  int num_endpoints() const override { return tree_.num_procs(); }
  double transfer(int src, int dst, std::uint64_t bytes, double start) override;
  void prewarm_route(int /*src*/, int /*dst*/) override {}
  int switch_hops(int src, int dst) const override {
    return tree_.switch_traversals(src, dst);
  }
  /// Endpoint links are zero-latency by construction; the analytic interior
  /// contributes at least one switch traversal per transfer.
  double min_transfer_latency_s() const override {
    return params_.latency_s + params_.switch_overhead_s;
  }

 private:
  topo::FatTree tree_;
  LinkParams params_;
  std::vector<int> inject_;  ///< per-endpoint injection link ids
  std::vector<int> eject_;
};

}  // namespace hfast::netsim
