#include "hfast/netsim/network.hpp"

#include <algorithm>
#include <limits>
#include <ranges>
#include <utility>

#include "hfast/util/assert.hpp"

namespace hfast::netsim {

// --- RouteTable ---------------------------------------------------------------

const RouteTable::Entry* RouteTable::find(std::uint64_t key) const {
  if (slots_.empty()) return nullptr;
  for (std::size_t s = home_slot(key);; s = (s + 1) & (slots_.size() - 1)) {
    const std::uint32_t e = slots_[s];
    if (e == 0) return nullptr;
    if (entries_[e - 1].key == key) return &entries_[e - 1];
  }
}

const RouteTable::Entry& RouteTable::insert(std::uint64_t key,
                                            std::span<const int> links,
                                            int hops) {
  entries_.push_back({key, static_cast<std::uint32_t>(arena_.size()),
                      static_cast<std::uint32_t>(links.size()), hops});
  arena_.insert(arena_.end(), links.begin(), links.end());
  const auto place = [this](std::size_t e) {
    std::size_t s = home_slot(entries_[e].key);
    while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
    slots_[s] = static_cast<std::uint32_t>(e + 1);
  };
  if (2 * entries_.size() > slots_.size()) {  // keep the load at most 1/2
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    for (std::size_t e = 0; e + 1 < entries_.size(); ++e) place(e);
  }
  place(entries_.size() - 1);
  return entries_.back();
}

// --- LinkNetwork --------------------------------------------------------------

void LinkNetwork::reset() { free_at_.assign(links_.size(), 0.0); }

double LinkNetwork::min_transfer_latency_s() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const LinkParams& l : links_) {
    lo = std::min(lo, l.latency_s + l.switch_overhead_s);
  }
  // Every transfer between distinct endpoints crosses at least one link;
  // serialization only adds on top. A linkless network bounds nothing.
  return links_.empty() ? 0.0 : lo;
}

int LinkNetwork::add_directed_link(int from, int to, const LinkParams& params) {
  const int id = static_cast<int>(links_.size());
  links_.push_back(params);
  // Ids only grow, so parallel links keep their order: the first added wins.
  auto& out = out_links_[static_cast<std::size_t>(from)];
  out.insert(std::upper_bound(out.begin(), out.end(), std::pair{to, id}),
             {to, id});
  return id;
}

int LinkNetwork::add_duplex_link(int a, int b, const LinkParams& params) {
  HFAST_EXPECTS(a >= 0 && a < num_vertices_ && b >= 0 && b < num_vertices_);
  const int fwd = add_directed_link(a, b, params);
  (void)add_directed_link(b, a, params);
  return fwd;
}

int LinkNetwork::link_between(int a, int b) const {
  HFAST_EXPECTS(a >= 0 && a < num_vertices_);
  const auto& out = out_links_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(out.begin(), out.end(), std::pair{b, 0});
  HFAST_ASSERT_MSG(it != out.end() && it->first == b,
                   "no link between vertices");
  return it->second;
}

const RouteTable::Entry& LinkNetwork::route_entry(int src, int dst) {
  if (const RouteTable::Entry* e = routes_.find(route_key(src, dst))) return *e;
  std::vector<int> links;
  const int hops = build_route(src, dst, links);
  return routes_.insert(route_key(src, dst), links, hops);
}

int LinkNetwork::build_route(int, int, std::vector<int>&) {
  throw ContractViolation("link network: this model keeps no route table");
}

double LinkNetwork::transfer(int src, int dst, std::uint64_t bytes,
                             double start) {
  HFAST_EXPECTS(src != dst);
  return traverse(routes_.links(route_entry(src, dst)), bytes, start);
}

double LinkNetwork::traverse(std::span<const int> link_path,
                             std::uint64_t bytes, double start) {
  HFAST_EXPECTS(!link_path.empty());
  if (free_at_.size() != links_.size()) free_at_.resize(links_.size(), 0.0);
  double head = start;
  double last_ser = 0.0;
  for (int id : link_path) {
    const LinkParams& l = links_[static_cast<std::size_t>(id)];
    double& free_at = free_at_[static_cast<std::size_t>(id)];
    head = std::max(head, free_at);
    const double ser = static_cast<double>(bytes) / l.bandwidth_bps;
    free_at = head + ser;  // link streams this message until the tail passes
    head += l.latency_s + l.switch_overhead_s;
    last_ser = ser;
  }
  return head + last_ser;  // tail arrival behind the head on the final link
}

// --- DirectNetwork ------------------------------------------------------------

DirectNetwork::DirectNetwork(const topo::DirectTopology& topo,
                             const LinkParams& params)
    : topo_(topo) {
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const int v = add_vertex();
    HFAST_ASSERT(v == i);
  }
  for (int u = 0; u < topo.num_nodes(); ++u) {
    for (int v : topo.neighbors(u)) {
      if (v > u) add_duplex_link(u, v, params);
    }
  }
}

int DirectNetwork::build_route(int src, int dst, std::vector<int>& links) {
  const auto nodes = topo_.route(src, dst);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    links.push_back(link_between(nodes[i], nodes[i + 1]));
  }
  // Each intermediate router plus the destination router makes a switching
  // decision; source injection does not.
  return topo_.distance(src, dst);
}

int DirectNetwork::switch_hops(int src, int dst) const {
  if (const auto* e = routes_.find(route_key(src, dst))) return e->hops;
  return topo_.distance(src, dst);  // not prewarmed: the const path recomputes
}

// --- FabricNetwork ------------------------------------------------------------

FabricNetwork::FabricNetwork(const core::Fabric& fabric,
                             const LinkParams& circuit, double block_overhead_s)
    : FabricNetwork(fabric,
                    [ids = std::views::iota(0, fabric.num_nodes())] {
                      return std::vector<int>(ids.begin(), ids.end());
                    }(),  // task t on node t
                    circuit, circuit, block_overhead_s) {}

FabricNetwork::FabricNetwork(const core::Fabric& fabric,
                             std::vector<int> node_of_task,
                             const LinkParams& circuit,
                             const LinkParams& backplane,
                             double block_overhead_s)
    : fabric_(fabric), node_of_task_(std::move(node_of_task)) {
  const int ntasks = static_cast<int>(node_of_task_.size());
  const int nnodes = fabric.num_nodes();
  HFAST_EXPECTS_MSG(ntasks >= 1, "fabric network needs at least one task");

  // Vertices: [0, T) tasks, then one backplane hub per node hosting
  // several tasks, then switch blocks. With one task per node there are no
  // hubs and tasks are nodes.
  std::vector<int> occupancy(static_cast<std::size_t>(nnodes), 0);
  node_vertex_.assign(static_cast<std::size_t>(nnodes), -1);
  for (int node : node_of_task_) {
    HFAST_EXPECTS_MSG(node >= 0 && node < nnodes,
                      "task mapped outside the fabric's nodes");
    ++occupancy[static_cast<std::size_t>(node)];
    node_vertex_[static_cast<std::size_t>(node)] = add_vertex();
  }
  for (int n = 0; n < nnodes; ++n) {
    HFAST_EXPECTS_MSG(occupancy[static_cast<std::size_t>(n)] >= 1,
                      "fabric node hosts no task");
    if (occupancy[static_cast<std::size_t>(n)] > 1) {
      node_vertex_[static_cast<std::size_t>(n)] = add_vertex();
    }
  }
  first_block_vertex_ = num_vertices_;
  for (int b = 0; b < fabric.num_blocks(); ++b) (void)add_vertex();

  // Backplane tier: each co-resident task attaches to its node's hub.
  for (int t = 0; t < ntasks; ++t) {
    const int v = node_vertex_[static_cast<std::size_t>(
        node_of_task_[static_cast<std::size_t>(t)])];
    if (is_hub(v)) (void)add_duplex_link(t, v, backplane);
  }

  // Fabric tier: entering any block pays the packet-switching overhead;
  // circuit hops themselves add propagation only.
  LinkParams into_block = circuit;
  into_block.switch_overhead_s = block_overhead_s;
  for (int b = 0; b < fabric.num_blocks(); ++b) {
    const auto& blk = fabric.block(b);
    for (int p = 0; p < blk.num_ports(); ++p) {
      const auto& port = blk.port(p);
      if (port.use == core::PortUse::kHost) {
        // node -> block pays switch overhead; block -> node does not.
        const int nv = node_vertex_[static_cast<std::size_t>(port.host_node)];
        (void)add_directed_link(nv, block_vertex(b), into_block);
        (void)add_directed_link(block_vertex(b), nv, circuit);
      } else if (port.use == core::PortUse::kTrunk && port.peer.block > b) {
        const int a = block_vertex(b);
        const int c = block_vertex(port.peer.block);
        (void)add_directed_link(a, c, into_block);
        (void)add_directed_link(c, a, into_block);
      }
    }
  }
}

int FabricNetwork::build_route(int src, int dst, std::vector<int>& links) {
  const int a = node_of_task_[static_cast<std::size_t>(src)];
  const int b = node_of_task_[static_cast<std::size_t>(dst)];
  const int va = node_vertex_[static_cast<std::size_t>(a)];
  const int vb = node_vertex_[static_cast<std::size_t>(b)];
  if (a == b) {
    // Co-resident tasks: src -> hub -> dst on the backplane, zero switch
    // hops. Two distinct tasks sharing a node implies a hub exists.
    links = {link_between(src, va), link_between(va, dst)};
    return 0;
  }
  const int home = fabric_.home_block(a);
  if (home != -1 && home != tree_block_) {
    tree_ = fabric_.route_tree(home);
    tree_block_ = home;
  }
  const core::FabricRoute r = fabric_.route(a, b, tree_);
  if (va != src) links.push_back(link_between(src, va));  // via a's hub
  int prev = va;
  for (int blk : r.blocks) {
    links.push_back(link_between(prev, block_vertex(blk)));
    prev = block_vertex(blk);
  }
  links.push_back(link_between(prev, vb));
  if (vb != dst) links.push_back(link_between(vb, dst));  // via b's hub
  return r.switch_hops();
}

int FabricNetwork::switch_hops(int src, int dst) const {
  if (const auto* e = routes_.find(route_key(src, dst))) return e->hops;
  // Not prewarmed: recompute instead of memoizing, so the const query path
  // stays read-only (and therefore safe under concurrent readers). Replay
  // prewarms every pair it will touch, so this path is cold by design.
  const int a = node_of_task_[static_cast<std::size_t>(src)];
  const int b = node_of_task_[static_cast<std::size_t>(dst)];
  return a == b ? 0 : fabric_.route(a, b).switch_hops();
}

// --- FatTreeNetwork -----------------------------------------------------------

FatTreeNetwork::FatTreeNetwork(const topo::FatTree& tree,
                               const LinkParams& params)
    : tree_(tree), params_(params) {
  // One interior vertex stands in for the non-blocking core.
  const int core = tree_.num_procs();  // vertex id after endpoints
  for (int i = 0; i <= tree_.num_procs(); ++i) (void)add_vertex();
  inject_.resize(static_cast<std::size_t>(tree_.num_procs()));
  eject_.resize(static_cast<std::size_t>(tree_.num_procs()));
  // Interior latency/overhead is applied per traversal analytically in
  // transfer(); endpoint links only carry serialization + first-hop cost.
  LinkParams endpoint = params;
  endpoint.switch_overhead_s = 0.0;
  endpoint.latency_s = 0.0;
  for (int n = 0; n < tree_.num_procs(); ++n) {
    const int fwd = add_duplex_link(n, core, endpoint);
    inject_[static_cast<std::size_t>(n)] = fwd;
    eject_[static_cast<std::size_t>(n)] = fwd + 1;
  }
}

double FatTreeNetwork::transfer(int src, int dst, std::uint64_t bytes,
                                double start) {
  HFAST_EXPECTS(src != dst);
  const int hops = tree_.switch_traversals(src, dst);
  // Contend on the two endpoint links; the interior is non-blocking.
  const int path[] = {inject_[static_cast<std::size_t>(src)],
                      eject_[static_cast<std::size_t>(dst)]};
  double t = traverse(path, bytes, start);
  t += static_cast<double>(hops) *
       (params_.latency_s + params_.switch_overhead_s);
  return t;
}

}  // namespace hfast::netsim
