#include "hfast/core/fabric.hpp"

#include <algorithm>

namespace hfast::core {

Fabric::Fabric(int num_nodes, int block_size)
    : num_nodes_(num_nodes), block_size_(block_size) {
  HFAST_EXPECTS(num_nodes >= 1);
  HFAST_EXPECTS_MSG(block_size >= 3,
                    "a useful block needs a host port and two trunk ports");
  home_.assign(static_cast<std::size_t>(num_nodes), -1);
}

int Fabric::add_block() {
  const int id = num_blocks();
  blocks_.emplace_back(id, block_size_);
  block_adj_.emplace_back();
  return id;
}

SwitchBlock& Fabric::block(int id) {
  HFAST_EXPECTS(id >= 0 && id < num_blocks());
  return blocks_[static_cast<std::size_t>(id)];
}

const SwitchBlock& Fabric::block(int id) const {
  HFAST_EXPECTS(id >= 0 && id < num_blocks());
  return blocks_[static_cast<std::size_t>(id)];
}

void Fabric::attach_host(int node, int block_id) {
  HFAST_EXPECTS(node >= 0 && node < num_nodes_);
  HFAST_EXPECTS_MSG(home_[static_cast<std::size_t>(node)] == -1,
                    "node NIC already attached");
  block(block_id).attach_host(node);
  home_[static_cast<std::size_t>(node)] = block_id;
}

void Fabric::connect_trunk(int block_a, int block_b) {
  SwitchBlock& a = block(block_a);
  SwitchBlock& b = block(block_b);
  const int pa = a.attach_trunk({});
  const int pb = b.attach_trunk({block_a, pa});
  a.set_trunk_peer(pa, {block_b, pb});
  const auto add = [this](int from, int to) {
    auto& adj = block_adj_[static_cast<std::size_t>(from)];
    auto it = std::lower_bound(adj.begin(), adj.end(), std::pair{to, 0});
    if (it == adj.end() || it->first != to) it = adj.insert(it, {to, 0});
    ++it->second;
  };
  add(block_a, block_b);
  if (block_a != block_b) add(block_b, block_a);
}

int Fabric::home_block(int node) const {
  HFAST_EXPECTS(node >= 0 && node < num_nodes_);
  return home_[static_cast<std::size_t>(node)];
}

void Fabric::bfs(int root, std::vector<int>& out, bool label) const {
  std::vector<int> queue{root};
  out[static_cast<std::size_t>(root)] = root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int b = queue[head];
    for (const auto& [n, trunks] : block_adj_[static_cast<std::size_t>(b)]) {
      if (out[static_cast<std::size_t>(n)] == -1) {
        out[static_cast<std::size_t>(n)] = label ? root : b;
        queue.push_back(n);
      }
    }
  }
}

std::vector<int> Fabric::route_tree(int src_block) const {
  HFAST_EXPECTS(src_block >= 0 && src_block < num_blocks());
  std::vector<int> parent(block_adj_.size(), -1);
  bfs(src_block, parent, false);
  return parent;
}

FabricRoute Fabric::route(int u, int v) const {
  const int src = home_block(u);
  return route(u, v, src == -1 ? std::vector<int>{} : route_tree(src));
}

FabricRoute Fabric::route(int u, int v, const std::vector<int>& tree) const {
  HFAST_EXPECTS(u != v);  // home_block() checks the range
  const int src = home_block(u);
  const int dst = home_block(v);
  if (src == -1 || dst == -1) {
    throw Error("fabric: route endpoint has no home block");
  }
  HFAST_EXPECTS(tree.size() == blocks_.size() &&
                tree[static_cast<std::size_t>(src)] == src);  // rooted at src
  if (tree[static_cast<std::size_t>(dst)] == -1) {
    throw Error("fabric: no trunk path between home blocks");
  }
  FabricRoute r;
  for (int b = dst; b != src; b = tree[static_cast<std::size_t>(b)]) {
    r.blocks.push_back(b);
  }
  r.blocks.push_back(src);
  std::reverse(r.blocks.begin(), r.blocks.end());
  return r;
}

std::vector<int> Fabric::components() const {
  std::vector<int> component(block_adj_.size(), -1);
  for (int b = 0; b < num_blocks(); ++b) {
    if (component[static_cast<std::size_t>(b)] == -1) bfs(b, component, true);
  }
  return component;
}

bool Fabric::connected(const std::vector<int>& component, int u, int v) const {
  HFAST_EXPECTS(u != v);  // home_block() checks the range
  const int a = home_block(u);
  const int b = home_block(v);
  return a != -1 && b != -1 &&
         component[static_cast<std::size_t>(a)] ==
             component[static_cast<std::size_t>(b)];
}

bool Fabric::reachable(int u, int v) const {
  return connected(components(), u, v);
}

bool Fabric::serves(const graph::CommGraph& g, std::uint64_t cutoff) const {
  const std::vector<int> component = components();
  for (const auto& [uv, stats] : g.edges()) {
    if (stats.max_message < cutoff) continue;
    if (!connected(component, uv.first, uv.second)) return false;
  }
  return true;
}

int Fabric::trunks_between(int block_a, int block_b) const {
  HFAST_EXPECTS(block_a >= 0 && block_a < num_blocks());
  const auto& nbrs = block_adj_[static_cast<std::size_t>(block_a)];
  const auto it =
      std::lower_bound(nbrs.begin(), nbrs.end(), std::pair{block_b, 0});
  return it != nbrs.end() && it->first == block_b ? it->second : 0;
}

int Fabric::total_host_ports() const {
  int n = 0;
  for (const auto& b : blocks_) n += b.num_host();
  return n;
}

int Fabric::total_trunk_ports() const {
  int n = 0;
  for (const auto& b : blocks_) n += b.num_trunk();
  return n;
}

int Fabric::total_free_ports() const {
  int n = 0;
  for (const auto& b : blocks_) n += b.num_free();
  return n;
}

void Fabric::validate() const {
  // Host links agree with the home table, one NIC per node.
  std::vector<int> seen_home(static_cast<std::size_t>(num_nodes_), -1);
  for (const auto& b : blocks_) {
    for (int p = 0; p < b.num_ports(); ++p) {
      const Port& port = b.port(p);
      if (port.use == PortUse::kHost) {
        const int node = port.host_node;
        HFAST_ASSERT_MSG(node >= 0 && node < num_nodes_, "bad host node");
        HFAST_ASSERT_MSG(seen_home[static_cast<std::size_t>(node)] == -1,
                         "node hosted on two ports");
        seen_home[static_cast<std::size_t>(node)] = b.id();
      } else if (port.use == PortUse::kTrunk) {
        HFAST_ASSERT_MSG(port.peer.valid(), "dangling trunk");
        const Port& peer = block(port.peer.block).port(port.peer.port);
        HFAST_ASSERT_MSG(peer.use == PortUse::kTrunk, "trunk peer not trunk");
        HFAST_ASSERT_MSG((peer.peer == PortRef{b.id(), p}),
                         "asymmetric trunk wiring");
      }
    }
  }
  for (int n = 0; n < num_nodes_; ++n) {
    HFAST_ASSERT_MSG(seen_home[static_cast<std::size_t>(n)] ==
                         home_[static_cast<std::size_t>(n)],
                     "home table out of sync with block ports");
  }
}

}  // namespace hfast::core
