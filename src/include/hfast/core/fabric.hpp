#pragma once
/// \file fabric.hpp
/// The assembled HFAST interconnect: P single-processor nodes, a pool of
/// active switch blocks, and the passive circuit switch that patches node
/// NICs to block host ports and block ports to each other (trunks).
///
/// Routing happens over the *block graph* (vertices = blocks, edges =
/// trunks). A message u -> v enters u's home block through the circuit
/// switch, crosses zero or more trunks, and exits to v — so circuit-switch
/// traversals = blocks on the path + 1 and packet-switch hops = blocks on
/// the path, reproducing the paper's Figure 1 examples (2 traversals / 1
/// block when u and v share a block; 3 traversals / 2 blocks otherwise).

#include <cstdint>
#include <utility>
#include <vector>

#include "hfast/core/switch_block.hpp"
#include "hfast/graph/comm_graph.hpp"

namespace hfast::core {

struct FabricRoute {
  std::vector<int> blocks;  ///< packet switch blocks traversed, in order
  int switch_hops() const noexcept { return static_cast<int>(blocks.size()); }
  int circuit_traversals() const noexcept {
    return blocks.empty() ? 0 : static_cast<int>(blocks.size()) + 1;
  }
};

class Fabric {
 public:
  Fabric(int num_nodes, int block_size);

  int num_nodes() const noexcept { return num_nodes_; }
  int block_size() const noexcept { return block_size_; }
  int num_blocks() const noexcept { return static_cast<int>(blocks_.size()); }

  /// Allocate a fresh (all-free) block from the pool; returns its id.
  int add_block();

  SwitchBlock& block(int id);
  const SwitchBlock& block(int id) const;

  /// Patch node's NIC to a free port of `block_id` through the circuit
  /// switch. A node has one NIC: attaching twice is a contract violation.
  void attach_host(int node, int block_id);

  /// Patch a trunk between free ports of two blocks (they may be equal for
  /// loopback test rigs, though provisioners never do that).
  void connect_trunk(int block_a, int block_b);

  /// Home block of a node (-1 if unattached).
  int home_block(int node) const;

  /// Full BFS of the block graph from `src_block`: the parent of each block
  /// on its fewest-blocks path (`src_block` is its own parent, -1 marks an
  /// unreachable block). Neighbours are visited in ascending order, and a
  /// parent is fixed when its block is discovered, so every path read off
  /// the tree is the one an early-exit BFS to that block finds.
  std::vector<int> route_tree(int src_block) const;

  /// BFS route (fewest blocks) from u's home block to v's home block.
  /// Throws hfast::Error if no route exists.
  FabricRoute route(int u, int v) const;
  /// The same route read off `tree`, which is route_tree(home_block(u)).
  FabricRoute route(int u, int v, const std::vector<int>& tree) const;

  bool reachable(int u, int v) const;

  /// Every cutoff-surviving edge of `g` is routable through the fabric.
  /// Labels connected components once: O(blocks + trunks + edges).
  bool serves(const graph::CommGraph& g, std::uint64_t cutoff) const;

  /// Number of trunks directly joining the two blocks.
  int trunks_between(int block_a, int block_b) const;

  // --- accounting (cost model inputs) --------------------------------------
  std::uint64_t packet_ports() const noexcept {
    return static_cast<std::uint64_t>(num_blocks()) *
           static_cast<std::uint64_t>(block_size_);
  }
  /// Circuit-switch ports: one per node NIC plus one per block port.
  std::uint64_t circuit_ports() const noexcept {
    return static_cast<std::uint64_t>(num_nodes_) + packet_ports();
  }
  int total_host_ports() const;
  int total_trunk_ports() const;
  int total_free_ports() const;

  /// Structural invariants: trunk peers are symmetric, host links agree
  /// with home_block, port budgets respected. Throws on violation.
  void validate() const;

 private:
  /// BFS from `root` over blocks whose `out` entry is -1, setting each
  /// block reached to its BFS parent, or to `root` when `label` is set.
  void bfs(int root, std::vector<int>& out, bool label) const;
  /// Block -> component id (the lowest block id in it).
  std::vector<int> components() const;
  bool connected(const std::vector<int>& component, int u, int v) const;

  int num_nodes_;
  int block_size_;
  std::vector<SwitchBlock> blocks_;
  std::vector<int> home_;  // node -> block id
  /// block -> (neighbour block, trunks to it), sorted and unique by block.
  std::vector<std::vector<std::pair<int, int>>> block_adj_;
};

}  // namespace hfast::core
