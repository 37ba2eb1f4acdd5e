/// Route equivalence: Fabric::route, FabricNetwork and SmpFabricNetwork
/// against an independent per-pair BFS, over provisioned fabrics with
/// multi-block chains, parallel trunks and disconnected components.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hfast/core/provision.hpp"
#include "hfast/netsim/network.hpp"
#include "hfast/netsim/smp_network.hpp"
#include "hfast/util/assert.hpp"
#include "hfast/util/random.hpp"

namespace hfast::core {
namespace {

using Adjacency = std::vector<std::vector<int>>;

/// Block adjacency read off the trunk ports: one entry per trunk end, in
/// port order, so parallel trunks repeat a neighbour.
Adjacency trunk_adjacency(const Fabric& f) {
  Adjacency adj(static_cast<std::size_t>(f.num_blocks()));
  for (int b = 0; b < f.num_blocks(); ++b) {
    const SwitchBlock& blk = f.block(b);
    for (int p = 0; p < blk.num_ports(); ++p) {
      if (blk.port(p).use == PortUse::kTrunk) {
        adj[static_cast<std::size_t>(b)].push_back(blk.port(p).peer.block);
      }
    }
  }
  return adj;
}

/// Reference routing: a fresh BFS per pair that stops at the destination
/// and copies, sorts and de-duplicates each dequeued block's neighbours.
std::vector<int> reference_route(const Fabric& f, const Adjacency& adj, int u,
                                 int v) {
  const int src = f.home_block(u);
  const int dst = f.home_block(v);
  if (src == -1 || dst == -1) {
    throw Error("fabric: route endpoint has no home block");
  }
  if (src == dst) return {src};
  std::vector<int> parent(adj.size(), -1);
  std::queue<int> q;
  parent[static_cast<std::size_t>(src)] = src;
  q.push(src);
  while (!q.empty()) {
    const int b = q.front();
    q.pop();
    if (b == dst) break;
    auto nbrs = adj[static_cast<std::size_t>(b)];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (int n : nbrs) {
      if (parent[static_cast<std::size_t>(n)] == -1) {
        parent[static_cast<std::size_t>(n)] = b;
        q.push(n);
      }
    }
  }
  if (parent[static_cast<std::size_t>(dst)] == -1) {
    throw Error("fabric: no trunk path between home blocks");
  }
  std::vector<int> blocks;
  for (int b = dst; b != src; b = parent[static_cast<std::size_t>(b)]) {
    blocks.push_back(b);
  }
  blocks.push_back(src);
  std::reverse(blocks.begin(), blocks.end());
  return blocks;
}

/// A route's blocks, or the message of the Error it threw.
struct Outcome {
  std::vector<int> blocks;
  std::string error;
  int hops() const { return static_cast<int>(blocks.size()); }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome(const std::function<std::vector<int>()>& route) {
  try {
    return {route(), ""};
  } catch (const Error& e) {
    return {{}, e.what()};
  }
}

struct FabricCase {
  std::uint64_t seed;
  int nodes;
  double density;
  int block_size;
  ProvisionStrategy strategy;
};

/// A provisioned fabric of a random graph, plus extra random and parallel
/// trunks on whatever ports provisioning left free.
Fabric random_fabric(const FabricCase& c) {
  util::Rng rng(c.seed);
  graph::CommGraph g(c.nodes);
  for (int i = 0; i < c.nodes; ++i) {
    for (int j = i + 1; j < c.nodes; ++j) {
      if (rng.chance(c.density)) g.add_message(i, j, 4096);
    }
  }
  Fabric f = provision(g, {.block_size = c.block_size, .cutoff = 0},
                       c.strategy)
                 .fabric;
  const auto free_port = [&f](int b) { return f.block(b).num_free() > 0; };
  const Adjacency adj = trunk_adjacency(f);
  for (int b = 0; b < f.num_blocks(); ++b) {
    for (int n : adj[static_cast<std::size_t>(b)]) {
      if (n > b && rng.chance(0.3) && free_port(b) && free_port(n)) {
        f.connect_trunk(b, n);  // a parallel trunk
      }
    }
  }
  const auto blocks = static_cast<std::uint64_t>(f.num_blocks());
  for (std::uint64_t i = 0; i < blocks / 4; ++i) {
    const auto a = static_cast<int>(rng.uniform(blocks));
    const auto b = static_cast<int>(rng.uniform(blocks));
    if (a != b && free_port(a) && free_port(b)) f.connect_trunk(a, b);
  }
  f.validate();
  return f;
}

const std::vector<FabricCase> kCases = {
    {1, 24, 0.15, 4, ProvisionStrategy::kGreedyPerNode},
    {2, 24, 0.15, 4, ProvisionStrategy::kCliqueShared},
    {3, 40, 0.08, 5, ProvisionStrategy::kGreedyPerNode},
    {4, 40, 0.3, 6, ProvisionStrategy::kCliqueShared},
    {5, 48, 0.5, 8, ProvisionStrategy::kGreedyPerNode},
    {6, 32, 0.05, 4, ProvisionStrategy::kGreedyPerNode},
};

netsim::LinkParams circuit() { return {1e-6, 1e9, 0.0}; }

/// Two tasks on every node: tasks 2n and 2n + 1 live on node n.
std::vector<int> two_per_node(int nodes) {
  std::vector<int> node_of_task;
  for (int n = 0; n < nodes; ++n) {
    node_of_task.insert(node_of_task.end(), {n, n});
  }
  return node_of_task;
}

TEST(FabricRouting, RoutesMatchPerPairReference) {
  bool parallel = false;
  bool chain = false;
  bool disconnected = false;
  for (const FabricCase& c : kCases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    const Fabric f = random_fabric(c);
    const Adjacency adj = trunk_adjacency(f);
    for (int b = 0; b < f.num_blocks(); ++b) {
      for (int n : adj[static_cast<std::size_t>(b)]) {
        parallel = parallel || f.trunks_between(b, n) > 1;
      }
    }
    for (int u = 0; u < c.nodes; ++u) {
      for (int v = 0; v < c.nodes; ++v) {
        if (u == v) continue;
        const Outcome want =
            outcome([&] { return reference_route(f, adj, u, v); });
        const Outcome got = outcome([&] { return f.route(u, v).blocks; });
        ASSERT_EQ(got, want) << u << "->" << v;
        EXPECT_EQ(f.reachable(u, v), want.error.empty()) << u << "->" << v;
        chain = chain || want.hops() >= 3;
        disconnected = disconnected || !want.error.empty();
      }
    }
  }
  // The fixture covers what it claims to.
  EXPECT_TRUE(parallel);
  EXPECT_TRUE(chain);
  EXPECT_TRUE(disconnected);
}

TEST(FabricRouting, NetworkHopsMatchReferenceColdAndPrewarmed) {
  for (const FabricCase& c : kCases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    const Fabric f = random_fabric(c);
    const Adjacency adj = trunk_adjacency(f);
    netsim::FabricNetwork net(f, circuit(), 1e-7);
    std::vector<int> identity(static_cast<std::size_t>(c.nodes));
    std::iota(identity.begin(), identity.end(), 0);
    netsim::SmpFabricNetwork smp1(f, identity, circuit(),
                                  netsim::kBackplaneDefaults, 1e-7);
    netsim::SmpFabricNetwork smp2(f, two_per_node(c.nodes), circuit(),
                                  netsim::kBackplaneDefaults, 1e-7);
    // Outcomes carry hop counts as that many zero blocks.
    const auto as_blocks = [](int hops) {
      return std::vector<int>(static_cast<std::size_t>(hops));
    };
    const auto hops = [&](const netsim::Network& n, int s, int d) {
      return outcome([&] { return as_blocks(n.switch_hops(s, d)); });
    };
    const auto prewarm = [&](netsim::Network& n, int s, int d) {
      return outcome([&] {
        n.prewarm_route(s, d);
        return as_blocks(n.switch_hops(s, d));
      });
    };
    for (int u = 0; u < c.nodes; ++u) {
      for (int v = 0; v < c.nodes; ++v) {
        if (u == v) continue;
        Outcome want = outcome([&] { return reference_route(f, adj, u, v); });
        want.blocks = as_blocks(want.hops());
        EXPECT_EQ(hops(net, u, v), want) << u << "->" << v;
        EXPECT_EQ(prewarm(net, u, v), want) << u << "->" << v;
        EXPECT_EQ(hops(smp1, u, v), want) << u << "->" << v;
        EXPECT_EQ(prewarm(smp1, u, v), want) << u << "->" << v;
        for (int i : {0, 1}) {
          EXPECT_EQ(hops(smp2, 2 * u + i, 2 * v), want) << u << "->" << v;
          EXPECT_EQ(prewarm(smp2, 2 * u + i, 2 * v), want) << u << "->" << v;
        }
      }
      // Co-resident tasks cross the backplane only.
      EXPECT_EQ(smp2.switch_hops(2 * u, 2 * u + 1), 0);
      smp2.prewarm_route(2 * u + 1, 2 * u);
      EXPECT_EQ(smp2.switch_hops(2 * u + 1, 2 * u), 0);
    }
  }
}

/// Arrival times of a fixed random batch of transfers after prewarming
/// every routable pair in the given order. Unroutable transfers record -1.
std::vector<double> arrivals(netsim::Network& net,
                             const std::vector<std::pair<int, int>>& order,
                             std::uint64_t seed) {
  for (const auto& [s, d] : order) {
    try {
      net.prewarm_route(s, d);
    } catch (const Error&) {
    }
  }
  util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(net.num_endpoints());
  std::vector<double> out;
  double start = 0.0;
  for (int i = 0; i < 400; ++i) {
    const int s = static_cast<int>(rng.uniform(n));
    const auto d = static_cast<int>(
        (static_cast<std::uint64_t>(s) + 1 + rng.uniform(n - 1)) % n);
    start += 1e-7 * static_cast<double>(rng.uniform(20));
    try {
      out.push_back(net.transfer(s, d, 1 + rng.uniform(1 << 16), start));
    } catch (const Error&) {
      out.push_back(-1.0);
    }
  }
  return out;
}

TEST(FabricRouting, TransfersIndependentOfPrewarmOrder) {
  for (const FabricCase& c : kCases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    const Fabric f = random_fabric(c);
    const std::vector<int> tasks = two_per_node(c.nodes);
    const int ntasks = static_cast<int>(tasks.size());
    std::vector<std::pair<int, int>> source_major;
    std::vector<std::pair<int, int>> interleaved;  // destination-major
    for (int a = 0; a < ntasks; ++a) {
      for (int b = 0; b < ntasks; ++b) {
        if (a == b) continue;
        source_major.emplace_back(a, b);
        interleaved.emplace_back(b, a);
      }
    }
    std::vector<std::pair<int, int>> reverse(source_major.rbegin(),
                                             source_major.rend());
    const auto nodes_only = [&](const std::vector<std::pair<int, int>>& order) {
      std::vector<std::pair<int, int>> out;
      for (const auto& [a, b] : order) {
        if (a < c.nodes && b < c.nodes) out.emplace_back(a, b);
      }
      return out;
    };

    std::vector<std::vector<double>> fabric_runs;
    std::vector<std::vector<double>> smp_runs;
    for (const auto* order : {&source_major, &reverse, &interleaved}) {
      netsim::FabricNetwork net(f, circuit(), 1e-7);
      fabric_runs.push_back(arrivals(net, nodes_only(*order), c.seed));
      netsim::SmpFabricNetwork smp(f, tasks, circuit(),
                                   netsim::kBackplaneDefaults, 1e-7);
      smp_runs.push_back(arrivals(smp, *order, c.seed));
    }
    // Never prewarmed: every route is built on first transfer.
    netsim::FabricNetwork lazy(f, circuit(), 1e-7);
    fabric_runs.push_back(arrivals(lazy, {}, c.seed));
    for (std::size_t i = 1; i < fabric_runs.size(); ++i) {
      EXPECT_EQ(fabric_runs[i], fabric_runs[0]) << "order " << i;
    }
    for (std::size_t i = 1; i < smp_runs.size(); ++i) {
      EXPECT_EQ(smp_runs[i], smp_runs[0]) << "order " << i;
    }
    EXPECT_NE(std::count(fabric_runs[0].begin(), fabric_runs[0].end(), -1.0),
              static_cast<std::ptrdiff_t>(fabric_runs[0].size()));
  }
}

TEST(FabricRouting, UnroutablePairsThrowTheSameErrors) {
  // Nodes 0 and 1 on joined blocks, node 2 unattached, node 3 alone on an
  // isolated block.
  Fabric f(4, 4);
  const int a = f.add_block();
  const int b = f.add_block();
  const int c = f.add_block();
  f.attach_host(0, a);
  f.attach_host(1, b);
  f.attach_host(3, c);
  f.connect_trunk(a, b);
  const std::string unattached = "fabric: route endpoint has no home block";
  const std::string disconnected = "fabric: no trunk path between home blocks";
  netsim::FabricNetwork net(f, circuit(), 1e-7);
  const netsim::FabricNetwork& cnet = net;
  const auto message = [](const std::function<void()>& call) {
    try {
      call();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const auto& [u, v, want] :
       {std::tuple{0, 2, unattached}, std::tuple{2, 0, unattached},
        std::tuple{2, 3, unattached}, std::tuple{0, 3, disconnected},
        std::tuple{3, 1, disconnected}}) {
    SCOPED_TRACE(std::to_string(u) + "->" + std::to_string(v));
    EXPECT_EQ(message([&] { (void)f.route(u, v); }), want);
    EXPECT_EQ(message([&] { (void)cnet.switch_hops(u, v); }), want);
    EXPECT_EQ(message([&] { net.prewarm_route(u, v); }), want);
    EXPECT_EQ(message([&] { (void)net.transfer(u, v, 64, 0.0); }), want);
    EXPECT_FALSE(f.reachable(u, v));
  }
  EXPECT_EQ(f.route(0, 1).blocks, (std::vector<int>{a, b}));
  EXPECT_EQ(message([&] { net.prewarm_route(1, 0); }), "no error");
  EXPECT_EQ(cnet.switch_hops(1, 0), 2);
}

}  // namespace
}  // namespace hfast::core
