/// Property tests: provisioning invariants over randomized communication
/// graphs (parameterized over seeds and densities).

#include <gtest/gtest.h>

#include "hfast/util/assert.hpp"

#include "hfast/core/provision.hpp"
#include "hfast/graph/clique.hpp"
#include "hfast/util/random.hpp"

namespace hfast::core {
namespace {

// gtest prints this parameter as a byte dump, and gtest_discover_tests
// keeps that dump in the ctest name. The padding the compiler would put
// after `nodes` and `block_size` is spelled out as zeroed members so every
// byte of the dump, and with it the test name, is the same on every build.
struct RandomGraphCase {
  std::uint64_t seed;
  int nodes;
  int pad0 = 0;
  double density;
  int block_size;
  int pad1 = 0;
};
static_assert(sizeof(RandomGraphCase) == 32, "RandomGraphCase has padding");

RandomGraphCase make_case(std::uint64_t seed, int nodes, double density,
                          int block_size) {
  return {.seed = seed,
          .nodes = nodes,
          .density = density,
          .block_size = block_size};
}

graph::CommGraph random_graph(const RandomGraphCase& c) {
  util::Rng rng(c.seed);
  graph::CommGraph g(c.nodes);
  for (int i = 0; i < c.nodes; ++i) {
    for (int j = i + 1; j < c.nodes; ++j) {
      if (rng.chance(c.density)) {
        // Mix sizes so thresholding has something to do.
        const std::uint64_t bytes = rng.chance(0.7) ? 4096 + rng.uniform(65536)
                                                    : 1 + rng.uniform(1024);
        g.add_message(i, j, bytes, 1 + rng.uniform(8));
      }
    }
  }
  return g;
}

class ProvisionProperty : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(ProvisionProperty, BothStrategiesProduceValidServingFabrics) {
  const auto g = random_graph(GetParam());
  ProvisionParams params;
  params.block_size = GetParam().block_size;

  for (auto strategy : {ProvisionStrategy::kGreedyPerNode,
                        ProvisionStrategy::kCliqueShared}) {
    const auto prov = provision(g, params, strategy);
    // Structural invariants.
    prov.fabric.validate();
    // Every thresholded edge routable.
    EXPECT_TRUE(prov.fabric.serves(g, params.cutoff));
    // Port budgets respected everywhere.
    for (int b = 0; b < prov.fabric.num_blocks(); ++b) {
      const auto& blk = prov.fabric.block(b);
      EXPECT_GE(blk.num_free(), 0);
      EXPECT_EQ(blk.num_free() + blk.num_host() + blk.num_trunk(),
                blk.num_ports());
    }
    // Every node has exactly one home.
    for (int n = 0; n < g.num_nodes(); ++n) {
      EXPECT_GE(prov.fabric.home_block(n), 0);
    }
    // Accounting consistency.
    EXPECT_EQ(prov.stats.num_blocks, prov.fabric.num_blocks());
    EXPECT_EQ(prov.fabric.total_host_ports(), g.num_nodes());
    EXPECT_EQ(prov.fabric.total_trunk_ports() % 2, 0);
  }
}

TEST_P(ProvisionProperty, GreedyBlockCountMatchesClosedForm) {
  const auto g = random_graph(GetParam());
  ProvisionParams params;
  params.block_size = GetParam().block_size;
  const auto prov = provision_greedy(g, params);
  int expected = 0;
  for (int d : g.degrees(params.cutoff)) {
    expected += greedy_blocks_for_degree(d, params.block_size);
  }
  EXPECT_EQ(prov.stats.num_blocks, expected);
}

TEST_P(ProvisionProperty, CliqueNeverUsesMoreBlocksThanGreedy) {
  const auto g = random_graph(GetParam());
  ProvisionParams params;
  params.block_size = GetParam().block_size;
  const auto greedy = provision_greedy(g, params);
  const auto clique = provision_clique(g, params);
  EXPECT_LE(clique.stats.num_blocks, greedy.stats.num_blocks);
}

TEST_P(ProvisionProperty, CliqueCoverIsValid) {
  const auto g = random_graph(GetParam()).thresholded(graph::kBdpCutoffBytes);
  const auto cover = graph::greedy_edge_clique_cover(
      g, static_cast<std::size_t>(GetParam().block_size - 1));
  EXPECT_TRUE(graph::is_valid_clique_cover(g, cover));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ProvisionProperty,
    ::testing::Values(make_case(1, 12, 0.15, 16),
                      make_case(2, 12, 0.5, 16),
                      make_case(3, 12, 0.9, 16),
                      make_case(4, 24, 0.3, 16),
                      make_case(5, 24, 0.7, 8),
                      make_case(6, 40, 0.1, 16),
                      make_case(7, 40, 0.5, 8),
                      make_case(8, 64, 0.2, 16),
                      make_case(9, 64, 0.8, 16),
                      make_case(10, 96, 0.05, 6)),
    [](const ::testing::TestParamInfo<RandomGraphCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) + "_s" +
             std::to_string(info.param.block_size);
    });

}  // namespace
}  // namespace hfast::core
