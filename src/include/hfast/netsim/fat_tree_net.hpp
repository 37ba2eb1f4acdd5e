#pragma once
/// \file fat_tree_net.hpp
/// Structural fat-tree network: a k-ary n-tree (k = radix/2) with explicit
/// switches and links, destination-based (D-mod-k) up-routing, and full
/// internal contention — the honest counterpart to netsim::FatTreeNetwork's
/// idealized non-blocking interior. Used by the fat-tree fidelity ablation:
/// the idealized model favors the fat-tree baseline, the structural model
/// shows what adversarial traffic does to a real tree.
///
/// Switch addressing: level l in [1, n] and position w in [0, k^(n-1)).
/// Endpoint e attaches to leaf (1, e/k). A switch (l, w) serves endpoint e
/// iff digits l-1..n-2 of w equal digits l..n-1 of e (low position digits
/// are the multipath freedom). Up-routing from s to d climbs to the first
/// level m where s and d share all digits >= m, rewriting each freed digit
/// to d's — so the descent is the unique down-path to d. Packet switches
/// traversed = 2m-1, matching the analytic topo::FatTree accounting.

#include <cstdint>
#include <string>
#include <vector>

#include "hfast/netsim/network.hpp"

namespace hfast::netsim {

class StructuralFatTree final : public LinkNetwork {
 public:
  /// Builds the smallest k-ary n-tree (k = radix/2 >= 2) with capacity
  /// k^n >= num_endpoints. Note: capacity differs from topo::FatTree's
  /// 2*(N/2)^L analytic form by up to one level; hop counts still follow
  /// the 2l-1 law.
  StructuralFatTree(int num_endpoints, int radix, const LinkParams& params);

  std::string name() const override;
  int num_endpoints() const override { return endpoints_; }
  double transfer(int src, int dst, std::uint64_t bytes, double start) override;
  void prewarm_route(int /*src*/, int /*dst*/) override {}
  int switch_hops(int src, int dst) const override;

  int levels() const noexcept { return levels_; }
  int arity() const noexcept { return k_; }
  std::uint64_t num_switches() const noexcept {
    return static_cast<std::uint64_t>(levels_) *
           static_cast<std::uint64_t>(positions_);
  }

  /// First level at which src and dst share a subtree (the paper's l in
  /// "2l-1 switch traversals").
  int common_level(int src, int dst) const;

 private:
  int switch_vertex(int level, int pos) const {
    return endpoints_ + (level - 1) * positions_ + pos;
  }
  /// Position digits: digit i of a position is base-k digit i.
  static int replace_digit(int pos, int digit_index, int value, int k);
  static int digit(int value, int digit_index, int k);

  std::vector<int> route_links(int src, int dst) const;

  int endpoints_;
  int k_;
  int levels_;
  int positions_;  // k^(levels-1)
};

}  // namespace hfast::netsim
