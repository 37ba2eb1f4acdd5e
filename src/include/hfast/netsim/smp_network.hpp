#pragma once
/// \file smp_network.hpp
/// Task-level replay network for the SMP provisioning mode: endpoints are
/// tasks, the provisioned fabric connects SMP *nodes*, and a task reaches
/// its node through a backplane link tier with its own bandwidth/latency
/// and zero switch hops.
///
/// Model:
///  * A node hosting a single task IS that task — no backplane hop, no
///    extra vertex. The core owns the NIC, exactly the paper's baseline
///    single-processor-node picture. FabricNetwork is this model with one
///    task per node, so at cores_per_node = 1 replay results are
///    bit-identical to the pre-SMP path (the SmpParity contract).
///  * A node hosting several tasks gets a backplane hub vertex; each
///    co-resident task attaches to it by a duplex backplane link. Traffic
///    between co-resident tasks crosses two backplane links (src -> hub ->
///    dst) and zero packet switches; cross-node traffic pays the source
///    backplane, the node-level fabric route, and the destination
///    backplane. Contention on the shared hub links is exactly the
///    bandwidth-localization price the mode exists to study.

#include <utility>
#include <vector>

#include "hfast/netsim/network.hpp"

namespace hfast::netsim {

/// Node-backplane tier defaults: shared-memory bandwidth well above a NIC
/// link, no switching logic. (The circuit tier default is LinkParams{}.)
inline constexpr LinkParams kBackplaneDefaults{
    /*latency_s=*/100e-9, /*bandwidth_bps=*/16e9, /*switch_overhead_s=*/0.0};

class SmpFabricNetwork final : public FabricNetwork {
 public:
  /// `fabric` is the node-level provisioned fabric (fabric.num_nodes() ==
  /// number of SMP nodes); `node_of_task` maps each task endpoint to its
  /// node. `circuit`/`block_overhead_s` parameterize the fabric tier as in
  /// FabricNetwork; `backplane` parameterizes the intra-node tier.
  SmpFabricNetwork(const core::Fabric& fabric, std::vector<int> node_of_task,
                   const LinkParams& circuit, const LinkParams& backplane,
                   double block_overhead_s)
      : FabricNetwork(fabric, std::move(node_of_task), circuit, backplane,
                      block_overhead_s) {}

  std::string name() const override { return "hfast-smp-fabric"; }

  int num_nodes() const { return fabric_.num_nodes(); }
  int node_of_task(int task) const {
    return node_of_task_[static_cast<std::size_t>(task)];
  }
  bool shares_node(int a, int b) const {
    return node_of_task(a) == node_of_task(b);
  }
  /// True when the node hosts >= 2 tasks (has a backplane hub vertex).
  bool node_has_backplane(int node) const {
    return is_hub(node_vertex_[static_cast<std::size_t>(node)]);
  }
};

}  // namespace hfast::netsim
