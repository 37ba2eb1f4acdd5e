#pragma once
/// \file cost.hpp
/// Alpha-beta-hop cost model over schedules, and the cost-based selector.
/// A step costs its worst endpoint serialization (max over ranks of
/// max(bytes out, bytes in) at `bandwidth_bps`) plus its worst launch
/// latency (max over sends of base latency + switch hops x per-hop cost);
/// the schedule costs the sum of its steps. Topology awareness enters
/// through the hop function — pass Network::switch_hops and the selector
/// ranks schedules for that fabric; pass nothing and every send counts one
/// hop (topology-blind step/volume tradeoff only).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hfast/collective/schedule.hpp"

namespace hfast::collective {

/// Switch hops between two world ranks (e.g. a bound Network::switch_hops).
/// An empty function means "one hop for every pair".
using HopFn = std::function<int(int, int)>;

/// Dense row-major P x P hop matrix over a HopFn, filled on first read:
/// each ordered pair i != j is queried at most once, when it is first
/// read; the diagonal is 0 and never queried (network oracles reject
/// u == v). Copies share the matrix and the oracle, so a HopFn holding a
/// HopTable is cheap to pass around, and estimate_cost reads such a
/// HopFn's table directly instead of calling it per send. Answers pairs of
/// ranks below nranks() only; like the oracles it wraps, not thread-safe.
class HopTable {
 public:
  /// Largest world a table is built for: P^2 ints (4 MiB), the same P^2
  /// budget the synthesizer's rank orders spend.
  static constexpr int kMaxRanks = 1024;

  HopTable(int nranks, HopFn hops);

  int nranks() const noexcept { return n_; }
  int operator()(int u, int v) const {
    const std::size_t at =
        static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
        static_cast<std::size_t>(v);
    const int h = cells_->hops[at];
    return h >= 0 ? h : read(u, v, at);
  }

 private:
  struct Cells {
    HopFn oracle;
    std::unique_ptr<int[]> hops;  // -1 until read
  };
  int read(int u, int v, std::size_t at) const;

  int n_ = 0;
  std::shared_ptr<Cells> cells_;
};

/// `hops` answered from a HopTable: a non-empty oracle at
/// nranks <= HopTable::kMaxRanks gets a new table (no query is made
/// until a pair is read). An empty function, one already holding a table
/// of at least `nranks` ranks, or a larger world is returned unchanged.
HopFn tabulate_hops(int nranks, HopFn hops);

struct CostParams {
  double base_latency_s = 50e-9;  ///< per-message launch cost (alpha)
  double per_hop_s = 50e-9;       ///< additional cost per switch hop
  double bandwidth_bps = 2e9;     ///< endpoint serialization rate (1/beta)
};

/// Estimated execution time of a schedule under the model above.
double estimate_cost(const Schedule& schedule, const CostParams& params = {},
                     const HopFn& hops = {});

/// Generate every applicable family for `call`, validate each, and return
/// the cheapest under estimate_cost. Tie-break contract: when two families
/// cost exactly the same (bit-equal doubles), the one with the LOWEST
/// ScheduleKind enum value wins — the comparison is explicit on
/// (cost, enum), not an artifact of iteration order, so selection stays
/// deterministic under candidate-list reorderings.
/// kHierarchical joins the candidate set only when `node_of_rank` actually
/// aggregates ranks into nodes.
Schedule select_schedule(mpisim::CallType call, int nranks,
                         std::uint64_t payload, const CostParams& params = {},
                         const HopFn& hops = {},
                         const std::vector<int>* node_of_rank = nullptr);

}  // namespace hfast::collective
