/// \file cost.cpp
/// Alpha-beta-hop schedule cost and the cost-based selector.

#include "hfast/collective/cost.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "hfast/collective/generate.hpp"
#include "hfast/collective/verify.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::collective {

HopTable::HopTable(int nranks, HopFn hops)
    : n_(nranks), cells_(std::make_shared<Cells>()) {
  HFAST_EXPECTS_MSG(nranks >= 0 && nranks <= kMaxRanks,
                    "HopTable: nranks outside [0, kMaxRanks]");
  const auto n = static_cast<std::size_t>(nranks);
  cells_->oracle = std::move(hops);
  cells_->hops = std::make_unique_for_overwrite<int[]>(n * n);
  std::fill_n(cells_->hops.get(), n * n, -1);
  for (std::size_t i = 0; i < n; ++i) cells_->hops[i * n + i] = 0;
}

int HopTable::read(int u, int v, std::size_t at) const {
  const int h = cells_->oracle ? cells_->oracle(u, v) : 1;
  cells_->hops[at] = h;
  return h;
}

HopFn tabulate_hops(int nranks, HopFn hops) {
  if (!hops || nranks > HopTable::kMaxRanks) return hops;
  if (const HopTable* t = hops.target<HopTable>();
      t != nullptr && t->nranks() >= nranks) {
    return hops;
  }
  return HopTable(nranks, std::move(hops));
}

namespace {

/// estimate_cost over any hop source; one body, so pricing through a
/// table and through the oracle it was read from is bit-identical.
template <typename Hops>
double cost_over(const Schedule& schedule, const CostParams& params,
                 const Hops& hops) {
  // load[2r], load[2r + 1]: bytes rank r sends, receives in this step.
  std::vector<std::uint64_t> load(2 *
                                  static_cast<std::size_t>(schedule.nranks));
  const auto slot = [&load](int rank, int dir) -> std::uint64_t& {
    return load[2 * static_cast<std::size_t>(rank) + dir];
  };
  double total = 0.0;
  for (std::size_t si = 0; si < schedule.num_steps(); ++si) {
    const std::span<const SendOp> step = schedule.step(si);
    if (step.empty()) continue;  // adds 0.0
    // The step runs as long as its slowest endpoint serializes (loads only
    // grow, so the running maximum is the final one) plus its slowest
    // message's launch latency, which is monotone in the hop count.
    std::uint64_t serial = 0;
    int fewest = std::numeric_limits<int>::max();
    int most = std::numeric_limits<int>::min();
    for (const SendOp& op : step) {
      serial = std::max({serial, slot(op.src, 0) += op.bytes,
                         slot(op.dst, 1) += op.bytes});
      const int h = hops(op.src, op.dst);
      fewest = std::min(fewest, h);
      most = std::max(most, h);
    }
    for (const SendOp& op : step) slot(op.src, 0) = slot(op.dst, 1) = 0;
    const auto launch = [&params](int h) {
      return params.base_latency_s + h * params.per_hop_s;
    };
    const double latency = std::max({0.0, launch(fewest), launch(most)});
    total += latency + static_cast<double>(serial) / params.bandwidth_bps;
  }
  return total;
}

}  // namespace

double estimate_cost(const Schedule& schedule, const CostParams& params,
                     const HopFn& hops) {
  if (const HopTable* t = hops.target<HopTable>()) {
    return cost_over(schedule, params, *t);
  }
  if (!hops) return cost_over(schedule, params, [](int, int) { return 1; });
  return cost_over(schedule, params, hops);
}

Schedule select_schedule(mpisim::CallType call, int nranks,
                         std::uint64_t payload, const CostParams& params,
                         const HopFn& hops,
                         const std::vector<int>* node_of_rank) {
  HFAST_EXPECTS_MSG(mpisim::is_collective(call),
                    "select_schedule: not a collective call");
  // Hierarchical joins the candidate set only when the node map actually
  // groups ranks (some node holds more than one rank).
  bool smp = false;
  if (node_of_rank != nullptr &&
      static_cast<int>(node_of_rank->size()) == nranks && nranks > 1) {
    std::vector<int> nodes(*node_of_rank);
    std::sort(nodes.begin(), nodes.end());
    smp = std::unique(nodes.begin(), nodes.end()) - nodes.begin() < nranks;
  }
  // Tie-break: when two families cost identically (bit-equal doubles, e.g.
  // single-step schedules at small P), the family with the LOWEST
  // ScheduleKind enum value wins. The comparison is explicit on (cost,
  // enum) rather than relying on iteration order so the contract survives
  // reorderings of the candidate list (regression-tested in
  // test_collective_synthesize.cpp).
  // Candidates are generated into one buffer, swapped with the best's.
  Schedule best;
  Schedule candidate;
  bool found = false;
  double best_cost = 0.0;
  for (ScheduleKind kind :
       {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
        ScheduleKind::kBinomial, ScheduleKind::kBruck,
        ScheduleKind::kPairwise, ScheduleKind::kHierarchical}) {
    if (kind == ScheduleKind::kHierarchical && !smp) continue;
    if (!generate_into(candidate, kind, call, nranks, payload, node_of_rank)) {
      continue;
    }
    const double cost = estimate_cost(candidate, params, hops);
    const bool wins =
        !found || cost < best_cost ||
        (cost == best_cost &&
         static_cast<int>(kind) < static_cast<int>(best.algo));
    if (wins) {
      std::swap(best, candidate);
      best_cost = cost;
      found = true;
    }
  }
  HFAST_ASSERT_MSG(found,
                   "every collective call must have a candidate schedule");
  return best;
}

}  // namespace hfast::collective
