/// \file cost.cpp
/// Alpha-beta-hop schedule cost and the cost-based selector.

#include "hfast/collective/cost.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
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
  const int n = schedule.nranks;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> in(static_cast<std::size_t>(n), 0);
  std::vector<int> touched;
  double total = 0.0;
  for (const Step& step : schedule.steps) {
    double latency = 0.0;
    for (const SendOp& op : step.sends) {
      if (out[static_cast<std::size_t>(op.src)] == 0 &&
          in[static_cast<std::size_t>(op.src)] == 0) {
        touched.push_back(op.src);
      }
      if (out[static_cast<std::size_t>(op.dst)] == 0 &&
          in[static_cast<std::size_t>(op.dst)] == 0) {
        touched.push_back(op.dst);
      }
      out[static_cast<std::size_t>(op.src)] += op.bytes;
      in[static_cast<std::size_t>(op.dst)] += op.bytes;
      const int h = hops(op.src, op.dst);
      latency = std::max(latency,
                         params.base_latency_s + h * params.per_hop_s);
    }
    // The step runs as long as its slowest endpoint serializes plus its
    // slowest message's launch latency.
    std::uint64_t serial = 0;
    for (int r : touched) {
      serial = std::max({serial, out[static_cast<std::size_t>(r)],
                         in[static_cast<std::size_t>(r)]});
      out[static_cast<std::size_t>(r)] = 0;
      in[static_cast<std::size_t>(r)] = 0;
    }
    touched.clear();
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
  std::optional<Schedule> best;
  double best_cost = 0.0;
  for (ScheduleKind kind :
       {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
        ScheduleKind::kBinomial, ScheduleKind::kBruck,
        ScheduleKind::kPairwise, ScheduleKind::kHierarchical}) {
    if (kind == ScheduleKind::kHierarchical && !smp) continue;
    auto candidate =
        generate_schedule(kind, call, nranks, payload, node_of_rank);
    if (!candidate.has_value()) continue;
    const double cost = estimate_cost(*candidate, params, hops);
    const bool wins =
        !best.has_value() || cost < best_cost ||
        (cost == best_cost &&
         static_cast<int>(kind) < static_cast<int>(best->algo));
    if (wins) {
      best = std::move(candidate);
      best_cost = cost;
    }
  }
  HFAST_ASSERT_MSG(best.has_value(),
                   "every collective call must have a candidate schedule");
  return std::move(*best);
}

}  // namespace hfast::collective
