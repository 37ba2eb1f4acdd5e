/// \file lower.cpp
/// The trace lowering pass (see lower.hpp for the contract).

#include "hfast/collective/lower.hpp"

#include <map>
#include <string>
#include <utility>

#include "hfast/collective/generate.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::collective {
namespace {

/// One derived P2P event of a lowered collective, before rank/op_index/
/// region are attached at emission time.
struct LoweredOp {
  bool is_send = false;
  int peer = 0;
  std::uint64_t bytes = 0;
};

/// Per-rank op sequences for one (call, payload) schedule, shared by every
/// instance with that signature.
struct Template {
  std::vector<std::vector<LoweredOp>> per_rank;
  std::size_t total_ops = 0;
  std::uint64_t total_bytes = 0;
};

Template build_template(const Schedule& schedule) {
  Template t;
  t.per_rank.resize(static_cast<std::size_t>(schedule.nranks));
  for (std::size_t si = 0; si < schedule.num_steps(); ++si) {
    // All of a step's sends precede all of its receives on every rank, so
    // the lowered trace can always progress under FIFO channel matching.
    for (const SendOp& op : schedule.step(si)) {
      t.per_rank[static_cast<std::size_t>(op.src)].push_back(
          {true, op.dst, op.bytes});
      t.total_bytes += op.bytes;
    }
    for (const SendOp& op : schedule.step(si)) {
      t.per_rank[static_cast<std::size_t>(op.dst)].push_back(
          {false, op.src, op.bytes});
    }
  }
  t.total_ops = 2 * schedule.total_sends();
  return t;
}

}  // namespace

LowerResult lower_trace(const trace::Trace& in, const LowerOptions& opts) {
  if (!opts.config.lowers() || in.nranks() == 0) {
    return {in, {}};
  }
  const int n = in.nranks();

  // --- match collective instances across ranks ----------------------------
  std::vector<trace::EventSpan> spans;
  spans.reserve(static_cast<std::size_t>(n));
  // collective_at[r] = span indices of rank r's collective events
  std::vector<std::vector<std::size_t>> collective_at(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    spans.push_back(in.rank_events(r));
    const trace::EventSpan& s = spans.back();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.kind(i) == trace::EventKind::kCollective) {
        collective_at[static_cast<std::size_t>(r)].push_back(i);
      }
    }
    if (collective_at[static_cast<std::size_t>(r)].size() !=
        collective_at[0].size()) {
      throw Error("collective lowering: rank " + std::to_string(r) +
                  " recorded " +
                  std::to_string(collective_at[static_cast<std::size_t>(r)]
                                     .size()) +
                  " collectives but rank 0 recorded " +
                  std::to_string(collective_at[0].size()) +
                  " — the trace's collective sequences are misaligned");
    }
  }
  const std::size_t instances = collective_at[0].size();

  LowerStats stats;
  stats.instances = instances;
  stats.collective_events = instances * static_cast<std::size_t>(n);

  // --- resolve one schedule per distinct (call, payload) ------------------
  // kAuto and kSynth price every signature under the topology's hops: one
  // HopTable per lowering serves the selector, every search and the memo's
  // topology digest, so each pair is asked of the oracle at most once.
  const bool priced = opts.config.schedule == ScheduleKind::kAuto ||
                      opts.config.schedule == ScheduleKind::kSynth;
  const HopFn hops = priced ? tabulate_hops(n, opts.hops) : opts.hops;
  // kSynth searches per signature; its options (and the topology digest,
  // only needed when a memo is attached) are derived once here.
  SynthesisOptions sopts;
  if (opts.config.schedule == ScheduleKind::kSynth) {
    sopts.cost = opts.cost;
    sopts.hops = hops;
    sopts.node_of_rank = opts.node_of_rank;
    sopts.seed = opts.config.synth_seed;
    sopts.memo = opts.synth_memo;
    if (sopts.memo != nullptr) {
      sopts.topology_digest = topology_hash(n, hops);
    }
  }
  std::map<std::pair<mpisim::CallType, std::uint64_t>, Template> cache;
  std::vector<const Template*> instance_template(instances);
  std::size_t extra_ops = 0;
  for (std::size_t k = 0; k < instances; ++k) {
    const mpisim::CallType call = spans[0].call(collective_at[0][k]);
    std::uint64_t payload = 0;
    for (int r = 0; r < n; ++r) {
      const std::size_t i = collective_at[static_cast<std::size_t>(r)][k];
      if (spans[static_cast<std::size_t>(r)].call(i) != call) {
        throw Error(
            "collective lowering: instance " + std::to_string(k) + " is " +
            std::string(mpisim::call_name(call)) + " on rank 0 but " +
            std::string(
                mpisim::call_name(spans[static_cast<std::size_t>(r)].call(i))) +
            " on rank " + std::to_string(r));
      }
      payload = std::max(payload,
                         spans[static_cast<std::size_t>(r)].bytes(i));
    }
    auto [it, inserted] = cache.try_emplace({call, payload});
    if (inserted) {
      const std::vector<int>* map =
          opts.node_of_rank.empty() ? nullptr : &opts.node_of_rank;
      const Schedule schedule =
          opts.config.schedule == ScheduleKind::kAuto
              ? select_schedule(call, n, payload, opts.cost, hops, map)
          : opts.config.schedule == ScheduleKind::kSynth
              ? synthesize(call, n, payload, sopts).schedule
              : resolve_schedule(opts.config.schedule, call, n, payload, map);
      it->second = build_template(schedule);
    }
    instance_template[k] = &it->second;
    extra_ops += it->second.total_ops;
    stats.p2p_events += it->second.total_ops;
    stats.bytes += it->second.total_bytes;
  }
  stats.schedules = cache.size();

  // --- emit the derived trace (rank-major, dense op_index) ----------------
  trace::EventColumns out;
  out.reserve(in.columns().size() + extra_ops - stats.collective_events);
  for (int r = 0; r < n; ++r) {
    const trace::EventSpan& s = spans[static_cast<std::size_t>(r)];
    std::uint64_t next_op = 0;
    std::size_t next_instance = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.kind(i) != trace::EventKind::kCollective) {
        out.push_back({static_cast<trace::Rank>(r), next_op++, s.kind(i),
                       s.call(i), s.peer(i), s.bytes(i), s.region(i)});
        continue;
      }
      const Template& t = *instance_template[next_instance++];
      const std::uint16_t region = s.region(i);
      for (const LoweredOp& op : t.per_rank[static_cast<std::size_t>(r)]) {
        out.push_back({static_cast<trace::Rank>(r), next_op++,
                       op.is_send ? trace::EventKind::kSend
                                  : trace::EventKind::kRecv,
                       op.is_send ? mpisim::CallType::kSend
                                  : mpisim::CallType::kRecv,
                       static_cast<trace::Rank>(op.peer), op.bytes, region});
      }
    }
  }
  return {trace::Trace(n, std::move(out), in.region_names()), stats};
}

}  // namespace hfast::collective
