#pragma once
/// \file synthesize.hpp
/// Collective schedule synthesis: a bounded, deterministic search over
/// step-structured schedules per (call, P, topology), instead of picking
/// among the canned families ("Synthesizing Optimal Collective Algorithms"
/// is the formulation; see DESIGN.md "Collective synthesis").
///
/// The search keeps a cost frontier over candidates drawn from
///  * the canned families (exactly select_schedule's candidate set — this
///    seeds the frontier, so the result is NEVER costlier than kAuto's
///    pick under the same CostParams/HopFn), and
///  * parametric skeletons: k-nomial broadcast/reduce/allreduce trees,
///    radix-r dissemination, radix-r Bruck allgather and alltoall, and
///    permuted rings — each instantiated over the identity order,
///    topology-derived rank orders (hop-greedy tour, distance-sorted) and
///    two LCG-seeded random orders.
/// Every candidate is priced by estimate_cost under the target hop function
/// first; one that would become the best is then proven by
/// validate_schedule and dropped if it fails, so every admitted schedule,
/// and so the returned one, is proven.
/// Ties break on (cost, fewer steps, fewer sends, generation index), so a
/// fixed seed yields a byte-stable schedule across runs.

#include <cstdint>
#include <optional>
#include <vector>

#include "hfast/collective/cost.hpp"
#include "hfast/collective/schedule.hpp"

namespace hfast::collective {

/// Cross-run memo for synthesized schedules (implemented by
/// store::ScheduleCache; the interface lives here so the collective layer
/// never depends on the store layer). Keys come from synth_key(). A load
/// may return nullopt for any reason (miss, corrupt entry, stale file) —
/// synthesize() re-searches and re-saves.
class SynthMemo {
 public:
  virtual ~SynthMemo() = default;
  virtual std::optional<Schedule> load(std::uint64_t key) = 0;
  virtual void save(std::uint64_t key, const Schedule& schedule) = 0;
};

struct SynthesisOptions {
  CostParams cost;
  /// Target topology's hop function (e.g. a bound Network::switch_hops);
  /// empty means one hop per pair (topology-blind search). The search reads
  /// it through a HopTable: this one when it holds one, else its own.
  HopFn hops;
  /// SMP node map; consulted by the hierarchical seed family only (same
  /// contract as select_schedule).
  std::vector<int> node_of_rank;
  /// Candidate-LCG seed: fixes the random rank orders.
  std::uint64_t seed = 1;
  /// Optional cross-run memo. When set, `topology_digest` must identify
  /// the hop function (use topology_hash()); it salts the memo key so a
  /// cache directory can serve many fabrics.
  SynthMemo* memo = nullptr;
  std::uint64_t topology_digest = 0;
};

struct SynthesisResult {
  Schedule schedule;       ///< the frontier winner; algo == kSynth
  double cost = 0.0;       ///< estimate_cost of `schedule`
  double auto_cost = 0.0;  ///< estimate_cost of select_schedule's pick
  ScheduleKind auto_algo = ScheduleKind::kRing;  ///< that pick's family
  std::size_t candidates = 0;  ///< structures generated (incl. invalid)
  /// Structures proven by validate_schedule. Only a candidate that would
  /// become the new best is proven, so this counts admissions attempted
  /// and passed, not every structure that would pass.
  std::size_t validated = 0;
  bool from_memo = false;      ///< served by opts.memo, no search ran
  /// False when the validation state (P x chunk space) exceeded the
  /// affordability guard and synthesis returned the kAuto pick unsearched.
  bool searched = true;
};

/// One parametric skeleton of the search: a generator id (never 0, which
/// marks canned seeds) and its radix or tree arity (0 if it takes none).
struct Skeleton {
  int gen = 0;
  int param = 0;
};

/// The skeletons the search instantiates for `call` at P = `nranks`.
std::vector<Skeleton> skeletons(mpisim::CallType call, int nranks);

/// Builds `skeleton` over the rank order `order` (order[0] == 0 for rooted
/// calls) into `out`, replacing its contents but keeping its capacity.
void instantiate(Schedule& out, Skeleton skeleton,
                 const std::vector<int>& order, mpisim::CallType call,
                 std::uint64_t payload);

/// FNV-1a digest of the full P x P hop matrix under `hops` — the
/// topology component of the memo key. O(P^2) hop queries; compute once
/// per (trace, fabric), not per collective instance.
std::uint64_t topology_hash(int nranks, const HopFn& hops);

/// Memo key: digest of (format salt, call, P, payload, topology digest,
/// cost params, seed, node map). Two synthesize() calls with
/// equal keys produce byte-identical schedules.
std::uint64_t synth_key(mpisim::CallType call, int nranks,
                        std::uint64_t payload, const SynthesisOptions& opts);

/// Run the bounded search for one collective instance. The returned
/// schedule always passes validate_schedule and always satisfies
/// result.cost <= result.auto_cost. Deterministic for fixed
/// (call, nranks, payload, opts): byte-identical schedules across runs.
SynthesisResult synthesize(mpisim::CallType call, int nranks,
                           std::uint64_t payload,
                           const SynthesisOptions& opts = {});

}  // namespace hfast::collective
