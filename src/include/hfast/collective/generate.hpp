#pragma once
/// \file generate.hpp
/// Collective schedule generators: one function per (algorithm family x
/// collective call) combination, all returning the step IR of schedule.hpp.
/// Every generated schedule satisfies validate_schedule() (property-tested
/// across algorithms, calls, and world sizes).
///
/// Not every family applies to every call (ring has no alltoall, Bruck has
/// no bcast, ...): generate_schedule returns nullopt for inapplicable
/// combinations and resolve_schedule falls back to the call's canonical
/// default family, so a forced `--collective-schedule ring` still lowers a
/// barrier (via dissemination) instead of failing the run.

#include <cstdint>
#include <optional>
#include <vector>

#include "hfast/collective/schedule.hpp"

namespace hfast::collective {

/// Rooted collectives are always generated with canonical root 0: the trace
/// records neither roots nor communicators, and the analytic baseline this
/// subsystem replaces is equally root-blind (see DESIGN.md "Collective
/// lowering" for the modeling consequences).
///
/// `node_of_rank` (one SMP node id per world rank, any labeling) is only
/// consulted by kHierarchical; pass nullptr (or an empty/singleton-node
/// map) and the hierarchical family degenerates to the flat defaults.
/// Returns nullopt when `algo` has no generator for `call`.
std::optional<Schedule> generate_schedule(
    ScheduleKind algo, mpisim::CallType call, int nranks,
    std::uint64_t payload, const std::vector<int>* node_of_rank = nullptr);

/// generate_schedule into `out`, replacing its contents but keeping its
/// capacity; false (with `out` unspecified) when generate_schedule would
/// return nullopt.
bool generate_into(Schedule& out, ScheduleKind algo, mpisim::CallType call,
                   int nranks, std::uint64_t payload,
                   const std::vector<int>* node_of_rank = nullptr);

/// Canonical default family per call: binomial for the rooted ops, ring for
/// allreduce/allgather/reduce-scatter, recursive doubling for
/// barrier/comm-split/scan, Bruck for alltoall(v).
ScheduleKind default_algorithm(mpisim::CallType call) noexcept;

/// generate_schedule with the default-family fallback applied; always
/// returns a schedule for any collective CallType. Calling with a
/// non-collective `call` or with kAnalytic/kAuto as `algo` is a
/// precondition violation (those are not generators — the lowering pass
/// and selector handle them).
Schedule resolve_schedule(ScheduleKind algo, mpisim::CallType call,
                          int nranks, std::uint64_t payload,
                          const std::vector<int>* node_of_rank = nullptr);

}  // namespace hfast::collective
