#pragma once
/// \file fields.hpp
/// Single source of truth for the named fields of ExperimentConfig.
///
/// The binary codec (store/codec.cpp) and the JSON exporter
/// (analysis/export.cpp) both iterate this visitor, in this order, so a
/// field added here is automatically serialized in both forms and a field
/// name can never drift between them. Visitors receive (name, reference)
/// pairs and dispatch on the reference type:
///   std::string, int, bool, double, std::uint64_t, mpisim::EngineKind,
///   core::SmpPacking, collective::ScheduleKind.
///
/// ORDER AND NAMES ARE PART OF THE ON-DISK FORMAT: reordering, renaming, or
/// retyping a field changes every cache key and store payload — bump
/// store::kFormatVersion when you touch this list.

#include <utility>

#include "hfast/analysis/experiment.hpp"

namespace hfast::store {

/// Visit every field of an ExperimentConfig (const or mutable) in canonical
/// order. Encoding visits a `const ExperimentConfig&`; decoding visits a
/// mutable one and assigns through the references, so the two directions
/// cannot disagree about the field list.
template <typename Config, typename Visitor>
void visit_config_fields(Config& config, Visitor&& visit) {
  visit("app", config.app);
  visit("nranks", config.nranks);
  visit("iterations", config.iterations);
  visit("seed", config.seed);
  visit("capture_trace", config.capture_trace);
  visit("engine", config.engine);
  visit("sched_seed", config.sched_seed);
  visit("smp_cores_per_node", config.smp.cores_per_node);
  visit("smp_packing", config.smp.packing);
  visit("collective_schedule", config.collective.schedule);
  visit("collective_synth_seed", config.collective.synth_seed);
  visit("reconfig_windows", config.reconfig.num_windows);
  visit("reconfig_hysteresis", config.reconfig.hysteresis_windows);
  visit("reconfig_seconds", config.reconfig.reconfig_seconds);
  visit("reconfig_cutoff", config.reconfig.cutoff);
}

}  // namespace hfast::store
