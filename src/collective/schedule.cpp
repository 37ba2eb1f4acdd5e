/// \file schedule.cpp
/// Schedule IR odds and ends: kind naming (mirrors core::packing_name /
/// mpisim::engine_name so CLI flags and JSON export share one vocabulary)
/// and schedule totals.

#include "hfast/collective/schedule.hpp"

#include <string>

#include "hfast/util/assert.hpp"

namespace hfast::collective {

std::string_view schedule_name(ScheduleKind kind) noexcept {
  switch (kind) {
    case ScheduleKind::kAnalytic: return "analytic";
    case ScheduleKind::kRing: return "ring";
    case ScheduleKind::kRecursiveDoubling: return "rd";
    case ScheduleKind::kBinomial: return "binomial";
    case ScheduleKind::kBruck: return "bruck";
    case ScheduleKind::kPairwise: return "pairwise";
    case ScheduleKind::kHierarchical: return "hierarchical";
    case ScheduleKind::kAuto: return "auto";
    case ScheduleKind::kSynth: return "synth";
  }
  return "unknown";
}

ScheduleKind parse_schedule(std::string_view name) {
  for (ScheduleKind kind : all_schedule_kinds()) {
    if (name == schedule_name(kind)) return kind;
  }
  throw Error("unknown collective schedule: " + std::string(name) +
              " (expected analytic|ring|rd|binomial|bruck|pairwise|"
              "hierarchical|auto|synth)");
}

const std::vector<ScheduleKind>& all_schedule_kinds() {
  static const std::vector<ScheduleKind> kinds{
      ScheduleKind::kAnalytic,     ScheduleKind::kRing,
      ScheduleKind::kRecursiveDoubling, ScheduleKind::kBinomial,
      ScheduleKind::kBruck,        ScheduleKind::kPairwise,
      ScheduleKind::kHierarchical, ScheduleKind::kAuto,
      ScheduleKind::kSynth,
  };
  return kinds;
}

void Schedule::add_send(int src, int dst, std::uint64_t bytes,
                        std::span<const int> ids) {
  HFAST_EXPECTS_MSG(ids.size() <= kMaxChunkIds - chunks.size(),
                    "schedule: arena full");
  sends.push_back({src, dst, bytes, static_cast<std::uint32_t>(chunks.size()),
                   static_cast<std::uint32_t>(ids.size())});
  chunks.insert(chunks.end(), ids.begin(), ids.end());
}

void Schedule::pop_step() {
  const std::size_t first = step_begin.back();
  step_begin.pop_back();
  if (first < sends.size()) chunks.resize(sends[first].chunk_begin);
  sends.resize(first);
}

void Schedule::clear() noexcept {
  step_begin.clear();
  sends.clear();
  chunks.clear();
}

std::uint64_t Schedule::total_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const SendOp& op : sends) n += op.bytes;
  return n;
}

}  // namespace hfast::collective
