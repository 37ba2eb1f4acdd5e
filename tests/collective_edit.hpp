#pragma once
/// Editable nested copy of a collective::Schedule, for tests that tamper
/// with schedules: edited() unpacks the steps into plain vectors, applies
/// the edit, and rebuilds the flat schedule through its builder.

#include <cstdint>
#include <utility>
#include <vector>

#include "hfast/collective/schedule.hpp"

namespace hfast::collective::tamper {

struct Send {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  std::vector<int> chunks;
};
using Step = std::vector<Send>;
using Steps = std::vector<Step>;

/// `shape` (call, algo, P, payload, chunk space) with `steps` as its steps.
inline Schedule packed(Schedule shape, const Steps& steps) {
  shape.clear();
  for (const Step& step : steps) {
    shape.begin_step();
    for (const Send& op : step) {
      shape.add_send(op.src, op.dst, op.bytes, op.chunks);
    }
  }
  return shape;
}

template <typename Edit>
Schedule edited(Schedule s, Edit&& edit) {
  Steps steps(s.num_steps());
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    for (const SendOp& op : s.step(si)) {
      const auto ids = s.chunks_of(op);
      steps[si].push_back({op.src, op.dst, op.bytes, {ids.begin(), ids.end()}});
    }
  }
  std::forward<Edit>(edit)(steps);
  return packed(std::move(s), steps);
}

}  // namespace hfast::collective::tamper
