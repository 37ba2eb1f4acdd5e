#pragma once
/// \file replay_parallel.hpp
/// The sharded replay's former spelling. Sharded replay is replay() with
/// ReplayOptions::shards != 1 (see replay.hpp). This forward stays only
/// because perfbench/pipeline_bench.cpp still calls it, and the
/// benchmark's sources are held fixed so that runs on different commits
/// measure the same benchmark code. Everything else calls replay().

#include "hfast/netsim/replay.hpp"

namespace hfast::netsim {

/// replay() with a default of 0 shards (hardware concurrency).
inline ReplayResult parallel_replay(const trace::Trace& trace, Network& net,
                                    const ReplayParams& params = {},
                                    const ReplayOptions& options = {
                                        .shards = 0}) {
  return replay(trace, net, params, options);
}

}  // namespace hfast::netsim
