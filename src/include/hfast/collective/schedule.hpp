#pragma once
/// \file schedule.hpp
/// Step-structured collective schedule IR. A Schedule is the lowering
/// contract between the algorithm generators (generate.hpp), the
/// correctness validator (verify.hpp), the cost model (cost.hpp), and the
/// trace lowering pass (lower.hpp): a sequence of steps, each a set of
/// rank->rank sends that may proceed concurrently. Step boundaries are
/// data-dependency barriers — a send in step s may carry only data its
/// source held *before* step s (received in steps < s or owned initially),
/// which is exactly the property the validator enforces and the property
/// that makes the FIFO-matched trace replay of a lowered schedule
/// deadlock-free (every rank issues all of a step's sends before any of
/// its receives).
///
/// Chunk ids are purely semantic — they let the validator prove full
/// delivery/reduction without constraining what a generator charges for a
/// send (`SendOp::bytes` is always explicit, so compositions like binomial
/// gather can grow payloads without chunk-size bookkeeping). Their meaning
/// is per-call (see verify.cpp): a split of the vector for
/// allreduce/reduce-scatter, one id per origin for gather/allgather, one id
/// per (origin, destination) block for alltoall.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hfast/mpisim/types.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::collective {

/// Which lowering a replay driver applies to trace collectives.
enum class ScheduleKind : std::uint8_t {
  /// No lowering: collectives priced by the analytic dedicated-tree formula
  /// (paper §2.4, the replay stepper's collective case) — the pre-lowering baseline,
  /// bit-identical to it by construction.
  kAnalytic,
  /// Ring: chunked reduce-scatter + allgather for allreduce (the classic
  /// 2(P-1)-step bandwidth-optimal schedule), relay chains for rooted ops.
  kRing,
  /// Recursive doubling (with a fold step for non-power-of-two P), plus the
  /// dissemination barrier and recursive-halving reduce-scatter.
  kRecursiveDoubling,
  /// Binomial trees for the rooted ops; allreduce as reduce + bcast.
  kBinomial,
  /// Bruck: ceil(log2 P)-round allgather and alltoall for any P.
  kBruck,
  /// Pairwise exchange alltoall (XOR partners at power-of-two P, ring
  /// offsets otherwise).
  kPairwise,
  /// Two-level SMP split: intra-node legs as single-step stars through the
  /// node leader (they ride the node backplane), inter-node legs as a flat
  /// schedule over the leaders (they ride the provisioned circuits).
  kHierarchical,
  /// Cost-based selector: cheapest valid schedule per collective under the
  /// alpha-beta-hop estimate (cost.hpp), per topology via its hop function.
  kAuto,
  /// Schedule synthesis: bounded search over step structures (radix
  /// skeletons x rank orders) seeded from the canned families above, so
  /// the result is never costlier than kAuto's pick under the same
  /// topology hop function (synthesize.hpp).
  kSynth,
};

/// "analytic" | "ring" | "rd" | "binomial" | "bruck" | "pairwise" |
/// "hierarchical" | "auto" | "synth".
std::string_view schedule_name(ScheduleKind kind) noexcept;

/// Inverse of schedule_name; throws hfast::Error for unknown names.
ScheduleKind parse_schedule(std::string_view name);

/// All parseable kinds, in declaration order (sweep drivers iterate this).
const std::vector<ScheduleKind>& all_schedule_kinds();

/// Collective-lowering axis of an experiment. Like core::SmpConfig this is
/// post-simulation: it never perturbs the captured trace, only how a replay
/// driver prices the trace's collective events. The default (analytic) is
/// exactly the pre-lowering pipeline.
struct CollectiveConfig {
  ScheduleKind schedule = ScheduleKind::kAnalytic;

  /// Synthesis seed (kSynth only; inert otherwise, but always part of the
  /// store key — see fields.hpp): seeds the LCG that draws the search's
  /// random rank orders.
  std::uint64_t synth_seed = 1;

  /// True when replay should expand collectives into P2P schedules.
  bool lowers() const noexcept { return schedule != ScheduleKind::kAnalytic; }

  friend bool operator==(const CollectiveConfig&,
                         const CollectiveConfig&) = default;
};

/// One scheduled message: src transmits `bytes` to dst, carrying the
/// semantic chunks Schedule::chunks_of(op), which live in the owning
/// schedule's chunk arena. `bytes` is explicit (never derived from the
/// chunk count) so growing-payload compositions charge what they move.
struct SendOp {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  std::uint32_t chunk_begin = 0;  ///< first chunk id's index in the arena
  std::uint32_t chunk_count = 0;

  friend bool operator==(const SendOp&, const SendOp&) = default;
};

/// A complete schedule for one collective instance at world size `nranks`,
/// stored as CSR: step s is sends[step_begin[s], step_begin[s + 1]) (the
/// last step ends at sends.size()), and every send's chunk ids lie in one
/// arena in send order. A step's sends may all proceed concurrently; no
/// two of them may share an ordered (src, dst) pair — the replay's
/// per-channel FIFO matching needs distinct messages per pair per step to
/// stay order-unambiguous (validator-enforced). Generators append through
/// begin_step()/add_send(), so the layout of equal schedules is equal.
struct Schedule {
  mpisim::CallType call = mpisim::CallType::kBarrier;
  /// The generator that produced it (a concrete algorithm — never kAnalytic
  /// or kAuto; the selector and fallbacks resolve to one of the others).
  ScheduleKind algo = ScheduleKind::kRing;
  int nranks = 0;
  /// Per-event payload in bytes, with the trace's per-call semantics: the
  /// vector length for bcast/reduce/allreduce/scan, the per-origin block
  /// for gather/allgather/scatter, the per-pair block for alltoall, the
  /// per-destination share for reduce-scatter.
  std::uint64_t payload = 0;
  /// Size of the semantic chunk id space (see verify.cpp for the per-call
  /// meaning).
  int num_chunks = 1;
  std::vector<std::size_t> step_begin;
  std::vector<SendOp> sends;
  std::vector<int> chunks;

  std::size_t num_steps() const noexcept { return step_begin.size(); }
  std::span<const SendOp> step(std::size_t s) const noexcept {
    const std::size_t end =
        s + 1 < step_begin.size() ? step_begin[s + 1] : sends.size();
    return {sends.data() + step_begin[s], end - step_begin[s]};
  }
  std::span<const int> chunks_of(const SendOp& op) const noexcept {
    return {chunks.data() + op.chunk_begin, op.chunk_count};
  }

  /// Opens a new, empty last step.
  void begin_step() { step_begin.push_back(sends.size()); }
  /// Appends a send to the last step; add_chunk() extends the newest send.
  /// The arena holds at most kMaxChunkIds ids (SendOp's offsets are 32-bit).
  void add_send(int src, int dst, std::uint64_t bytes,
                std::span<const int> ids = {});
  void add_send(int src, int dst, std::uint64_t bytes, int id) {
    HFAST_EXPECTS_MSG(chunks.size() < kMaxChunkIds, "schedule: arena full");
    sends.push_back({src, dst, bytes,
                     static_cast<std::uint32_t>(chunks.size()), 1});
    chunks.push_back(id);
  }
  void add_chunk(int id) {
    HFAST_EXPECTS_MSG(chunks.size() < kMaxChunkIds, "schedule: arena full");
    chunks.push_back(id);
    ++sends.back().chunk_count;
  }
  static constexpr std::size_t kMaxChunkIds = 0xffffffffu;
  /// Drops the last step with its sends and their chunks.
  void pop_step();
  /// Drops every step, keeping the capacity for the next instantiation.
  void clear() noexcept;

  std::size_t total_sends() const noexcept { return sends.size(); }
  std::uint64_t total_bytes() const noexcept;

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

}  // namespace hfast::collective
