#pragma once
/// \file schedule_cache.hpp
/// Durable memo for synthesized collective schedules — the store-side
/// implementation of collective::SynthMemo (the interface lives in the
/// collective layer so that layer never depends on this one).
///
/// Synthesis is deterministic but not free (it validates and prices dozens
/// of candidate structures per collective instance); a sweep over many
/// apps x P x topologies re-derives the same winners constantly. This
/// cache keys each winner by collective::synth_key — a digest of (call, P,
/// payload, topology digest, cost params, search knobs) — so re-runs and
/// sibling sweep cells load instead of re-searching.
///
/// Each winner is one `<dir>/<016x-key>.hsc` file ("HSCH" frame, CRC32
/// footer) written by store::EntryDir, in the layout and crash protocol
/// DESIGN.md ("Durable result store") describes for ResultStore; a corrupt
/// entry is a miss. One addition: a decoded schedule must also pass
/// collective::validate_schedule before load() returns it, so a tampered
/// entry can never smuggle an invalid schedule into a replay. Entries are
/// derived artifacts: losing one only costs a re-search.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "hfast/collective/synthesize.hpp"
#include "hfast/store/codec.hpp"
#include "hfast/store/entry_dir.hpp"

namespace hfast::store {

/// Canonical schedule payload codec (also the byte-determinism witness in
/// the synthesis tests: two schedules are byte-identical iff their encoded
/// payloads are).
void encode_schedule(Encoder& enc, const collective::Schedule& schedule);

/// Decode with hostile-input validation: unknown call/algo bytes, negative
/// or unbacked counts, endpoints or chunk ids out of range all throw
/// hfast::Error. Semantic validity is NOT checked here (that is
/// validate_schedule's job).
collective::Schedule decode_schedule(Decoder& dec);

/// Convenience: the canonical encoded bytes of a schedule.
std::vector<std::byte> schedule_bytes(const collective::Schedule& schedule);

/// File-backed SynthMemo over one directory. Thread-safe.
class ScheduleCache final : public collective::SynthMemo {
 public:
  /// Opens (creating if needed) the cache directory; throws hfast::Error
  /// when the path cannot be used. Sweeps orphaned temp files.
  explicit ScheduleCache(std::filesystem::path dir);

  const std::filesystem::path& dir() const noexcept { return entries_.dir(); }

  /// "<016x-key>.hsc".
  static std::string entry_filename(std::uint64_t key);

  /// Miss on absence or ANY validation failure (frame, CRC, decode, or
  /// validate_schedule); never throws for a bad entry.
  std::optional<collective::Schedule> load(std::uint64_t key) override;

  /// Persist a schedule under `key` (temp + atomic rename). I/O failures
  /// count as store_failures instead of throwing.
  void save(std::uint64_t key, const collective::Schedule& schedule) override;

  CacheCounters counters() const { return entries_.counters(); }

 private:
  EntryDir entries_;
};

}  // namespace hfast::store
