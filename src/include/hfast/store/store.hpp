#pragma once
/// \file store.hpp
/// hfast::store — durable, content-addressed experiment store.
///
/// Every paper artifact is produced by sweeping run_experiment over
/// app × P × cutoff × seed; at P=1024/4096 a single failed job in a
/// 100-job sweep used to throw away minutes of work. The store turns that
/// sweep into incremental evaluation: each completed ExperimentResult is
/// persisted under a key derived from its config the moment it finishes,
/// and a re-run of the same sweep loads hits instead of recomputing —
/// a killed sweep resumes from where it died.
///
/// On-disk layout (one file per entry, `<dir>/<016x-key>.hfe`):
///
///     magic   "HFST"                      4 bytes
///     u32     format version (codec.hpp)
///     u64     cache key (redundant with the filename; cross-checked)
///     u64     payload length
///     bytes   canonical result payload (store/codec)
///     u32     CRC32 of the payload
///
/// Crash-safety protocol: the payload is written to a unique temp file in
/// the same directory, fsync'd, then atomically renamed over the final
/// name (POSIX rename within a directory is atomic), and the directory is
/// fsync'd so the entry survives power loss. Readers therefore never see a
/// half-written entry under a final name; anything torn (truncated file,
/// flipped bit, stale version) fails the frame/CRC/decode checks and is
/// treated as a cache miss, never an error.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/store/codec.hpp"

namespace hfast::store {

/// Cumulative cache traffic counters for one store instance.
struct CacheCounters {
  std::uint64_t hits = 0;            ///< load() returned a result
  std::uint64_t misses = 0;          ///< load() found nothing usable
  std::uint64_t stores = 0;          ///< save() persisted an entry
  std::uint64_t corrupt_misses = 0;  ///< subset of misses: entry existed but
                                     ///< failed validation
  std::uint64_t store_failures = 0;  ///< save() could not persist
};

/// One entry as seen by the index API.
struct EntryInfo {
  std::uint64_t key = 0;
  std::filesystem::path path;
  std::uintmax_t file_bytes = 0;
  bool valid = false;
  std::string error;  ///< why validation failed (empty when valid)
  /// Decoded config for valid entries (label, app, P, seed, engine).
  std::optional<analysis::ExperimentConfig> config;
};

struct StoreStats {
  std::size_t entries = 0;  ///< total entry files
  std::size_t valid = 0;
  std::size_t corrupt = 0;
  std::uintmax_t total_bytes = 0;
};

struct VerifyReport {
  std::size_t checked = 0;
  std::size_t ok = 0;
  std::vector<EntryInfo> corrupt;
  std::size_t evicted = 0;  ///< corrupt entries removed (when requested)
};

/// Content-addressed result store over one directory. Thread-safe: sweep
/// workers save concurrently while the admission thread probes loads.
class ResultStore {
 public:
  /// Opens (creating if needed) the store directory; throws hfast::Error
  /// when the path exists but is not a directory or cannot be created.
  explicit ResultStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// The content address of a config (see codec.hpp::config_key).
  static std::uint64_t key(const analysis::ExperimentConfig& config) {
    return config_key(config);
  }
  /// "<016x-key>.hfe".
  static std::string entry_filename(std::uint64_t key);
  /// Inverse of entry_filename's key: 1-16 hex digits, with an optional
  /// "0x" prefix and ".hfe" suffix; anything else throws hfast::Error.
  static std::uint64_t parse_key(std::string_view text);
  std::filesystem::path entry_path(
      const analysis::ExperimentConfig& config) const;

  /// Cache probe: returns the stored result for this exact config, or
  /// nullopt on absence *or* any validation failure (bad magic/version/key,
  /// CRC mismatch, truncation, decode error, or a key collision where the
  /// stored config differs from the requested one). Never throws for a bad
  /// entry — corrupt data is a miss by contract.
  std::optional<analysis::ExperimentResult> load(
      const analysis::ExperimentConfig& config);

  /// Persist a completed result (write-temp + fsync + atomic rename).
  /// Returns false (and counts a store_failure) on I/O errors instead of
  /// throwing: a sweep must never lose a computed result to a full disk.
  bool save(const analysis::ExperimentResult& result);

  CacheCounters counters() const;

  // --- index / GC ----------------------------------------------------------

  /// Every entry file, sorted by filename; validates each (frame + CRC +
  /// decode) and carries the decoded config for valid ones.
  std::vector<EntryInfo> list() const;

  StoreStats stats() const;

  /// Remove the entry for `key` if present; returns true when removed.
  bool evict(std::uint64_t key);

  /// Remove every entry; returns how many were removed.
  std::size_t evict_all();

  /// Re-validate every entry, optionally deleting the corrupt ones.
  VerifyReport verify(bool evict_corrupt = false);

 private:
  EntryInfo inspect_entry(const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  mutable std::mutex mutex_;  ///< guards counters_ and temp-name sequencing
  CacheCounters counters_;
  std::uint64_t temp_seq_ = 0;
};

}  // namespace hfast::store
