#pragma once
/// \file entry_dir.hpp
/// One directory of framed entry files: the on-disk half that ResultStore
/// (`.hfe`) and ScheduleCache (`.hsc`) share. It owns the frame layout,
/// the CRC check, the write-temp/fsync/rename save, the orphaned-temp
/// sweep, the sorted listing and the traffic counters. The layout and the
/// crash protocol are described once, in DESIGN.md ("Durable result
/// store"); each cache adds only its payload codec and its load guards.

#include <cstdint>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

/// What tells one cache's entries from another's.
struct EntryFormat {
  std::string_view magic;   ///< the 4 bytes every entry starts with
  std::string_view suffix;  ///< entry filename suffix
  std::string_view name;    ///< prefix of every error message
};

/// An entry file found by a directory scan (no entry is read).
struct EntryFile {
  std::filesystem::path path;
  std::uintmax_t bytes = 0;  ///< file size; 0 when it cannot be read
};

/// Thread-safe: concurrent saves use distinct temp names and the counters
/// sit under one mutex.
class EntryDir {
 public:
  using Payload = std::span<const std::byte>;

  /// Opens (creating if needed) `dir` and removes orphaned `.tmp-*` files;
  /// throws hfast::Error when the path cannot be used as a directory.
  EntryDir(std::filesystem::path dir, EntryFormat format);

  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// "<016x-key><suffix>".
  static std::string filename(std::uint64_t key, std::string_view suffix);

  /// The key an entry file is named for, or nullopt unless its name is
  /// exactly filename(key, suffix): no sign, space or uppercase digit.
  std::optional<std::uint64_t> key_of(
      const std::filesystem::path& path) const;

  /// Every file with this format's suffix, sorted by name.
  std::vector<EntryFile> list() const;

  /// Whole-file read; nullopt when the file cannot be opened.
  static std::optional<std::vector<std::byte>> read(
      const std::filesystem::path& path);

  /// Checks an entry image's frame (length, magic, version, header key,
  /// CRC) and returns its payload; throws hfast::Error naming the defect.
  Payload unframe(std::uint64_t key, Payload file) const;

  /// Cache probe: `decode(payload)` of the entry for `key`. Absence, a bad
  /// frame, or anything `decode` throws is a counted miss, never an error.
  template <class Decode>
  auto load(std::uint64_t key, Decode&& decode)
      -> std::optional<std::invoke_result_t<Decode&, Payload>> {
    const auto file = read(dir_ / filename(key, format_.suffix));
    if (!file) {
      record(Probe::kAbsent);
      return std::nullopt;
    }
    try {
      auto value = decode(unframe(key, *file));
      record(Probe::kHit);
      return value;
    } catch (const std::exception&) {
      record(Probe::kCorrupt);
      return std::nullopt;
    }
  }

  /// Frames `payload` under `key` and persists it: write a unique temp
  /// file, fsync it, rename it over the entry. Counts a store or a store
  /// failure; returns false on I/O errors instead of throwing.
  bool save(std::uint64_t key, Payload payload);

  /// fsync the directory itself, so a renamed entry survives power loss.
  void sync() const;

  CacheCounters counters() const;

 private:
  enum class Probe { kHit, kAbsent, kCorrupt };
  void record(Probe probe);

  std::filesystem::path dir_;
  EntryFormat format_;
  mutable std::mutex mutex_;  ///< guards counters_ and temp_seq_
  CacheCounters counters_;
  std::uint64_t temp_seq_ = 0;
};

}  // namespace hfast::store
