#include "hfast/store/store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#define HFAST_STORE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "hfast/util/assert.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'H', 'F', 'S', 'T'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic, version, key, len
constexpr std::size_t kFooterBytes = 4;              // CRC32
constexpr const char* kEntrySuffix = ".hfe";
constexpr const char* kTempPrefix = ".tmp-";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Whole-file read; nullopt when the file cannot be opened (absent entry).
std::optional<std::vector<std::byte>> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::byte> bytes;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return std::nullopt;
  bytes.resize(static_cast<std::size_t>(end));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) return std::nullopt;
  return bytes;
}

/// Durably write `bytes` to `path` (fsync before returning true).
bool write_file_synced(const fs::path& path,
                       const std::vector<std::byte>& bytes) {
#ifdef HFAST_STORE_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, reinterpret_cast<const char*>(bytes.data()) + off,
                              bytes.size() - off);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  return (::close(fd) == 0) && synced;
#else
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
#endif
}

/// fsync the directory so a just-renamed entry survives power loss.
void sync_dir(const fs::path& dir) {
#ifdef HFAST_STORE_POSIX
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
#else
  (void)dir;
#endif
}

/// Frame `payload` into a complete entry file image.
std::vector<std::byte> frame_entry(std::uint64_t key,
                                   const std::vector<std::byte>& payload) {
  Encoder enc;
  for (char c : kMagic) enc.u8(static_cast<std::uint8_t>(c));
  enc.u32(kFormatVersion);
  enc.u64(key);
  enc.u64(payload.size());
  std::vector<std::byte> out = enc.take();
  out.insert(out.end(), payload.begin(), payload.end());
  Encoder footer;
  footer.u32(util::crc32(payload));
  const auto& f = footer.bytes();
  out.insert(out.end(), f.begin(), f.end());
  return out;
}

/// Validate an entry file image and return its payload span.
/// Throws hfast::Error describing the first defect found.
std::span<const std::byte> unframe_entry(std::uint64_t expected_key,
                                         std::span<const std::byte> file) {
  if (file.size() < kHeaderBytes + kFooterBytes) {
    throw Error("store: entry truncated before header");
  }
  Decoder dec(file);
  for (char c : kMagic) {
    if (dec.u8() != static_cast<std::uint8_t>(c)) {
      throw Error("store: bad magic");
    }
  }
  const std::uint32_t version = dec.u32();
  if (version != kFormatVersion) {
    throw Error("store: format version " + std::to_string(version) +
                " != " + std::to_string(kFormatVersion));
  }
  const std::uint64_t key = dec.u64();
  if (key != expected_key) {
    throw Error("store: header key does not match entry name");
  }
  const std::uint64_t payload_len = dec.u64();
  if (payload_len != file.size() - kHeaderBytes - kFooterBytes) {
    throw Error("store: entry truncated (payload length mismatch)");
  }
  const auto payload = file.subspan(kHeaderBytes, payload_len);
  Decoder footer(file.subspan(kHeaderBytes + payload_len));
  const std::uint32_t want_crc = footer.u32();
  if (util::crc32(payload) != want_crc) {
    throw Error("store: payload CRC mismatch");
  }
  return payload;
}

std::vector<std::byte> canonical_config_bytes(
    const analysis::ExperimentConfig& config) {
  Encoder enc;
  encode_config(enc, config);
  return enc.take();
}

}  // namespace

ResultStore::ResultStore(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw Error("store: cannot open directory " + dir_.string() +
                (ec ? " (" + ec.message() + ")" : ""));
  }
  // Sweep temp files orphaned by a crash mid-save; their final entries
  // were never renamed into place, so they are pure garbage.
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().filename().string().rfind(kTempPrefix, 0) == 0) {
      fs::remove(e.path(), ec);
    }
  }
}

std::string ResultStore::entry_filename(std::uint64_t key) {
  return hex16(key) + kEntrySuffix;
}

std::uint64_t ResultStore::parse_key(std::string_view text) {
  std::string_view hex = text;
  if (hex.substr(0, 2) == "0x") hex.remove_prefix(2);
  if (hex.ends_with(kEntrySuffix)) {
    hex.remove_suffix(std::string_view(kEntrySuffix).size());
  }
  std::uint64_t key = 0;
  const char* end = hex.data() + hex.size();
  const auto [ptr, ec] = std::from_chars(hex.data(), end, key, 16);
  if (hex.empty() || ec != std::errc{} || ptr != end) {
    throw Error("'" + std::string(text) + "' is not a 64-bit hex entry key");
  }
  return key;
}

fs::path ResultStore::entry_path(
    const analysis::ExperimentConfig& config) const {
  return dir_ / entry_filename(key(config));
}

std::optional<analysis::ExperimentResult> ResultStore::load(
    const analysis::ExperimentConfig& config) {
  const std::uint64_t k = key(config);
  const fs::path path = dir_ / entry_filename(k);

  const auto file = read_file(path);
  if (!file) {
    std::lock_guard lock(mutex_);
    ++counters_.misses;
    return std::nullopt;
  }

  try {
    const auto payload = unframe_entry(k, *file);
    Decoder dec(payload);
    analysis::ExperimentResult result = decode_result(dec);
    // Key-collision guard: the stored config must be byte-identical to the
    // requested one, not merely hash-equal.
    if (canonical_config_bytes(result.config) !=
        canonical_config_bytes(config)) {
      throw Error("store: key collision (stored config differs)");
    }
    std::lock_guard lock(mutex_);
    ++counters_.hits;
    return result;
  } catch (const std::exception&) {
    // Torn, corrupt, stale-format, or colliding entry: by contract this is
    // a miss — the caller recomputes and save() overwrites the bad entry.
    std::lock_guard lock(mutex_);
    ++counters_.misses;
    ++counters_.corrupt_misses;
    return std::nullopt;
  }
}

bool ResultStore::save(const analysis::ExperimentResult& result) {
  const std::uint64_t k = key(result.config);

  Encoder enc;
  encode_result(enc, result);
  const std::vector<std::byte> image = frame_entry(k, enc.bytes());

  std::uint64_t seq;
  {
    std::lock_guard lock(mutex_);
    seq = ++temp_seq_;
  }
  const fs::path tmp =
      dir_ / (std::string(kTempPrefix) + hex16(k) + "-" + std::to_string(seq));
  const fs::path final_path = dir_ / entry_filename(k);

  bool ok = write_file_synced(tmp, image);
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, final_path, ec);  // atomic within one directory (POSIX)
    ok = !ec;
    if (ok) {
      sync_dir(dir_);
    } else {
      fs::remove(tmp, ec);
    }
  } else {
    std::error_code ec;
    fs::remove(tmp, ec);
  }

  std::lock_guard lock(mutex_);
  if (ok) {
    ++counters_.stores;
  } else {
    ++counters_.store_failures;
  }
  return ok;
}

CacheCounters ResultStore::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

EntryInfo ResultStore::inspect_entry(const fs::path& path) const {
  EntryInfo info;
  info.path = path;
  std::error_code ec;
  info.file_bytes = fs::file_size(path, ec);
  if (ec) info.file_bytes = 0;

  // The filename carries the key; a malformed name is itself a defect.
  const std::string stem = path.stem().string();
  char* end = nullptr;
  info.key = std::strtoull(stem.c_str(), &end, 16);
  if (stem.size() != 16 || end == nullptr || *end != '\0') {
    info.error = "malformed entry filename";
    return info;
  }

  const auto file = read_file(path);
  if (!file) {
    info.error = "unreadable";
    return info;
  }
  try {
    const auto payload = unframe_entry(info.key, *file);
    Decoder dec(payload);
    analysis::ExperimentResult result = decode_result(dec);
    if (config_key(result.config) != info.key) {
      throw Error("store: stored config does not hash to entry key");
    }
    info.config = std::move(result.config);
    info.valid = true;
  } catch (const std::exception& e) {
    info.error = e.what();
  }
  return info;
}

std::vector<EntryInfo> ResultStore::list() const {
  std::vector<fs::path> paths;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().extension() == kEntrySuffix) paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<EntryInfo> out;
  out.reserve(paths.size());
  for (const auto& p : paths) out.push_back(inspect_entry(p));
  return out;
}

StoreStats ResultStore::stats() const {
  StoreStats s;
  for (const EntryInfo& e : list()) {
    ++s.entries;
    s.total_bytes += e.file_bytes;
    if (e.valid) {
      ++s.valid;
    } else {
      ++s.corrupt;
    }
  }
  return s;
}

bool ResultStore::evict(std::uint64_t key) {
  std::error_code ec;
  return fs::remove(dir_ / entry_filename(key), ec) && !ec;
}

std::size_t ResultStore::evict_all() {
  std::size_t removed = 0;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().extension() == kEntrySuffix) paths.push_back(e.path());
  }
  for (const auto& p : paths) {
    if (fs::remove(p, ec) && !ec) ++removed;
  }
  return removed;
}

VerifyReport ResultStore::verify(bool evict_corrupt) {
  VerifyReport report;
  for (EntryInfo& e : list()) {
    ++report.checked;
    if (e.valid) {
      ++report.ok;
      continue;
    }
    if (evict_corrupt) {
      std::error_code ec;
      if (fs::remove(e.path, ec) && !ec) ++report.evicted;
    }
    report.corrupt.push_back(std::move(e));
  }
  return report;
}

}  // namespace hfast::store
