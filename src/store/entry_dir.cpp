#include "hfast/store/entry_dir.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#define HFAST_STORE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "hfast/store/codec.hpp"
#include "hfast/util/assert.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::store {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic, version, key, len
constexpr std::size_t kFooterBytes = 4;              // CRC32
constexpr std::string_view kTempPrefix = ".tmp-";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Little-endian, like every integer of the codec.
void put_le(std::vector<std::byte>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(std::byte(v >> (8 * i)));
}

/// Durably write `bytes` to `path` (fsync before returning true).
bool write_file_synced(const fs::path& path,
                       const std::vector<std::byte>& bytes) {
#ifdef HFAST_STORE_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::write(fd, reinterpret_cast<const char*>(bytes.data()) + off,
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

}  // namespace

EntryDir::EntryDir(fs::path dir, EntryFormat format)
    : dir_(std::move(dir)), format_(format) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw Error(std::string(format_.name) + ": cannot open directory " +
                dir_.string() + (ec ? " (" + ec.message() + ")" : ""));
  }
  // Temp files orphaned by a crash mid-save were never renamed into
  // place, so they are pure garbage.
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().filename().string().starts_with(kTempPrefix)) {
      fs::remove(e.path(), ec);
    }
  }
}

std::string EntryDir::filename(std::uint64_t key, std::string_view suffix) {
  return hex16(key) += suffix;
}

std::optional<std::uint64_t> EntryDir::key_of(const fs::path& path) const {
  const std::string name = path.filename().string();
  std::uint64_t key = 0;
  const auto [ptr, ec] =
      std::from_chars(name.data(), name.data() + name.size(), key, 16);
  if (ec != std::errc{} || name != filename(key, format_.suffix)) {
    return std::nullopt;
  }
  return key;
}

std::vector<EntryFile> EntryDir::list() const {
  std::vector<EntryFile> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().extension() != format_.suffix) continue;
    const std::uintmax_t bytes = fs::file_size(e.path(), ec);
    files.push_back({e.path(), ec ? 0 : bytes});
  }
  std::ranges::sort(files, {}, &EntryFile::path);
  return files;
}

std::optional<std::vector<std::byte>> EntryDir::read(const fs::path& path) {
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

EntryDir::Payload EntryDir::unframe(std::uint64_t key, Payload file) const {
  const auto fail = [this](const std::string& what) {
    return Error(std::string(format_.name) + ": " + what);
  };
  if (file.size() < kHeaderBytes + kFooterBytes) {
    throw fail("entry truncated before header");
  }
  Decoder dec(file);
  for (char c : format_.magic) {
    if (dec.u8() != static_cast<std::uint8_t>(c)) throw fail("bad magic");
  }
  const std::uint32_t version = dec.u32();
  if (version != kFormatVersion) {
    throw fail("format version " + std::to_string(version) +
               " != " + std::to_string(kFormatVersion));
  }
  if (dec.u64() != key) throw fail("header key does not match entry name");
  const std::uint64_t payload_len = dec.u64();
  if (payload_len != file.size() - kHeaderBytes - kFooterBytes) {
    throw fail("entry truncated (payload length mismatch)");
  }
  const Payload payload = file.subspan(kHeaderBytes, payload_len);
  if (util::crc32(payload) != Decoder(file.last(kFooterBytes)).u32()) {
    throw fail("payload CRC mismatch");
  }
  return payload;
}

bool EntryDir::save(std::uint64_t key, Payload payload) {
  std::vector<std::byte> image;
  image.reserve(kHeaderBytes + payload.size() + kFooterBytes);
  for (char c : format_.magic) image.push_back(static_cast<std::byte>(c));
  put_le(image, kFormatVersion, 4);
  put_le(image, key, 8);
  put_le(image, payload.size(), 8);
  image.insert(image.end(), payload.begin(), payload.end());
  put_le(image, util::crc32(payload), 4);

  std::uint64_t seq;
  {
    std::lock_guard lock(mutex_);
    seq = ++temp_seq_;
  }
  const fs::path tmp = dir_ / (std::string(kTempPrefix) + hex16(key) + "-" +
                               std::to_string(seq));
  bool ok = write_file_synced(tmp, image);
  std::error_code ec;
  if (ok) {
    // Atomic within one directory (POSIX).
    fs::rename(tmp, dir_ / filename(key, format_.suffix), ec);
    ok = !ec;
  }
  if (!ok) fs::remove(tmp, ec);

  std::lock_guard lock(mutex_);
  ++(ok ? counters_.stores : counters_.store_failures);
  return ok;
}

void EntryDir::sync() const {
#ifdef HFAST_STORE_POSIX
  const int fd = ::open(dir_.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
#endif
}

CacheCounters EntryDir::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void EntryDir::record(Probe probe) {
  std::lock_guard lock(mutex_);
  ++(probe == Probe::kHit ? counters_.hits : counters_.misses);
  if (probe == Probe::kCorrupt) ++counters_.corrupt_misses;
}

}  // namespace hfast::store
