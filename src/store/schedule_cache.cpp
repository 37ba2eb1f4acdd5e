#include "hfast/store/schedule_cache.hpp"

#include <cstdio>
#include <fstream>
#include <system_error>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define HFAST_SCHED_CACHE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "hfast/collective/verify.hpp"
#include "hfast/util/assert.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'H', 'S', 'C', 'H'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic, version, key, len
constexpr std::size_t kFooterBytes = 4;              // CRC32
constexpr const char* kEntrySuffix = ".hsc";
constexpr const char* kTempPrefix = ".tmp-";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

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

bool write_file_synced(const fs::path& path,
                       const std::vector<std::byte>& bytes) {
#ifdef HFAST_SCHED_CACHE_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(
        fd, reinterpret_cast<const char*>(bytes.data()) + off,
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

std::span<const std::byte> unframe_entry(std::uint64_t expected_key,
                                         std::span<const std::byte> file) {
  if (file.size() < kHeaderBytes + kFooterBytes) {
    throw Error("schedule cache: entry truncated before header");
  }
  Decoder dec(file);
  for (char c : kMagic) {
    if (dec.u8() != static_cast<std::uint8_t>(c)) {
      throw Error("schedule cache: bad magic");
    }
  }
  const std::uint32_t version = dec.u32();
  if (version != kFormatVersion) {
    throw Error("schedule cache: format version " + std::to_string(version) +
                " != " + std::to_string(kFormatVersion));
  }
  const std::uint64_t key = dec.u64();
  if (key != expected_key) {
    throw Error("schedule cache: header key does not match entry name");
  }
  const std::uint64_t payload_len = dec.u64();
  if (payload_len != file.size() - kHeaderBytes - kFooterBytes) {
    throw Error("schedule cache: entry truncated (payload length mismatch)");
  }
  const auto payload = file.subspan(kHeaderBytes, payload_len);
  Decoder footer(file.subspan(kHeaderBytes + payload_len));
  const std::uint32_t want_crc = footer.u32();
  if (util::crc32(payload) != want_crc) {
    throw Error("schedule cache: payload CRC mismatch");
  }
  return payload;
}

}  // namespace

void encode_schedule(Encoder& enc, const collective::Schedule& s) {
  enc.u8(static_cast<std::uint8_t>(s.call));
  enc.u8(static_cast<std::uint8_t>(s.algo));
  enc.i32(s.nranks);
  enc.u64(s.payload);
  enc.i32(s.num_chunks);
  enc.u64(s.num_steps());
  for (std::size_t si = 0; si < s.num_steps(); ++si) {
    enc.u64(s.step(si).size());
    for (const collective::SendOp& op : s.step(si)) {
      enc.i32(op.src);
      enc.i32(op.dst);
      enc.u64(op.bytes);
      enc.u32(op.chunk_count);
      for (int c : s.chunks_of(op)) enc.i32(c);
    }
  }
}

collective::Schedule decode_schedule(Decoder& dec) {
  collective::Schedule s;
  const std::uint8_t call = dec.u8();
  if (call >= static_cast<std::uint8_t>(mpisim::CallType::kCount)) {
    throw Error("schedule cache: unknown call type " + std::to_string(call));
  }
  s.call = static_cast<mpisim::CallType>(call);
  if (!mpisim::is_collective(s.call)) {
    throw Error("schedule cache: schedule for a non-collective call");
  }
  const std::uint8_t algo = dec.u8();
  if (algo > static_cast<std::uint8_t>(collective::ScheduleKind::kSynth)) {
    throw Error("schedule cache: unknown schedule kind " +
                std::to_string(algo));
  }
  s.algo = static_cast<collective::ScheduleKind>(algo);
  s.nranks = dec.i32();
  if (s.nranks < 1) {
    throw Error("schedule cache: nranks must be >= 1");
  }
  s.payload = dec.u64();
  s.num_chunks = dec.i32();
  if (s.num_chunks < 1) {
    throw Error("schedule cache: empty chunk space");
  }
  const std::uint64_t nsteps = dec.u64();
  dec.expect_backing(nsteps, 8);
  s.step_begin.reserve(nsteps);
  for (std::uint64_t si = 0; si < nsteps; ++si) {
    s.begin_step();
    const std::uint64_t nsends = dec.u64();
    dec.expect_backing(nsends, 20);  // src + dst + bytes + chunk count
    for (std::uint64_t oi = 0; oi < nsends; ++oi) {
      const int src = dec.i32();
      const int dst = dec.i32();
      if (src < 0 || src >= s.nranks || dst < 0 || dst >= s.nranks) {
        throw Error("schedule cache: send endpoint out of range");
      }
      s.add_send(src, dst, dec.u64());
      const std::uint32_t nchunks = dec.u32();
      dec.expect_backing(nchunks, 4);
      for (std::uint32_t ci = 0; ci < nchunks; ++ci) {
        const int c = dec.i32();
        if (c < 0 || c >= s.num_chunks) {
          throw Error("schedule cache: chunk id out of range");
        }
        s.add_chunk(c);
      }
    }
  }
  return s;
}

std::vector<std::byte> schedule_bytes(const collective::Schedule& schedule) {
  Encoder enc;
  encode_schedule(enc, schedule);
  return enc.take();
}

ScheduleCache::ScheduleCache(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw Error("schedule cache: cannot open directory " + dir_.string() +
                (ec ? " (" + ec.message() + ")" : ""));
  }
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().filename().string().rfind(kTempPrefix, 0) == 0) {
      fs::remove(e.path(), ec);
    }
  }
}

std::string ScheduleCache::entry_filename(std::uint64_t key) {
  return hex16(key) + kEntrySuffix;
}

std::optional<collective::Schedule> ScheduleCache::load(std::uint64_t key) {
  const fs::path path = dir_ / entry_filename(key);
  const auto file = read_file(path);
  if (!file) {
    std::lock_guard lock(mutex_);
    ++counters_.misses;
    return std::nullopt;
  }
  try {
    const auto payload = unframe_entry(key, *file);
    Decoder dec(payload);
    collective::Schedule s = decode_schedule(dec);
    if (!dec.done()) {
      throw Error("schedule cache: trailing bytes after schedule payload");
    }
    // A decoded entry must still be a PROVEN schedule: tampering that
    // survives the CRC (or a save from a buggy producer) is a miss, never
    // an invalid schedule handed to a replay.
    collective::validate_schedule(s);
    std::lock_guard lock(mutex_);
    ++counters_.hits;
    return s;
  } catch (const std::exception&) {
    std::lock_guard lock(mutex_);
    ++counters_.misses;
    ++counters_.corrupt_misses;
    return std::nullopt;
  }
}

void ScheduleCache::save(std::uint64_t key,
                         const collective::Schedule& schedule) {
  Encoder enc;
  encode_schedule(enc, schedule);
  const std::vector<std::byte> image = frame_entry(key, enc.bytes());

  std::uint64_t seq;
  {
    std::lock_guard lock(mutex_);
    seq = ++temp_seq_;
  }
  const fs::path tmp =
      dir_ / (std::string(kTempPrefix) + hex16(key) + "-" +
              std::to_string(seq));
  const fs::path final_path = dir_ / entry_filename(key);

  bool ok = write_file_synced(tmp, image);
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, final_path, ec);  // atomic within one directory (POSIX)
    ok = !ec;
    if (!ok) fs::remove(tmp, ec);
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
}

CacheCounters ScheduleCache::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

}  // namespace hfast::store
