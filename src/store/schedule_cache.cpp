#include "hfast/store/schedule_cache.hpp"

#include "hfast/collective/verify.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::store {

namespace {

constexpr EntryFormat kFormat{"HSCH", ".hsc", "schedule cache"};

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

ScheduleCache::ScheduleCache(std::filesystem::path dir)
    : entries_(std::move(dir), kFormat) {}

std::string ScheduleCache::entry_filename(std::uint64_t key) {
  return EntryDir::filename(key, kFormat.suffix);
}

std::optional<collective::Schedule> ScheduleCache::load(std::uint64_t key) {
  return entries_.load(key, [](EntryDir::Payload payload) {
    Decoder dec(payload);
    collective::Schedule s = decode_schedule(dec);
    if (!dec.done()) {
      throw Error("schedule cache: trailing bytes after schedule payload");
    }
    // A decoded entry must still be a PROVEN schedule: tampering that
    // survives the CRC (or a save from a buggy producer) is a miss, never
    // an invalid schedule handed to a replay.
    collective::validate_schedule(s);
    return s;
  });
}

void ScheduleCache::save(std::uint64_t key,
                         const collective::Schedule& schedule) {
  Encoder enc;
  encode_schedule(enc, schedule);
  entries_.save(key, enc.bytes());
}

}  // namespace hfast::store
