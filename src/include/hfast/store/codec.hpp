#pragma once
/// \file codec.hpp
/// Canonical binary serialization for experiment configs and results.
///
/// Properties the store depends on:
///  * **Canonical** — one config has exactly one encoding (fixed field
///    order from store/fields.hpp, fixed-width little-endian integers,
///    length-prefixed strings), so the byte stream itself can be hashed
///    into the cache key.
///  * **Platform-independent** — bytes are assembled explicitly, never
///    memcpy'd from structs, so the same experiment produces the same
///    entry on any host.
///  * **Hostile-input safe** — every Decoder read bounds-checks against
///    the remaining payload and throws hfast::Error on truncation, and
///    container counts are validated against the bytes that must back
///    them before anything is allocated. A corrupt payload can only ever
///    produce a clean error, never UB or an absurd allocation.
///
/// The codec covers the *payload* only; framing (magic, version, key,
/// CRC32 footer) lives in entry_dir.cpp. kFormatVersion is baked into
/// both the frame and the cache key, so a format change invalidates old
/// entries instead of misreading them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"

namespace hfast::store {

/// Bump on ANY change to the encoding (field list, order, widths) — this
/// salts every cache key and is checked in every entry header.
inline constexpr std::uint32_t kFormatVersion = 6;

/// Append-only canonical byte assembler.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u32 byte length + raw bytes.
  void str(std::string_view v);

  const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  std::vector<std::byte> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over an encoded payload.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> bytes) : data_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

  /// Throws unless at least `min_bytes_each * count` bytes remain — called
  /// before allocating `count` container elements from a length field.
  void expect_backing(std::uint64_t count, std::size_t min_bytes_each) const;

 private:
  std::span<const std::byte> take(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// --- experiment payloads ---------------------------------------------------

/// Canonical config encoding — also the preimage of the cache key.
void encode_config(Encoder& enc, const analysis::ExperimentConfig& config);
analysis::ExperimentConfig decode_config(Decoder& dec);

/// Full result encoding: config, wall time, both workload profiles, both
/// communication graphs, the event trace, and the SMP packing artifacts.
void encode_result(Encoder& enc, const analysis::ExperimentResult& result);
analysis::ExperimentResult decode_result(Decoder& dec);

/// Stable cache key: FNV-1a/64 over (kFormatVersion || canonical config
/// bytes). Identical configs map to identical keys on every platform and
/// in every future session; any config field change changes the key.
std::uint64_t config_key(const analysis::ExperimentConfig& config);

}  // namespace hfast::store
