#include "hfast/store/store.hpp"

#include <charconv>

#include "hfast/util/assert.hpp"

namespace hfast::store {

namespace fs = std::filesystem;

namespace {

constexpr EntryFormat kFormat{"HFST", ".hfe", "store"};

std::vector<std::byte> canonical_config_bytes(
    const analysis::ExperimentConfig& config) {
  Encoder enc;
  encode_config(enc, config);
  return enc.take();
}

}  // namespace

ResultStore::ResultStore(fs::path dir) : entries_(std::move(dir), kFormat) {}

std::string ResultStore::entry_filename(std::uint64_t key) {
  return EntryDir::filename(key, kFormat.suffix);
}

std::uint64_t ResultStore::parse_key(std::string_view text) {
  std::string_view hex = text;
  if (hex.substr(0, 2) == "0x") hex.remove_prefix(2);
  if (hex.ends_with(kFormat.suffix)) hex.remove_suffix(kFormat.suffix.size());
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
  return dir() / entry_filename(key(config));
}

std::optional<analysis::ExperimentResult> ResultStore::load(
    const analysis::ExperimentConfig& config) {
  return entries_.load(key(config), [&](EntryDir::Payload payload) {
    Decoder dec(payload);
    analysis::ExperimentResult result = decode_result(dec);
    // Key-collision guard: the stored config must be byte-identical to the
    // requested one, not merely hash-equal.
    if (canonical_config_bytes(result.config) !=
        canonical_config_bytes(config)) {
      throw Error("store: key collision (stored config differs)");
    }
    return result;
  });
}

bool ResultStore::save(const analysis::ExperimentResult& result) {
  Encoder enc;
  encode_result(enc, result);
  const bool ok = entries_.save(key(result.config), enc.bytes());
  if (ok) entries_.sync();
  return ok;
}

EntryInfo ResultStore::inspect_entry(const EntryFile& file) const {
  EntryInfo info;
  info.path = file.path;
  info.file_bytes = file.bytes;
  // The filename carries the key; a malformed name is itself a defect.
  const auto key = entries_.key_of(file.path);
  if (!key) {
    info.error = "malformed entry filename";
    return info;
  }
  info.key = *key;
  const auto image = EntryDir::read(file.path);
  if (!image) {
    info.error = "unreadable";
    return info;
  }
  try {
    Decoder dec(entries_.unframe(info.key, *image));
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
  std::vector<EntryInfo> out;
  for (const EntryFile& f : entries_.list()) out.push_back(inspect_entry(f));
  return out;
}

StoreStats ResultStore::stats() const {
  StoreStats s;
  for (const EntryInfo& e : list()) {
    ++s.entries;
    s.total_bytes += e.file_bytes;
    ++(e.valid ? s.valid : s.corrupt);
  }
  return s;
}

bool ResultStore::evict(std::uint64_t key) {
  std::error_code ec;
  return fs::remove(dir() / entry_filename(key), ec) && !ec;
}

std::size_t ResultStore::evict_all() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const EntryFile& f : entries_.list()) {
    if (fs::remove(f.path, ec) && !ec) ++removed;
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
