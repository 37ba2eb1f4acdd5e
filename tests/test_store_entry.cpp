/// The entry-file contract both durable caches share, run on each of them:
/// ResultStore (`.hfe`) and ScheduleCache (`.hsc`). A truncated entry, a
/// flipped payload byte, a foreign format version and an entry copied under
/// another key's name are all clean misses; orphaned temp files go on open;
/// and a saved file is byte for byte the layout DESIGN.md documents. Every
/// case builds its payload by hand or from a generator, so no rank runs:
/// the suite is fiber-free and runs under the sanitizer jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "hfast/collective/generate.hpp"
#include "hfast/store/codec.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/store/store.hpp"
#include "hfast/util/hash.hpp"

namespace hfast::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("hfast_entry_" + name);
  fs::remove_all(dir);
  return dir;
}

std::vector<char> read_bytes(const fs::path& path) {
  std::vector<char> bytes(fs::file_size(path));
  std::ifstream(path, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_bytes(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One cache behind a uniform face: entry `i` (0 or 1) is a distinct
/// payload under its own key.
class EntryStore {
 public:
  virtual ~EntryStore() = default;
  virtual void save(int i) = 0;
  virtual bool load(int i) = 0;
  virtual std::uint64_t key(int i) const = 0;
  virtual std::vector<std::byte> payload(int i) const = 0;
  virtual CacheCounters counters() const = 0;
  virtual const fs::path& dir() const = 0;
  virtual std::string filename(std::uint64_t key) const = 0;

  fs::path path(int i) const { return dir() / filename(key(i)); }
};

class ResultEntries final : public EntryStore {
 public:
  explicit ResultEntries(const fs::path& dir) : store_(dir) {
    for (int i = 0; i < 2; ++i) {
      results_[i].config.app = "cactus";
      results_[i].config.nranks = 8;
      results_[i].config.seed = static_cast<std::uint64_t>(i) + 1;
      results_[i].config.capture_trace = false;
      results_[i].wall_seconds = 0.25 * (i + 1);
    }
  }
  void save(int i) override { ASSERT_TRUE(store_.save(results_[i])); }
  bool load(int i) override {
    return store_.load(results_[i].config).has_value();
  }
  std::uint64_t key(int i) const override {
    return ResultStore::key(results_[i].config);
  }
  std::vector<std::byte> payload(int i) const override {
    Encoder enc;
    encode_result(enc, results_[i]);
    return enc.take();
  }
  CacheCounters counters() const override { return store_.counters(); }
  const fs::path& dir() const override { return store_.dir(); }
  std::string filename(std::uint64_t key) const override {
    return ResultStore::entry_filename(key);
  }

 private:
  ResultStore store_;
  analysis::ExperimentResult results_[2];
};

class ScheduleEntries final : public EntryStore {
 public:
  explicit ScheduleEntries(const fs::path& dir) : cache_(dir) {
    schedules_[0] = collective::resolve_schedule(
        collective::ScheduleKind::kRing, mpisim::CallType::kAllreduce, 4,
        4096);
    schedules_[1] = collective::resolve_schedule(
        collective::ScheduleKind::kBinomial, mpisim::CallType::kBcast, 5, 64);
  }
  void save(int i) override { cache_.save(key(i), schedules_[i]); }
  bool load(int i) override { return cache_.load(key(i)).has_value(); }
  std::uint64_t key(int i) const override {
    return i == 0 ? 0x0123456789abcdefULL : 0xfedcba9876543210ULL;
  }
  std::vector<std::byte> payload(int i) const override {
    return schedule_bytes(schedules_[i]);
  }
  CacheCounters counters() const override { return cache_.counters(); }
  const fs::path& dir() const override { return cache_.dir(); }
  std::string filename(std::uint64_t key) const override {
    return ScheduleCache::entry_filename(key);
  }

 private:
  ScheduleCache cache_;
  collective::Schedule schedules_[2];
};

struct Kind {
  const char* name;
  const char* magic;
  const char* suffix;
  std::unique_ptr<EntryStore> (*open)(const fs::path& dir);
};

/// gtest prints a parameter into the ctest name; the kind's name keeps
/// that name stable from build to build (its pointers would not).
void PrintTo(const Kind& kind, std::ostream* os) { *os << kind.name; }

const Kind kKinds[] = {
    {"result", "HFST", ".hfe",
     [](const fs::path& dir) -> std::unique_ptr<EntryStore> {
       return std::make_unique<ResultEntries>(dir);
     }},
    {"schedule", "HSCH", ".hsc",
     [](const fs::path& dir) -> std::unique_ptr<EntryStore> {
       return std::make_unique<ScheduleEntries>(dir);
     }},
};

class StoreEntryFrame : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<EntryStore> open(const std::string& tag) {
    dir_ = fresh_dir(std::string(GetParam().name) + "_" + tag);
    return GetParam().open(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Exactly one corrupt miss and no hit so far.
  static void expect_one_corrupt_miss(const EntryStore& st) {
    const CacheCounters c = st.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.corrupt_misses, 1u);
  }

  fs::path dir_;
};

TEST_P(StoreEntryFrame, TruncatedEntryIsACleanMiss) {
  auto st = open("truncated");
  st->save(0);
  fs::resize_file(st->path(0), fs::file_size(st->path(0)) / 2);
  EXPECT_FALSE(st->load(0));
  expect_one_corrupt_miss(*st);
  st->save(0);  // a re-save heals the entry
  EXPECT_TRUE(st->load(0));
}

TEST_P(StoreEntryFrame, FlippedPayloadByteIsACleanMiss) {
  auto st = open("flipped");
  st->save(0);
  std::vector<char> file = read_bytes(st->path(0));
  file[24 + st->payload(0).size() / 2] ^= 0x40;  // behind the 24-byte header
  write_bytes(st->path(0), file);
  EXPECT_FALSE(st->load(0));
  expect_one_corrupt_miss(*st);
}

TEST_P(StoreEntryFrame, WrongFormatVersionIsACleanMiss) {
  auto st = open("version");
  st->save(0);
  std::vector<char> file = read_bytes(st->path(0));
  for (int b = 4; b < 8; ++b) file[b] = '\xff';  // u32 version after magic
  write_bytes(st->path(0), file);
  EXPECT_FALSE(st->load(0));
  expect_one_corrupt_miss(*st);
}

TEST_P(StoreEntryFrame, EntryCopiedUnderAnotherKeyIsACleanMiss) {
  auto st = open("key_mismatch");
  st->save(0);
  fs::copy_file(st->path(0), st->path(1));  // CRC intact, header key wrong
  EXPECT_FALSE(st->load(1));
  expect_one_corrupt_miss(*st);
  EXPECT_TRUE(st->load(0));
}

TEST_P(StoreEntryFrame, OrphanedTempFilesAreSweptOnOpen) {
  const fs::path dir = fresh_dir(std::string(GetParam().name) + "_orphan");
  fs::create_directories(dir);
  const fs::path orphan = dir / ".tmp-0123456789abcdef-1";
  std::ofstream(orphan) << "torn write from a crashed sweep";
  const fs::path keep = dir / "notes.txt";
  std::ofstream(keep) << "not the cache's file";
  auto st = GetParam().open(dir);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(keep));
  fs::remove_all(dir);
}

/// Appends `v` as `bytes` little-endian bytes.
void put_le(std::vector<char>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
}

TEST_P(StoreEntryFrame, SavedFileIsTheDocumentedLayout) {
  auto st = open("golden");
  for (int i = 0; i < 2; ++i) {
    st->save(i);
    const std::vector<std::byte> payload = st->payload(i);
    std::vector<char> want(GetParam().magic, GetParam().magic + 4);
    put_le(want, kFormatVersion, 4);
    put_le(want, st->key(i), 8);
    put_le(want, payload.size(), 8);
    for (std::byte b : payload) want.push_back(static_cast<char>(b));
    put_le(want, util::crc32(payload), 4);

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(st->key(i)));
    const fs::path path = st->dir() / (hex + std::string(GetParam().suffix));
    ASSERT_EQ(st->filename(st->key(i)), path.filename().string());
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(read_bytes(path), want) << "entry " << i;
  }
  EXPECT_EQ(st->counters().stores, 2u);
}

INSTANTIATE_TEST_SUITE_P(Stores, StoreEntryFrame, ::testing::ValuesIn(kKinds),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(info.param.name);
                         });

// An entry's name must be exactly what entry_filename prints: a sign, a
// leading space or an uppercase digit make a name that load() never asks
// for and evict(key) never removes, so the index reports it as malformed.
TEST(StoreEntryNames, NonCanonicalEntryNamesAreMalformed) {
  const fs::path dir = fresh_dir("names");
  ResultStore st(dir);
  analysis::ExperimentResult r;
  r.config.app = "cactus";
  r.config.nranks = 8;
  r.config.capture_trace = false;
  // A key whose name starts with '0' and holds a letter, so each variant
  // below still denotes the same number to a lenient parser.
  std::string name;
  for (r.config.seed = 1;; ++r.config.seed) {
    name = ResultStore::entry_filename(ResultStore::key(r.config));
    if (name[0] == '0' && name.find_first_of("abcdef") < 16) break;
  }
  ASSERT_TRUE(st.save(r));
  std::string upper = name;
  std::transform(upper.begin(), upper.begin() + 16, upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (const std::string& variant :
       {"+" + name.substr(1), " " + name.substr(1), upper}) {
    fs::copy_file(dir / name, dir / variant);
  }

  const std::vector<EntryInfo> entries = st.list();
  ASSERT_EQ(entries.size(), 4u);
  for (const EntryInfo& e : entries) {
    if (e.path.filename() == name) {
      EXPECT_TRUE(e.valid) << e.error;
      continue;
    }
    EXPECT_FALSE(e.valid) << e.path;
    EXPECT_EQ(e.error, "malformed entry filename") << e.path;
  }
  const VerifyReport report = st.verify(/*evict_corrupt=*/true);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.evicted, 3u);
  EXPECT_TRUE(st.load(r.config).has_value());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hfast::store
