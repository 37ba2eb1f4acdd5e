/// hfast::store — the three contracts the sweep caching layer stands on:
/// (1) the cache key is a pure, stable function of the config (every field
/// perturbs it, nothing else does), (2) encode/decode is lossless for every
/// application's full result, and (3) corrupt entries — truncated, bit
/// flipped, stale version — are clean misses, never errors or UB.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "hfast/analysis/batch.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/store/codec.hpp"
#include "hfast/store/store.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the system temp dir.
fs::path temp_store(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("hfast_test_" + name);
  fs::remove_all(dir);
  return dir;
}

analysis::ExperimentConfig base_config() {
  analysis::ExperimentConfig c;
  c.app = "cactus";
  c.nranks = 64;
  c.iterations = 0;
  c.seed = 1;
  c.capture_trace = true;
  c.engine = mpisim::EngineKind::kThreads;
  c.sched_seed = 0;
  return c;
}

/// The engine every experiment in this file runs under: fibers when the
/// platform supports them (single-threaded and deterministic), else threads.
mpisim::EngineKind test_engine() {
  return mpisim::fibers_supported() ? mpisim::EngineKind::kFibers
                                    : mpisim::EngineKind::kThreads;
}

void expect_profile_eq(const ipm::WorkloadProfile& a,
                       const ipm::WorkloadProfile& b, const char* what,
                       bool timings = true) {
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.nranks, sb.nranks) << what;
  EXPECT_EQ(sa.total_calls, sb.total_calls) << what;
  EXPECT_EQ(sa.dropped, sb.dropped) << what;
  EXPECT_EQ(sa.counts, sb.counts) << what;
  if (timings) {
    EXPECT_EQ(sa.times, sb.times) << what;  // the f64 codec is bit-exact
  }
  EXPECT_EQ(sa.ptp_buffers.raw(), sb.ptp_buffers.raw()) << what;
  EXPECT_EQ(sa.collective_buffers.raw(), sb.collective_buffers.raw()) << what;
  EXPECT_EQ(sa.sent, sb.sent) << what;
}

void expect_graph_eq(const graph::CommGraph& a, const graph::CommGraph& b,
                     const char* what) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << what;
  EXPECT_EQ(a.edges(), b.edges()) << what;  // EdgeStats operator==
}

void expect_smp_eq(const analysis::SmpArtifacts& a,
                   const analysis::SmpArtifacts& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.backplane_bytes, b.backplane_bytes);
  EXPECT_EQ(a.node_tdc_max, b.node_tdc_max);
  EXPECT_EQ(a.node_tdc_avg, b.node_tdc_avg);  // f64 codec is bit-exact
  EXPECT_EQ(a.block_size, b.block_size);
  EXPECT_EQ(a.node_of_task, b.node_of_task);
  expect_graph_eq(a.node_graph, b.node_graph, "smp.node_graph");
  EXPECT_TRUE(a.provision == b.provision);  // ProvisionStats operator==
}

/// Field-for-field equality. `timings=false` drops the wall-clock fields
/// (wall_seconds, per-call times) — the right comparison between a cached
/// result and an independent recomputation, whose measured times differ
/// even though every modeled quantity is identical.
void expect_result_eq(const analysis::ExperimentResult& a,
                      const analysis::ExperimentResult& b,
                      bool timings = true) {
  EXPECT_EQ(a.config.app, b.config.app);
  EXPECT_EQ(a.config.nranks, b.config.nranks);
  EXPECT_EQ(a.config.iterations, b.config.iterations);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.capture_trace, b.config.capture_trace);
  EXPECT_EQ(a.config.engine, b.config.engine);
  EXPECT_EQ(a.config.sched_seed, b.config.sched_seed);
  EXPECT_TRUE(a.config.smp == b.config.smp);  // SmpConfig operator==
  EXPECT_TRUE(a.config.collective == b.config.collective);
  if (timings) {
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  }
  expect_profile_eq(a.steady, b.steady, "steady", timings);
  expect_profile_eq(a.all_regions, b.all_regions, "all_regions", timings);
  expect_graph_eq(a.comm_graph, b.comm_graph, "comm_graph");
  expect_graph_eq(a.comm_graph_all, b.comm_graph_all, "comm_graph_all");
  EXPECT_EQ(a.trace.nranks(), b.trace.nranks());
  EXPECT_EQ(a.trace.region_names(), b.trace.region_names());
  EXPECT_EQ(a.trace.events(), b.trace.events());  // CommEvent operator==
  expect_smp_eq(a.smp, b.smp);
}

analysis::ExperimentResult roundtrip(const analysis::ExperimentResult& r) {
  Encoder enc;
  encode_result(enc, r);
  Decoder dec(enc.bytes());
  return decode_result(dec);
}

// --- cache key -------------------------------------------------------------

TEST(StoreKey, IdenticalConfigsShareOneKey) {
  EXPECT_EQ(config_key(base_config()), config_key(base_config()));
}

TEST(StoreKey, GoldenKeyIsStableAcrossSessions) {
  // Pinned value of config_key(base_config()). If this fails you changed
  // the canonical encoding (field list, order, widths, or the hash) —
  // which is fine, but you MUST bump store::kFormatVersion so old cache
  // entries invalidate instead of colliding, then re-pin this constant.
  // (Format v2 appended the SMP fields and artifacts; v3 appended the
  // collective_schedule field; v4 appended the four reconfig_* fields;
  // v5 appended the three collective_synth_* fields and added kSynth;
  // v6 dropped two of those three again, keeping collective_synth_seed.)
  EXPECT_EQ(config_key(base_config()), UINT64_C(0x791ccbdce3236355));
}

TEST(StoreKey, EveryConfigFieldPerturbsTheKey) {
  using Config = analysis::ExperimentConfig;
  const std::uint64_t base = config_key(base_config());
  const std::vector<
      std::pair<const char*, std::function<void(Config&)>>>
      perturbations{
          {"app", [](Config& c) { c.app = "gtc"; }},
          {"nranks", [](Config& c) { c.nranks = 128; }},
          {"iterations", [](Config& c) { c.iterations = 3; }},
          {"seed", [](Config& c) { c.seed = 2; }},
          {"capture_trace", [](Config& c) { c.capture_trace = false; }},
          {"engine",
           [](Config& c) { c.engine = mpisim::EngineKind::kFibers; }},
          {"sched_seed", [](Config& c) { c.sched_seed = 99; }},
          {"smp_cores_per_node",
           [](Config& c) { c.smp.cores_per_node = 4; }},
          {"smp_packing",
           [](Config& c) { c.smp.packing = core::SmpPacking::kAffinity; }},
          {"collective_schedule",
           [](Config& c) {
             c.collective.schedule = collective::ScheduleKind::kRing;
           }},
          {"collective_synth_seed",
           [](Config& c) { c.collective.synth_seed = 7; }},
          {"reconfig_windows", [](Config& c) { c.reconfig.num_windows = 8; }},
          {"reconfig_hysteresis",
           [](Config& c) { c.reconfig.hysteresis_windows = 3; }},
          {"reconfig_seconds",
           [](Config& c) { c.reconfig.reconfig_seconds = 5e-3; }},
          {"reconfig_cutoff", [](Config& c) { c.reconfig.cutoff = 2048; }},
      };
  for (const auto& [name, perturb] : perturbations) {
    Config c = base_config();
    perturb(c);
    EXPECT_NE(config_key(c), base) << "field `" << name
                                   << "` does not reach the cache key";
  }
}

TEST(StoreKey, ConfigEncodingIsCanonical) {
  // Two encodes of the same config must produce identical bytes — the key
  // is a hash of this stream, so any nondeterminism here breaks caching.
  Encoder a, b;
  encode_config(a, base_config());
  encode_config(b, base_config());
  EXPECT_EQ(a.bytes(), b.bytes());
}

// --- codec round-trips -----------------------------------------------------

TEST(StoreCodec, ConfigRoundTripsLosslessly) {
  auto c = base_config();
  c.app = "paratec";
  c.iterations = 5;
  c.seed = 42;
  c.capture_trace = false;
  c.engine = mpisim::EngineKind::kFibers;
  c.sched_seed = 7;
  Encoder enc;
  encode_config(enc, c);
  Decoder dec(enc.bytes());
  const auto back = decode_config(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.app, c.app);
  EXPECT_EQ(back.nranks, c.nranks);
  EXPECT_EQ(back.iterations, c.iterations);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.capture_trace, c.capture_trace);
  EXPECT_EQ(back.engine, c.engine);
  EXPECT_EQ(back.sched_seed, c.sched_seed);
}

TEST(StoreCodec, ResultRoundTripsForAllSixAppsAtP64) {
  // The paper's full application set at the paper's base concurrency:
  // decode(encode(r)) must reproduce every field — profiles (counts,
  // times, histograms, per-destination maps), both graphs, and the full
  // event trace.
  for (const char* app :
       {"cactus", "gtc", "lbmhd", "superlu", "pmemd", "paratec"}) {
    auto cfg = base_config();
    cfg.app = app;
    cfg.engine = test_engine();
    const auto r = analysis::run_experiment(cfg);
    SCOPED_TRACE(app);
    expect_result_eq(r, roundtrip(r));
  }
}

TEST(StoreCodec, SmpResultRoundTrips) {
  // A result carrying a nontrivial SMP packing (multi-occupancy nodes,
  // nonzero backplane bytes, a real node graph) must survive the codec
  // bit-for-bit — including the node_of_task map and ProvisionStats.
  for (const core::SmpPacking packing :
       {core::SmpPacking::kRankOrder, core::SmpPacking::kAffinity}) {
    auto cfg = base_config();
    cfg.nranks = 16;
    cfg.engine = test_engine();
    cfg.smp = {4, packing};
    const auto r = analysis::run_experiment(cfg);
    SCOPED_TRACE(core::packing_name(packing));
    EXPECT_EQ(r.smp.num_nodes, 4);
    EXPECT_GT(r.smp.backplane_bytes, 0u);
    expect_result_eq(r, roundtrip(r));
  }
}

TEST(StoreCodec, SmpTaskMapOutOfRangeRejected) {
  auto cfg = base_config();
  cfg.nranks = 8;
  cfg.capture_trace = false;
  cfg.engine = test_engine();
  cfg.smp = {2, core::SmpPacking::kRankOrder};
  auto r = analysis::run_experiment(cfg);
  r.smp.node_of_task.back() = r.smp.num_nodes;  // one past the node range
  Encoder enc;
  encode_result(enc, r);
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)decode_result(dec), Error);
}

TEST(StoreCodec, OutOfRangeReconfigConfigRejected) {
  // decode_config's range rules must reject reconfiguration settings no
  // replay could run with, even though the int and double codecs accept
  // any bit pattern.
  using Config = analysis::ExperimentConfig;
  const std::function<void(Config&)> invalid[] = {
      [](Config& c) { c.reconfig.num_windows = -1; },
      [](Config& c) { c.reconfig.hysteresis_windows = -1; },
      [](Config& c) { c.reconfig.reconfig_seconds = -1e-3; },
      [](Config& c) { c.reconfig.reconfig_seconds = std::nan(""); },
  };
  for (const auto& corrupt : invalid) {
    auto cfg = base_config();
    corrupt(cfg);
    Encoder enc;
    encode_config(enc, cfg);
    Decoder dec(enc.bytes());
    EXPECT_THROW((void)decode_config(dec), Error);
  }
}

TEST(StoreCodec, TracelessResultRoundTrips) {
  auto cfg = base_config();
  cfg.nranks = 8;
  cfg.capture_trace = false;
  cfg.engine = test_engine();
  const auto r = analysis::run_experiment(cfg);
  EXPECT_TRUE(r.trace.events().empty());
  expect_result_eq(r, roundtrip(r));
}

TEST(StoreCodec, TruncatedPayloadThrowsCleanError) {
  auto cfg = base_config();
  cfg.nranks = 8;
  cfg.engine = test_engine();
  Encoder enc;
  encode_result(enc, analysis::run_experiment(cfg));
  const auto full = enc.bytes();
  // Every proper prefix must fail with hfast::Error — bounds checks fire
  // before any length field is trusted. Stride keeps the test fast.
  for (std::size_t n = 0; n < full.size(); n += 97) {
    Decoder dec(std::span<const std::byte>(full.data(), n));
    EXPECT_THROW((void)decode_result(dec), Error) << "prefix " << n;
  }
}

TEST(StoreCodec, TrailingBytesRejected) {
  Encoder enc;
  encode_config(enc, base_config());
  enc.u8(0);  // one stray byte after a valid config is not a valid result
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)decode_result(dec), Error);
}

// --- store persistence and corruption --------------------------------------

class StoreFixture : public ::testing::Test {
 protected:
  /// One small experiment shared by every corruption test in this binary.
  static const analysis::ExperimentResult& small_result() {
    static const analysis::ExperimentResult r = [] {
      auto cfg = base_config();
      cfg.nranks = 8;
      cfg.engine = test_engine();
      return analysis::run_experiment(cfg);
    }();
    return r;
  }
};

TEST_F(StoreFixture, SaveLoadRoundTripsThroughDisk) {
  const fs::path dir = temp_store("save_load");
  ResultStore st(dir);
  const auto& r = small_result();

  EXPECT_FALSE(st.load(r.config).has_value());  // cold probe
  ASSERT_TRUE(st.save(r));
  const auto back = st.load(r.config);
  ASSERT_TRUE(back.has_value());
  expect_result_eq(r, *back);

  const auto c = st.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.stores, 1u);
  EXPECT_EQ(c.corrupt_misses, 0u);

  const auto entries = st.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_EQ(entries[0].key, ResultStore::key(r.config));
  ASSERT_TRUE(entries[0].config.has_value());
  EXPECT_EQ(entries[0].config->app, r.config.app);

  EXPECT_TRUE(st.evict(ResultStore::key(r.config)));
  EXPECT_FALSE(st.load(r.config).has_value());
  EXPECT_EQ(st.stats().entries, 0u);
  fs::remove_all(dir);
}

TEST_F(StoreFixture, TruncatedEntryIsACleanMiss) {
  const fs::path dir = temp_store("truncated");
  ResultStore st(dir);
  const auto& r = small_result();
  ASSERT_TRUE(st.save(r));
  const fs::path path = st.entry_path(r.config);

  // Truncate to half: tears the payload mid-stream.
  const auto half = fs::file_size(path) / 2;
  fs::resize_file(path, half);

  EXPECT_FALSE(st.load(r.config).has_value());
  const auto c = st.counters();
  EXPECT_EQ(c.corrupt_misses, 1u);
  EXPECT_EQ(c.hits, 0u);

  // The store heals by re-saving; the sweep would recompute and do this.
  ASSERT_TRUE(st.save(r));
  EXPECT_TRUE(st.load(r.config).has_value());
  fs::remove_all(dir);
}

TEST_F(StoreFixture, FlippedByteIsACleanMiss) {
  const fs::path dir = temp_store("flipped");
  ResultStore st(dir);
  const auto& r = small_result();
  ASSERT_TRUE(st.save(r));
  const fs::path path = st.entry_path(r.config);

  // Flip one payload byte mid-file: the CRC32 footer must catch it.
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(st.load(r.config).has_value());
  EXPECT_EQ(st.counters().corrupt_misses, 1u);

  const auto report = st.verify(/*evict_corrupt=*/true);
  EXPECT_EQ(report.checked, 1u);
  ASSERT_EQ(report.corrupt.size(), 1u);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(dir);
}

TEST_F(StoreFixture, WrongFormatVersionIsACleanMiss) {
  const fs::path dir = temp_store("version");
  ResultStore st(dir);
  const auto& r = small_result();
  ASSERT_TRUE(st.save(r));
  const fs::path path = st.entry_path(r.config);

  // Overwrite the u32 format version (bytes 4..8, after the magic) with a
  // future version: the entry must read as stale, not be misparsed.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(4);
  const char future[4] = {'\xff', '\xff', '\xff', '\xff'};
  f.write(future, 4);
  f.close();

  EXPECT_FALSE(st.load(r.config).has_value());
  EXPECT_EQ(st.counters().corrupt_misses, 1u);

  const auto entries = st.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].valid);
  EXPECT_FALSE(entries[0].error.empty());
  fs::remove_all(dir);
}

TEST_F(StoreFixture, GarbageFileNeverCrashesTheIndex) {
  const fs::path dir = temp_store("garbage");
  ResultStore st(dir);
  // A file with the right name shape but arbitrary junk inside.
  {
    std::ofstream f(dir / ResultStore::entry_filename(0xdeadbeef));
    f << "this is not an hfast store entry at all";
  }
  const auto entries = st.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].valid);
  const auto report = st.verify(/*evict_corrupt=*/true);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_EQ(st.stats().entries, 0u);
  fs::remove_all(dir);
}

TEST_F(StoreFixture, OrphanedTempFilesAreSweptOnOpen) {
  const fs::path dir = temp_store("orphan_tmp");
  fs::create_directories(dir);
  {
    std::ofstream f(dir / ".tmp-0123456789abcdef-1");
    f << "torn write from a crashed sweep";
  }
  ResultStore st(dir);  // constructor sweeps leftovers
  EXPECT_FALSE(fs::exists(dir / ".tmp-0123456789abcdef-1"));
  EXPECT_EQ(st.stats().entries, 0u);
  fs::remove_all(dir);
}

// --- batch integration: the resume story ------------------------------------
// Named BatchRunnerStore so the TSan job's `-R ...|BatchRunner|...` filter
// exercises concurrent save() from sweep workers.

TEST(BatchRunnerStore, ResumeRunsOnlyMissingJobs) {
  const fs::path dir = temp_store("batch_resume");
  auto configs = analysis::sweep_configs({"cactus"}, {8, 16}, {1, 7});
  for (auto& c : configs) c.engine = test_engine();
  ASSERT_EQ(configs.size(), 4u);

  ResultStore st(dir);
  const analysis::BatchRunner runner({.result_store = &st});

  // Cold sweep: everything computes, everything persists.
  const auto cold = runner.run(configs);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 4u);
  EXPECT_EQ(cold.cache.stores, 4u);
  EXPECT_EQ(st.stats().valid, 4u);

  // Warm sweep: pure cache replay, nothing recomputes.
  const auto warm = runner.run(configs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache.hits, 4u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.stores, 0u);

  // Kill half the store — the "sweep died midway" state — and re-run:
  // exactly the missing half recomputes, and every result matches the
  // cold sweep field for field.
  ASSERT_TRUE(st.evict(ResultStore::key(configs[1])));
  ASSERT_TRUE(st.evict(ResultStore::key(configs[3])));
  const auto resumed = runner.run(configs);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cache.hits, 2u);
  EXPECT_EQ(resumed.cache.misses, 2u);
  EXPECT_EQ(resumed.cache.stores, 2u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].has_value()) << "job " << i;
    SCOPED_TRACE("job " + std::to_string(i));
    // Jobs 0/2 are cache hits: byte-identical, measured times included.
    // Jobs 1/3 recomputed: every modeled quantity must still match (cactus
    // is deterministic — no wildcard receives), but their wall-clock
    // measurements are fresh.
    const bool was_hit = (i == 0 || i == 2);
    expect_result_eq(*cold.results[i], *resumed.results[i],
                     /*timings=*/was_hit);
  }
  fs::remove_all(dir);
}

TEST(BatchRunnerStore, FailingJobsBypassTheStore) {
  const fs::path dir = temp_store("batch_errors");
  std::vector<analysis::ExperimentConfig> configs(2);
  configs[0].app = "cactus";
  configs[0].nranks = 8;
  configs[0].engine = test_engine();
  configs[1].app = "no-such-app";
  configs[1].nranks = 8;

  ResultStore st(dir);
  const auto batch = analysis::BatchRunner({.result_store = &st}).run(configs);
  EXPECT_FALSE(batch.ok());
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].index, 1u);
  EXPECT_EQ(batch.cache.stores, 1u);  // only the good job persisted
  EXPECT_EQ(st.stats().valid, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hfast::store
