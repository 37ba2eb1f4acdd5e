/// Property-test battery for collective schedule synthesis (synthesize.hpp)
/// and its durable memo (store::ScheduleCache).
///
/// Suites (names matter — CI's TSan job filters on 'Collective', so the
/// single-threaded property/fuzz suites run under the tool, while the
/// heavy SynthAcceptanceGrid deliberately dodges the filter and the
/// parity suite self-skips there via fibers_supported()):
///
///   * CollectiveSynthesize — LCG-seeded randomized draws over
///     (call, P in [1, 96], topology): every synthesized schedule passes
///     validate_schedule, never costs more than the cheapest canned
///     family under the same hop function, and is byte-deterministic for
///     a fixed seed across two runs. Plus the select_schedule tie-break
///     regression, the memo round-trip, and the affordability fallback.
///   * CollectiveSynthFuzz — tampered schedules (dropped send, duplicated
///     (src, dst) per step, out-of-range chunk id, truncated step list)
///     are rejected by the validator with a diagnostic; hostile bytes are
///     rejected by decode_schedule; a corrupt or semantically-invalid
///     cache entry is a miss, never a schedule.
///   * SynthAcceptanceGrid — the PR acceptance matrix: (allreduce,
///     alltoall, allgather, bcast) x P in {8, 64, 256} x (torus, fattree,
///     hfast fabric): every cell validates and costs <= the auto
///     selector's pick; at least 3 cells are strictly cheaper.
///   * CollectiveSynthParity — six apps x P in {64, 256} x (torus, hfast),
///     lowered with synth: serial vs K-in-{2,4}-shard ReplayResult exact
///     equality (the same contract CollectiveParity pins for analytic).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/collective/cost.hpp"
#include "hfast/collective/generate.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/collective/synthesize.hpp"
#include "hfast/collective/verify.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/util/assert.hpp"

namespace hfast {
namespace {

using collective::CostParams;
using collective::HopFn;
using collective::Schedule;
using collective::ScheduleKind;
using collective::SynthesisOptions;
using collective::SynthesisResult;
using mpisim::CallType;

/// Deterministic draw source for the property tests (never std::mt19937 —
/// its stream is implementation-pinned but verbose; this is the same LCG
/// family the synthesizer uses internally).
struct DrawLcg {
  std::uint64_t state;
  explicit DrawLcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Hop oracle over a live network model, with the route prewarmed the way
/// every replay driver does it.
HopFn net_hops(netsim::Network& net) {
  return [&net](int a, int b) {
    net.prewarm_route(a, b);
    return net.switch_hops(a, b);
  };
}

/// Cheapest canned family for (call, n, payload) under `hops` — the bound
/// every synthesized schedule must meet. Mirrors select_schedule's flat
/// candidate set (no node map in these tests, so kHierarchical is out).
double cheapest_canned(CallType call, int n, std::uint64_t payload,
                       const HopFn& hops) {
  double best = 0.0;
  bool seen = false;
  for (ScheduleKind kind :
       {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
        ScheduleKind::kBinomial, ScheduleKind::kBruck,
        ScheduleKind::kPairwise}) {
    const auto s = collective::generate_schedule(kind, call, n, payload);
    if (!s.has_value()) continue;
    const double cost = collective::estimate_cost(*s, {}, hops);
    if (!seen || cost < best) {
      best = cost;
      seen = true;
    }
  }
  EXPECT_TRUE(seen);
  return best;
}

std::filesystem::path fresh_cache_dir(const char* tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (std::string("hfast_synth_") + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// CollectiveSynthesize — randomized properties
// ---------------------------------------------------------------------------

TEST(CollectiveSynthesize, RandomDrawsValidateMeetCannedBoundAndAreStable) {
  const std::vector<CallType> calls{
      CallType::kBarrier,   CallType::kBcast,     CallType::kReduce,
      CallType::kAllreduce, CallType::kGather,    CallType::kAllgather,
      CallType::kScatter,   CallType::kAlltoall,  CallType::kAlltoallv,
      CallType::kReduceScatter, CallType::kScan,  CallType::kCommSplit};
  const std::vector<std::uint64_t> payloads{1, 64, 4096, 1u << 20};

  // Topology 0 is blind (empty HopFn); 1 and 2 are live network models at
  // the draw's own P, built fresh per draw.
  DrawLcg lcg(0x5e5u);
  for (int draw = 0; draw < 30; ++draw) {
    const CallType call = calls[lcg.below(calls.size())];
    const int n = 1 + static_cast<int>(lcg.below(96));
    const std::uint64_t payload = payloads[lcg.below(payloads.size())];
    const int topo = static_cast<int>(lcg.below(3));

    std::unique_ptr<topo::MeshTorus> torus;
    std::unique_ptr<topo::FatTree> tree;
    std::unique_ptr<netsim::Network> net;
    SynthesisOptions opts;
    opts.seed = 1 + draw;
    if (topo == 1) {
      torus = std::make_unique<topo::MeshTorus>(
          topo::MeshTorus::balanced_dims(n, 3), true);
      net = std::make_unique<netsim::DirectNetwork>(*torus,
                                                    netsim::LinkParams{});
      opts.hops = net_hops(*net);
    } else if (topo == 2) {
      tree = std::make_unique<topo::FatTree>(n, 16);
      net = std::make_unique<netsim::FatTreeNetwork>(*tree,
                                                     netsim::LinkParams{});
      opts.hops = net_hops(*net);
    }

    SCOPED_TRACE("draw " + std::to_string(draw) + ": " +
                 std::string(mpisim::call_name(call)) + " P=" +
                 std::to_string(n) + " payload=" + std::to_string(payload) +
                 " topo=" + std::to_string(topo));

    const SynthesisResult r = collective::synthesize(call, n, payload, opts);
    EXPECT_EQ(r.schedule.algo, ScheduleKind::kSynth);
    EXPECT_EQ(r.schedule.nranks, n);
    EXPECT_TRUE(r.searched);
    EXPECT_NO_THROW(collective::validate_schedule(r.schedule));
    EXPECT_LE(r.cost, r.auto_cost);
    EXPECT_LE(r.cost, cheapest_canned(call, n, payload, opts.hops));

    // Byte-determinism: an identical second run produces a byte-identical
    // schedule (schedule_bytes is the canonical witness).
    const SynthesisResult again =
        collective::synthesize(call, n, payload, opts);
    EXPECT_EQ(store::schedule_bytes(r.schedule),
              store::schedule_bytes(again.schedule));
    EXPECT_EQ(r.cost, again.cost);
  }
}

TEST(CollectiveSynthesize, SelectScheduleTieBreaksToLowestEnum) {
  // At P=2 several families emit the same single-step structure, so their
  // costs tie bit-for-bit — the documented contract picks the LOWEST
  // ScheduleKind enum among the argmin set. Derive the expected winner
  // from the candidates themselves so the test fails loudly if a
  // generator change breaks the tie instead of the tie-break.
  const struct {
    CallType call;
    std::uint64_t payload;
  } cases[] = {{CallType::kAlltoall, 512}, {CallType::kAllgather, 512}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(mpisim::call_name(c.call)));
    double best = 0.0;
    int ties = 0;
    ScheduleKind expected = ScheduleKind::kAnalytic;
    for (ScheduleKind kind :
         {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
          ScheduleKind::kBinomial, ScheduleKind::kBruck,
          ScheduleKind::kPairwise}) {
      const auto s = collective::generate_schedule(kind, c.call, 2, c.payload);
      if (!s.has_value()) continue;
      const double cost = collective::estimate_cost(*s);
      if (expected == ScheduleKind::kAnalytic || cost < best) {
        best = cost;
        expected = kind;  // first (= lowest-enum) holder of the minimum
        ties = 1;
      } else if (cost == best) {
        ++ties;
      }
    }
    ASSERT_GE(ties, 2) << "tie evaporated; pick a new tie-break fixture";
    const Schedule pick = collective::select_schedule(c.call, 2, c.payload);
    EXPECT_EQ(pick.algo, expected);
    EXPECT_EQ(collective::estimate_cost(pick), best);
  }
  // Pin the concrete winners too, so the enum order itself is regression-
  // guarded: Bruck (4) beats Pairwise (5) for alltoall, Ring (1) beats
  // RecursiveDoubling (2) and Bruck (4) for allgather.
  EXPECT_EQ(collective::select_schedule(CallType::kAlltoall, 2, 512).algo,
            ScheduleKind::kBruck);
  EXPECT_EQ(collective::select_schedule(CallType::kAllgather, 2, 512).algo,
            ScheduleKind::kRing);
}

TEST(CollectiveSynthesize, MemoServesByteIdenticalScheduleOnSecondRun) {
  store::ScheduleCache cache(fresh_cache_dir("memo"));
  SynthesisOptions opts;
  opts.memo = &cache;
  opts.topology_digest = collective::topology_hash(12, {});

  const SynthesisResult first =
      collective::synthesize(CallType::kAllgather, 12, 2048, opts);
  EXPECT_FALSE(first.from_memo);
  EXPECT_EQ(cache.counters().stores, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);

  const SynthesisResult second =
      collective::synthesize(CallType::kAllgather, 12, 2048, opts);
  EXPECT_TRUE(second.from_memo);
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(store::schedule_bytes(first.schedule),
            store::schedule_bytes(second.schedule));
  EXPECT_EQ(first.cost, second.cost);

  // Different search knobs must not alias: a new seed is a fresh key.
  SynthesisOptions reseeded = opts;
  reseeded.seed = 99;
  EXPECT_NE(collective::synth_key(CallType::kAllgather, 12, 2048, opts),
            collective::synth_key(CallType::kAllgather, 12, 2048, reseeded));
  EXPECT_FALSE(
      collective::synthesize(CallType::kAllgather, 12, 2048, reseeded)
          .from_memo);
}

TEST(CollectiveSynthesize, UnaffordableCellsFallBackToAutoUnsearched) {
  // alltoall at P=1024 needs ~P^3 bytes of validator state — over the
  // 64 MB guard, so synthesis must return the selector's pick unsearched
  // (and never touch the memo: recomputing the fallback is cheap).
  store::ScheduleCache cache(fresh_cache_dir("guard"));
  SynthesisOptions opts;
  opts.memo = &cache;
  const SynthesisResult r =
      collective::synthesize(CallType::kAlltoall, 1024, 64, opts);
  EXPECT_FALSE(r.searched);
  EXPECT_FALSE(r.from_memo);
  EXPECT_EQ(r.schedule.algo, ScheduleKind::kSynth);
  EXPECT_EQ(r.schedule.nranks, 1024);
  EXPECT_EQ(r.cost, r.auto_cost);
  EXPECT_EQ(cache.counters().stores, 0u);
  EXPECT_EQ(cache.counters().misses, 0u);
}

// ---------------------------------------------------------------------------
// CollectiveSynthFuzz — tampering and hostile bytes
// ---------------------------------------------------------------------------

Schedule synthesized_fixture() {
  const SynthesisResult r =
      collective::synthesize(CallType::kAllgather, 8, 1024, {});
  return r.schedule;
}

TEST(CollectiveSynthFuzz, TruncatedStepListIsRejectedWithDiagnostic) {
  Schedule s = synthesized_fixture();
  ASSERT_FALSE(s.steps.empty());
  s.steps.pop_back();  // even a 1-step winner truncates to "nothing lands"
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted a truncated schedule";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("after the last step"),
              std::string::npos)
        << e.what();
  }
}

TEST(CollectiveSynthFuzz, DroppedSendOpIsRejectedWithDiagnostic) {
  Schedule s = synthesized_fixture();
  ASSERT_FALSE(s.steps.back().sends.empty());
  s.steps.back().sends.pop_back();
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted a schedule with a dropped send";
  } catch (const Error& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST(CollectiveSynthFuzz, DuplicateOrderedPairInAStepIsRejected) {
  Schedule s = synthesized_fixture();
  ASSERT_FALSE(s.steps.front().sends.empty());
  s.steps.front().sends.push_back(s.steps.front().sends.front());
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted duplicate (src, dst) within a step";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("two sends on ordered pair"),
              std::string::npos)
        << e.what();
  }
}

TEST(CollectiveSynthFuzz, OutOfRangeChunkIdIsRejected) {
  Schedule s = synthesized_fixture();
  ASSERT_FALSE(s.steps.front().sends.front().chunks.empty());
  s.steps.front().sends.front().chunks.front() = s.num_chunks;
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted an out-of-range chunk id";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk id"), std::string::npos)
        << e.what();
  }
}

TEST(CollectiveSynthFuzz, DecodeRejectsHostileBytes) {
  const Schedule s = synthesized_fixture();
  const std::vector<std::byte> good = store::schedule_bytes(s);
  {
    store::Decoder dec(good);
    EXPECT_NO_THROW({
      const Schedule back = store::decode_schedule(dec);
      EXPECT_TRUE(dec.done());
      EXPECT_EQ(store::schedule_bytes(back), good);
    });
  }
  {
    std::vector<std::byte> bad = good;  // unknown call type (byte 0)
    bad[0] = std::byte{0xEE};
    store::Decoder dec(bad);
    EXPECT_THROW(store::decode_schedule(dec), Error);
  }
  {
    std::vector<std::byte> bad = good;  // unknown schedule kind (byte 1)
    bad[1] = std::byte{0xFF};
    store::Decoder dec(bad);
    EXPECT_THROW(store::decode_schedule(dec), Error);
  }
  // Every truncation point yields a clean Error, never UB or a wild
  // allocation (the expect_backing contract).
  for (std::size_t len = 0; len < good.size(); len += 7) {
    store::Decoder dec(std::span<const std::byte>(good.data(), len));
    EXPECT_THROW(store::decode_schedule(dec), Error) << "len=" << len;
  }
}

TEST(CollectiveSynthFuzz, CorruptCacheEntryIsAMissNeverASchedule) {
  store::ScheduleCache cache(fresh_cache_dir("corrupt"));
  const Schedule s = synthesized_fixture();
  const std::uint64_t key = 0xabcdef0123456789ULL;
  cache.save(key, s);
  ASSERT_TRUE(cache.load(key).has_value());

  // Flip one payload byte behind the frame: CRC catches it -> miss.
  const auto path = cache.dir() / store::ScheduleCache::entry_filename(key);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekp(30);  // inside the payload (frame header is 24 bytes)
    char c = 0;
    f.seekg(30);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(30);
    f.write(&c, 1);
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_GE(cache.counters().corrupt_misses, 1u);
}

TEST(CollectiveSynthFuzz, DecodableButInvalidCacheEntryIsAMiss) {
  // A well-formed entry whose schedule fails the chunk algebra (a dropped
  // final step) must be a miss: load() re-proves every entry.
  store::ScheduleCache cache(fresh_cache_dir("invalid"));
  Schedule s = synthesized_fixture();
  ASSERT_FALSE(s.steps.empty());
  s.steps.pop_back();
  const std::uint64_t key = 0x1122334455667788ULL;
  cache.save(key, s);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_GE(cache.counters().corrupt_misses, 1u);
}

// ---------------------------------------------------------------------------
// SynthAcceptanceGrid — the PR acceptance matrix
// ---------------------------------------------------------------------------

/// A synthetic HFAST fabric for world size n: provision the greedy fabric
/// from a ring + cross-shift communication graph (every rank talks to its
/// neighbors and to r + n/2), the shape the paper's provisioning study
/// uses for mixed near/far traffic.
struct HfastCell {
  core::Provisioned prov;
  std::unique_ptr<netsim::Network> net;
};

HfastCell make_hfast(int n) {
  graph::CommGraph g(n);
  for (int r = 0; r < n; ++r) {
    if (n > 1) {
      g.add_message(r, (r + 1) % n, 4096);
      if (n > 2 && (r + n / 2) % n != r) {
        g.add_message(r, (r + n / 2) % n, 4096);
      }
    }
  }
  HfastCell cell{core::provision_greedy(g, {.cutoff = 0}), nullptr};
  cell.net = std::make_unique<netsim::FabricNetwork>(
      cell.prov.fabric, netsim::LinkParams{}, 50e-9);
  return cell;
}

TEST(SynthAcceptanceGrid, EveryCellValidatesAndBeatsOrMatchesAuto) {
  const CallType calls[] = {CallType::kAllreduce, CallType::kAlltoall,
                            CallType::kAllgather, CallType::kBcast};
  const int widths[] = {8, 64, 256};
  int strictly_cheaper = 0;
  for (const int n : widths) {
    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(n, 3), true);
    netsim::DirectNetwork torus_net(torus, {});
    topo::FatTree tree(n, 16);
    netsim::FatTreeNetwork tree_net(tree, {});
    HfastCell hfast = make_hfast(n);
    const std::pair<const char*, netsim::Network*> topologies[] = {
        {"torus", &torus_net}, {"fattree", &tree_net}, {"hfast",
                                                        hfast.net.get()}};
    for (const auto& [name, net] : topologies) {
      SynthesisOptions opts;
      opts.hops = net_hops(*net);
      for (const CallType call : calls) {
        SCOPED_TRACE(std::string(mpisim::call_name(call)) + " P=" +
                     std::to_string(n) + " on " + name);
        const SynthesisResult r =
            collective::synthesize(call, n, 4096, opts);
        EXPECT_TRUE(r.searched);
        EXPECT_NO_THROW(collective::validate_schedule(r.schedule));
        EXPECT_LE(r.cost, r.auto_cost);
        if (r.cost < r.auto_cost) ++strictly_cheaper;
      }
    }
  }
  // The search must actually buy something somewhere, not just match the
  // selector everywhere (the ISSUE's acceptance bar).
  EXPECT_GE(strictly_cheaper, 3);
}

// ---------------------------------------------------------------------------
// CollectiveSynthParity — exact replay parity under synth lowering
// ---------------------------------------------------------------------------

class CollectiveSynthParity : public ::testing::TestWithParam<const char*> {};

TEST_P(CollectiveSynthParity, SerialAndShardedReplaysAgreeExactly) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  for (const int nranks : {64, 256}) {
    analysis::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = nranks;
    cfg.engine = mpisim::EngineKind::kFibers;
    const trace::Trace t = analysis::run_experiment(cfg).trace;
    ASSERT_FALSE(t.events().empty()) << app;

    // torus substrate + the HFAST fabric provisioned from the trace's own
    // P2P topology (the paper's evaluation pairing).
    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(nranks, 3), true);
    netsim::DirectNetwork torus_net(torus, {});
    graph::CommGraph g(nranks);
    for (const trace::CommEvent& e : t.events()) {
      if (e.kind == trace::EventKind::kSend && e.peer != e.rank &&
          e.peer >= 0) {
        g.add_message(e.rank, e.peer, e.bytes);
      }
    }
    const core::Provisioned prov = core::provision_greedy(g, {.cutoff = 0});
    netsim::FabricNetwork fabric_net(prov.fabric, {}, 50e-9);

    for (netsim::Network* net :
         {static_cast<netsim::Network*>(&torus_net),
          static_cast<netsim::Network*>(&fabric_net)}) {
      collective::LowerOptions opts;
      opts.config.schedule = ScheduleKind::kSynth;
      opts.hops = net_hops(*net);
      const auto lowered = collective::lower_trace(t, opts);
      EXPECT_GT(lowered.stats.p2p_events, 0u) << app;

      const auto serial = netsim::replay(lowered.trace, *net);
      for (const int shards : {2, 4}) {
        const auto par = netsim::replay(lowered.trace, *net, {},
                                                 {.shards = shards});
        EXPECT_TRUE(serial == par)
            << app << " P=" << nranks << " K=" << shards << " on "
            << net->name()
            << ": sharded replay of the synth lowering diverged";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, CollectiveSynthParity,
                         ::testing::Values("cactus", "gtc", "lbmhd", "superlu",
                                           "pmemd", "paratec"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace hfast
