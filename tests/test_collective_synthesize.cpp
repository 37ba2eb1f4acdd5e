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
///     regression, the memo round-trip, the affordability fallback, a
///     golden table of schedules, costs and memo keys pinned across
///     builds, and the hop table's equivalence with its oracle.
///     Plus the flat schedule buffer: refilling a buffer that held a large
///     schedule gives exactly a fresh instantiation, for every canned
///     family and parametric skeleton.
///   * CollectiveSynthFuzz — tampered schedules (dropped send, duplicated
///     (src, dst) per step, out-of-range chunk id, truncated step list)
///     are rejected by the validator with a diagnostic, whose full text is
///     pinned for one schedule per rule; hostile bytes are
///     rejected by decode_schedule; a corrupt, semantically-invalid or
///     chunk-count-overrunning cache entry is a miss, never a schedule.
///   * SynthAcceptanceGrid — the PR acceptance matrix: (allreduce,
///     alltoall, allgather, bcast) x P in {8, 64, 256} x (torus, fattree,
///     hfast fabric): every cell validates and costs <= the auto
///     selector's pick; at least 3 cells are strictly cheaper.
///   * CollectiveSynthParity — six apps x P in {64, 256} x (torus, hfast),
///     lowered with synth: serial vs K-in-{2,4}-shard ReplayResult exact
///     equality (the same contract CollectiveParity pins for analytic).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "collective_edit.hpp"
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
#include "hfast/util/hash.hpp"

namespace hfast {
namespace {

using collective::CostParams;
using collective::HopFn;
using collective::Schedule;
using collective::ScheduleKind;
using collective::tamper::edited;
using collective::tamper::Step;
using collective::tamper::Steps;
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
  ASSERT_GT(s.num_steps(), 0u);
  s.pop_step();  // even a 1-step winner truncates to "nothing lands"
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
  const Schedule fixture = synthesized_fixture();
  ASSERT_FALSE(fixture.step(fixture.num_steps() - 1).empty());
  const Schedule s = edited(fixture, [](Steps& st) { st.back().pop_back(); });
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted a schedule with a dropped send";
  } catch (const Error& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST(CollectiveSynthFuzz, DuplicateOrderedPairInAStepIsRejected) {
  const Schedule fixture = synthesized_fixture();
  ASSERT_FALSE(fixture.step(0).empty());
  const Schedule s = edited(
      fixture, [](Steps& st) { st.front().push_back(st.front().front()); });
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
  const Schedule fixture = synthesized_fixture();
  ASSERT_NE(fixture.step(0).front().chunk_count, 0u);
  const Schedule s = edited(fixture, [&](Steps& st) {
    st.front().front().chunks.front() = fixture.num_chunks;
  });
  try {
    collective::validate_schedule(s);
    FAIL() << "validator accepted an out-of-range chunk id";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk id"), std::string::npos)
        << e.what();
  }
}

/// The validator's full diagnostic for `s`, or "accepted" when it passes.
std::string verdict(const Schedule& s) {
  try {
    collective::validate_schedule(s);
    return "accepted";
  } catch (const Error& e) {
    return e.what();
  }
}

Schedule canned(ScheduleKind kind, CallType call, int n) {
  auto s = collective::generate_schedule(kind, call, n, 1024);
  EXPECT_TRUE(s.has_value());
  return s.value_or(Schedule{});
}

TEST(CollectiveSynthFuzz, ValidatorDiagnosticsAreUnchanged) {
  // Full-text pins of the first violated rule for tampered canned
  // schedules. The structural cases also fix which rule wins when one
  // step breaks several: rules are checked send by send, in send order.
  const auto with = [](const Schedule& s, auto&& tamper) {
    return verdict(edited(s, tamper));
  };
  const Schedule ag = canned(ScheduleKind::kRing, CallType::kAllgather, 8);
  const Schedule ar = canned(ScheduleKind::kRing, CallType::kAllreduce, 8);
  const Schedule scan =
      canned(ScheduleKind::kRecursiveDoubling, CallType::kScan, 8);
  const Schedule a2a = canned(ScheduleKind::kBruck, CallType::kAlltoall, 8);
  const Schedule bc = canned(ScheduleKind::kBinomial, CallType::kBcast, 8);
  // Three-rank schedules whose verdict turns on parallel-step semantics:
  // a send reads its source as it was before the step began.
  const auto tiny = [](CallType call, const Steps& steps) {
    Schedule s;
    s.call = call;
    s.algo = ScheduleKind::kBinomial;
    s.nranks = 3;
    s.payload = 8;
    return verdict(collective::tamper::packed(s, steps));
  };
  const std::pair<std::string, std::string> cases[] = {
      {tiny(CallType::kBcast, {Step{{0, 1, 8, {0}}, {1, 2, 8, {0}}}}),
       "collective schedule MPI_Bcast/binomial P=3 step 0: "
       "rank 1 sends chunk 0 it does not hold yet"},
      {tiny(CallType::kBcast, {Step{{0, 1, 8, {0}}},
                               Step{{0, 1, 8, {0}}, {1, 2, 8, {0}}}}),
       "accepted"},
      {tiny(CallType::kReduce, {Step{{2, 1, 8, {0}}, {1, 0, 8, {0}}}}),
       "collective schedule MPI_Reduce/binomial P=3 step 1: "
       "after the last step the root's reduction misses contributions"},
      {tiny(CallType::kReduce, {Step{{2, 1, 8, {0}}},
                                Step{{2, 1, 8, {0}}, {1, 0, 8, {0}}}}),
       "accepted"},
      {with(ag, [](Steps& s) { s.back().pop_back(); }),
       "collective schedule MPI_Allgather/ring P=8 step 7: "
       "after the last step rank 0 lacks rank 1's block"},
      {with(ar, [](Steps& s) { s.pop_back(); }),
       "collective schedule MPI_Allreduce/ring P=8 step 13: "
       "after the last step rank 0's reduction misses contributions"},
      {with(ag,
            [](Steps& s) {
              s[0].push_back(s[0].front());
            }),
       "collective schedule MPI_Allgather/ring P=8 step 0: "
       "two sends on ordered pair 0 -> 1"},
      {with(scan,
            [](Steps& s) {
              s.back().push_back({7, 0, 1024, {0}});
            }),
       "collective schedule MPI_Scan/rd P=8 step 3: "
       "after the last step rank 0's prefix is not exactly ranks [0, 0]"},
      {with(a2a, [](Steps& s) { s.back().pop_back(); }),
       "collective schedule MPI_Alltoall/bruck P=8 step 3: "
       "after the last step block (4 -> 3) never arrived"},
      {with(bc, [](Steps& s) { s.back().pop_back(); }),
       "collective schedule MPI_Bcast/binomial P=8 step 3: "
       "after the last step rank 7 lacks the payload"},
      {with(ag, [](Steps& s) { s[2][3].dst = 8; }),
       "collective schedule MPI_Allgather/ring P=8 step 2: "
       "send endpoint (3 -> 8) outside [0, 8)"},
      {with(ag, [](Steps& s) { s[2][3].dst = 3; }),
       "collective schedule MPI_Allgather/ring P=8 step 2: "
       "self-send on rank 3"},
      {with(ag, [](Steps& s) { s[1][5].chunks.clear(); }),
       "collective schedule MPI_Allgather/ring P=8 step 1: "
       "send 5 -> 6 carries no chunks"},
      {with(ag, [](Steps& s) { s[1][5].chunks = {2, 8}; }),
       "collective schedule MPI_Allgather/ring P=8 step 1: "
       "chunk id 8 outside [0, 8)"},
      {with(ag, [](Steps& s) { s[1][0].chunks = {1}; }),
       "collective schedule MPI_Allgather/ring P=8 step 1: "
       "rank 0 sends chunk 1 it does not hold yet"},
      // A later duplicate does not mask an earlier send's violation...
      {with(ag,
            [](Steps& s) {
              s[0][2].chunks.clear();
              s[0][6] = s[0][1];
            }),
       "collective schedule MPI_Allgather/ring P=8 step 0: "
       "send 2 -> 3 carries no chunks"},
      // ...and a duplicate is reported at its second occurrence, before
      // that send's own chunk checks and before any later send's.
      {with(ag,
            [](Steps& s) {
              s[0][5] = s[0][4];
              s[0][5].chunks = {99};
              s[0][6].dst = 6;
            }),
       "collective schedule MPI_Allgather/ring P=8 step 0: "
       "two sends on ordered pair 4 -> 5"},
      // Out-of-range endpoints are checked before the duplicate rule.
      {with(ag,
            [](Steps& s) {
              s[0][3] = {0, 9, 1024, {0}};
              s[0][4] = {1, 1, 1024, {1}};
            }),
       "collective schedule MPI_Allgather/ring P=8 step 0: "
       "send endpoint (0 -> 9) outside [0, 8)"},
  };
  for (const auto& [got, want] : cases) EXPECT_EQ(got, want);
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
  ASSERT_GT(s.num_steps(), 0u);
  s.pop_step();
  const std::uint64_t key = 0x1122334455667788ULL;
  cache.save(key, s);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_GE(cache.counters().corrupt_misses, 1u);
}

TEST(CollectiveSynthFuzz, ChunkCountOverrunningTheEntryIsAMiss) {
  // A well-framed entry (valid CRC) whose first send claims more chunk ids
  // than the payload holds must be a miss, not a read past the payload.
  store::ScheduleCache cache(fresh_cache_dir("overrun"));
  const std::uint64_t key = 0x0badc0de0badc0deULL;
  cache.save(key, synthesized_fixture());
  const auto path = cache.dir() / store::ScheduleCache::entry_filename(key);
  std::vector<char> file(std::filesystem::file_size(path));
  std::ifstream(path, std::ios::binary).read(file.data(), file.size());
  // Frame header: magic, version, key, payload length (24 bytes). Payload:
  // call, algo, nranks, payload, num_chunks, step count, then step 0's
  // send count and its first send's src, dst and bytes (50 bytes in all).
  constexpr std::size_t kHeader = 24;
  constexpr std::size_t kFirstChunkCount = kHeader + 50;
  ASSERT_GT(file.size(), kFirstChunkCount + 4);
  std::memset(file.data() + kFirstChunkCount, 0xff, 4);  // 2^32 - 1 chunks
  const std::size_t payload_len = file.size() - kHeader - 4;
  const std::uint32_t crc = util::crc32(std::as_bytes(
      std::span<const char>(file.data() + kHeader, payload_len)));
  for (int i = 0; i < 4; ++i) {
    file[kHeader + payload_len + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(file.data(), static_cast<std::streamsize>(file.size()));
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_GE(cache.counters().corrupt_misses, 1u);
}

// ---------------------------------------------------------------------------
// CollectiveSynthesize — the flat schedule buffer
// ---------------------------------------------------------------------------

static_assert(std::is_trivially_copyable_v<collective::SendOp>);

TEST(CollectiveSynthesize, ReusedBufferMatchesFreshInstantiation) {
  // The search instantiates every candidate into one buffer that keeps its
  // capacity. Refilling a buffer that held a large schedule must give the
  // bytes of a fresh instantiation: no stale step, send, chunk or header.
  const CallType calls[] = {
      CallType::kBarrier,   CallType::kBcast,     CallType::kReduce,
      CallType::kAllreduce, CallType::kGather,    CallType::kAllgather,
      CallType::kScatter,   CallType::kAlltoall,  CallType::kAlltoallv,
      CallType::kReduceScatter, CallType::kScan,  CallType::kCommSplit};
  Schedule buf;
  const auto fill_large = [&buf] {
    ASSERT_TRUE(collective::generate_into(buf, ScheduleKind::kBruck,
                                          CallType::kAlltoall, 64, 4096));
  };
  for (const int n : {1, 2, 8, 64}) {
    std::vector<int> nodes(static_cast<std::size_t>(n));
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      nodes[static_cast<std::size_t>(r)] = r / 4;
      // Root pinned, the rest reversed: a non-identity rank order.
      order[static_cast<std::size_t>(r)] = r == 0 ? 0 : n - r;
    }
    for (const CallType call : calls) {
      for (const ScheduleKind kind :
           {ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
            ScheduleKind::kBinomial, ScheduleKind::kBruck,
            ScheduleKind::kPairwise, ScheduleKind::kHierarchical}) {
        SCOPED_TRACE(std::string(schedule_name(kind)) + "/" +
                     std::string(mpisim::call_name(call)) + " P=" +
                     std::to_string(n));
        fill_large();
        const bool made =
            collective::generate_into(buf, kind, call, n, 512, &nodes);
        const auto fresh =
            collective::generate_schedule(kind, call, n, 512, &nodes);
        ASSERT_EQ(made, fresh.has_value());
        if (made) {
          EXPECT_EQ(store::schedule_bytes(buf), store::schedule_bytes(*fresh));
          EXPECT_EQ(buf, *fresh);  // the arena and offsets too
        }
      }
      for (const collective::Skeleton& sk : collective::skeletons(call, n)) {
        SCOPED_TRACE("skeleton " + std::to_string(sk.gen) + "/" +
                     std::to_string(sk.param) + " " +
                     std::string(mpisim::call_name(call)) + " P=" +
                     std::to_string(n));
        fill_large();
        collective::instantiate(buf, sk, order, call, 512);
        Schedule fresh;
        collective::instantiate(fresh, sk, order, call, 512);
        EXPECT_EQ(store::schedule_bytes(buf), store::schedule_bytes(fresh));
        EXPECT_EQ(buf, fresh);
        EXPECT_NO_THROW(collective::validate_schedule(buf));
      }
    }
  }
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
// CollectiveSynthesize.GoldenSchedulesAreUnchanged — pinned search output
// ---------------------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof d);
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// One row per (P, topology): topology_hash and an allreduce synth_key,
/// then one row per call: fnv1a64 of the schedule's canonical bytes and
/// the bit patterns of r.cost and r.auto_cost; then four rooted cells at
/// other P in the same form. Pinned from a build whose
/// search proved every candidate before pricing it; a search change that
/// moves any schedule, cost or memo key by one bit fails here. On a
/// mismatch the test prints the full table in this form.
const char* const kGoldenSynthesis[] = {
    "P=8 blind topo 0x20537ec87b2e2650 "
    "key 0x40c438d7301d8033",
    "P=8 blind MPI_Allreduce 0xfbf393a17f787a18 "
    "0x3ed4e7877cfb4219 0x3ed4e7877cfb4219",
    "P=8 blind MPI_Alltoall 0xe5bebe4db4365583 "
    "0x3eee4644bb7970e3 0x3eef88641aba491b",
    "P=8 blind MPI_Allgather 0x0dfeb41cf2a0ab59 "
    "0x3eee4644bb7970e3 0x3eeeb1a485e463a1",
    "P=8 blind MPI_Bcast 0x5b22ad0789b3c459 "
    "0x3edb07313b7b1a16 0x3edb07313b7b1a16",
    "P=8 blind MPI_Reduce 0xbf97fc0ad3f375b7 "
    "0x3edb07313b7b1a16 0x3edb07313b7b1a16",
    "P=8 blind MPI_Reduce_scatter 0xdfb75d1fdde56be7 "
    "0x3eeeb1a485e463a1 0x3eeeb1a485e463a1",
    "P=8 blind MPI_Barrier 0x69485435e7390def "
    "0x3edb07313b7b1a16 0x3edb07313b7b1a16",
    "P=8 torus topo 0x9c23b477c02cd6d0 "
    "key 0xbdcb7fcb9f30a40d",
    "P=8 torus MPI_Allreduce 0xfbf393a17f787a18 "
    "0x3edac6c48ed48874 0x3edac6c48ed48874",
    "P=8 torus MPI_Alltoall 0xe5bebe4db4365583 "
    "0x3eee7bf4a0aeea41 0x3ef0074debdffc43",
    "P=8 torus MPI_Allgather 0x0dfeb41cf2a0ab59 "
    "0x3eee7bf4a0aeea41 0x3eeeb1a485e463a1",
    "P=8 torus MPI_Bcast 0x5b22ad0789b3c459 "
    "0x3edb07313b7b1a16 0x3edb07313b7b1a16",
    "P=8 torus MPI_Reduce 0xbf97fc0ad3f375b7 "
    "0x3edb07313b7b1a16 0x3edb07313b7b1a16",
    "P=8 torus MPI_Reduce_scatter 0xdfb75d1fdde56be7 "
    "0x3eeeb1a485e463a1 0x3eeeb1a485e463a1",
    "P=8 torus MPI_Barrier 0x69485435e7390def "
    "0x3edba840eb1b8632 0x3edba840eb1b8632",
    "P=8 hfast topo 0xdddadff3885534d0 "
    "key 0xfee11f36b3587a45",
    "P=8 hfast MPI_Allreduce 0xfbf393a17f787a18 "
    "0x3ed7d72605e7e546 0x3ed7d72605e7e546",
    "P=8 hfast MPI_Alltoall 0xe5bebe4db4365583 "
    "0x3eee7bf4a0aeea41 0x3ef06541bcfd90a9",
    "P=8 hfast MPI_Allgather 0x0dfeb41cf2a0ab59 "
    "0x3eee7bf4a0aeea41 0x3eef1d04504f565e",
    "P=8 hfast MPI_Bcast 0x5b22ad0789b3c459 "
    "0x3edbddf0d050ff91 0x3edbddf0d050ff91",
    "P=8 hfast MPI_Reduce 0xbf97fc0ad3f375b7 "
    "0x3edbddf0d050ff91 0x3edbddf0d050ff91",
    "P=8 hfast MPI_Reduce_scatter 0xdfb75d1fdde56be7 "
    "0x3eef1d04504f565d 0x3eef1d04504f565d",
    "P=8 hfast MPI_Barrier 0x69485435e7390def "
    "0x3edbddf0d050ff91 0x3edbddf0d050ff91",
    "P=64 blind topo 0x3809b67155060f98 "
    "key 0x41fd721231409485",
    "P=64 blind MPI_Allreduce 0x738e476db84376c1 "
    "0x3eeb07313b7b1a17 0x3eeb07313b7b1a17",
    "P=64 blind MPI_Alltoall 0xd4f65b6bf89a1072 "
    "0x3f20ecaeb6d992d0 0x3f21bcb84f08c917",
    "P=64 blind MPI_Allgather 0x126db3edee3f05d4 "
    "0x3f20ecaeb6d992d0 0x3f20fd75ae7a48be",
    "P=64 blind MPI_Bcast 0x4879de946f2252ac "
    "0x3eeb07313b7b1a17 0x3eeb07313b7b1a17",
    "P=64 blind MPI_Reduce 0xbcf8a6be11d2e1c6 "
    "0x3eeb07313b7b1a17 0x3eeb07313b7b1a17",
    "P=64 blind MPI_Reduce_scatter 0x9c8a7fa445e8adca "
    "0x3f20fd75ae7a48bf 0x3f20fd75ae7a48bf",
    "P=64 blind MPI_Barrier 0x701cf78e90c0512a "
    "0x3eeb07313b7b1a17 0x3eeb07313b7b1a17",
    "P=64 torus topo 0x173d87bb6afd5398 "
    "key 0xd8da0bd257f0341f",
    "P=64 torus MPI_Allreduce 0x738e476db84376c1 "
    "0x3eeb57b9134b5025 0x3eeb57b9134b5025",
    "P=64 torus MPI_Alltoall 0xd4f65b6bf89a1072 "
    "0x3f20f51232a9edc7 0x3f22952563085a60",
    "P=64 torus MPI_Allgather 0x126db3edee3f05d4 "
    "0x3f20f51232a9edc7 0x3f21027e2bf74c20",
    "P=64 torus MPI_Bcast 0x4879de946f2252ac "
    "0x3eeb57b9134b5025 0x3eeb57b9134b5025",
    "P=64 torus MPI_Reduce 0xbcf8a6be11d2e1c6 "
    "0x3eeb57b9134b5025 0x3eeb57b9134b5025",
    "P=64 torus MPI_Reduce_scatter 0x9c8a7fa445e8adca "
    "0x3f21027e2bf74c20 0x3f21027e2bf74c20",
    "P=64 torus MPI_Barrier 0x701cf78e90c0512a "
    "0x3eebf8c8c2ebbc41 0x3eebf8c8c2ebbc41",
    "P=64 hfast topo 0xd0d11f2c3a425398 "
    "key 0x7aec9144f0d6c7ce",
    "P=64 hfast MPI_Allreduce 0x738e476db84376c1 "
    "0x3eee622f8ed2afff 0x3eee622f8ed2afff",
    "P=64 hfast MPI_Alltoall 0xd4f65b6bf89a1072 "
    "0x3f210786a9744f7f 0x3f264fc506a73083",
    "P=64 hfast MPI_Allgather 0x126db3edee3f05d4 "
    "0x3f210786a9744f7f 0x3f21332593afc21d",
    "P=64 hfast MPI_Bcast 0x32fc629e30296526 "
    "0x3eedc11fdf3243e4 0x3eee622f8ed2afff",
    "P=64 hfast MPI_Reduce 0x2c7183f19418b25d "
    "0x3eedc11fdf3243e5 0x3eee622f8ed2afff",
    "P=64 hfast MPI_Reduce_scatter 0x9c8a7fa445e8adca "
    "0x3f21332593afc21c 0x3f21332593afc21c",
    "P=64 hfast MPI_Barrier 0x701cf78e90c0512a "
    "0x3eee622f8ed2afff 0x3eee622f8ed2afff",
    "P=12 hfast MPI_Bcast 4096 seed 1 "
    "0xd503dc0e94dade9e 0x3ee2f663046d5e39 0x3ee2f663046d5e39",
    "P=12 hfast MPI_Reduce 4096 seed 2 "
    "0x8da2890e8625d09c 0x3ee2f663046d5e39 0x3ee2f663046d5e39",
    "P=32 hfast MPI_Bcast 1048576 seed 1 "
    "0x50c8b13625e179ef 0x3f657c48d0d44363 0x3f657c48d0d44363",
    "P=48 torus MPI_Reduce 4096 seed 2 "
    "0xeaa21692890c3da2 0x3eec49509abbf24f 0x3eec64288d56aefd",
};

TEST(CollectiveSynthesize, GoldenSchedulesAreUnchanged) {
  const CallType calls[] = {CallType::kAllreduce, CallType::kAlltoall,
                            CallType::kAllgather, CallType::kBcast,
                            CallType::kReduce,    CallType::kReduceScatter,
                            CallType::kBarrier};
  std::vector<std::string> rows;
  const auto pin = [&rows](const std::string& cell, const SynthesisResult& r) {
    rows.push_back(cell + " " +
                   hex64(util::fnv1a64(store::schedule_bytes(r.schedule))) +
                   " " + hex64(bits_of(r.cost)) + " " +
                   hex64(bits_of(r.auto_cost)));
  };
  for (const int n : {8, 64}) {
    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(n, 3), true);
    netsim::DirectNetwork torus_net(torus, {});
    HfastCell hfast = make_hfast(n);
    const std::pair<const char*, netsim::Network*> topologies[] = {
        {"blind", nullptr}, {"torus", &torus_net}, {"hfast", hfast.net.get()}};
    for (const auto& [name, net] : topologies) {
      SynthesisOptions opts;
      if (net != nullptr) opts.hops = net_hops(*net);
      const std::string cell = "P=" + std::to_string(n) + " " + name;
      SynthesisOptions keyed = opts;
      keyed.topology_digest = collective::topology_hash(n, opts.hops);
      rows.push_back(cell + " topo " + hex64(keyed.topology_digest) + " key " +
                     hex64(collective::synth_key(CallType::kAllreduce, n, 4096,
                                                 keyed)));
      for (const CallType call : calls) {
        pin(cell + " " + std::string(mpisim::call_name(call)),
            collective::synthesize(call, n, 4096, opts));
      }
    }
  }
  // Rooted calls at P that is not a power of two, under seeds 1 and 2.
  const struct {
    int n;
    bool torus;
    CallType call;
    std::uint64_t payload;
    std::uint64_t seed;
  } rooted[] = {{12, false, CallType::kBcast, 4096, 1},
                {12, false, CallType::kReduce, 4096, 2},
                {32, false, CallType::kBcast, 1 << 20, 1},
                {48, true, CallType::kReduce, 4096, 2}};
  for (const auto& c : rooted) {
    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(c.n, 3), true);
    netsim::DirectNetwork torus_net(torus, {});
    HfastCell hfast = make_hfast(c.n);
    SynthesisOptions opts;
    opts.hops = net_hops(c.torus ? torus_net : *hfast.net);
    opts.seed = c.seed;
    const SynthesisResult r = collective::synthesize(c.call, c.n, c.payload,
                                                     opts);
    pin("P=" + std::to_string(c.n) + (c.torus ? " torus " : " hfast ") +
            std::string(mpisim::call_name(c.call)) + " " +
            std::to_string(c.payload) + " seed " + std::to_string(c.seed),
        r);
  }
  const std::size_t pinned = std::size(kGoldenSynthesis);
  EXPECT_EQ(rows.size(), pinned);
  for (std::size_t i = 0; i < rows.size() && i < pinned; ++i) {
    EXPECT_EQ(rows[i], kGoldenSynthesis[i]);
  }
  if (HasFailure()) {
    std::string table;
    for (const std::string& row : rows) table += "    \"" + row + "\",\n";
    ADD_FAILURE() << "synthesized table:\n" << table;
  }
}

// ---------------------------------------------------------------------------
// CollectiveSynthesize — the dense hop table
// ---------------------------------------------------------------------------

TEST(CollectiveSynthesize, HopTableMatchesOracle) {
  const CallType calls[] = {
      CallType::kBarrier,   CallType::kBcast,     CallType::kReduce,
      CallType::kAllreduce, CallType::kGather,    CallType::kAllgather,
      CallType::kScatter,   CallType::kAlltoall,  CallType::kAlltoallv,
      CallType::kReduceScatter, CallType::kScan,  CallType::kCommSplit};
  const ScheduleKind families[] = {
      ScheduleKind::kRing, ScheduleKind::kRecursiveDoubling,
      ScheduleKind::kBinomial, ScheduleKind::kBruck, ScheduleKind::kPairwise};
  const CostParams params;
  for (const int n : {8, 64}) {
    topo::MeshTorus torus(topo::MeshTorus::balanced_dims(n, 3), true);
    netsim::DirectNetwork torus_net(torus, {});
    topo::FatTree tree(n, 16);
    netsim::FatTreeNetwork tree_net(tree, {});
    HfastCell hfast = make_hfast(n);
    const std::pair<const char*, netsim::Network*> topologies[] = {
        {"torus", &torus_net}, {"fattree", &tree_net},
        {"hfast", hfast.net.get()}};
    for (const auto& [name, net] : topologies) {
      SCOPED_TRACE(std::string(name) + " P=" + std::to_string(n));
      const HopFn oracle = net_hops(*net);
      std::size_t queries = 0;
      std::size_t diagonal = 0;
      const collective::HopTable table(n, [&](int u, int v) {
        ++queries;
        if (u == v) ++diagonal;
        return oracle(u, v);
      });
      EXPECT_EQ(queries, 0u);  // filled on first read
      for (int pass = 0; pass < 2; ++pass) {
        for (int u = 0; u < n; ++u) {
          for (int v = 0; v < n; ++v) {
            EXPECT_EQ(table(u, v), u == v ? 0 : oracle(u, v))
                << u << " -> " << v;
          }
        }
      }
      EXPECT_EQ(queries, static_cast<std::size_t>(n) * (n - 1));
      EXPECT_EQ(diagonal, 0u);
      const HopFn tabled = table;
      for (const CallType call : calls) {
        for (const ScheduleKind kind : families) {
          const auto s = collective::generate_schedule(kind, call, n, 4096);
          if (!s.has_value()) continue;
          EXPECT_EQ(bits_of(collective::estimate_cost(*s, params, tabled)),
                    bits_of(collective::estimate_cost(*s, params, oracle)))
              << mpisim::call_name(call) << "/"
              << collective::schedule_name(kind);
        }
      }
    }
  }
}

TEST(CollectiveSynthesize, TabulateHopsReadsAnOracleOnceAndOnlyWithinBound) {
  std::size_t queries = 0;
  const HopFn oracle = [&](int u, int v) {
    ++queries;
    return u + v;
  };
  const HopFn tabled = collective::tabulate_hops(16, oracle);
  ASSERT_NE(tabled.target<collective::HopTable>(), nullptr);
  EXPECT_EQ(queries, 0u);
  EXPECT_EQ(tabled(3, 9), 12);
  EXPECT_EQ(tabled(3, 9), 12);
  EXPECT_EQ(queries, 1u);

  // A table that covers the world is kept, cells and all.
  const HopFn kept = collective::tabulate_hops(12, tabled);
  ASSERT_NE(kept.target<collective::HopTable>(), nullptr);
  EXPECT_EQ(kept.target<collective::HopTable>()->nranks(), 16);
  EXPECT_EQ(kept(3, 9), 12);
  EXPECT_EQ(queries, 1u);

  // An empty function stays topology-blind; above the bound the oracle
  // passes through as it is.
  EXPECT_FALSE(collective::tabulate_hops(16, HopFn{}));
  const HopFn big =
      collective::tabulate_hops(collective::HopTable::kMaxRanks + 1, oracle);
  EXPECT_EQ(big.target<collective::HopTable>(), nullptr);
  EXPECT_EQ(big(3, 9), 12);
  EXPECT_EQ(queries, 2u);
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
