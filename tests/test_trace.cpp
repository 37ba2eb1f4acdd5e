#include <gtest/gtest.h>

#include <sstream>

#include "hfast/trace/trace.hpp"
#include "hfast/trace/window.hpp"

namespace hfast::trace {
namespace {

TEST(TraceRecorder, RecordsTransfersAndCollectives) {
  TraceRecorder rec(2);
  rec.on_message(5, 1024, /*is_send=*/true);
  rec.on_message(5, 1024, /*is_send=*/false);
  rec.on_call(CallType::kAllreduce, mpisim::kNoPeer, 8, 0.0);
  rec.on_call(CallType::kIsend, 5, 1024, 0.0);  // PTP calls not duplicated

  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kSend);
  EXPECT_EQ(rec.events()[1].kind, EventKind::kRecv);
  EXPECT_EQ(rec.events()[2].kind, EventKind::kCollective);
  EXPECT_EQ(rec.events()[0].op_index, 0u);
  EXPECT_EQ(rec.events()[2].op_index, 2u);
}

TEST(TraceRecorder, RegionsInterned) {
  TraceRecorder rec(0);
  rec.on_region("init", true);
  rec.on_message(1, 10, true);
  rec.on_region("init", false);
  rec.on_message(1, 20, true);
  EXPECT_EQ(rec.events()[0].region, 1u);
  EXPECT_EQ(rec.events()[1].region, 0u);  // global
}

Trace two_rank_trace() {
  TraceRecorder r0(0), r1(1);
  r0.on_region("steady", true);
  r0.on_message(1, 4096, true);
  r0.on_message(1, 64, false);
  r0.on_region("steady", false);
  r1.on_region("steady", true);
  r1.on_message(0, 64, true);
  r1.on_message(0, 4096, false);
  r1.on_region("steady", false);
  const TraceRecorder* recs[] = {&r0, &r1};
  return Trace::merge(recs);
}

TEST(Trace, MergeUnifiesRegionIds) {
  const auto t = two_rank_trace();
  EXPECT_EQ(t.nranks(), 2);
  EXPECT_EQ(t.events().size(), 4u);
  for (const auto& e : t.events()) {
    EXPECT_EQ(t.region_names()[e.region], "steady");
  }
}

TEST(Trace, FilterRegionAndPtpOnly) {
  TraceRecorder r0(0);
  r0.on_region("init", true);
  r0.on_message(1, 100, true);
  r0.on_region("init", false);
  r0.on_region("steady", true);
  r0.on_message(1, 200, true);
  r0.on_call(CallType::kBarrier, mpisim::kNoPeer, 0, 0.0);
  r0.on_region("steady", false);
  TraceRecorder r1(1);
  const TraceRecorder* recs[] = {&r0, &r1};
  const auto t = Trace::merge(recs);

  const auto steady = t.filter_region("steady");
  ASSERT_EQ(steady.events().size(), 2u);
  EXPECT_EQ(steady.events()[0].bytes, 200u);

  const auto ptp = steady.point_to_point_only();
  EXPECT_EQ(ptp.events().size(), 1u);
  EXPECT_EQ(t.total_ptp_bytes(), 300u);
}

TEST(Trace, TextRoundTrip) {
  const auto t = two_rank_trace();
  std::stringstream ss;
  t.save_text(ss);
  const auto loaded = Trace::load_text(ss);
  EXPECT_EQ(loaded.nranks(), t.nranks());
  ASSERT_EQ(loaded.events().size(), t.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    EXPECT_EQ(loaded.events()[i].rank, t.events()[i].rank);
    EXPECT_EQ(loaded.events()[i].op_index, t.events()[i].op_index);
    EXPECT_EQ(loaded.events()[i].kind, t.events()[i].kind);
    EXPECT_EQ(loaded.events()[i].peer, t.events()[i].peer);
    EXPECT_EQ(loaded.events()[i].bytes, t.events()[i].bytes);
    EXPECT_EQ(loaded.events()[i].region, t.events()[i].region);
  }
  EXPECT_EQ(loaded.region_names(), t.region_names());
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(Trace::load_text(ss), Error);
}

/// Expect load_text to reject `text` with an Error naming `line`.
void expect_load_error(const std::string& text, int line,
                       const std::string& needle) {
  std::stringstream ss(text);
  try {
    (void)Trace::load_text(ss);
    FAIL() << "accepted malformed trace: " << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(Trace, LoadRejectsMalformedFieldsWithLineNumbers) {
  const std::string header = "hfast-trace v1 nranks=2 events=1 regions=1\n";
  const std::string region = "region 0 <global>\n";
  // Event line layout: rank op_index kind call peer bytes region.
  expect_load_error(header + region + "5 0 0 0 1 100 0\n", 3, "rank 5");
  expect_load_error(header + region + "-1 0 0 0 1 100 0\n", 3, "rank -1");
  expect_load_error(header + region + "0 0 0 0 7 100 0\n", 3, "peer 7");
  expect_load_error(header + region + "0 0 0 0 -1 100 0\n", 3, "peer -1");
  expect_load_error(header + region + "0 0 9 0 1 100 0\n", 3, "kind");
  expect_load_error(header + region + "0 0 0 99 1 100 0\n", 3, "call type");
  expect_load_error(header + region + "0 0 0 0 1 -100 0\n", 3, "byte count");
  expect_load_error(header + region + "0 0 0 0 1 100 3\n", 3, "region index");
  expect_load_error(header + region + "0 0 0 0 1 nan 0\n", 3, "unparseable");
  expect_load_error(header + region, 3, "truncated event stream");
  expect_load_error("hfast-trace v1 nranks=-2 events=0 regions=0\n", 1,
                    "negative nranks");
  expect_load_error("hfast-trace v1 nranks=zz events=0 regions=0\n", 1,
                    "unparseable header field");
  // Header fields are whole, non-negative, range-checked integers.
  expect_load_error("hfast-trace v1 nranks=4abc events=0 regions=0\n", 1,
                    "nranks=4abc");
  expect_load_error("hfast-trace v1 nranks=2 events=0 regions=-1\n", 1,
                    "negative regions");
  expect_load_error("hfast-trace v1 nranks=2 events=0 regions=2000000\n", 1,
                    "regions=2000000");
  expect_load_error("hfast-trace v1 nranks=2 events=-1 regions=0\n", 1,
                    "negative events");
  expect_load_error(header + "not-a-region 0 x\n" + "0 0 0 0 1 100 0\n", 2,
                    "bad region line");
}

TEST(Trace, LoadAllowsCollectivePeerSentinel) {
  // Collectives carry the kNoPeer sentinel; only point-to-point peers are
  // range-checked.
  std::stringstream ss(
      "hfast-trace v1 nranks=2 events=1 regions=1\n"
      "region 0 <global>\n"
      "0 0 2 3 -2 64 0\n");
  const auto t = Trace::load_text(ss);
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kCollective);
  EXPECT_EQ(t.events()[0].peer, mpisim::kNoPeer);
}

TEST(Trace, RankEventsSpansPartitionTheColumns) {
  // Build a 4-rank trace where rank 2 records nothing: the offset index
  // must still hand back an empty span for it, and the concatenation of
  // all spans must reproduce the merged columns exactly, in order.
  TraceRecorder r0(0), r1(1), r2(2), r3(3);
  r0.on_message(1, 100, true);
  r0.on_message(1, 200, false);
  r1.on_message(0, 200, true);
  r3.on_call(CallType::kAllreduce, mpisim::kNoPeer, 8, 0.0);
  r3.on_message(0, 100, false);
  const TraceRecorder* recs[] = {&r0, &r1, &r2, &r3};
  const auto t = Trace::merge(recs);
  ASSERT_EQ(t.events().size(), 5u);

  std::size_t next = 0;
  for (int r = 0; r < t.nranks(); ++r) {
    const EventSpan span = t.rank_events(r);
    for (std::size_t i = 0; i < span.size(); ++i) {
      const CommEvent e = span[i];
      EXPECT_EQ(e.rank, r);
      // Per-column accessors agree with the materialized row.
      EXPECT_EQ(span.kind(i), e.kind);
      EXPECT_EQ(span.peer(i), e.peer);
      EXPECT_EQ(span.bytes(i), e.bytes);
      EXPECT_EQ(span.op_index(i), e.op_index);
      EXPECT_EQ(e, t.columns().get(next + i));
    }
    next += span.size();
  }
  EXPECT_EQ(next, t.columns().size());  // spans tile the whole store
  EXPECT_TRUE(t.rank_events(2).empty());
  EXPECT_EQ(t.rank_events(0).size(), 2u);
  EXPECT_EQ(t.rank_events(3).size(), 2u);
}

TEST(Window, SplitsStreamsEvenly) {
  TraceRecorder r0(0), r1(1);
  // Rank 0: phase A talks to 1 with big messages, phase B small.
  for (int i = 0; i < 10; ++i) r0.on_message(1, 8192, true);
  for (int i = 0; i < 10; ++i) r0.on_message(1, 16, true);
  const TraceRecorder* recs[] = {&r0, &r1};
  const auto t = Trace::merge(recs);

  const auto graphs = windowed_graphs(t, 2);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].edge(0, 1)->max_message, 8192u);
  EXPECT_EQ(graphs[1].edge(0, 1)->max_message, 16u);

  const auto stats = windowed_tdc(t, 2, 2048);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].max_tdc, 1);
  EXPECT_EQ(stats[1].max_tdc, 0);  // small messages thresholded away
}

TEST(Window, SingleWindowEqualsWholeTrace) {
  const auto t = two_rank_trace();
  const auto graphs = windowed_graphs(t, 1);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].num_edges(), 1u);
  EXPECT_EQ(graphs[0].edge(0, 1)->bytes, 4096u + 64u);
}

}  // namespace
}  // namespace hfast::trace
