/// TraceBinary — the HTRC format's end-to-end contracts on real traces:
///
///   * lossless round-trip: for each of the six paper applications at
///     P=64 and P=256, text -> binary -> text reproduces the exact text
///     serialization, and binary -> decode -> re-encode reproduces the
///     exact image (both directions, byte-for-byte);
///   * replay parity: the ReplayResult of a binary-loaded trace is
///     bit-identical to the text-loaded one on the serial replay, the
///     K-shard partitioned-clock parallel replay, and the SMP fabric
///     path — the format can never perturb a result;
///   * the file-level io helpers (format autodetect by extension and by
///     leading magic) route to the right loader.
///
/// Apps at P=256 run once and are reused across assertions (the traces
/// are the expensive part); everything here requires the fiber engine.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/analysis/smp.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/trace/trace.hpp"

namespace hfast {
namespace {

trace::Trace capture(const std::string& app, int nranks) {
  analysis::ExperimentConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks;
  cfg.engine = mpisim::EngineKind::kFibers;
  return analysis::run_experiment(cfg).trace;
}

std::string text_of(const trace::Trace& t) {
  std::ostringstream os;
  t.save_text(os);
  return os.str();
}

/// Text -> binary -> text and binary -> text -> binary, both byte-exact.
void expect_lossless(const trace::Trace& t, const std::string& label) {
  const std::string text = text_of(t);
  const auto image = t.save_binary_bytes();

  const trace::Trace from_bin = trace::Trace::load_binary(image);
  EXPECT_EQ(text_of(from_bin), text) << label << ": binary lost information";
  EXPECT_EQ(from_bin.save_binary_bytes(), image)
      << label << ": re-encode is not bit-stable";

  std::istringstream is(text);
  const trace::Trace from_text = trace::Trace::load_text(is);
  EXPECT_EQ(from_text.save_binary_bytes(), image)
      << label << ": text round-trip changed the binary image";
  EXPECT_TRUE(from_text.columns() == from_bin.columns()) << label;
  EXPECT_EQ(from_text.region_names(), from_bin.region_names()) << label;
}

class TraceBinaryApps : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceBinaryApps, LosslessRoundTripAtP64AndP256) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  for (const int nranks : {64, 256}) {
    const auto t = capture(app, nranks);
    ASSERT_FALSE(t.events().empty()) << app;
    expect_lossless(t, app + " P=" + std::to_string(nranks));
  }
}

TEST_P(TraceBinaryApps, ReplayResultIdenticalAcrossFormatsAndReplays) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const std::string app = GetParam();
  const int nranks = 64;
  const auto t = capture(app, nranks);

  // Reload through both serializations.
  std::istringstream is(text_of(t));
  const trace::Trace from_text = trace::Trace::load_text(is);
  const trace::Trace from_bin = trace::Trace::load_binary(t.save_binary_bytes());

  const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(nranks, 3), true);
  const netsim::LinkParams link;

  // Serial replay.
  netsim::DirectNetwork net_a(torus, link), net_b(torus, link);
  const auto serial_text = netsim::replay(from_text, net_a);
  const auto serial_bin = netsim::replay(from_bin, net_b);
  EXPECT_TRUE(serial_text == serial_bin) << app << ": serial parity";

  // K-shard partitioned-clock parallel replay.
  netsim::DirectNetwork net_c(torus, link), net_d(torus, link);
  const auto par_text =
      netsim::replay(from_text, net_c, {}, {.shards = 4});
  const auto par_bin =
      netsim::replay(from_bin, net_d, {}, {.shards = 4});
  EXPECT_TRUE(par_text == par_bin) << app << ": 4-shard parity";
  EXPECT_TRUE(serial_text == par_bin) << app << ": serial vs 4-shard parity";

  // SMP fabric path: provision from the trace's own send graph.
  graph::CommGraph g(nranks);
  const trace::EventColumns& c = t.columns();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
        c.peer[i] >= 0) {
      g.add_message(c.rank[i], c.peer[i], c.bytes[i]);
    }
  }
  core::SmpConfig smp;
  smp.cores_per_node = 4;
  auto smp_a = analysis::make_smp_network(g, smp, link);
  auto smp_b = analysis::make_smp_network(g, smp, link);
  const auto smp_text = netsim::replay(from_text, *smp_a.net);
  const auto smp_bin = netsim::replay(from_bin, *smp_b.net);
  EXPECT_TRUE(smp_text == smp_bin) << app << ": SMP parity";
}

INSTANTIATE_TEST_SUITE_P(Apps, TraceBinaryApps,
                         ::testing::Values("cactus", "gtc", "lbmhd", "superlu",
                                           "pmemd", "paratec"));

TEST(TraceIo, AutodetectsByExtensionAndMagic) {
  if (!mpisim::fibers_supported()) GTEST_SKIP() << "fibers unsupported";
  const auto t = capture("cactus", 64);
  const auto dir = std::filesystem::temp_directory_path() / "hfast_trace_io";
  std::filesystem::create_directories(dir);

  // Extension selects the format on save.
  const auto text_path = (dir / "a.trace").string();
  const auto bin_path = (dir / "a.htrc").string();
  trace::save_trace_file(t, text_path);
  trace::save_trace_file(t, bin_path);
  {
    std::ifstream f(text_path);
    std::string first;
    std::getline(f, first);
    EXPECT_EQ(first.rfind("hfast-trace", 0), 0u) << "expected text at " << text_path;
  }
  {
    std::ifstream f(bin_path, std::ios::binary);
    char head[4] = {};
    f.read(head, 4);
    EXPECT_EQ(std::string(head, 4), "HTRC");
  }
  EXPECT_TRUE(trace::load_trace_file(text_path).columns() == t.columns());
  EXPECT_TRUE(trace::load_trace_file(bin_path).columns() == t.columns());

  // A binary image under a text-looking name still loads (magic sniff),
  // and an explicit format overrides the extension.
  const auto lying_path = (dir / "lies.trace").string();
  trace::save_trace_file(t, lying_path, trace::TraceFormat::kBinary);
  EXPECT_TRUE(trace::load_trace_file(lying_path).columns() == t.columns());
  EXPECT_TRUE(
      trace::load_trace_file(lying_path, trace::TraceFormat::kBinary)
          .columns() == t.columns());

  std::filesystem::remove_all(dir);
}

TEST(TraceIo, FormatParsingAndNames) {
  EXPECT_EQ(trace::parse_trace_format("text"), trace::TraceFormat::kText);
  EXPECT_EQ(trace::parse_trace_format("bin"), trace::TraceFormat::kBinary);
  EXPECT_EQ(trace::parse_trace_format("binary"), trace::TraceFormat::kBinary);
  EXPECT_FALSE(trace::parse_trace_format("HTRC").has_value());
  EXPECT_EQ(trace::format_for_path("x/y.htrc"), trace::TraceFormat::kBinary);
  EXPECT_EQ(trace::format_for_path("x/y.trace"), trace::TraceFormat::kText);
  EXPECT_EQ(std::string(trace::trace_format_name(trace::TraceFormat::kText)),
            "text");
  EXPECT_EQ(
      std::string(trace::trace_format_name(trace::TraceFormat::kBinary)),
      "binary");
}

TEST(TraceBinary, EmptyAndTinyTraces) {
  // Empty trace (0 ranks, 0 events) round-trips.
  const trace::Trace empty;
  const auto img = empty.save_binary_bytes();
  const auto back = trace::Trace::load_binary(img);
  EXPECT_EQ(back.nranks(), 0);
  EXPECT_TRUE(back.events().empty());
  EXPECT_EQ(back.save_binary_bytes(), img);

  // Single collective with kNoPeer (a negative peer must survive the
  // zigzag offset encoding).
  trace::TraceRecorder rec(0);
  rec.on_call(mpisim::CallType::kAllreduce, mpisim::kNoPeer, 64, 0.0);
  const trace::TraceRecorder* rp = &rec;
  const auto t = trace::Trace::merge({&rp, 1});
  const auto t2 = trace::Trace::load_binary(t.save_binary_bytes());
  ASSERT_EQ(t2.events().size(), 1u);
  EXPECT_EQ(t2.events()[0].peer, mpisim::kNoPeer);
  EXPECT_EQ(t2.events()[0].kind, trace::EventKind::kCollective);
}

}  // namespace
}  // namespace hfast
