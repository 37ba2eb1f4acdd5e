#include <gtest/gtest.h>

#include "hfast/util/assert.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "hfast/analysis/export.hpp"
#include "hfast/analysis/experiment.hpp"
#include "hfast/analysis/paper_tables.hpp"

namespace hfast::analysis {
namespace {

namespace fs = std::filesystem;

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs these tests concurrently.
    dir_ = fs::temp_directory_path() /
           (std::string("hfast_export_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  fs::path dir_;
};

TEST_F(ExportTest, Table3Csv) {
  const auto r = run_experiment("cactus", 8);
  export_table3_csv(dir_, {table3_row(r)});
  const auto content = slurp(dir_ / "table3.csv");
  EXPECT_NE(content.find("code,procs"), std::string::npos);
  EXPECT_NE(content.find("cactus,8"), std::string::npos);
}

TEST_F(ExportTest, TdcSweepCsvHasAllCutoffs) {
  const auto r = run_experiment("cactus", 8);
  export_tdc_sweep_csv(dir_, r);
  const auto content = slurp(dir_ / "tdc_cactus_p8.csv");
  // Header + 15 cutoffs.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 16);
  EXPECT_NE(content.find("cutoff_bytes"), std::string::npos);
}

TEST_F(ExportTest, BufferCdfCsvs) {
  const auto r = run_experiment("gtc", 16);
  export_buffer_cdfs_csv(dir_, r);
  const auto ptp = slurp(dir_ / "buffers_gtc_p16_ptp.csv");
  const auto col = slurp(dir_ / "buffers_gtc_p16_collective.csv");
  EXPECT_NE(ptp.find("131072"), std::string::npos);  // the 128 KB shift
  EXPECT_NE(col.find("100,"), std::string::npos);    // the 100 B gather
  // Cumulative percent ends at 100.
  EXPECT_NE(ptp.rfind(",100"), std::string::npos);
}

TEST_F(ExportTest, VolumeMatrixCsvIsDense) {
  const auto r = run_experiment("cactus", 8);
  export_volume_matrix_csv(dir_, r);
  const auto content = slurp(dir_ / "volume_cactus_p8.csv");
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 8);
  // 8 columns per row.
  const auto first_line = content.substr(0, content.find('\n'));
  EXPECT_EQ(std::count(first_line.begin(), first_line.end(), ','), 7);
}

TEST(PaperTables, RenderersProduceOutput) {
  const auto r = run_experiment("gtc", 16);
  EXPECT_GT(render_call_breakdown(r).num_rows(), 0u);
  EXPECT_GT(render_tdc_sweep(r).num_rows(), 0u);
  EXPECT_FALSE(render_volume_heatmap(r).empty());
  const auto row = table3_row(r);
  const auto table = render_table3({row});
  EXPECT_NE(table.to_string().find("gtc"), std::string::npos);
  const auto cdf =
      render_buffer_cdf(r.steady.ptp_buffers(), "gtc");
  EXPECT_NE(cdf.to_string().find("2k"), std::string::npos);
}

TEST(PaperTables, TdcChartNeedsTwoConcurrencies) {
  const auto small = run_experiment("cactus", 8);
  const auto large = run_experiment("cactus", 27);
  const auto chart = render_tdc_chart("cactus", small, large);
  EXPECT_NE(chart.find("max 8"), std::string::npos);
  EXPECT_NE(chart.find("avg 27"), std::string::npos);
}

TEST(Experiment, InvalidAppOrConcurrencyThrows) {
  EXPECT_THROW(run_experiment("nope", 16), Error);
  EXPECT_THROW(run_experiment("lbmhd", 10), Error);
}

TEST(Experiment, TraceCaptureCanBeDisabled) {
  ExperimentConfig cfg;
  cfg.app = "cactus";
  cfg.nranks = 8;
  cfg.capture_trace = false;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.trace.events().empty());
  EXPECT_GT(r.steady.total_calls(), 0u);
}

TEST(Experiment, SeedChangesNothingStructural) {
  // The kernels are deterministic by construction; the seed feeds only the
  // rank-local RNG streams, which the paper kernels do not consume.
  ExperimentConfig a;
  a.app = "superlu";
  a.nranks = 16;
  a.seed = 1;
  ExperimentConfig b = a;
  b.seed = 999;
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_EQ(ra.comm_graph.total_bytes(), rb.comm_graph.total_bytes());
  EXPECT_EQ(ra.steady.total_calls(), rb.steady.total_calls());
}

}  // namespace
}  // namespace hfast::analysis
