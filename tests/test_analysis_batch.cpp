/// BatchRunner: the parallel sweep must be indistinguishable from the
/// sequential loop it replaces — same results, same order — and one bad
/// job must surface as a JobError without poisoning its siblings.

#include <gtest/gtest.h>

#include "hfast/util/assert.hpp"

#include <sstream>

#include "hfast/analysis/batch.hpp"
#include "hfast/topo/mesh.hpp"

namespace hfast::analysis {
namespace {

/// Structural fingerprint of an experiment result: every field that is
/// deterministic by construction (timings excluded), with the full event
/// trace serialized byte for byte.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.config.app << '|' << r.config.nranks << '|' << r.config.seed << '|'
     << r.steady.total_calls() << '|' << r.steady.ptp_buffers().total_bytes()
     << '|' << r.all_regions.total_calls() << '|'
     << r.comm_graph.total_bytes() << '|'
     << r.comm_graph.num_edges() << '|' << r.comm_graph_all.total_bytes()
     << '|';
  r.trace.save_text(os);
  return os.str();
}

/// Aggregate-only fingerprint for apps whose kernels receive from
/// kAnySource (gtc, superlu): wildcard match order is scheduling-dependent
/// even across two sequential runs, so the raw event stream is excluded
/// while every send-side and merged statistic must still agree.
std::string aggregate_fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.config.app << '|' << r.config.nranks << '|' << r.config.seed << '|'
     << r.steady.total_calls() << '|' << r.steady.ptp_buffers().total_bytes()
     << '|' << r.all_regions.total_calls() << '|'
     << r.comm_graph.total_bytes() << '|' << r.comm_graph.num_edges() << '|'
     << r.comm_graph_all.total_bytes() << '|' << r.trace.events().size();
  return os.str();
}

TEST(BatchRunner, ParallelSweepMatchesSequentialByteForByte) {
  // Cactus has no wildcard receives, so its full event trace is
  // deterministic: the batched sweep must reproduce the sequential loop
  // byte for byte, trace included.
  const auto configs = sweep_configs({"cactus"}, {8, 16}, {1, 7});
  ASSERT_EQ(configs.size(), 4u);

  std::vector<std::string> sequential;
  for (const auto& cfg : configs) {
    sequential.push_back(fingerprint(run_experiment(cfg)));
  }

  const auto batch = BatchRunner().run(configs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(batch.results[i].has_value()) << "job " << i;
    EXPECT_EQ(fingerprint(*batch.results[i]), sequential[i]) << "job " << i;
  }
  EXPECT_GT(batch.wall_seconds, 0.0);
}

TEST(BatchRunner, MixedSweepMatchesSequentialAggregates) {
  // Mixed widths so admission order and completion order differ; gtc and
  // superlu exercise wildcard receives, so compare the deterministic
  // aggregates (see aggregate_fingerprint).
  const auto configs = sweep_configs({"cactus", "gtc", "superlu"}, {8, 16},
                                     {1, 7});
  ASSERT_GT(configs.size(), 4u);

  std::vector<std::string> sequential;
  for (const auto& cfg : configs) {
    sequential.push_back(aggregate_fingerprint(run_experiment(cfg)));
  }

  const auto batch = BatchRunner().run(configs);
  ASSERT_TRUE(batch.ok());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(batch.results[i].has_value()) << "job " << i;
    EXPECT_EQ(aggregate_fingerprint(*batch.results[i]), sequential[i])
        << "job " << i;
  }
}

TEST(BatchRunner, NarrowBudgetStillRunsWideJobs) {
  // A 16-rank experiment under a 1-thread budget must still run (clamped,
  // alone) — and a budget of 1 degenerates to a sequential sweep.
  const auto configs = sweep_configs({"cactus"}, {8, 16});
  const auto batch = BatchRunner({.thread_budget = 1}).run(configs);
  ASSERT_TRUE(batch.ok());
  for (const auto& r : batch.results) {
    ASSERT_TRUE(r.has_value());
    EXPECT_GT(r->steady.total_calls(), 0u);
  }
}

TEST(BatchRunner, FailingJobIsReportedWithoutPoisoningSiblings) {
  std::vector<ExperimentConfig> configs;
  ExperimentConfig good;
  good.app = "cactus";
  good.nranks = 8;
  configs.push_back(good);
  ExperimentConfig bad;
  bad.app = "no-such-app";
  bad.nranks = 8;
  configs.push_back(bad);
  ExperimentConfig invalid;
  invalid.app = "lbmhd";
  invalid.nranks = 10;  // not a valid LBMHD grid
  configs.push_back(invalid);
  configs.push_back(good);

  const auto batch = BatchRunner().run(configs);
  EXPECT_FALSE(batch.ok());
  ASSERT_EQ(batch.errors.size(), 2u);
  EXPECT_EQ(batch.errors[0].index, 1u);
  EXPECT_NE(batch.errors[0].job.find("no-such-app"), std::string::npos);
  EXPECT_FALSE(batch.errors[0].message.empty());
  EXPECT_EQ(batch.errors[1].index, 2u);

  ASSERT_TRUE(batch.results[0].has_value());
  EXPECT_FALSE(batch.results[1].has_value());
  EXPECT_FALSE(batch.results[2].has_value());
  ASSERT_TRUE(batch.results[3].has_value());
  EXPECT_EQ(fingerprint(*batch.results[0]), fingerprint(*batch.results[3]));
}

TEST(BatchRunner, ReplayBatchMatchesDirectReplay) {
  const auto r = run_experiment("cactus", 8);
  const auto steady = r.trace.filter_region(apps::kSteadyRegion);
  const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(8, 3), true);
  const netsim::LinkParams link;

  std::vector<ReplayJob> jobs;
  for (int i = 0; i < 4; ++i) {
    ReplayJob j;
    j.label = "torus replay " + std::to_string(i);
    j.trace = &steady;
    j.make_network = [&torus, link] {
      return std::make_unique<netsim::DirectNetwork>(torus, link);
    };
    jobs.push_back(std::move(j));
  }

  netsim::DirectNetwork reference_net(torus, link);
  const auto reference = netsim::replay(steady, reference_net);

  const auto batch = BatchRunner().run_replays(jobs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.results.size(), jobs.size());
  for (const auto& res : batch.results) {
    ASSERT_TRUE(res.has_value());
    EXPECT_DOUBLE_EQ(res->makespan_s, reference.makespan_s);
    EXPECT_EQ(res->messages, reference.messages);
    EXPECT_EQ(res->bytes, reference.bytes);
    EXPECT_DOUBLE_EQ(res->total_recv_wait_s, reference.total_recv_wait_s);
    EXPECT_EQ(res->max_switch_hops, reference.max_switch_hops);
  }
}

TEST(BatchRunner, ShardedReplayJobsMatchSerial) {
  const auto r = run_experiment("gtc", 8);
  const auto steady = r.trace.filter_region(apps::kSteadyRegion);
  const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(8, 3), true);
  const netsim::LinkParams link;

  netsim::DirectNetwork reference_net(torus, link);
  const auto reference = netsim::replay(steady, reference_net);

  std::vector<ReplayJob> jobs;
  for (const int shards : {1, 2, 4, 7}) {
    ReplayJob j;
    j.label = "sharded replay K=" + std::to_string(shards);
    j.trace = &steady;
    j.shards = shards;
    j.make_network = [&torus, link] {
      return std::make_unique<netsim::DirectNetwork>(torus, link);
    };
    jobs.push_back(std::move(j));
  }
  // A 2-thread budget makes the K=4 and K=7 jobs wider than the budget:
  // they must still run (alone), charged at their declared shard weight.
  const auto batch = BatchRunner({.thread_budget = 2}).run_replays(jobs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.results.size(), jobs.size());
  for (const auto& res : batch.results) {
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(*res == reference);
  }
}

TEST(BatchRunner, ReplayJobErrorsAreIsolated) {
  const auto r = run_experiment("cactus", 8);
  const auto steady = r.trace.filter_region(apps::kSteadyRegion);
  const topo::MeshTorus torus(topo::MeshTorus::balanced_dims(8, 3), true);
  const topo::MeshTorus tiny(topo::MeshTorus::balanced_dims(4, 2), true);
  const netsim::LinkParams link;

  std::vector<ReplayJob> jobs(2);
  jobs[0].label = "ok";
  jobs[0].trace = &steady;
  jobs[0].make_network = [&torus, link] {
    return std::make_unique<netsim::DirectNetwork>(torus, link);
  };
  jobs[1].label = "network too small";
  jobs[1].trace = &steady;
  jobs[1].make_network = [&tiny, link] {
    // 4 endpoints for an 8-rank trace: replay's precondition fails.
    return std::make_unique<netsim::DirectNetwork>(tiny, link);
  };

  // replay() would read 0 shards as "hardware concurrency" while the job
  // is charged one thread, so counts below 1 fail the job by name.
  for (const int shards : {0, -3}) {
    ReplayJob j = jobs[0];
    j.label = "replay K=" + std::to_string(shards);
    j.shards = shards;
    jobs.push_back(std::move(j));
  }

  const auto batch = BatchRunner().run_replays(jobs);
  ASSERT_EQ(batch.errors.size(), 3u);
  EXPECT_EQ(batch.errors[0].index, 1u);
  EXPECT_EQ(batch.errors[0].job, "network too small");
  ASSERT_TRUE(batch.results[0].has_value());
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_FALSE(batch.results[i].has_value());
  }
  for (std::size_t e = 1; e < 3; ++e) {
    const JobError& err = batch.errors[e];
    const ReplayJob& job = jobs[e + 1];
    EXPECT_EQ(err.index, e + 1);
    EXPECT_EQ(err.job, job.label);
    EXPECT_NE(err.message.find("'" + job.label + "': shards " +
                               std::to_string(job.shards)),
              std::string::npos)
        << err.message;
  }
}

TEST(SweepConfigs,CrossProductSkipsInvalidConcurrency) {
  // 10 is not a valid LBMHD concurrency (needs a square grid, >= 5x5), so
  // the lbmhd x 10 cell drops out while cactus x 10 survives. No
  // experiment runs here — this only exercises config generation.
  const auto configs = sweep_configs({"cactus", "lbmhd"}, {64, 10}, {1, 2});
  std::size_t cactus = 0, lbmhd = 0;
  for (const auto& c : configs) {
    if (c.app == "cactus") ++cactus;
    if (c.app == "lbmhd") {
      EXPECT_NE(c.nranks, 10);
      ++lbmhd;
    }
  }
  EXPECT_EQ(cactus, 4u);  // 2 concurrencies x 2 seeds
  EXPECT_EQ(lbmhd, 2u);   // only P=64 (8x8) survives
  EXPECT_THROW(sweep_configs({"nope"}, {8}), Error);
}

}  // namespace
}  // namespace hfast::analysis
