#pragma once
/// \file batch.hpp
/// Parallel sweep engine for the paper's experiment matrix. Every artifact
/// (Table 3, the §5.2 classification, the §5.3 cost model) is produced by
/// sweeping run_experiment over app × P × seed; BatchRunner fans those jobs
/// across cores under a *thread* budget — a threaded-engine experiment holds
/// `nranks` live threads while it runs (the runtime spawns one per rank),
/// while a fiber-engine experiment holds exactly one, so the scheduler
/// admits jobs by weight, not by count. That weight difference is what makes
/// an apps × {64,256,1024,4096} sweep fan out across cores instead of being
/// clamped by the widest job. Replay jobs (one thread each) ride the same
/// scheduler.
///
/// Guarantees:
///  * results come back in input order, independent of completion order;
///  * a failing job is captured as a structured JobError and leaves its
///    siblings untouched — a sweep never aborts wholesale;
///  * jobs wider than the budget still run (alone), so a 256-rank
///    experiment works under an 8-thread budget.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hfast/analysis/experiment.hpp"
#include "hfast/netsim/replay.hpp"

namespace hfast::store {
class ResultStore;
}  // namespace hfast::store

namespace hfast::analysis {

struct BatchOptions {
  /// Global live-thread budget across all in-flight jobs. 0 = 4x hardware
  /// concurrency (rank threads are synchronization-bound, so moderate
  /// oversubscription keeps cores busy; see batch.cpp). One job is always
  /// admitted regardless of its weight, so `thread_budget = 1` degenerates
  /// to a strictly sequential sweep.
  int thread_budget = 0;

  /// Optional durable result cache (non-owning; must outlive the runner).
  /// When set, run() probes the store before admitting each experiment —
  /// hits are returned without running anything — and persists every
  /// freshly computed result *as it finishes*, so a sweep killed after k of
  /// n jobs re-runs as n-k jobs instead of n. Replays are not cached.
  store::ResultStore* result_store = nullptr;
};

/// Cache traffic attributable to one sweep (all zero when no store is
/// attached). hits + misses == number of experiment jobs; stores counts
/// results newly persisted by this sweep.
struct BatchCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
};

/// One failed job of a sweep, reported instead of thrown.
struct JobError {
  std::size_t index = 0;  ///< position in the input vector
  std::string job;        ///< human-readable label ("cactus P=64 seed=1")
  std::string message;    ///< the exception's what()
};

/// Sweep outcome: `results[i]` corresponds to input job i and is empty
/// exactly when `errors` holds an entry with index i.
template <typename T>
struct BatchResult {
  std::vector<std::optional<T>> results;
  std::vector<JobError> errors;  ///< sorted by index
  double wall_seconds = 0.0;
  BatchCacheStats cache;  ///< durable-store traffic for this sweep

  bool ok() const noexcept { return errors.empty(); }
};

/// A trace replay on a freshly built network. The factory runs inside the
/// worker (network state is mutable, so each job needs its own instance);
/// the trace is borrowed and must outlive the sweep.
struct ReplayJob {
  std::string label;
  const trace::Trace* trace = nullptr;
  std::function<std::unique_ptr<netsim::Network>()> make_network;
  netsim::ReplayParams params;
  /// Replay shards (ReplayOptions::shards): 1 (default) runs the serial
  /// loop; >1 runs the partitioned-clock sequencer (bit-identical results)
  /// and is charged to the batch thread budget as `shards` live threads.
  /// A count below 1 fails the job with a JobError.
  int shards = 1;
};

/// Live OS threads one experiment occupies while running: `nranks` under
/// the threaded engine, 1 under the fiber engine (all ranks share the
/// dispatcher thread). This is the admission weight BatchRunner charges.
int experiment_thread_weight(const ExperimentConfig& config) noexcept;

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts = {});

  /// Run every experiment config; weight = experiment_thread_weight(config).
  /// With a result_store attached, cached configs are served from disk
  /// (results[i] filled, zero compute) and fresh results are persisted the
  /// moment each job finishes — see BatchOptions::result_store.
  BatchResult<ExperimentResult> run(
      const std::vector<ExperimentConfig>& configs) const;

  /// Replay every job; weight = 1 thread each.
  BatchResult<netsim::ReplayResult> run_replays(
      const std::vector<ReplayJob>& jobs) const;

  int thread_budget() const noexcept { return budget_; }
  store::ResultStore* result_store() const noexcept { return store_; }

 private:
  int budget_;
  store::ResultStore* store_;
};

/// Cross product app × P × seed in input order, skipping (app, P)
/// combinations the kernel's structure does not support. Every config runs
/// on `engine` (fibers makes the wide end of a P sweep affordable).
std::vector<ExperimentConfig> sweep_configs(
    const std::vector<std::string>& apps, const std::vector<int>& nranks,
    const std::vector<std::uint64_t>& seeds = {1},
    mpisim::EngineKind engine = mpisim::EngineKind::kThreads);

}  // namespace hfast::analysis
