#include "hfast/analysis/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "hfast/apps/app.hpp"
#include "hfast/store/store.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::analysis {

namespace {

int resolve_budget(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const int cores = hw == 0 ? 1 : static_cast<int>(hw);
  // Rank threads are synchronization-bound — most of their wall time is
  // spent parked in mailbox matching waits — so budgeting exactly one
  // thread per core would leave cores idle whenever a job's ranks block on
  // each other. 4x oversubscription keeps the cores saturated across jobs
  // while still bounding total live threads (the actual resource risk:
  // a 6-app x {64,256} sweep would otherwise spawn ~2k threads at once).
  return 4 * cores;
}

/// Weighted-admission scheduler shared by both job kinds. Jobs are admitted
/// in input order whenever the live-thread count allows; each runs on its
/// own dispatcher thread and writes results[i] / an error record under the
/// scheduler lock, so output order is the input order by construction.
template <typename T, typename Job>
BatchResult<T> run_weighted(
    const std::vector<Job>& jobs, int budget,
    const std::function<int(const Job&)>& weight_of,
    const std::function<std::string(const Job&)>& label_of,
    const std::function<T(const Job&)>& execute) {
  BatchResult<T> out;
  out.results.resize(jobs.size());

  std::mutex m;
  std::condition_variable admit;
  int live = 0;

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // A job wider than the budget is clamped so it can run — alone.
      const int w = std::min(std::max(weight_of(jobs[i]), 1), budget);
      {
        std::unique_lock lock(m);
        admit.wait(lock, [&] { return live + w <= budget; });
        live += w;
      }
      workers.emplace_back([&, i, w] {
        try {
          T result = execute(jobs[i]);
          std::lock_guard lock(m);
          out.results[i] = std::move(result);
        } catch (const std::exception& e) {
          std::lock_guard lock(m);
          out.errors.push_back({i, label_of(jobs[i]), e.what()});
        } catch (...) {
          std::lock_guard lock(m);
          out.errors.push_back({i, label_of(jobs[i]), "unknown error"});
        }
        {
          std::lock_guard lock(m);
          live -= w;
        }
        admit.notify_all();
      });
    }
    for (auto& t : workers) t.join();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::sort(out.errors.begin(), out.errors.end(),
            [](const JobError& a, const JobError& b) {
              return a.index < b.index;
            });
  return out;
}

std::string experiment_label(const ExperimentConfig& cfg) {
  return cfg.app + " P=" + std::to_string(cfg.nranks) +
         " seed=" + std::to_string(cfg.seed);
}

}  // namespace

int experiment_thread_weight(const ExperimentConfig& config) noexcept {
  return config.engine == mpisim::EngineKind::kFibers ? 1 : config.nranks;
}

BatchRunner::BatchRunner(BatchOptions opts)
    : budget_(resolve_budget(opts.thread_budget)), store_(opts.result_store) {}

BatchResult<ExperimentResult> BatchRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  if (store_ == nullptr) {
    return run_weighted<ExperimentResult, ExperimentConfig>(
        configs, budget_, &experiment_thread_weight, &experiment_label,
        [](const ExperimentConfig& c) { return run_experiment(c); });
  }

  // Cache-aware sweep. Probe the store up front (cheap disk reads) so hits
  // never occupy an admission slot, then fan only the misses through the
  // weighted scheduler. Each miss is persisted inside its worker, *before*
  // the job is reported done — that ordering is what makes an interrupted
  // sweep resumable: whatever finished is already on disk.
  const auto start = std::chrono::steady_clock::now();
  BatchResult<ExperimentResult> out;
  out.results.resize(configs.size());

  std::vector<std::size_t> pending;  // indices that must actually run
  std::vector<ExperimentConfig> to_run;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (auto cached = store_->load(configs[i])) {
      out.results[i] = std::move(*cached);
      ++out.cache.hits;
    } else {
      ++out.cache.misses;
      pending.push_back(i);
      to_run.push_back(configs[i]);
    }
  }

  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> store_failures{0};
  store::ResultStore* cache_store = store_;
  auto sub = run_weighted<ExperimentResult, ExperimentConfig>(
      to_run, budget_, &experiment_thread_weight, &experiment_label,
      [cache_store, &stores, &store_failures](const ExperimentConfig& c) {
        ExperimentResult r = run_experiment(c);
        // A persistence failure (disk full, permissions) must not discard a
        // computed result — the sweep just loses resumability for this job.
        if (cache_store->save(r)) {
          stores.fetch_add(1, std::memory_order_relaxed);
        } else {
          store_failures.fetch_add(1, std::memory_order_relaxed);
        }
        return r;
      });

  for (std::size_t s = 0; s < pending.size(); ++s) {
    out.results[pending[s]] = std::move(sub.results[s]);
  }
  for (JobError& e : sub.errors) {
    e.index = pending[e.index];
    out.errors.push_back(std::move(e));
  }
  std::sort(out.errors.begin(), out.errors.end(),
            [](const JobError& a, const JobError& b) {
              return a.index < b.index;
            });
  out.cache.stores = stores.load();
  out.cache.store_failures = store_failures.load();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

BatchResult<netsim::ReplayResult> BatchRunner::run_replays(
    const std::vector<ReplayJob>& jobs) const {
  return run_weighted<netsim::ReplayResult, ReplayJob>(
      jobs, budget_,
      [](const ReplayJob& j) { return std::max(1, j.shards); },
      [](const ReplayJob& j) { return j.label; },
      [](const ReplayJob& j) {
        // replay() reads 0 shards as "hardware concurrency", but the job is
        // charged a single thread, so a count below 1 is a job error.
        if (j.shards < 1) {
          throw Error("replay job '" + j.label + "': shards " +
                      std::to_string(j.shards) + " is below 1");
        }
        HFAST_EXPECTS_MSG(j.trace != nullptr, "replay job without a trace");
        HFAST_EXPECTS_MSG(static_cast<bool>(j.make_network),
                          "replay job without a network factory");
        auto net = j.make_network();
        HFAST_EXPECTS_MSG(net != nullptr, "network factory returned null");
        return netsim::replay(*j.trace, *net, j.params, {.shards = j.shards});
      });
}

std::vector<ExperimentConfig> sweep_configs(
    const std::vector<std::string>& apps, const std::vector<int>& nranks,
    const std::vector<std::uint64_t>& seeds, mpisim::EngineKind engine) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(apps.size() * nranks.size() * seeds.size());
  for (const std::string& app : apps) {
    const apps::App& a = apps::find(app);  // throws for unknown names
    for (int p : nranks) {
      if (!apps::valid_concurrency(a, p)) continue;
      for (std::uint64_t seed : seeds) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.nranks = p;
        cfg.seed = seed;
        cfg.engine = engine;
        configs.push_back(std::move(cfg));
      }
    }
  }
  return configs;
}

}  // namespace hfast::analysis
