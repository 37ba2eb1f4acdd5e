#include "hfast/store/cli.hpp"

#include <charconv>
#include <iostream>
#include <limits>
#include <sstream>

#include "hfast/util/assert.hpp"

namespace hfast::store {

namespace {

/// Whole-value, range-checked integer parse.
template <typename T>
T parse_number(std::string_view text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < lo || v > hi) {
    throw Error("'" + std::string(text) + "' is not an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace

Cli::Cli(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Cli& Cli::bind(Binding binding) {
  for (const Binding& b : bindings_) {
    HFAST_EXPECTS_MSG(b.name != binding.name,
                      "cli: " + b.name + " bound twice");
  }
  bindings_.push_back(std::move(binding));
  return *this;
}

Cli& Cli::flag(std::string name, bool& dest, std::string help) {
  return bind({std::move(name), "", std::move(help), false, false,
               [&dest](std::string_view) { dest = true; }});
}

Cli& Cli::option(std::string name, int& dest, int lo, int hi,
                 std::string metavar, std::string help) {
  return option(
      std::move(name), dest,
      [lo, hi](std::string_view text) { return parse_number(text, lo, hi); },
      std::move(metavar), std::move(help));
}

Cli& Cli::option(std::string name, std::uint64_t& dest, std::string metavar,
                 std::string help) {
  return option(
      std::move(name), dest,
      [](std::string_view text) {
        return parse_number<std::uint64_t>(
            text, 0, std::numeric_limits<std::uint64_t>::max());
      },
      std::move(metavar), std::move(help));
}

Cli& Cli::option(std::string name, std::string& dest, std::string metavar,
                 std::string help) {
  return option(
      std::move(name), dest,
      [](std::string_view text) { return std::string(text); },
      std::move(metavar), std::move(help));
}

Cli& Cli::ranks(int& dest, std::string help) {
  return bind({"nranks", "", std::move(help), true, false,
               [&dest](std::string_view text) {
                 dest = parse_number(text, 1, kMaxCount);
               }});
}

Cli& Cli::positional(std::string name, std::string& dest, std::string help,
                     bool required) {
  return bind({std::move(name), "", std::move(help), true, required,
               [&dest](std::string_view text) { dest = text; }});
}

Cli& Cli::engine(mpisim::EngineKind& dest) {
  return option("--engine", dest, mpisim::parse_engine, "threads|fibers",
                "rank execution engine (default " +
                    std::string(mpisim::engine_name(dest)) + ")");
}

Cli& Cli::threads(int& dest) {
  return option("--threads", dest, 0, kMaxCount, "N",
                "live-thread budget for the batch engine "
                "(default 0 = 4x hardware concurrency)");
}

Cli& Cli::smp(core::SmpConfig& dest) {
  return option("--cores-per-node", dest.cores_per_node, 1, kMaxCount, "C",
                "SMP mode: pack C tasks per node and size the fabric from "
                "the node-level quotient graph (default " +
                    std::to_string(dest.cores_per_node) + ")")
      .option("--packing", dest.packing, core::parse_packing,
              "rank-order|affinity",
              "task-to-node packing policy (default " +
                  std::string(core::packing_name(dest.packing)) + ")");
}

Cli& Cli::collective(hfast::collective::CollectiveConfig& dest) {
  std::string kinds;
  for (const auto kind : hfast::collective::all_schedule_kinds()) {
    kinds += (kinds.empty() ? "" : ", ") +
             std::string(hfast::collective::schedule_name(kind));
  }
  return option("--collective-schedule", dest.schedule,
                hfast::collective::parse_schedule, "S",
                "collective lowering schedule (default " +
                    std::string(hfast::collective::schedule_name(
                        dest.schedule)) +
                    "): " + kinds)
      .option("--synth-seed", dest.synth_seed, "N",
              "synthesis search seed for --collective-schedule synth "
              "(default " + std::to_string(dest.synth_seed) +
                  "; part of the cache and memo keys)");
}

Cli& Cli::reconfig(core::ReconfigConfig& dest) {
  return option("--reconfig-windows", dest.num_windows, 0, kMaxCount, "W",
                "time-windowed reconfiguration: W trace windows "
                "(default " + std::to_string(dest.num_windows) +
                    " = static fabric)")
      .option("--reconfig-hysteresis", dest.hysteresis_windows, 0, kMaxCount,
              "H",
              "windows an idle circuit survives before teardown "
              "(default " + std::to_string(dest.hysteresis_windows) + ")");
}

bool Cli::parse(int argc, const char* const* argv) const {
  std::size_t next_positional = 0;
  const auto positional_at = [this](std::size_t k) -> const Binding* {
    for (const Binding& b : bindings_) {
      if (b.positional && k-- == 0) return &b;
    }
    return nullptr;
  };
  const auto apply = [](const Binding& b, std::string_view text) {
    try {
      b.set(text);
    } catch (const Error& e) {
      throw Error(b.name + ": " + e.what());
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") return false;
    if (arg.substr(0, 2) != "--") {
      const Binding* b = positional_at(next_positional++);
      if (b == nullptr) {
        throw Error("unexpected argument '" + std::string(arg) + "'");
      }
      apply(*b, arg);
      continue;
    }
    const Binding* b = nullptr;
    for (const Binding& candidate : bindings_) {
      if (!candidate.positional && candidate.name == arg) b = &candidate;
    }
    if (b == nullptr) throw Error("unknown flag " + std::string(arg));
    if (b->metavar.empty()) {
      apply(*b, "");
    } else if (i + 1 >= argc) {
      throw Error("missing value for " + b->name);
    } else {
      apply(*b, argv[++i]);
    }
  }
  for (const Binding* b = positional_at(next_positional); b != nullptr;
       b = positional_at(++next_positional)) {
    if (b->required) throw Error("missing required argument " + b->name);
  }
  return true;
}

std::string Cli::usage() const {
  std::string out = "usage: " + program_;
  for (const Binding& b : bindings_) {
    if (b.positional) out += b.required ? " " + b.name : " [" + b.name + "]";
  }
  out += " [options]\n" + summary_ + "\n\n";
  // Help text starts at column 24 and is word-wrapped at 80.
  constexpr std::size_t kHelpColumn = 24;
  constexpr std::size_t kWidth = 80;
  const auto add = [&out](const std::string& left, const std::string& help) {
    std::string line = "  " + left;
    if (line.size() + 2 > kHelpColumn) {
      out += line + "\n";
      line.clear();
    }
    line.resize(kHelpColumn, ' ');
    std::istringstream words(help);
    std::string word;
    while (words >> word) {
      if (line.size() > kHelpColumn &&
          line.size() + 1 + word.size() > kWidth) {
        out += line + "\n";
        line.assign(kHelpColumn, ' ');
      }
      line += (line.size() > kHelpColumn ? " " : "") + word;
    }
    out += line + "\n";
  };
  for (const Binding& b : bindings_) {
    add(b.metavar.empty() ? b.name : b.name + " " + b.metavar, b.help);
  }
  add("--help", "print this help and exit");
  return out;
}

int Cli::run(int argc, const char* const* argv,
             const std::function<int()>& body) const {
  try {
    if (!parse(argc, argv)) {
      std::cout << usage();
      return 0;
    }
  } catch (const Error& e) {
    std::cerr << program_ << ": " << e.what() << "\n\n" << usage();
    return 2;
  }
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << program_ << ": " << e.what() << "\n";
    return 1;
  }
}

trace::TraceFormat trace_format_arg(std::string_view name) {
  const auto format = trace::parse_trace_format(name);
  if (!format.has_value()) {
    throw Error("unknown trace format '" + std::string(name) +
                "' (expected text|bin)");
  }
  return *format;
}

void CacheCli::bind(Cli& cli) {
  cli.option("--cache-dir", cache_dir, "DIR",
             "persist completed experiments to DIR; re-runs load "
             "matching entries instead of recomputing")
      .flag("--no-cache", no_cache, "ignore --cache-dir")
      .flag("--cache-verify", verify,
            "validate all entries before the run, evicting corrupt ones");
}

std::unique_ptr<ResultStore> CacheCli::open(std::ostream& diag) const {
  if (cache_dir.empty() || no_cache) return nullptr;
  auto cache_store = std::make_unique<ResultStore>(cache_dir);
  if (verify) {
    const VerifyReport report = cache_store->verify(/*evict_corrupt=*/true);
    diag << "cache: verified " << report.checked << " entries, " << report.ok
         << " ok, " << report.corrupt.size() << " corrupt ("
         << report.evicted << " evicted)\n";
  }
  return cache_store;
}

void CacheCli::report(std::ostream& os, const ResultStore* cache_store) {
  if (cache_store == nullptr) return;
  const CacheCounters c = cache_store->counters();
  const std::vector<EntryFile> files = cache_store->files();
  std::uintmax_t bytes = 0;
  for (const EntryFile& f : files) bytes += f.bytes;
  os << "cache: " << c.hits << " hits, " << c.misses << " misses ("
     << c.corrupt_misses << " corrupt), " << c.stores << " stored";
  if (c.store_failures > 0) os << ", " << c.store_failures << " store failures";
  os << "; " << cache_store->dir().string() << ": " << files.size()
     << " entries, " << bytes << " bytes\n";
}

bool CacheCli::report_failures(std::ostream& diag,
                               const ExperimentBatch& batch) {
  for (const auto& e : batch.errors) {
    diag << "experiment failed: " << e.job << ": " << e.message << "\n";
  }
  return batch.ok();
}

void CacheCli::report_batch(std::ostream& out, std::ostream& diag,
                            const ExperimentBatch& batch,
                            const ResultStore* cache_store) {
  if (cache_store == nullptr) return;
  out << "batch cache: " << batch.cache.hits << " hits, "
      << batch.cache.misses << " misses, " << batch.cache.stores
      << " stored\n";
  report(diag, cache_store);
}

}  // namespace hfast::store
