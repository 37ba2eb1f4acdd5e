#pragma once
/// \file cli.hpp
/// The one command line of every driver in bench/ and examples/. A driver
/// binds each flag it accepts to the variable the flag sets, then hands its
/// body to Cli::run:
///
///   int nranks = 64;
///   bool check = false;
///   store::CacheCli cache;
///   store::Cli cli("smp_sweep", "SMP provisioning sweep.");
///   cli.ranks(nranks, "tasks per application (default 64)")
///       .engine(engine)
///       .flag("--check", check, "validate the invariants; exit 1 if not");
///   cache.bind(cli);
///   return cli.run(argc, argv, [&] { ...; return 0; });
///
/// Parsing is strict. Numbers are read once with std::from_chars: the whole
/// value, range-checked. Enums go through their parse_* functions. An
/// unknown flag, a missing value, a malformed or out-of-range number, an
/// unknown enum value, an extra positional or a missing required one throws
/// hfast::Error naming the argument; run() prints it with the usage and
/// returns 2. --help prints the usage, generated from the same bindings,
/// and returns 0. An exception escaping the body is printed and returns 1.
///
/// Flags bind to config members directly rather than being derived from
/// store::visit_config_fields: the drivers' spellings are not the field
/// names (--cores-per-node, --packing, --synth-seed), and one flag may set
/// a driver-local value of the same name.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hfast/analysis/batch.hpp"
#include "hfast/collective/schedule.hpp"
#include "hfast/core/reconfigure.hpp"
#include "hfast/core/smp.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/store/store.hpp"
#include "hfast/trace/io.hpp"

namespace hfast::store {

class Cli {
 public:
  /// Upper bound of every count-like value: ranks, windows, iterations,
  /// cores per node, thread budgets.
  static constexpr int kMaxCount = 1 << 20;

  /// `program` prefixes every message; `summary` opens the usage.
  Cli(std::string program, std::string summary);

  /// A switch: present sets `dest` to true.
  Cli& flag(std::string name, bool& dest, std::string help);
  /// An integer in [lo, hi].
  Cli& option(std::string name, int& dest, int lo, int hi,
              std::string metavar, std::string help);
  Cli& option(std::string name, std::uint64_t& dest, std::string metavar,
              std::string help);
  Cli& option(std::string name, std::string& dest, std::string metavar,
              std::string help);
  /// A value read by `parse`, which returns it or throws hfast::Error
  /// (mpisim::parse_engine, core::parse_packing, ...).
  template <typename Dest, typename Parse>
  Cli& option(std::string name, Dest& dest, Parse parse, std::string metavar,
              std::string help) {
    return bind({std::move(name), std::move(metavar), std::move(help),
                 /*positional=*/false, /*required=*/false,
                 [&dest, parse](std::string_view text) {
                   dest = parse(text);
                 }});
  }

  /// Positionals fill in the order they are bound. `ranks` is the optional
  /// concurrency P ("nranks", in [1, kMaxCount]).
  Cli& ranks(int& dest, std::string help);
  Cli& positional(std::string name, std::string& dest, std::string help,
                  bool required);

  /// Flag groups several drivers share, one spelling and help text each:
  /// --engine; --threads (the batch thread budget); --cores-per-node and
  /// --packing; --collective-schedule and --synth-seed; --reconfig-windows
  /// and --reconfig-hysteresis.
  Cli& engine(mpisim::EngineKind& dest);
  Cli& threads(int& dest);
  Cli& smp(core::SmpConfig& dest);
  Cli& collective(hfast::collective::CollectiveConfig& dest);
  Cli& reconfig(core::ReconfigConfig& dest);

  /// Applies argv[1..argc) to the bindings. Returns false when --help was
  /// given; throws hfast::Error naming the argument on bad input.
  bool parse(int argc, const char* const* argv) const;

  std::string usage() const;

  /// parse() then `body`, mapping outcomes to exit statuses as described
  /// at the top of this file.
  int run(int argc, const char* const* argv,
          const std::function<int()>& body) const;

 private:
  struct Binding {
    std::string name;
    std::string metavar;  ///< empty for switches
    std::string help;
    bool positional = false;
    bool required = false;
    std::function<void(std::string_view)> set;
  };

  Cli& bind(Binding binding);

  std::string program_;
  std::string summary_;
  std::vector<Binding> bindings_;
};

using ExperimentBatch = analysis::BatchResult<analysis::ExperimentResult>;

/// --trace-format's parser: text | bin | binary, else hfast::Error.
trace::TraceFormat trace_format_arg(std::string_view name);

/// The result cache's flags, identical on every driver that sweeps:
///
///   --cache-dir DIR   persist completed experiments to DIR and reuse
///                     matching entries on re-runs (resumable sweeps)
///   --no-cache        ignore --cache-dir entirely
///   --cache-verify    validate every entry (CRC + decode) before the run,
///                     evicting corrupt ones
struct CacheCli {
  std::string cache_dir;  ///< empty = caching off
  bool no_cache = false;
  bool verify = false;

  void bind(Cli& cli);

  /// Open the configured store, or nullptr when caching is off. When
  /// `verify` was requested, runs a verify pass (evicting corrupt entries)
  /// and describes it on `diag`.
  std::unique_ptr<ResultStore> open(std::ostream& diag) const;

  /// One-line cache traffic summary ("cache: 6 hits, 6 misses, ...");
  /// no-op when `cache_store` is null.
  static void report(std::ostream& os, const ResultStore* cache_store);

  /// "experiment failed: JOB: MESSAGE" on `diag` for each failed job;
  /// returns batch.ok().
  static bool report_failures(std::ostream& diag,
                              const ExperimentBatch& batch);

  /// When a store is attached: the sweep's "batch cache: ..." line on
  /// `out`, then report() on `diag`.
  static void report_batch(std::ostream& out, std::ostream& diag,
                           const ExperimentBatch& batch,
                           const ResultStore* cache_store);
};

}  // namespace hfast::store
