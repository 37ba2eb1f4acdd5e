/// \file store_inspect.cpp
/// Inspect, validate, and garbage-collect an hfast::store directory. With
/// no option it lists every entry (key, app, P, seed, engine, size,
/// validity), then the aggregate stats line.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "hfast/analysis/export.hpp"
#include "hfast/mpisim/engine.hpp"
#include "hfast/store/cli.hpp"
#include "hfast/store/store.hpp"
#include "hfast/util/json.hpp"

using namespace hfast;

namespace {

void print_entry(const store::EntryInfo& e) {
  std::cout << e.path.filename().string() << "  " << e.file_bytes
            << " bytes  ";
  if (e.valid && e.config.has_value()) {
    const auto& c = *e.config;
    std::cout << c.app << " P=" << c.nranks << " seed=" << c.seed << " "
              << mpisim::engine_name(c.engine)
              << (c.capture_trace ? "" : " (no trace)") << "\n";
  } else {
    std::cout << "CORRUPT: " << e.error << "\n";
  }
}

void write_stats_json(const std::string& path, const store::ResultStore& st) {
  const store::StoreStats s = st.stats();
  std::ofstream os(path);
  if (!os) {
    std::cerr << "store_inspect: cannot open " << path << "\n";
    return;
  }
  util::JsonWriter json(os);
  json.begin_object();
  json.field("dir", st.dir().string());
  json.field("entries", static_cast<std::uint64_t>(s.entries));
  json.field("valid", static_cast<std::uint64_t>(s.valid));
  json.field("corrupt", static_cast<std::uint64_t>(s.corrupt));
  json.field("total_bytes", static_cast<std::uint64_t>(s.total_bytes));
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool verify = false;
  bool evict_corrupt = false;
  bool evict_all = false;
  std::optional<std::uint64_t> dump_key;
  std::string stats_json;
  store::Cli cli("store_inspect",
                 "Inspect, validate and garbage-collect a result store "
                 "directory.");
  cli.positional("DIR", dir, "the store directory", true)
      .flag("--verify", verify,
            "re-validate every entry (frame + CRC + full decode) and "
            "report the corrupt ones; exit 1 if any")
      .flag("--evict-corrupt", evict_corrupt,
            "verify, deleting entries that fail validation")
      .flag("--evict-all", evict_all, "empty the store")
      .option("--dump", dump_key, store::ResultStore::parse_key, "KEY",
              "print the entry with the given hex key as JSON")
      .option("--stats-json", stats_json, "FILE",
              "write the aggregate stats as JSON");
  return cli.run(argc, argv, [&] {
    verify = verify || evict_corrupt;
    store::ResultStore st(dir);

    if (evict_all) {
      std::cout << "evicted " << st.evict_all() << " entries\n";
      return EXIT_SUCCESS;
    }

    if (dump_key.has_value()) {
      for (const store::EntryInfo& e : st.list()) {
        if (e.key != *dump_key || !e.valid) continue;
        // Reload through the public path so the dump exercises exactly
        // what a sweep would read.
        if (auto r = st.load(*e.config)) {
          analysis::write_experiment_json(std::cout, *r);
          return EXIT_SUCCESS;
        }
      }
      throw Error("no valid entry " +
                  store::ResultStore::entry_filename(*dump_key));
    }

    if (verify) {
      const store::VerifyReport report = st.verify(evict_corrupt);
      std::cout << "verified " << report.checked << " entries: " << report.ok
                << " ok, " << report.corrupt.size() << " corrupt";
      if (evict_corrupt) std::cout << " (" << report.evicted << " evicted)";
      std::cout << "\n";
      for (const auto& e : report.corrupt) {
        std::cout << "  " << e.path.filename().string() << ": " << e.error
                  << "\n";
      }
      if (!stats_json.empty()) write_stats_json(stats_json, st);
      return report.corrupt.empty() || evict_corrupt ? EXIT_SUCCESS
                                                     : EXIT_FAILURE;
    }

    std::size_t valid = 0;
    std::uintmax_t bytes = 0;
    std::size_t n = 0;
    for (const store::EntryInfo& e : st.list()) {
      print_entry(e);
      ++n;
      bytes += e.file_bytes;
      if (e.valid) ++valid;
    }
    std::cout << n << " entries (" << valid << " valid), " << bytes
              << " bytes in " << st.dir().string() << "\n";
    if (!stats_json.empty()) write_stats_json(stats_json, st);
    return EXIT_SUCCESS;
  });
}
