/// \file trace_convert.cpp
/// Convert a trace file between the text and HTRC binary formats, verify
/// the conversion round-trips losslessly, and report size/time stats —
/// the CLI face of the SoA trace pipeline and the tool CI's trace-format
/// smoke job drives.
///
/// Formats are autodetected from the extension (".htrc" = binary) and, on
/// load, the file's leading magic. Verification reloads OUT and requires
/// nranks, regions and every event column to compare equal to IN's — the
/// conversion is lossless or the exit code is nonzero.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "hfast/store/cli.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/util/assert.hpp"

using namespace hfast;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path, out_path, stats_json;
  std::optional<trace::TraceFormat> out_format;
  bool no_verify = false;
  store::Cli cli("trace_convert",
                 "Convert a trace between the text and HTRC binary formats, "
                 "verifying the\nround trip.");
  cli.positional("IN", in_path, "trace file to read", true)
      .positional("OUT", out_path, "trace file to write", true)
      .option("--trace-format", out_format, store::trace_format_arg,
              "text|bin", "force the OUT format instead of inferring it")
      .option("--stats-json", stats_json, "FILE",
              "append a JSON line with sizes, event counts and load/save "
              "wall times to FILE (\"-\" = stdout)")
      .flag("--no-verify", no_verify, "skip the load-back equality check");
  return cli.run(argc, argv, [&] {
    const bool verify = !no_verify;
    const auto t_load = std::chrono::steady_clock::now();
    const trace::Trace t = trace::load_trace_file(in_path);
    const double load_s = seconds_since(t_load);

    const auto t_save = std::chrono::steady_clock::now();
    trace::save_trace_file(t, out_path, out_format);
    const double save_s = seconds_since(t_save);
    const trace::TraceFormat out_f =
        out_format.value_or(trace::format_for_path(out_path));

    double verify_s = 0.0;
    if (verify) {
      const auto t_verify = std::chrono::steady_clock::now();
      const trace::Trace back = trace::load_trace_file(out_path);
      verify_s = seconds_since(t_verify);
      if (back.nranks() != t.nranks() ||
          back.region_names() != t.region_names() ||
          !(back.columns() == t.columns())) {
        std::cerr << "ROUND-TRIP FAILURE: " << out_path
                  << " does not reproduce " << in_path << "\n";
        return EXIT_FAILURE;
      }
    }

    const auto in_bytes = std::filesystem::file_size(in_path);
    const auto out_bytes = std::filesystem::file_size(out_path);
    std::cout << in_path << " -> " << out_path << " ("
              << trace::trace_format_name(out_f) << "): P=" << t.nranks()
              << ", " << t.events().size() << " events, " << in_bytes
              << " -> " << out_bytes << " bytes"
              << (verify ? ", round-trip verified" : "") << "\n"
              << "  load " << load_s << " s, save " << save_s << " s"
              << (verify ? ", verify-load " + std::to_string(verify_s) + " s"
                         : std::string())
              << "\n";

    if (!stats_json.empty()) {
      std::ostringstream line;
      line << "{\"in\":\"" << in_path << "\",\"out\":\"" << out_path
           << "\",\"out_format\":\"" << trace::trace_format_name(out_f)
           << "\",\"nranks\":" << t.nranks()
           << ",\"events\":" << t.events().size()
           << ",\"in_bytes\":" << in_bytes << ",\"out_bytes\":" << out_bytes
           << ",\"load_s\":" << load_s << ",\"save_s\":" << save_s
           << ",\"verified\":" << (verify ? "true" : "false") << "}\n";
      if (stats_json == "-") {
        std::cout << line.str();
      } else {
        std::ofstream out(stats_json, std::ios::app);
        if (!out) throw hfast::Error("cannot open for writing: " + stats_json);
        out << line.str();
      }
    }
    return 0;
  });
}
