/// store::Cli — the one command line of every driver. Parsing is strict:
/// every malformed, out-of-range or unknown argument throws hfast::Error
/// naming the argument, and a seeded fuzzer of hostile argv never gets any
/// other exception. Nothing here starts a thread or an experiment: values
/// such as thread budgets are only range-checked.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hfast/store/cli.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::store {
namespace {

/// Every kind of binding a driver uses, with the drivers' defaults.
struct Driver {
  int nranks = 64;
  std::string app = "cactus";
  mpisim::EngineKind engine = mpisim::EngineKind::kThreads;
  int threads = 0;
  core::SmpConfig smp;
  collective::CollectiveConfig coll;
  core::ReconfigConfig reconfig;
  std::optional<trace::TraceFormat> format;
  std::optional<std::uint64_t> dump;
  std::uint64_t seed = 1;
  bool check = false;
  CacheCli cache;
  Cli cli{"driver", "A driver binding every kind of flag."};

  Driver() {
    cli.ranks(nranks, "tasks per application")
        .option("--app", app, "NAME", "application")
        .engine(engine)
        .threads(threads)
        .smp(smp)
        .collective(coll)
        .reconfig(reconfig)
        .option("--trace-format", format, trace_format_arg, "text|bin",
                "trace format")
        .option("--dump", dump, ResultStore::parse_key, "KEY", "entry key")
        .option("--seed", seed, "S", "experiment seed")
        .flag("--check", check, "check invariants");
    cache.bind(cli);
  }
  // The bindings point at this object's members.
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  bool parse(const std::vector<std::string>& args) const {
    std::vector<const char*> argv{"driver"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
  }
};

/// parse(args) throws hfast::Error whose message contains `named`.
void expect_error(const std::vector<std::string>& args,
                  const std::string& named) {
  Driver d;
  try {
    d.parse(args);
    ADD_FAILURE() << "no error for " << ::testing::PrintToString(args);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << "'" << e.what() << "' does not name " << named;
  }
}

TEST(StoreCli, EmptyCommandLineKeepsEveryDefault) {
  Driver d;
  EXPECT_TRUE(d.parse({}));
  EXPECT_EQ(d.nranks, 64);
  EXPECT_EQ(d.engine, mpisim::EngineKind::kThreads);
  EXPECT_EQ(d.smp, core::SmpConfig{});
  EXPECT_EQ(d.coll, collective::CollectiveConfig{});
  EXPECT_EQ(d.reconfig, core::ReconfigConfig{});
  EXPECT_FALSE(d.format.has_value());
  EXPECT_FALSE(d.dump.has_value());
  EXPECT_FALSE(d.check);
  EXPECT_TRUE(d.cache.cache_dir.empty());
}

TEST(StoreCli, EveryBindingReachesItsDestination) {
  Driver d;
  EXPECT_TRUE(d.parse({"256", "--app", "gtc", "--engine", "fibers",
                       "--threads", "8", "--cores-per-node", "4",
                       "--packing", "affinity", "--collective-schedule",
                       "synth", "--synth-seed", "18446744073709551615",
                       "--reconfig-windows", "8", "--reconfig-hysteresis",
                       "0", "--trace-format", "text", "--dump",
                       "00000000000000ff.hfe", "--seed", "7", "--check",
                       "--cache-dir", "store", "--no-cache",
                       "--cache-verify"}));
  EXPECT_EQ(d.nranks, 256);
  EXPECT_EQ(d.app, "gtc");
  EXPECT_EQ(d.engine, mpisim::EngineKind::kFibers);
  EXPECT_EQ(d.threads, 8);
  EXPECT_EQ(d.smp.cores_per_node, 4);
  EXPECT_EQ(d.smp.packing, core::SmpPacking::kAffinity);
  EXPECT_EQ(d.coll.schedule, collective::ScheduleKind::kSynth);
  EXPECT_EQ(d.coll.synth_seed, UINT64_MAX);
  EXPECT_EQ(d.reconfig.num_windows, 8);
  EXPECT_EQ(d.reconfig.hysteresis_windows, 0);
  EXPECT_EQ(d.format, trace::TraceFormat::kText);
  EXPECT_EQ(d.dump, 0xffu);
  EXPECT_EQ(d.seed, 7u);
  EXPECT_TRUE(d.check);
  EXPECT_EQ(d.cache.cache_dir, "store");
  EXPECT_TRUE(d.cache.no_cache);
  EXPECT_TRUE(d.cache.verify);
}

TEST(StoreCli, LaterFlagWins) {
  Driver d;
  EXPECT_TRUE(d.parse({"--threads", "2", "--threads", "3"}));
  EXPECT_EQ(d.threads, 3);
}

TEST(StoreCli, MalformedNumbersNameTheFlag) {
  expect_error({"--threads", "abc"}, "--threads");
  expect_error({"--threads", "1e3"}, "--threads");
  expect_error({"--threads", "12x"}, "--threads");
  expect_error({"--threads", " 5"}, "--threads");
  expect_error({"--threads", "+5"}, "--threads");
  expect_error({"--threads", ""}, "--threads");
  expect_error({"--threads", "-1"}, "--threads");
  expect_error({"--seed", "0x10"}, "--seed");
}

TEST(StoreCli, MissingValueNamesTheFlag) {
  expect_error({"--threads"}, "--threads");
  expect_error({"64", "--cache-dir"}, "--cache-dir");
}

TEST(StoreCli, NegativeAndOverflowingSeedsAreRejected) {
  expect_error({"--synth-seed", "-1"}, "--synth-seed");
  expect_error({"--synth-seed", "18446744073709551616"}, "--synth-seed");
}

TEST(StoreCli, RanksOutsideTheirRangeAreRejected) {
  expect_error({"99999999999"}, "nranks");
  expect_error({"0"}, "nranks");
  expect_error({"-3"}, "nranks");
  expect_error({std::to_string(Cli::kMaxCount + 1)}, "nranks");
  Driver d;
  EXPECT_TRUE(d.parse({std::to_string(Cli::kMaxCount)}));
  EXPECT_EQ(d.nranks, Cli::kMaxCount);
}

TEST(StoreCli, RangesAreCheckedAtParseTime) {
  expect_error({"--threads", std::to_string(Cli::kMaxCount + 1)},
               "--threads");
  expect_error({"--cores-per-node", "0"}, "--cores-per-node");
  expect_error({"--reconfig-windows", "-1"}, "--reconfig-windows");
  expect_error({"--reconfig-hysteresis", "-1"}, "--reconfig-hysteresis");
}

TEST(StoreCli, UnknownEnumValuesNameTheFlag) {
  expect_error({"--engine", "fiber"}, "--engine");
  expect_error({"--packing", "random"}, "--packing");
  expect_error({"--collective-schedule", "tree"}, "--collective-schedule");
  expect_error({"--trace-format", "HTRC"}, "--trace-format");
}

TEST(StoreCli, DumpKeyIsStrictHex) {
  expect_error({"--dump", "zz"}, "--dump");
  expect_error({"--dump", ""}, "--dump");
  expect_error({"--dump", "12345678901234567"}, "--dump");
  expect_error({"--dump", "ff.trace"}, "--dump");
  EXPECT_EQ(ResultStore::parse_key("0xFF"), 0xffu);
  EXPECT_EQ(ResultStore::parse_key(ResultStore::entry_filename(0xabcdefu)),
            0xabcdefu);
}

TEST(StoreCli, UnknownFlagsAndExtraPositionalsAreRejected) {
  expect_error({"--chek"}, "--chek");
  expect_error({"--"}, "--");
  expect_error({"64", "128"}, "128");
  expect_error({"--check=1"}, "--check=1");
}

TEST(StoreCli, RequiredPositionalsMustAppear) {
  std::string in, out;
  Cli cli("convert", "Two required positionals.");
  cli.positional("IN", in, "input", true).positional("OUT", out, "output",
                                                       true);
  const char* one[] = {"convert", "a.trace"};
  try {
    cli.parse(2, one);
    ADD_FAILURE() << "missing OUT accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("OUT"), std::string::npos);
  }
  const char* two[] = {"convert", "a.trace", "b.htrc"};
  EXPECT_TRUE(cli.parse(3, two));
  EXPECT_EQ(in, "a.trace");
  EXPECT_EQ(out, "b.htrc");
}

TEST(StoreCli, HelpStopsParsingAndUsageListsEveryFlag) {
  Driver d;
  EXPECT_FALSE(d.parse({"--help", "--no-such-flag"}));
  const std::string usage = d.cli.usage();
  EXPECT_EQ(usage.rfind("usage: driver [nranks] [options]\n", 0), 0u);
  for (const char* flag :
       {"--app", "--engine", "--threads", "--cores-per-node", "--packing",
        "--collective-schedule", "--synth-seed", "--reconfig-windows",
        "--reconfig-hysteresis", "--trace-format", "--dump", "--seed",
        "--check", "--cache-dir", "--no-cache", "--cache-verify",
        "--help"}) {
    EXPECT_NE(usage.find(std::string("  ") + flag), std::string::npos)
        << flag;
  }
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 80u) << line;
  }
}

TEST(StoreCli, BindingAFlagTwiceIsAContractViolation) {
  bool a = false;
  Cli cli("twice", "");
  cli.flag("--check", a, "");
  EXPECT_THROW(cli.flag("--check", a, ""), ContractViolation);
}

TEST(StoreCli, RunMapsOutcomesToExitStatuses) {
  Driver d;
  const auto run = [&d](std::vector<const char*> argv, auto body) {
    argv.insert(argv.begin(), "driver");
    return d.cli.run(static_cast<int>(argv.size()), argv.data(), body);
  };
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run({}, [] { return 0; }), 0);
  EXPECT_EQ(run({"--help"}, [] { return 5; }), 0);
  EXPECT_EQ(run({"--no-such-flag"}, [] { return 0; }), 2);
  EXPECT_EQ(run({}, []() -> int { throw Error("no store"); }), 1);
  EXPECT_EQ(run({}, []() -> int { throw std::runtime_error("io"); }), 1);
  EXPECT_EQ(run({}, [] { return 3; }), 3);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("usage: driver"), std::string::npos);
  EXPECT_NE(err.find("driver: unknown flag --no-such-flag\n\nusage:"),
            std::string::npos);
  EXPECT_NE(err.find("driver: no store\n"), std::string::npos);
}

TEST(StoreCli, BatchReportsKeepTheirStreams) {
  ExperimentBatch batch;
  batch.errors.push_back({0, "cactus P=64 seed=1", "boom"});
  std::ostringstream out, diag;
  EXPECT_FALSE(CacheCli::report_failures(diag, batch));
  EXPECT_EQ(diag.str(), "experiment failed: cactus P=64 seed=1: boom\n");
  CacheCli::report_batch(out, diag, batch, nullptr);
  EXPECT_TRUE(out.str().empty());
}

TEST(StoreCliFuzz, HostileArgvOnlyEverThrowsError) {
  const std::vector<std::string> pool{
      "--app", "--engine", "--threads", "--cores-per-node", "--packing",
      "--collective-schedule", "--synth-seed", "--reconfig-windows",
      "--reconfig-hysteresis", "--trace-format", "--dump", "--seed",
      "--check", "--cache-dir", "--no-cache", "--cache-verify", "--help",
      "--", "-", "", "0", "1", "-1", "64", "99999999999", "1e3", "0x1f",
      "+4", " 8", "fibers", "threads", "affinity", "synth", "bin", "zz",
      "ffffffffffffffff", "18446744073709551616", "--threads=4", "\xff\xfe",
      std::string(4096, '9')};
  std::mt19937_64 rng(20261020);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  int errors = 0;
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::string> args(pick(7));
    for (std::string& a : args) {
      if (pick(5) == 0) {
        a.resize(pick(12));
        for (char& c : a) c = static_cast<char>(1 + pick(255));
      } else {
        a = pool[pick(pool.size())];
      }
    }
    Driver d;
    try {
      d.parse(args);
      ++accepted;
    } catch (const Error&) {
      ++errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-Error exception '" << e.what() << "' for "
                    << ::testing::PrintToString(args);
    } catch (...) {
      ADD_FAILURE() << "non-std exception for "
                    << ::testing::PrintToString(args);
    }
  }
  EXPECT_GT(errors, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace hfast::store
